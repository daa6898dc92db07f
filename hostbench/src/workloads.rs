//! The benchmark's workloads: which cells run, at what scale and seed, and
//! the reference outputs each run is checked against.

use std::collections::BTreeMap;

use pthammer_harness::{
    cell_seed, CampaignConfig, CampaignReport, CellCoord, CellPerf, CellReport, DefenseChoice,
    MachineChoice, ProfileChoice, ScenarioMatrix,
};

/// Base seed of the pinned CI matrix golden snapshot (and of the
/// `table1_cell_lenovo_t420` perf workload).
pub const CI_GOLDEN_SEED: u64 = 0x7453_4861_4d21;
/// Base seed of the pinned TRR/pattern matrix golden snapshot.
pub const TRR_GOLDEN_SEED: u64 = 0x5452_5265_7263;
/// Distance between the base seeds of one run's campaign instances; runs at
/// different `--seed` values below 2^32 never share an instance.
const INSTANCE_STRIDE: u64 = 1 << 32;

/// Schema version the harness stamps on campaign reports. The harness keeps
/// its constant crate-private; a bump there changes the golden snapshots,
/// so the output check below fails loudly rather than silently.
const REPORT_SCHEMA_VERSION: u32 = 1;

const CI_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/campaign_ci_matrix.json"
);
const TRR_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/campaign_trr_matrix.json"
);
const PERF_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_perf.json");
/// The `BENCH_perf.json` workload `t420_cells` repetition 0 reproduces.
const T420_PERF_WORKLOAD: &str = "table1_cell_lenovo_t420";

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CiMatrix,
    TrrMatrix,
    T420Cells,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CiMatrix, Kind::TrrMatrix, Kind::T420Cells];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CiMatrix => "ci_matrix",
            Kind::TrrMatrix => "trr_matrix",
            Kind::T420Cells => "t420_cells",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Campaign instances in one run's input. Enough that one pass over them
    /// fills a run and averages several seeds' luck, and, for `t420_cells`,
    /// that `cell_tail_s` has at least eleven cells to read.
    pub fn instances(self) -> u64 {
        match self {
            Kind::CiMatrix => 1,
            Kind::TrrMatrix => 4,
            Kind::T420Cells => 6,
        }
    }

    /// The base seed the workload's reference outputs were recorded at.
    pub fn golden_seed(self) -> u64 {
        match self {
            Kind::CiMatrix | Kind::T420Cells => CI_GOLDEN_SEED,
            Kind::TrrMatrix => TRR_GOLDEN_SEED,
        }
    }
}

/// What a run's outputs are compared with at the golden seed.
enum Reference {
    /// Canonical campaign JSON the assembled report must equal byte for byte.
    Report(String),
    /// Exact simulator counters repetition 0 must reproduce.
    Counters(BTreeMap<String, u64>),
}

/// One generated workload: the campaign matrix, its configuration and the
/// reference outputs.
///
/// A run's input is [`Kind::instances`] *instances* of the campaign, each at
/// its own base seed: instance `k` of `--seed n` runs at the golden seed plus
/// `n + k * 2^32`. How much work a cell does depends on its seed (an attack
/// that escalates at its first attempt stops early), so averaging instances
/// keeps one seed's luck from deciding a run's figures. Instance 0 of
/// `--seed 0` is the golden campaign.
pub struct Workload {
    pub kind: Kind,
    matrix: ScenarioMatrix,
    pub cells: Vec<CellCoord>,
    offset: u64,
    config: CampaignConfig,
    reference: Reference,
}

impl Workload {
    /// Generates the workload for `--seed offset`. The reference outputs are
    /// loaded at every seed, so set-up time does not depend on it.
    pub fn generate(kind: Kind, offset: u64) -> Result<Workload, String> {
        let base_seed = kind.golden_seed();
        let (matrix, config, reference) = match kind {
            Kind::CiMatrix => (
                ScenarioMatrix::ci_default(),
                CampaignConfig::ci(base_seed),
                Reference::Report(read(CI_GOLDEN)?),
            ),
            Kind::TrrMatrix => (
                ScenarioMatrix::trr_pattern_ci(),
                CampaignConfig::trr_ci(base_seed),
                Reference::Report(read(TRR_GOLDEN)?),
            ),
            Kind::T420Cells => (
                ScenarioMatrix::new(
                    vec![MachineChoice::LenovoT420],
                    vec![DefenseChoice::None],
                    vec![ProfileChoice::Fast],
                    2,
                ),
                CampaignConfig::ci(base_seed),
                Reference::Counters(perf_counters(&read(PERF_BASELINE)?, T420_PERF_WORKLOAD)?),
            ),
        };
        matrix.validate()?;
        Ok(Workload {
            kind,
            cells: matrix.cells(),
            matrix,
            offset,
            config,
            reference,
        })
    }

    /// The campaign configuration of instance `k`.
    pub fn config(&self, k: u64) -> CampaignConfig {
        let offset = self.offset.wrapping_add(k.wrapping_mul(INSTANCE_STRIDE));
        CampaignConfig {
            base_seed: self.kind.golden_seed().wrapping_add(offset),
            ..self.config.clone()
        }
    }

    /// Whether instance `k` is the golden campaign.
    pub fn is_golden(&self, k: u64) -> bool {
        self.config(k).base_seed == self.kind.golden_seed()
    }

    /// Checks what holds for the row of cell `i` of instance `k` at any
    /// seed: it describes its own cell and seed, flips only where the DRAM
    /// can flip, and never counts more exploitable flips than flips.
    pub fn check_row(&self, k: u64, i: usize, row: &CellReport) -> Result<(), String> {
        let coord = &self.cells[i];
        let seed = cell_seed(self.config(k).base_seed, coord);
        let describes_cell = row.machine == coord.machine.name()
            && row.defense == coord.defense.kind()
            && row.profile == coord.profile.name()
            && row.hammer_mode == coord.hammer_mode
            && row.pattern == coord.pattern
            && row.victim == coord.victim
            && row.repetition == coord.repetition
            && row.cell_seed == seed;
        let flips_possible = coord.profile != ProfileChoice::Invulnerable
            || (row.flips_observed == 0 && !row.escalated);
        if describes_cell && flips_possible && row.exploitable_flips <= row.flips_observed {
            Ok(())
        } else {
            Err(format!(
                "row {row:?} is inconsistent with its cell {coord:?}"
            ))
        }
    }

    /// Checks the complete golden pass (rows and perf in matrix order)
    /// against the reference outputs.
    pub fn check_reference(&self, pass: &[(CellReport, CellPerf)]) -> Result<(), String> {
        let config = self.config(0);
        match &self.reference {
            Reference::Report(golden) => {
                let rows = pass.iter().map(|(row, _)| row.clone()).collect();
                let json = self.canonical_report(&config, rows);
                if &json == golden {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: canonical report differs from the golden snapshot ({})",
                        self.kind.name(),
                        first_diff(golden, &json)
                    ))
                }
            }
            Reference::Counters(expected) => {
                let (_, perf) = &pass[0];
                let mut counters = perf.counters.named();
                counters.insert("hammer_iterations".to_string(), perf.hammer_iterations);
                counters.insert("sim_cycles".to_string(), perf.sim_cycles);
                if &counters == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: repetition 0 counters {counters:?} differ from {T420_PERF_WORKLOAD} \
                         in BENCH_perf.json {expected:?}",
                        self.kind.name()
                    ))
                }
            }
        }
    }

    /// The campaign report the harness would emit for these rows.
    fn canonical_report(&self, config: &CampaignConfig, rows: Vec<CellReport>) -> String {
        CampaignReport {
            schema_version: REPORT_SCHEMA_VERSION,
            base_seed: config.base_seed,
            matrix: self.matrix.clone(),
            superpages: config.superpages,
            summaries: CampaignReport::summarize(&self.matrix, &rows),
            cells: rows,
        }
        .to_canonical_json()
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read reference output {path}: {e}"))
}

/// The exact counters of one workload of a `BENCH_perf.json` text.
fn perf_counters(text: &str, workload: &str) -> Result<BTreeMap<String, u64>, String> {
    let value = serde_json::from_str(text).map_err(|e| format!("BENCH_perf.json: {e}"))?;
    let entry = value
        .get("workloads")
        .and_then(|w| w.as_array())
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload))
        })
        .ok_or_else(|| format!("BENCH_perf.json has no workload `{workload}`"))?;
    let counters = entry
        .get("counters")
        .and_then(|c| c.as_object())
        .ok_or_else(|| format!("BENCH_perf.json workload `{workload}` has no counters"))?;
    counters
        .iter()
        .map(|(name, v)| {
            v.as_u64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("BENCH_perf.json counter `{name}` is not a count"))
        })
        .collect()
}

/// Pointer at the first differing line of two texts.
fn first_diff(a: &str, b: &str) -> String {
    match a.lines().zip(b.lines()).position(|(la, lb)| la != lb) {
        Some(i) => format!(
            "line {}: `{}` vs `{}`",
            i + 1,
            a.lines().nth(i).unwrap_or_default(),
            b.lines().nth(i).unwrap_or_default()
        ),
        None => format!("lengths differ: {} vs {} bytes", a.len(), b.len()),
    }
}
