//! Campaign results: per-cell rows, per-defense summaries, canonical JSON.

use pthammer::{HammerMode, VictimChoice};
use pthammer_kernel::DefenseKind;
use pthammer_patterns::PatternChoice;
use serde::ser::JsonWriter;
use serde::{Deserialize, Serialize};

use crate::matrix::ScenarioMatrix;

/// Version stamp of the report schema; bump when the JSON layout changes so
/// golden snapshots fail loudly instead of mysteriously.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Outcome of one campaign cell (one attack run).
///
/// Decoding is derived: the keys the hand-written `Serialize` omits for
/// default rows are `#[serde(default)]`, so every stored row decodes back
/// to the exact report (store-backed resume and merge depend on it).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct CellReport {
    /// Machine name (coordinate).
    pub machine: String,
    /// Defense (coordinate), typed; serializes as its display name.
    pub defense: DefenseKind,
    /// Weak-cell profile name (coordinate).
    pub profile: String,
    /// Hammer strategy the cell ran (coordinate). Serialized only for
    /// non-default modes, so pre-axis snapshots stay byte-identical.
    #[serde(default)]
    pub hammer_mode: HammerMode,
    /// Many-sided pattern source the cell ran, if any (coordinate).
    /// Serialized only when present (pre-axis snapshots stay
    /// byte-identical).
    #[serde(default)]
    pub pattern: Option<PatternChoice>,
    /// Victim the cell's `Exploit` phase drove, if explicitly swept
    /// (coordinate). Serialized only when present (pre-axis snapshots stay
    /// byte-identical); presence also gates the `exploit_succeeded` /
    /// `time_to_exploit` keys below.
    #[serde(default)]
    pub victim: Option<VictimChoice>,
    /// Repetition index (coordinate).
    pub repetition: u32,
    /// The seed derived from the coordinates (for reproducing this cell in
    /// isolation).
    pub cell_seed: u64,
    /// Whether kernel privilege escalation succeeded.
    pub escalated: bool,
    /// Hammer attempts performed.
    pub attempts: usize,
    /// Bit flips observed (including unexploitable ones).
    pub flips_observed: usize,
    /// Exploitable flips (captured an L1PT or cred page).
    pub exploitable_flips: usize,
    /// Targeted refreshes the machine's TRR mitigation issued during the
    /// cell (0 on TRR-free machines). Serialized only when non-zero, so
    /// pre-TRR snapshots stay byte-identical.
    #[serde(default)]
    pub trr_refreshes: u64,
    /// Fraction of hammer iterations whose L1PTE loads reached DRAM.
    pub implicit_dram_rate: f64,
    /// Simulated seconds until the first flip, if one occurred.
    pub seconds_to_first_flip: Option<f64>,
    /// Simulated seconds until escalation, if it happened.
    pub seconds_to_escalation: Option<f64>,
    /// Whether the cell's victim attack succeeded. Populated (and
    /// serialized) only for explicit-victim cells.
    #[serde(default)]
    pub exploit_succeeded: Option<bool>,
    /// Double-sided hammer iterations performed before the victim attack
    /// succeeded. Populated (and serialized) only for explicit-victim cells;
    /// `null` there when the exploit never succeeded.
    #[serde(default)]
    pub time_to_exploit: Option<u64>,
    /// Escalation route (the victim outcome's route label), if the exploit
    /// escalated or recovered key material.
    pub route: Option<String>,
    /// Error description if the attack aborted instead of completing.
    pub error: Option<String>,
}

// Hand-written: `defense` serializes as its display name; `hammer_mode` is
// emitted only when it is not the paper default, `pattern` and `victim`
// (with its `exploit_succeeded` / `time_to_exploit` outcome keys) only when
// present, and `trr_refreshes` only when non-zero — the golden snapshot
// predates those axes and must stay byte-identical.
impl Serialize for CellReport {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("machine");
        self.machine.serialize(w);
        w.key("defense");
        self.defense.serialize(w);
        w.key("profile");
        self.profile.serialize(w);
        if !self.hammer_mode.is_default() {
            w.key("hammer_mode");
            w.string(self.hammer_mode.name());
        }
        if let Some(pattern) = self.pattern {
            w.key("pattern");
            w.string(pattern.name());
        }
        if let Some(victim) = self.victim {
            w.key("victim");
            w.string(victim.name());
        }
        w.key("repetition");
        self.repetition.serialize(w);
        w.key("cell_seed");
        self.cell_seed.serialize(w);
        w.key("escalated");
        self.escalated.serialize(w);
        w.key("attempts");
        self.attempts.serialize(w);
        w.key("flips_observed");
        self.flips_observed.serialize(w);
        w.key("exploitable_flips");
        self.exploitable_flips.serialize(w);
        if self.trr_refreshes != 0 {
            w.key("trr_refreshes");
            self.trr_refreshes.serialize(w);
        }
        w.key("implicit_dram_rate");
        self.implicit_dram_rate.serialize(w);
        w.key("seconds_to_first_flip");
        self.seconds_to_first_flip.serialize(w);
        w.key("seconds_to_escalation");
        self.seconds_to_escalation.serialize(w);
        if self.victim.is_some() {
            w.key("exploit_succeeded");
            self.exploit_succeeded.serialize(w);
            w.key("time_to_exploit");
            self.time_to_exploit.serialize(w);
        }
        w.key("route");
        self.route.serialize(w);
        w.key("error");
        self.error.serialize(w);
        w.end_object();
    }
}

/// Aggregates over all cells sharing one (defense, profile, hammer-mode)
/// combination.
///
/// Summaries are split by weak-cell profile so control groups (e.g. the
/// `invulnerable` profile) can never dilute a defense's headline escalation
/// rate, and by hammer mode so strategy sweeps stay comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseSummary {
    /// Defense, typed; serializes as its display name.
    pub defense: DefenseKind,
    /// Weak-cell profile name the cells ran with.
    pub profile: String,
    /// Hammer strategy the cells ran. Serialized only for non-default
    /// modes (golden-snapshot compatibility).
    pub hammer_mode: HammerMode,
    /// Pattern source the cells ran, if any. Serialized only when present
    /// (golden-snapshot compatibility).
    pub pattern: Option<PatternChoice>,
    /// Victim the cells drove, if explicitly swept. Serialized only when
    /// present (golden-snapshot compatibility); presence also gates the
    /// `exploit_successes` / `mean_time_to_exploit` keys below.
    pub victim: Option<VictimChoice>,
    /// Number of cells aggregated (including errored ones).
    pub cells: usize,
    /// Cells that aborted with an error; excluded from every rate and mean
    /// below so environmental failures never masquerade as defense wins.
    pub errored_cells: usize,
    /// Completed cells where escalation succeeded.
    pub escalations: usize,
    /// Escalation rate over the defense's completed cells.
    pub escalation_rate: f64,
    /// Completed cells that observed at least one flip.
    pub flip_cells: usize,
    /// Mean observed flips per completed cell.
    pub mean_flips: f64,
    /// Mean exploitable flips per completed cell.
    pub mean_exploitable_flips: f64,
    /// Mean implicit DRAM rate over completed cells.
    pub mean_implicit_dram_rate: f64,
    /// Mean simulated seconds to first flip over cells that flipped.
    pub mean_seconds_to_first_flip: Option<f64>,
    /// Completed cells whose victim attack succeeded. Populated (and
    /// serialized) only for explicit-victim rows.
    pub exploit_successes: Option<usize>,
    /// Mean hammer iterations to a successful exploit over cells that
    /// succeeded. Populated (and serialized) only for explicit-victim rows;
    /// `null` there when no cell succeeded.
    pub mean_time_to_exploit: Option<f64>,
    /// Escalation-rate delta against the undefended baseline on the same
    /// profile and mode (`None` when the campaign has no undefended cells
    /// for it).
    pub escalation_rate_delta_vs_undefended: Option<f64>,
}

impl Serialize for DefenseSummary {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("defense");
        self.defense.serialize(w);
        w.key("profile");
        self.profile.serialize(w);
        if !self.hammer_mode.is_default() {
            w.key("hammer_mode");
            w.string(self.hammer_mode.name());
        }
        if let Some(pattern) = self.pattern {
            w.key("pattern");
            w.string(pattern.name());
        }
        if let Some(victim) = self.victim {
            w.key("victim");
            w.string(victim.name());
        }
        w.key("cells");
        self.cells.serialize(w);
        w.key("errored_cells");
        self.errored_cells.serialize(w);
        w.key("escalations");
        self.escalations.serialize(w);
        w.key("escalation_rate");
        self.escalation_rate.serialize(w);
        w.key("flip_cells");
        self.flip_cells.serialize(w);
        w.key("mean_flips");
        self.mean_flips.serialize(w);
        w.key("mean_exploitable_flips");
        self.mean_exploitable_flips.serialize(w);
        w.key("mean_implicit_dram_rate");
        self.mean_implicit_dram_rate.serialize(w);
        w.key("mean_seconds_to_first_flip");
        self.mean_seconds_to_first_flip.serialize(w);
        if self.victim.is_some() {
            w.key("exploit_successes");
            self.exploit_successes.serialize(w);
            w.key("mean_time_to_exploit");
            self.mean_time_to_exploit.serialize(w);
        }
        w.key("escalation_rate_delta_vs_undefended");
        self.escalation_rate_delta_vs_undefended.serialize(w);
        w.end_object();
    }
}

/// Complete campaign result: inputs, per-cell rows, per-defense summaries.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignReport {
    /// Schema version of this report.
    pub schema_version: u32,
    /// Campaign base seed.
    pub base_seed: u64,
    /// The matrix that was run.
    pub matrix: ScenarioMatrix,
    /// Whether the attack ran in the superpage setting.
    pub superpages: bool,
    /// One row per cell, in canonical matrix order.
    pub cells: Vec<CellReport>,
    /// One summary per (defense, profile, mode) combination, in matrix axis
    /// order.
    pub summaries: Vec<DefenseSummary>,
}

impl CampaignReport {
    /// Renders the report as canonical pretty JSON (stable field order, fixed
    /// float formatting, `\n` line endings, trailing newline). Byte-stable
    /// across thread counts and platforms for identical campaigns.
    pub fn to_canonical_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("report serializes");
        json.push('\n');
        json
    }

    /// Builds one summary per (defense, profile, hammer-mode) axis
    /// combination, aggregating cells in row order. Errored cells are
    /// counted in [`DefenseSummary::errored_cells`] and excluded from every
    /// rate and mean. Exposed for the campaign runner and tests.
    pub fn summarize(matrix: &ScenarioMatrix, cells: &[CellReport]) -> Vec<DefenseSummary> {
        let mut summaries = Vec::new();
        for d in &matrix.defenses {
            for p in &matrix.profiles {
                for &m in &matrix.hammer_modes {
                    for &pat in &matrix.patterns {
                        for &vic in &matrix.victims {
                            let rows: Vec<&CellReport> = cells
                                .iter()
                                .filter(|c| {
                                    c.defense == d.kind()
                                        && c.profile == p.name()
                                        && c.hammer_mode == m
                                        && c.pattern == pat
                                        && c.victim == vic
                                })
                                .collect();
                            let completed: Vec<&CellReport> =
                                rows.iter().filter(|c| c.error.is_none()).copied().collect();
                            let n = completed.len();
                            let escalations = completed.iter().filter(|c| c.escalated).count();
                            let flip_cells =
                                completed.iter().filter(|c| c.flips_observed > 0).count();
                            let escalation_rate = if n == 0 {
                                0.0
                            } else {
                                escalations as f64 / n as f64
                            };
                            let mean = |f: &dyn Fn(&CellReport) -> f64| {
                                if n == 0 {
                                    0.0
                                } else {
                                    completed.iter().map(|c| f(c)).sum::<f64>() / n as f64
                                }
                            };
                            let first_flip: Vec<f64> = completed
                                .iter()
                                .filter_map(|c| c.seconds_to_first_flip)
                                .collect();
                            let exploit_times: Vec<f64> = completed
                                .iter()
                                .filter_map(|c| c.time_to_exploit)
                                .map(|t| t as f64)
                                .collect();
                            let baseline_rate = {
                                let base: Vec<&CellReport> = cells
                                    .iter()
                                    .filter(|c| {
                                        c.defense == DefenseKind::Undefended
                                            && c.profile == p.name()
                                            && c.hammer_mode == m
                                            && c.pattern == pat
                                            && c.victim == vic
                                            && c.error.is_none()
                                    })
                                    .collect();
                                if base.is_empty() {
                                    None
                                } else {
                                    Some(
                                        base.iter().filter(|c| c.escalated).count() as f64
                                            / base.len() as f64,
                                    )
                                }
                            };
                            summaries.push(DefenseSummary {
                                defense: d.kind(),
                                profile: p.name().to_string(),
                                hammer_mode: m,
                                pattern: pat,
                                victim: vic,
                                cells: rows.len(),
                                errored_cells: rows.len() - n,
                                escalations,
                                escalation_rate,
                                flip_cells,
                                mean_flips: mean(&|c| c.flips_observed as f64),
                                mean_exploitable_flips: mean(&|c| c.exploitable_flips as f64),
                                mean_implicit_dram_rate: mean(&|c| c.implicit_dram_rate),
                                mean_seconds_to_first_flip: if first_flip.is_empty() {
                                    None
                                } else {
                                    Some(first_flip.iter().sum::<f64>() / first_flip.len() as f64)
                                },
                                exploit_successes: vic.map(|_| {
                                    completed
                                        .iter()
                                        .filter(|c| c.exploit_succeeded == Some(true))
                                        .count()
                                }),
                                mean_time_to_exploit: if vic.is_none() || exploit_times.is_empty() {
                                    None
                                } else {
                                    Some(
                                        exploit_times.iter().sum::<f64>()
                                            / exploit_times.len() as f64,
                                    )
                                },
                                escalation_rate_delta_vs_undefended: baseline_rate
                                    .map(|base| escalation_rate - base),
                            });
                        }
                    }
                }
            }
        }
        summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ProfileChoice, ScenarioMatrix};
    use proptest::prelude::*;
    use pthammer_defenses::DefenseChoice;
    use pthammer_machine::MachineChoice;

    fn cell(defense: DefenseChoice, escalated: bool, flips: usize) -> CellReport {
        CellReport {
            machine: "Test Small".into(),
            defense: defense.kind(),
            profile: "ci".into(),
            hammer_mode: HammerMode::default(),
            pattern: None,
            victim: None,
            repetition: 0,
            cell_seed: 1,
            escalated,
            attempts: 2,
            flips_observed: flips,
            exploitable_flips: usize::from(escalated),
            trr_refreshes: 0,
            implicit_dram_rate: 0.9,
            seconds_to_first_flip: if flips > 0 { Some(1.5) } else { None },
            seconds_to_escalation: None,
            exploit_succeeded: None,
            time_to_exploit: None,
            route: None,
            error: None,
        }
    }

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None, DefenseChoice::Zebram],
            vec![ProfileChoice::Ci],
            2,
        )
    }

    #[test]
    fn summaries_aggregate_per_defense() {
        let cells = vec![
            cell(DefenseChoice::None, true, 3),
            cell(DefenseChoice::None, true, 1),
            cell(DefenseChoice::Zebram, false, 2),
            cell(DefenseChoice::Zebram, false, 0),
        ];
        let summaries = CampaignReport::summarize(&matrix(), &cells);
        assert_eq!(summaries.len(), 2);
        let none = &summaries[0];
        assert_eq!(none.defense, DefenseKind::Undefended);
        assert_eq!(none.profile, "ci");
        assert_eq!(none.escalations, 2);
        assert!((none.escalation_rate - 1.0).abs() < 1e-12);
        assert!((none.mean_flips - 2.0).abs() < 1e-12);
        assert_eq!(none.escalation_rate_delta_vs_undefended, Some(0.0));
        let zebram = &summaries[1];
        assert_eq!(zebram.escalations, 0);
        assert_eq!(zebram.flip_cells, 1);
        assert_eq!(zebram.escalation_rate_delta_vs_undefended, Some(-1.0));
    }

    #[test]
    fn control_profiles_do_not_dilute_vulnerable_rates() {
        // Same defense on two profiles: the ci cells escalate, the
        // invulnerable control cells cannot. Per-profile summaries must keep
        // the ci escalation rate at 1.0 instead of averaging it down to 0.5.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            1,
        );
        let mut control = cell(DefenseChoice::None, false, 0);
        control.profile = "invulnerable".into();
        let cells = vec![cell(DefenseChoice::None, true, 2), control];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].profile, "ci");
        assert!((summaries[0].escalation_rate - 1.0).abs() < 1e-12);
        assert_eq!(summaries[1].profile, "invulnerable");
        assert!((summaries[1].escalation_rate - 0.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_split_by_hammer_mode() {
        // A two-mode sweep: the default mode escalates, the explicit
        // baseline does not. Summaries must keep the rates apart and use
        // per-mode undefended baselines.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            1,
        )
        .with_hammer_modes(vec![
            HammerMode::ImplicitDoubleSided,
            HammerMode::ExplicitDoubleSided,
        ]);
        let mut explicit = cell(DefenseChoice::None, false, 0);
        explicit.hammer_mode = HammerMode::ExplicitDoubleSided;
        let cells = vec![cell(DefenseChoice::None, true, 2), explicit];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].hammer_mode, HammerMode::ImplicitDoubleSided);
        assert!((summaries[0].escalation_rate - 1.0).abs() < 1e-12);
        assert_eq!(summaries[1].hammer_mode, HammerMode::ExplicitDoubleSided);
        assert!((summaries[1].escalation_rate - 0.0).abs() < 1e-12);
        assert_eq!(
            summaries[1].escalation_rate_delta_vs_undefended,
            Some(0.0),
            "explicit mode compares against the explicit undefended baseline"
        );
    }

    #[test]
    fn errored_cells_do_not_drag_down_implicit_rate() {
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            2,
        );
        let mut errored = cell(DefenseChoice::None, false, 0);
        errored.error = Some("aborted".into());
        errored.implicit_dram_rate = 0.0;
        let cells = vec![cell(DefenseChoice::None, false, 1), errored];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert!((summaries[0].mean_implicit_dram_rate - 0.9).abs() < 1e-12);
        assert!((summaries[0].mean_flips - 1.0).abs() < 1e-12);
        assert_eq!(summaries[0].cells, 2);
        assert_eq!(summaries[0].errored_cells, 1);
    }

    #[test]
    fn delta_absent_without_undefended_baseline() {
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::Zebram],
            vec![ProfileChoice::Ci],
            1,
        );
        let cells = vec![cell(DefenseChoice::Zebram, false, 0)];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries[0].escalation_rate_delta_vs_undefended, None);
        assert_eq!(summaries[0].mean_seconds_to_first_flip, None);
    }

    #[test]
    fn canonical_json_is_stable_and_newline_terminated() {
        let report = CampaignReport {
            schema_version: REPORT_SCHEMA_VERSION,
            base_seed: 7,
            matrix: matrix(),
            superpages: false,
            cells: vec![cell(DefenseChoice::None, true, 1)],
            summaries: vec![],
        };
        let a = report.to_canonical_json();
        let b = report.to_canonical_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"undefended\""));
        // Default-mode reports carry no hammer_mode keys anywhere — the
        // pre-axis golden snapshot stays byte-identical.
        assert!(!a.contains("hammer_mode"));
    }

    #[test]
    fn pattern_rows_and_summaries_carry_the_pattern_key() {
        let mut row = cell(DefenseChoice::None, false, 0);
        row.pattern = Some(PatternChoice::Synthesized);
        row.trr_refreshes = 17;
        let mut w = JsonWriter::new(false);
        row.serialize(&mut w);
        let json = w.into_string();
        assert!(json.contains("\"pattern\":\"synthesized\""));
        assert!(json.contains("\"trr_refreshes\":17"));
        assert!(json.find("\"pattern\"").unwrap() < json.find("\"repetition\"").unwrap());
        assert!(
            json.find("\"exploitable_flips\"").unwrap() < json.find("\"trr_refreshes\"").unwrap()
        );
        assert!(
            json.find("\"trr_refreshes\"").unwrap() < json.find("\"implicit_dram_rate\"").unwrap()
        );

        // Pattern summaries split from the mode rows and use per-pattern
        // undefended baselines.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            1,
        )
        .with_patterns(vec![None, Some(PatternChoice::Synthesized)]);
        let cells = vec![cell(DefenseChoice::None, false, 0), {
            let mut c = cell(DefenseChoice::None, true, 2);
            c.pattern = Some(PatternChoice::Synthesized);
            c
        }];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].pattern, None);
        assert!((summaries[0].escalation_rate - 0.0).abs() < 1e-12);
        assert_eq!(summaries[1].pattern, Some(PatternChoice::Synthesized));
        assert!((summaries[1].escalation_rate - 1.0).abs() < 1e-12);
        assert_eq!(
            summaries[1].escalation_rate_delta_vs_undefended,
            Some(0.0),
            "pattern rows compare against the pattern undefended baseline"
        );
        let mut w = JsonWriter::new(false);
        summaries[1].serialize(&mut w);
        assert!(w.into_string().contains("\"pattern\":\"synthesized\""));
    }

    #[test]
    fn victim_rows_and_summaries_carry_the_exploit_keys() {
        let mut row = cell(DefenseChoice::None, true, 2);
        row.victim = Some(VictimChoice::KeyRecovery);
        row.exploit_succeeded = Some(true);
        row.time_to_exploit = Some(4_800);
        let mut w = JsonWriter::new(false);
        row.serialize(&mut w);
        let json = w.into_string();
        assert!(json.contains("\"victim\":\"key-recovery\""));
        assert!(json.contains("\"exploit_succeeded\":true"));
        assert!(json.contains("\"time_to_exploit\":4800"));
        // The victim coordinate sits between pattern/profile and repetition;
        // the outcome keys sit between seconds_to_escalation and route.
        assert!(json.find("\"victim\"").unwrap() < json.find("\"repetition\"").unwrap());
        assert!(
            json.find("\"seconds_to_escalation\"").unwrap()
                < json.find("\"exploit_succeeded\"").unwrap()
        );
        assert!(json.find("\"time_to_exploit\"").unwrap() < json.find("\"route\"").unwrap());

        // Default-victim rows carry none of the keys.
        let mut w = JsonWriter::new(false);
        cell(DefenseChoice::None, true, 2).serialize(&mut w);
        let json = w.into_string();
        assert!(!json.contains("victim"));
        assert!(!json.contains("exploit_succeeded"));
        assert!(!json.contains("time_to_exploit"));

        // Victim summaries split per victim and aggregate exploit outcomes.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            1,
        )
        .with_victims(vec![
            Some(VictimChoice::PteTakeover),
            Some(VictimChoice::KeyRecovery),
        ]);
        let cells = vec![
            {
                let mut c = cell(DefenseChoice::None, true, 2);
                c.victim = Some(VictimChoice::PteTakeover);
                c.exploit_succeeded = Some(true);
                c.time_to_exploit = Some(1_000);
                c
            },
            {
                let mut c = cell(DefenseChoice::None, false, 2);
                c.victim = Some(VictimChoice::KeyRecovery);
                c.exploit_succeeded = Some(false);
                c
            },
        ];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].victim, Some(VictimChoice::PteTakeover));
        assert_eq!(summaries[0].exploit_successes, Some(1));
        assert_eq!(summaries[0].mean_time_to_exploit, Some(1_000.0));
        assert_eq!(summaries[1].victim, Some(VictimChoice::KeyRecovery));
        assert_eq!(summaries[1].exploit_successes, Some(0));
        assert_eq!(summaries[1].mean_time_to_exploit, None);
        let mut w = JsonWriter::new(false);
        summaries[0].serialize(&mut w);
        let json = w.into_string();
        assert!(json.contains("\"victim\":\"pte-takeover\""));
        assert!(json.contains("\"exploit_successes\":1"));
        assert!(json.contains("\"mean_time_to_exploit\":1000.0"));
    }

    #[test]
    fn non_default_mode_rows_carry_the_mode_key() {
        let mut row = cell(DefenseChoice::None, false, 0);
        row.hammer_mode = HammerMode::ImplicitOneLocation;
        let mut w = JsonWriter::new(false);
        row.serialize(&mut w);
        let json = w.into_string();
        assert!(json.contains("\"hammer_mode\":\"implicit-one-location\""));
        // The mode key sits between the profile and repetition coordinates.
        assert!(json.find("\"profile\"").unwrap() < json.find("\"hammer_mode\"").unwrap());
        assert!(json.find("\"hammer_mode\"").unwrap() < json.find("\"repetition\"").unwrap());
    }

    fn tricky_report() -> CellReport {
        CellReport {
            machine: "Test Small".into(),
            defense: DefenseKind::RipRh,
            profile: "ci".into(),
            hammer_mode: HammerMode::ImplicitOneLocation,
            pattern: Some(PatternChoice::Synthesized),
            victim: Some(VictimChoice::KeyRecovery),
            repetition: 2,
            cell_seed: u64::MAX - 1,
            escalated: true,
            attempts: 3,
            flips_observed: 7,
            exploitable_flips: 1,
            trr_refreshes: u64::MAX - 3,
            implicit_dram_rate: 0.1 + 0.2, // not exactly representable
            seconds_to_first_flip: Some(1.0e-7),
            seconds_to_escalation: None,
            exploit_succeeded: Some(true),
            time_to_exploit: Some(u64::MAX - 7),
            route: Some("PageTable { pte: 0x1000 }".into()),
            error: Some("line1\nline2 \"quoted\"".into()),
        }
    }

    /// Decodes `report`'s canonical body and checks the round trip is exact:
    /// equal, bit-exact floats, and byte-identical on re-serialization —
    /// what store-backed resume and merge emit.
    fn assert_round_trips(report: &CellReport) {
        let body = serde_json::to_string(report).unwrap();
        let decoded: CellReport = serde_json::decode(&body).unwrap();
        assert_eq!(&decoded, report);
        let bits = |r: &CellReport| {
            let f = [r.seconds_to_first_flip, r.seconds_to_escalation];
            (
                r.implicit_dram_rate.to_bits(),
                f.map(|f| f.map(f64::to_bits)),
            )
        };
        assert_eq!(bits(&decoded), bits(report));
        assert_eq!(serde_json::to_string(&decoded).unwrap(), body);
    }

    #[test]
    fn decoded_report_round_trips_exactly() {
        assert_round_trips(&tricky_report());
        assert_round_trips(&cell(DefenseChoice::Catt, true, 3));
        // An unsuccessful explicit-victim row round-trips its nulls.
        let report = CellReport {
            exploit_succeeded: Some(false),
            time_to_exploit: None,
            ..tricky_report()
        };
        let body = serde_json::to_string(&report).unwrap();
        assert!(body.contains("\"exploit_succeeded\":false,\"time_to_exploit\":null"));
        assert_round_trips(&report);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn cell_reports_round_trip_byte_identically(
            w in prop::collection::vec(any::<u64>(), 12..13),
            text in prop::sample::select(vec!["", "ci", "a\"b\n\\c", "\u{e9}\u{1f600}"]),
        ) {
            let pick = |i: usize, n: usize| (w[i] % n as u64) as usize;
            // A finite `f64` from arbitrary bits: clearing the top exponent
            // bit maps NaN/infinity patterns onto finite ones.
            let finite = |bits: u64| {
                let f = f64::from_bits(bits);
                if f.is_finite() { f } else { f64::from_bits(bits & !(1 << 62)) }
            };
            let (victims, patterns) = (VictimChoice::all(), PatternChoice::all());
            let victim = [None, Some(victims[pick(3, victims.len())])][pick(4, 2)];
            assert_round_trips(&CellReport {
                machine: text.to_string(),
                defense: DefenseKind::all()[pick(0, DefenseKind::all().len())],
                profile: text.repeat(2),
                hammer_mode: HammerMode::all()[pick(1, HammerMode::all().len())],
                pattern: [None, Some(patterns[pick(2, patterns.len())])][pick(5, 2)],
                victim,
                repetition: w[5] as u32,
                cell_seed: w[6],
                escalated: w[7] & 1 == 1,
                attempts: w[7] as usize >> 1,
                flips_observed: w[8] as usize,
                exploitable_flips: (w[8] >> 32) as usize,
                trr_refreshes: w[9] >> (w[9] % 64),
                implicit_dram_rate: finite(w[10]),
                seconds_to_first_flip: (w[11] & 1 == 1).then(|| finite(w[11])),
                seconds_to_escalation: (w[11] & 2 == 2).then(|| finite(w[10] ^ w[11])),
                // The writer emits the outcome keys only for explicit-victim
                // rows, so only those carry them.
                exploit_succeeded: victim.and((w[9] & 1 == 1).then_some(w[9] & 2 == 2)),
                time_to_exploit: victim.and((w[9] & 4 == 4).then_some(w[6] ^ w[9])),
                route: (w[5] & 1 == 1).then(|| text.to_string()),
                error: (w[6] & 1 == 1).then(|| format!("{text}\n{}", w[6])),
            });
        }
    }

    /// Rows written before an axis existed, or with it at its default, omit
    /// its keys; they decode to the default.
    #[test]
    fn absent_axis_keys_decode_to_their_defaults() {
        let body = serde_json::to_string(&cell(DefenseChoice::None, false, 0)).unwrap();
        for key in [
            "hammer_mode",
            "\"pattern\"",
            "trr_refreshes",
            "\"victim\"",
            "exploit_succeeded",
            "time_to_exploit",
        ] {
            assert!(!body.contains(key), "{key} in {body}");
        }
        let decoded: CellReport = serde_json::decode(&body).unwrap();
        assert_eq!(decoded.hammer_mode, HammerMode::ImplicitDoubleSided);
        assert_eq!((decoded.pattern, decoded.trr_refreshes), (None, 0));
        assert_eq!(decoded.victim, None);
        assert_eq!(
            (decoded.exploit_succeeded, decoded.time_to_exploit),
            (None, None)
        );
    }

    #[test]
    fn schema_drift_is_a_described_error() {
        let decode = serde_json::decode::<CellReport>;
        let body = serde_json::to_string(&tricky_report()).unwrap();
        let err = decode(&body.replace("\"attempts\"", "\"tries\"")).unwrap_err();
        assert!(err.contains("attempts"), "{err}");
        let err = decode("][").unwrap_err();
        assert!(err.contains("JSON"), "{err}");
        let err = decode("{\"machine\":3}").unwrap_err();
        assert!(err.contains("machine"), "{err}");
        let err = decode(&body.replace("\"RIP-RH\"", "\"RIP-RX\"")).unwrap_err();
        assert!(err.contains("defense") && err.contains("RIP-RX"), "{err}");
    }
}
