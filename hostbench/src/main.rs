//! Campaign-level host benchmark for the PThammer simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <ci_matrix|trr_matrix|t420_cells> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. The last line of standard output is a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! A human-readable summary (and, traced, the per-layer table) goes to
//! standard error.
//!
//! # Workloads
//!
//! Each workload is a campaign; the program receives only its cells, and
//! every timed cell runs through `pthammer_harness::run_cell_instrumented`.
//! A run's input is a fixed number of instances of the campaign, each at its
//! own base seed derived from `--seed` (see [`workloads::Workload`]): one of
//! `ci_matrix` (30 cells), four of `trr_matrix` (96 cells) and six of
//! `t420_cells` (12 cells). The input depends on `--seed` alone; instance 0
//! of `--seed 0` is the golden campaign.
//!
//! - `ci_matrix`: the 30-cell golden matrix (`ScenarioMatrix::ci_default`,
//!   `CampaignConfig::ci`). Placement-filtered frame allocation inside the
//!   TLB pool dominates: the CATT and RIP-RH cells are the tail. It is the
//!   workload where an allocator change must show. Hammer work is small.
//! - `trr_matrix`: the 24-cell TRR/pattern matrix
//!   (`ScenarioMatrix::trr_pattern_ci`, `CampaignConfig::trr_ci`). Hammer and
//!   Detect dominate and `Prepare` is small. It exercises the hammer
//!   executor, the DRAM/TRR model and pattern synthesis, and bypasses
//!   filtered allocation (every cell is undefended).
//! - `t420_cells`: two repetitions of the Table I Lenovo T420 cell
//!   (undefended, `fast` profile, `CampaignConfig::ci`). Nearly all host
//!   time is the LLC pool's conflict partitioning over a 3 MiB LLC. It uses
//!   the cache layer differently from `trr_matrix`'s hammer-time eviction on
//!   a small LLC, and the allocator unfiltered.
//!
//! The store and memo layer is left out on purpose: warm cache hits cost
//! well under a millisecond against a multi-second cold pass, so no workload
//! would show a change there.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Host-side only; simulated statistics are output checks, not metrics.
//! Cells run in a closed loop of one client, one cell at a time, in whole
//! passes over the input until `--seconds` have passed; on a 2-vCPU host one
//! pass takes 20 to 50 seconds, so a 15-second run makes one pass. One client on one thread: on a small shared host a
//! worker pool would measure the scheduler, and reports do not depend on the
//! thread count.
//!
//! - `cells_per_s`: cells completed without failure per host second.
//! - `cell_p50_s`: median host latency of one cell.
//! - `cell_tail_s`: latency at the highest percentile with at least ten
//!   cells of the input beyond it (see [`tail`]); the percentile and cell
//!   count are printed beside it.
//! - `sim_mcycles_per_s`: simulated cycles per host second. It parts from
//!   `cells_per_s` only when a change moves simulated work.
//! - `peak_rss_mib`: peak resident memory of the process; it catches designs
//!   that cache or fork systems.
//! - `setup_s`: the time of one set-up (workload generation and loading the
//!   reference outputs), as the median over [`SETUP_ROUNDS`] rounds of
//!   [`SETUP_ROUND_S`] each of the mean set-up time in the round; the first
//!   round is timed from process start.
//!
//! Failed cells (a row with `error`, or a panic, caught per cell) are the
//! JSON's `failed` out of `attempted`, both counted over the input's cells,
//! so they depend on `--seed` alone. Their ratio is 0 on a healthy tree,
//! so it is printed as `failed_cell_ratio` on standard error and reported
//! among the per-layer metrics rather than as an end-to-end figure.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run runs each cell of instance 0 untraced and then traced, back
//! to back; the difference of their wall times is `trace.overhead_s`. The
//! traced run rebuilds every cell from `MachineChoice::config`,
//! `DefenseChoice::build_system`, `System::spawn_process(es)`,
//! `PatternChoice::resolve` and
//! `PtHammer::run_with(RunOptions::observed_by(sink))`, with a span around
//! each call. The sink stamps host time on `PhaseEntered`/`PhaseExited`
//! (phases never nest, so each phase span is that phase's self time among
//! the phases) and on `PoolsPrepared` and `VictimProfiled`, the two
//! `Prepare` sub-spans. A replay of the pool build on an identically seeded
//! fresh system splits `Prepare` further; it must spend exactly the
//! simulated cycles the cell's `PoolsPrepared` announced. Every value is a
//! sum over the pass's cells. Each metric is listed with the end-to-end
//! metric and workload it should move:
//!
//! - `harness.boot_s`, `kernel.spawn_s` (attacker plus CTA cred spray),
//!   `harness.teardown_s` (dropping the system): `cells_per_s` on all
//!   workloads; small everywhere.
//! - `core.prepare_s`, `core.pair_select_s`, `core.hammer_s`,
//!   `core.detect_s`, `core.exploit_s`, with `core.prepare.pools_s` and
//!   `core.prepare.victim_profile_s` inside `Prepare`.
//! - `eviction.tlb_pool_s`, `kernel.tlb_pool_ns_per_frame`: `cells_per_s`
//!   and `cell_tail_s` on `ci_matrix`; no move on `trr_matrix` or
//!   `t420_cells`, where the TLB pool costs milliseconds per cell.
//! - `eviction.llc_pool_s`, `cache.llc_pool_ns_per_access`: `cells_per_s`
//!   and `cell_p50_s` on `t420_cells`; about 5% of `ci_matrix`.
//! - `spray.s`: the page-table spray.
//! - `core.hammer_ns_per_iter`, `core.detect_ns_per_attempt`: `cells_per_s`
//!   on `trr_matrix`, where hammer is about 70% and detect about 16% of host
//!   time; under 10% of `ci_matrix` and 5% of `t420_cells`.
//! - `patterns.synth_s`: `trr_matrix`; currently under 1%.
//! - Work counts and useful-outcome ratios: `core.attempts`,
//!   `core.pair_accept_ratio` (accepted over verified pairs),
//!   `core.hammer_iterations`, `core.exploitable_ratio` (exploitable over
//!   observed flips), `mmu.walks`, `cache.llc_misses`, `dram.activations`,
//!   `dram.trr_refreshes`, `dram.flips`, `machine.host_ns_per_access`.
//! - `trace.cell_wall_s`, `trace.overhead_s`, `failed_cell_ratio`.
//!
//! The per-layer table on standard error gives each span's inclusive and
//! self time and its share of the cell wall time, and names the largest
//! self span. The run checks that the top-level spans (boot, spawn,
//! synthesis, the five phases, teardown) account for the cell wall time
//! within [`ACCOUNTING_TOLERANCE`].
//!
//! # Output checks
//!
//! - At the golden seed, the `ci_matrix` and `trr_matrix` canonical reports
//!   equal `tests/golden/campaign_ci_matrix.json` and
//!   `tests/golden/campaign_trr_matrix.json` byte for byte, and `t420_cells`
//!   repetition 0 reproduces the `table1_cell_lenovo_t420` counters in
//!   `BENCH_perf.json`.
//! - At every seed, every row describes its own cell and seed and shows no
//!   flip on invulnerable DRAM; a timed run reruns its cheapest cell and
//!   must get the identical row and counters; a traced run's traced rows
//!   must equal its untraced rows, so observers do not perturb the
//!   simulation; every further pass of a timed run must repeat the first
//!   pass's rows and counters.

mod timed;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use timed::TimedCell;
use traced::Sums;
use workloads::{Kind, Workload};

/// Length of a round of set-ups, and rounds per run; `setup_s` is the
/// median over the rounds of a round's mean set-up time. One set-up takes
/// microseconds, and on a shared host single set-ups fall into modes up to
/// 1.7 times apart that last for milliseconds; the mean of a round is steady
/// where one set-up is not.
const SETUP_ROUND_S: f64 = 0.01;
const SETUP_ROUNDS: usize = 41;
/// Largest share of the traced cell wall time the spans may leave
/// unattributed.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let process_start = Instant::now();
    if let Err(e) = run(process_start) {
        eprintln!("hostbench: {e}");
        std::process::exit(2);
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run reports: cells attempted, cells failed, metrics.
type Outcome = (usize, usize, Vec<Metric>);

fn run(process_start: Instant) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut start = process_start;
    let mut generated = None;
    for _ in 0..SETUP_ROUNDS {
        let mut count = 0;
        while count == 0 || start.elapsed().as_secs_f64() < SETUP_ROUND_S {
            let args = parse_args()?;
            generated = Some((Workload::generate(args.kind, args.seed)?, args));
            count += 1;
        }
        setups.push(start.elapsed().as_secs_f64() / count as f64);
        start = Instant::now();
    }
    let (workload, args) = generated.expect("at least one set-up");

    let mut checks = Vec::new();
    let (attempted, failed, metrics) = if args.trace {
        traced_run(&workload, &mut checks)
    } else {
        timed_run(&workload, args.seconds, median(&mut setups), &mut checks)?
    };
    for failure in &checks {
        eprintln!("output check failed: {failure}");
    }
    eprintln!(
        "{} --seed {}: {attempted} cells, failed_cell_ratio {}",
        workload.kind.name(),
        args.seed,
        failed as f64 / attempted as f64
    );
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        checks.is_empty()
    );
    Ok(())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `cell_tail_s` sample of `sorted` latencies and its percentile.
///
/// The percentile is fixed per workload: the highest with ten of the
/// `cells_per_pass` input cells beyond it. A run of several passes reports
/// the same percentile; were it to rise with the run's length, a run that
/// fits one more pass would read a different part of the distribution (on
/// `ci_matrix` the RIP-RH cells instead of the CATT cells).
fn tail(sorted: &[f64], cells_per_pass: usize) -> (f64, f64) {
    let rank = ((cells_per_pass - 10) * sorted.len()).div_ceil(cells_per_pass);
    (
        sorted[rank - 1],
        100.0 * (cells_per_pass - 10) as f64 / cells_per_pass as f64,
    )
}

/// Peak resident set size of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Checks the pass of instance `k`: every row, and the golden pass against
/// the reference outputs. A panicked cell is a failed cell, not a wrong
/// output, except in the golden pass, which cannot be compared without it.
fn check_pass(workload: &Workload, k: u64, pass: &[TimedCell], checks: &mut Vec<String>) {
    for (i, cell) in pass.iter().enumerate() {
        let coord = &workload.cells[i];
        match &cell.result {
            Ok((row, _)) => {
                if let Some(error) = &row.error {
                    eprintln!("instance {k} cell {i} {coord:?} failed: {error}");
                }
                if let Err(e) = workload.check_row(k, i, row) {
                    checks.push(format!("instance {k}: {e}"));
                }
            }
            Err(panic) => eprintln!("instance {k} cell {i} {coord:?} panicked: {panic}"),
        }
    }
    if workload.is_golden(k) {
        let rows: Option<Vec<_>> = pass.iter().map(|c| c.result.clone().ok()).collect();
        let checked = rows.map_or(Err("a cell panicked".to_string()), |rows| {
            workload.check_reference(&rows)
        });
        if let Err(e) = checked {
            checks.push(format!("golden instance: {e}"));
        }
    }
}

fn timed_run(
    workload: &Workload,
    seconds: f64,
    setup_s: f64,
    checks: &mut Vec<String>,
) -> Result<Outcome, String> {
    let passes = timed::closed_loop(workload, seconds);
    let first = &passes[0];
    for (k, instance) in first.chunks(workload.cells.len()).enumerate() {
        check_pass(workload, k as u64, instance, checks);
    }
    for (p, pass) in passes.iter().enumerate().skip(1) {
        if let Some(j) = (0..first.len()).find(|&j| pass[j].result != first[j].result) {
            checks.push(format!("pass {p} did not repeat cell {j} of the first pass"));
        }
    }
    let attempted = first.len();
    let failed = first.iter().filter(|c| c.failed()).count();
    let cells: Vec<&TimedCell> = passes.iter().flatten().collect();
    let wall: f64 = cells.iter().map(|c| c.latency.as_secs_f64()).sum();
    let sim_cycles: u64 = cells
        .iter()
        .filter_map(|c| c.result.as_ref().ok())
        .map(|(_, perf)| perf.sim_cycles)
        .sum();
    let mut latencies: Vec<f64> = cells.iter().map(|c| c.latency.as_secs_f64()).collect();
    check_rerun(workload, &first[..workload.cells.len()], checks);

    let p50 = median(&mut latencies);
    let (tail_s, tail_pct) = tail(&latencies, attempted);
    eprintln!(
        "cell_tail_s is p{tail_pct:.1} of {} cells ({} passes)",
        latencies.len(),
        passes.len()
    );
    let metrics = vec![
        (
            "cells_per_s",
            (passes.len() * (attempted - failed)) as f64 / wall,
            "1/s",
        ),
        ("cell_p50_s", p50, "s"),
        ("cell_tail_s", tail_s, "s"),
        (
            "sim_mcycles_per_s",
            sim_cycles as f64 / wall / 1e6,
            "Mcycles/s",
        ),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    Ok((attempted, failed, metrics))
}

/// Reruns the cheapest cell of instance 0, untimed: the row and counters
/// must repeat exactly.
fn check_rerun(workload: &Workload, first: &[TimedCell], checks: &mut Vec<String>) {
    let Some((i, cell)) = first
        .iter()
        .enumerate()
        .filter(|(_, c)| c.result.is_ok())
        .min_by_key(|(_, c)| c.latency)
    else {
        return;
    };
    let again = timed::timed_cell(&workload.cells[i], &workload.config(0));
    if again.result != cell.result {
        checks.push(format!(
            "cell {i} of instance 0 did not repeat when run again"
        ));
    }
}

fn traced_run(workload: &Workload, checks: &mut Vec<String>) -> Outcome {
    // Each cell runs untraced, then traced, back to back, so a host that
    // drifts in speed moves both alike and the difference is the tracing.
    let config = workload.config(0);
    let mut sums = Sums::new();
    let mut untraced = Vec::with_capacity(workload.cells.len());
    let (mut failed, mut untraced_wall) = (0, 0.0);
    for (i, coord) in workload.cells.iter().enumerate() {
        let plain = timed::timed_cell(coord, &config);
        failed += usize::from(plain.failed());
        match timed::isolate(|| traced::traced_cell(coord, &config)) {
            Ok(cell) => {
                if let Some(e) = cell.replay_error {
                    checks.push(format!("cell {i} replay: {e}"));
                }
                if !matches!(&plain.result, Ok((row, _)) if *row == cell.row) {
                    checks.push(format!(
                        "cell {i}: traced row differs from the untraced row"
                    ));
                }
                failed += usize::from(cell.row.error.is_some());
                untraced_wall += plain.latency.as_secs_f64();
                for (key, value) in cell.sums {
                    *sums.entry(key).or_default() += value;
                }
            }
            Err(panic) => {
                failed += 1;
                if plain.result.is_ok() {
                    checks.push(format!(
                        "cell {i}: traced run panicked where the untraced did not: {panic}"
                    ));
                }
            }
        }
        untraced.push(plain);
    }
    check_pass(workload, 0, &untraced, checks);
    let attempted = 2 * workload.cells.len();

    let get = |key: &str| sums.get(key).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wall = get("cell_wall_s");
    let mut metrics: Vec<Metric> = SPANS
        .iter()
        .map(|&(_, key, _)| (key, get(key), "s"))
        .collect();
    metrics.extend([
        (
            "kernel.tlb_pool_ns_per_frame",
            per(get("eviction.tlb_pool_s") * 1e9, get("tlb_pool_frames")),
            "ns",
        ),
        (
            "cache.llc_pool_ns_per_access",
            per(get("eviction.llc_pool_s") * 1e9, get("llc_pool_accesses")),
            "ns",
        ),
        (
            "core.hammer_ns_per_iter",
            per(get("core.hammer_s") * 1e9, get("core.hammer_iterations")),
            "ns",
        ),
        (
            "core.detect_ns_per_attempt",
            per(get("core.detect_s") * 1e9, get("detect_runs")),
            "ns",
        ),
        ("core.attempts", get("core.attempts"), "count"),
        (
            "core.pair_accept_ratio",
            per(get("pairs_accepted"), get("pairs_verified")),
            "ratio",
        ),
        (
            "core.hammer_iterations",
            get("core.hammer_iterations"),
            "count",
        ),
        (
            "core.exploitable_ratio",
            per(get("flips_exploitable"), get("flips_found")),
            "ratio",
        ),
        ("mmu.walks", get("mmu.walks"), "count"),
        ("cache.llc_misses", get("cache.llc_misses"), "count"),
        ("dram.activations", get("dram.activations"), "count"),
        ("dram.trr_refreshes", get("dram.trr_refreshes"), "count"),
        ("dram.flips", get("dram.flips"), "count"),
        (
            "machine.host_ns_per_access",
            per(wall * 1e9, get("accesses")),
            "ns",
        ),
        ("trace.cell_wall_s", wall, "s"),
        ("trace.overhead_s", wall - untraced_wall, "s"),
        (
            "failed_cell_ratio",
            failed as f64 / attempted as f64,
            "ratio",
        ),
    ]);
    report_layers(workload, &sums, untraced_wall, checks);
    (attempted, failed, metrics)
}

/// The traced span tree, parents before children: depth, span, and the
/// child spans whose time lies inside it. Depth-0 spans tile the cell.
const SPANS: [(usize, &str, &[&str]); 14] = [
    (0, "harness.boot_s", &[]),
    (0, "kernel.spawn_s", &[]),
    (0, "patterns.synth_s", &[]),
    (
        0,
        "core.prepare_s",
        &["core.prepare.pools_s", "core.prepare.victim_profile_s"],
    ),
    (
        1,
        "core.prepare.pools_s",
        &["eviction.tlb_pool_s", "eviction.llc_pool_s", "spray.s"],
    ),
    (2, "eviction.tlb_pool_s", &[]),
    (2, "eviction.llc_pool_s", &[]),
    (2, "spray.s", &[]),
    (1, "core.prepare.victim_profile_s", &[]),
    (0, "core.pair_select_s", &[]),
    (0, "core.hammer_s", &[]),
    (0, "core.detect_s", &[]),
    (0, "core.exploit_s", &[]),
    (0, "harness.teardown_s", &[]),
];

/// Prints the per-layer table (inclusive and self time, share of the cell
/// wall time) and checks that the top-level spans account for the wall time.
/// The pool split comes from the replay, so `core.prepare.pools_s`'s self
/// time is the replay's disagreement with the cell and may be negative.
fn report_layers(workload: &Workload, sums: &Sums, untraced_wall: f64, checks: &mut Vec<String>) {
    let get = |key: &str| sums.get(key).copied().unwrap_or(0.0);
    let wall = get("cell_wall_s");
    let mut table = format!(
        "{} traced pass: {} cells, cell wall {wall:.3} s, untraced {untraced_wall:.3} s, \
         tracing overhead {:.3} s\n{:<36} {:>10} {:>10} {:>7}\n",
        workload.kind.name(),
        workload.cells.len(),
        wall - untraced_wall,
        "span",
        "incl_s",
        "self_s",
        "share"
    );
    let mut largest = ("", f64::MIN);
    let mut attributed = 0.0;
    for (depth, key, children) in SPANS {
        let incl = get(key);
        let own = incl - children.iter().map(|c| get(c)).sum::<f64>();
        if depth == 0 {
            attributed += incl;
        }
        if own > largest.1 {
            largest = (key, own);
        }
        let name = format!("{:indent$}{key}", "", indent = 2 * depth);
        let _ = writeln!(
            table,
            "{name:<36} {incl:>10.4} {own:>10.4} {:>6.1}%",
            100.0 * own / wall
        );
    }
    let rest = wall - attributed;
    let _ = writeln!(
        table,
        "{:<36} {rest:>10.4} {rest:>10.4} {:>6.1}%\nlargest self span: {}",
        "(unattributed)",
        100.0 * rest / wall,
        largest.0
    );
    eprint!("{table}");
    if (rest / wall).abs() > ACCOUNTING_TOLERANCE {
        checks.push(format!(
            "spans leave {:.1}% of the cell wall time unattributed (tolerance {:.0}%)",
            100.0 * rest / wall,
            100.0 * ACCOUNTING_TOLERANCE
        ));
    }
}
