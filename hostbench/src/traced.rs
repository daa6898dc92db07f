//! The traced run: each cell rebuilt from the harness's public pieces with
//! host-time spans around every layer call, plus a `Prepare` replay that
//! splits the pool build into its TLB, LLC and spray parts.

use std::collections::BTreeMap;
use std::time::Instant;

use pthammer::spray::spray_page_tables;
use pthammer::{
    AttackEvent, AttackPhase, EventSink, LlcEvictionPool, PtHammer, RunOptions, TlbEvictionPool,
};
use pthammer_harness::{cell_seed, CampaignConfig, CellCoord, CellReport, DefenseChoice};
use pthammer_kernel::{KernelConfig, KernelStats, Pid, System};
use pthammer_patterns::PatternHammer;
use pthammer_perf::MachineCounters;

/// Named host-time sums (seconds) and work counts, keyed by metric name.
pub type Sums = BTreeMap<&'static str, f64>;

fn add(sums: &mut Sums, key: &'static str, value: f64) {
    *sums.entry(key).or_default() += value;
}

fn phase_metric(phase: AttackPhase) -> &'static str {
    match phase {
        AttackPhase::Prepare => "core.prepare_s",
        AttackPhase::PairSelect => "core.pair_select_s",
        AttackPhase::Hammer => "core.hammer_s",
        AttackPhase::Detect => "core.detect_s",
        AttackPhase::Exploit => "core.exploit_s",
    }
}

/// Event sink stamping host time on the pipeline's phase events and
/// counting the work each phase announces. It only observes.
#[derive(Default)]
struct PhaseClock {
    sums: Sums,
    entered: Option<(AttackPhase, Instant)>,
    pools_at: Option<Instant>,
    pools_cycles: Option<(u64, u64)>,
}

impl EventSink for PhaseClock {
    fn on_event(&mut self, event: &AttackEvent) {
        let now = Instant::now();
        let sums = &mut self.sums;
        match event {
            AttackEvent::PhaseEntered { phase, .. } => self.entered = Some((*phase, now)),
            AttackEvent::PhaseExited { phase, .. } => {
                if let Some((entered, at)) = self.entered.take() {
                    debug_assert_eq!(entered, *phase, "phases never nest");
                    add(sums, phase_metric(*phase), (now - at).as_secs_f64());
                    if *phase == AttackPhase::Detect {
                        add(sums, "detect_runs", 1.0);
                    }
                }
            }
            AttackEvent::PoolsPrepared {
                tlb_pool_cycles,
                llc_pool_cycles,
                ..
            } => {
                if let Some((_, at)) = self.entered {
                    add(sums, "core.prepare.pools_s", (now - at).as_secs_f64());
                }
                self.pools_at = Some(now);
                self.pools_cycles = Some((*tlb_pool_cycles, *llc_pool_cycles));
            }
            AttackEvent::VictimProfiled { .. } => {
                if let Some(at) = self.pools_at {
                    add(
                        sums,
                        "core.prepare.victim_profile_s",
                        (now - at).as_secs_f64(),
                    );
                }
            }
            AttackEvent::AttemptStarted { .. } => add(sums, "core.attempts", 1.0),
            AttackEvent::PairVerified { accepted, .. } => {
                add(sums, "pairs_verified", 1.0);
                add(sums, "pairs_accepted", f64::from(u8::from(*accepted)));
            }
            AttackEvent::HammerFinished { stats, .. } => {
                add(sums, "core.hammer_iterations", stats.rounds as f64);
            }
            AttackEvent::ChecksCompleted {
                findings,
                exploitable,
                ..
            } => {
                add(sums, "flips_found", *findings as f64);
                add(sums, "flips_exploitable", *exploitable as f64);
            }
            _ => {}
        }
    }
}

/// One traced cell: its row, sim cycles, spans and counts, and the `Prepare`
/// replay's agreement with the pipeline.
pub struct TracedCell {
    pub row: CellReport,
    pub sums: Sums,
    /// Problems with the replay (cycle mismatch or build error), if any.
    pub replay_error: Option<String>,
}

/// Boots the cell's defended system exactly as `run_cell_instrumented` does.
fn boot(coord: &CellCoord, config: &CampaignConfig, seed: u64) -> System {
    let machine_cfg = coord.machine.config(coord.profile.profile(), seed);
    let kernel_cfg = if config.superpages {
        KernelConfig::with_superpages()
    } else {
        KernelConfig::default_config()
    };
    coord.defense.build_system(machine_cfg, kernel_cfg)
}

/// Spawns the attacker, plus the CTA cred spray, as `run_cell_instrumented`
/// does.
fn spawn(sys: &mut System, coord: &CellCoord, config: &CampaignConfig) -> Result<Pid, String> {
    let pid = sys.spawn_process(1000).map_err(|e| e.to_string())?;
    if coord.defense == DefenseChoice::Cta && config.cta_cred_spray > 0 {
        sys.spawn_processes(config.cta_cred_spray, 1000)
            .map_err(|e| e.to_string())?;
    }
    Ok(pid)
}

fn frames(stats: KernelStats) -> u64 {
    stats.page_table_frames + stats.user_frames + stats.kernel_data_frames
}

/// Runs one cell with a span around every layer call and returns the same
/// row `run_cell_instrumented` produces.
pub fn traced_cell(coord: &CellCoord, config: &CampaignConfig) -> TracedCell {
    let seed = cell_seed(config.base_seed, coord);
    let mut sums = Sums::new();
    let cell_start = Instant::now();
    let mut row = CellReport {
        machine: coord.machine.name().to_string(),
        defense: coord.defense.kind(),
        profile: coord.profile.name().to_string(),
        hammer_mode: coord.hammer_mode,
        pattern: coord.pattern,
        victim: coord.victim,
        repetition: coord.repetition,
        cell_seed: seed,
        escalated: false,
        attempts: 0,
        flips_observed: 0,
        exploitable_flips: 0,
        trr_refreshes: 0,
        implicit_dram_rate: 0.0,
        seconds_to_first_flip: None,
        seconds_to_escalation: None,
        exploit_succeeded: None,
        time_to_exploit: None,
        route: None,
        error: None,
    };

    let t = Instant::now();
    let synthesis_cfg =
        config.synthesis_config(&coord.machine.config(coord.profile.profile(), seed));
    let mut sys = boot(coord, config, seed);
    add(&mut sums, "harness.boot_s", t.elapsed().as_secs_f64());

    let mut clock = PhaseClock::default();
    let outcome = (|| {
        let t = Instant::now();
        let pid = spawn(&mut sys, coord, config);
        add(&mut sums, "kernel.spawn_s", t.elapsed().as_secs_f64());
        let pid = pid?;
        let attack = PtHammer::new(config.attack_config(seed, coord.defense, coord.hammer_mode))
            .map_err(|e| e.to_string())?;
        let mut options = RunOptions::new().observed_by(&mut clock);
        if let Some(choice) = coord.pattern {
            let t = Instant::now();
            let pattern = choice.resolve(&synthesis_cfg, seed);
            add(&mut sums, "patterns.synth_s", t.elapsed().as_secs_f64());
            options = options.strategy(Box::new(PatternHammer::new(pattern)?));
        }
        if let Some(choice) = coord.victim {
            options = options.victim(choice.build());
        }
        attack
            .run_with(&mut sys, pid, options)
            .map_err(|e| e.to_string())
    })();

    match outcome {
        Ok(outcome) => {
            row.escalated = outcome.escalated;
            row.attempts = outcome.attempts;
            row.flips_observed = outcome.flips_observed;
            row.exploitable_flips = outcome.exploitable_flips;
            row.implicit_dram_rate = outcome.implicit_dram_rate;
            row.seconds_to_first_flip = outcome.seconds_to_first_flip();
            row.seconds_to_escalation = outcome.seconds_to_escalation();
            row.route = outcome.victim_outcome.map(|v| v.route_label());
            if coord.victim.is_some() {
                row.exploit_succeeded = Some(outcome.victim_outcome.is_some_and(|v| v.success));
                row.time_to_exploit = outcome
                    .victim_outcome
                    .and_then(|v| v.time_to_exploit_iterations);
            }
        }
        Err(err) => row.error = Some(err),
    }
    let counters = MachineCounters::capture(sys.machine());
    row.trr_refreshes = counters.dram.trr_refreshes;
    for (key, value) in [
        ("sim_cycles", sys.rdtsc()),
        ("accesses", counters.cache.l1_accesses),
        ("mmu.walks", counters.tlb.walks),
        ("cache.llc_misses", counters.cache.llc_misses),
        ("dram.activations", counters.dram.activations),
        ("dram.trr_refreshes", counters.dram.trr_refreshes),
        ("dram.flips", counters.dram.flips),
    ] {
        add(&mut sums, key, value as f64);
    }

    let t = Instant::now();
    drop(sys);
    add(&mut sums, "harness.teardown_s", t.elapsed().as_secs_f64());
    add(&mut sums, "cell_wall_s", cell_start.elapsed().as_secs_f64());
    for (key, value) in clock.sums {
        add(&mut sums, key, value);
    }

    let replay_error = match clock.pools_cycles {
        Some(expected) => replay_prepare(coord, config, seed, expected, &mut sums).err(),
        None if row.error.is_some() => None,
        None => Some("the pipeline never announced PoolsPrepared".to_string()),
    };
    TracedCell {
        row,
        sums,
        replay_error,
    }
}

/// Replays `Prepare`'s pool build on an identically seeded fresh system,
/// timing the TLB pool, the LLC pool and the spray separately. The replay
/// must spend exactly the simulated cycles the pipeline announced.
fn replay_prepare(
    coord: &CellCoord,
    config: &CampaignConfig,
    seed: u64,
    (tlb_expected, llc_expected): (u64, u64),
    sums: &mut Sums,
) -> Result<(), String> {
    let attack_config = config.attack_config(seed, coord.defense, coord.hammer_mode);
    let mut sys = boot(coord, config, seed);
    let pid = spawn(&mut sys, coord, config)?;
    let err = |e: pthammer::AttackError| e.to_string();

    let frames_before = frames(sys.stats());
    let t = Instant::now();
    let tlb_pages = PtHammer::tlb_eviction_pages(&sys);
    let tlb = TlbEvictionPool::build(&mut sys, pid, &attack_config, tlb_pages).map_err(err)?;
    add(sums, "eviction.tlb_pool_s", t.elapsed().as_secs_f64());
    add(
        sums,
        "tlb_pool_frames",
        (frames(sys.stats()) - frames_before) as f64,
    );

    let before = MachineCounters::capture(sys.machine());
    let t = Instant::now();
    let llc_lines = PtHammer::llc_eviction_lines(&sys);
    let llc = LlcEvictionPool::build(&mut sys, pid, &attack_config, llc_lines).map_err(err)?;
    add(sums, "eviction.llc_pool_s", t.elapsed().as_secs_f64());
    let accesses = MachineCounters::capture(sys.machine()).since(&before);
    add(sums, "llc_pool_accesses", accesses.cache.l1_accesses as f64);

    let t = Instant::now();
    spray_page_tables(&mut sys, pid, &attack_config).map_err(err)?;
    add(sums, "spray.s", t.elapsed().as_secs_f64());

    let replayed = (tlb.prep_cycles(), llc.prep_cycles());
    if replayed == (tlb_expected, llc_expected) {
        Ok(())
    } else {
        Err(format!(
            "replayed pool cycles (tlb, llc) = {replayed:?}, pipeline announced \
             ({tlb_expected}, {llc_expected})"
        ))
    }
}
