//! Tests pinning the compiled-trace hammer executor to the reference
//! semantics: replaying a [`CompiledTrace`] must produce event- and
//! counter-identical simulation to interpreting the same `RoundOp` schedule
//! op by op (the `support` oracle), across randomized strategies, schedules
//! and spray states — and across demand faults handled between rounds,
//! without ever recompiling the trace.
//!
//! The twin-system idiom mirrors `pthammer-cache`'s `batch_equivalence`
//! tests: two systems booted and armed identically (the whole stack is
//! deterministic in the seed), one driven by the interpreter and one by the
//! compiled replay, compared round by round and on final hardware counters.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pthammer::hammer::ArmedPair;
use pthammer::pairs::{candidate_pairs, conflict_threshold};
use pthammer::{AttackConfig, CompiledTrace, HammerMode, PtHammer, RoundOp};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::{DefaultPolicy, KernelConfig, MmapOptions, Pid, System};
use pthammer_machine::MachineConfig;
use pthammer_types::PAGE_SIZE;

use support::interpret_round;

/// Boots a TestSmall system, prepares the attack and arms the first
/// armable candidate pair for `mode`. Fully deterministic in `(mode, seed)`,
/// so calling it twice yields two systems in bit-identical states.
fn armed_system(mode: HammerMode, seed: u64) -> (System, Pid, ArmedPair) {
    let mut sys = System::new(
        MachineConfig::test_small(FlipModelProfile::ci(), seed),
        KernelConfig::default_config(),
        Box::new(DefaultPolicy::new()),
    );
    let pid = sys.spawn_process(1000).expect("spawn");
    let config = AttackConfig {
        hammer_mode: mode,
        spray_bytes: 512 << 20,
        llc_profile_trials: 6,
        ..AttackConfig::quick_test(seed, false)
    };
    let attack = PtHammer::new(config.clone()).expect("config");
    let prepared = attack.prepare(&mut sys, pid).expect("prepare");
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let threshold = conflict_threshold(&sys);
    let strategy = mode.strategy();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut armed = None;
    'search: for _ in 0..16 {
        for pair in candidate_pairs(&prepared.spray, row_span, 4, &mut rng) {
            let arm = strategy
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .expect("arm");
            if let Some(a) = arm.armed {
                armed = Some(a);
                break 'search;
            }
        }
    }
    (sys, pid, armed.expect("no armable candidate pair"))
}

/// Full machine-counter snapshot used for the final equivalence check.
fn counters(sys: &System) -> impl PartialEq + std::fmt::Debug {
    (
        sys.machine().cache_pmc(),
        sys.machine().tlb_pmc(),
        sys.machine().dram_stats(),
        sys.rdtsc(),
        sys.stats().faults_handled,
    )
}

proptest! {
    // The armed-system setup dominates a case; debug builds (overflow
    // checks on) keep enough cases to cross every strategy while release
    // sweeps more seeds.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 3 } else { 10 }
    ))]

    // Replaying a compiled trace must be call-for-call identical to the
    // interpreter: same per-round outcomes (cycles, DRAM-served flags) and
    // the same final cache/TLB/DRAM counters, for every strategy's op
    // vocabulary rearranged into randomized schedules.
    #[test]
    fn compiled_replay_matches_the_interpreter(
        mode in prop::sample::select(HammerMode::all()),
        seed in 0u64..6,
        schedules in prop::collection::vec(
            prop::collection::vec(any::<usize>(), 1..24),
            1..4,
        ),
        rounds in 1u64..4,
    ) {
        let (mut interpreted, pid_i, armed_i) = armed_system(mode, seed);
        let (mut compiled, pid_c, armed_c) = armed_system(mode, seed);
        prop_assert_eq!(pid_i, pid_c);
        prop_assert_eq!(counters(&interpreted), counters(&compiled));

        let strategy = mode.strategy();
        let vocabulary = strategy.round_ops();
        // The strategy's own schedule first, then randomized rearrangements
        // (with repetition) of its op vocabulary — every op stays valid for
        // the armed state while order and intensity vary freely.
        let mut runs: Vec<Vec<RoundOp>> = vec![vocabulary.to_vec()];
        runs.extend(schedules.iter().map(|indices| {
            indices.iter().map(|&i| vocabulary[i % vocabulary.len()]).collect()
        }));

        for ops in &runs {
            let trace = CompiledTrace::compile(&armed_c, ops).expect("compile");
            prop_assert_eq!(trace.len(), ops.len());
            for _ in 0..rounds {
                let reference = interpret_round(&armed_i, &mut interpreted, pid_i, ops)
                    .expect("interpret");
                let replayed = trace.replay(&mut compiled, pid_c).expect("replay");
                prop_assert_eq!(replayed, reference);
            }
            prop_assert_eq!(counters(&interpreted), counters(&compiled));
        }
    }
}

/// A trace compiled once stays exact across demand faults: each twin maps a
/// fresh, unpopulated area and touches one of its pages between rounds, so
/// the kernel handles a fault (and allocates page tables) mid-attempt. The
/// never-recompiled trace must still match the oracle round by round and on
/// the final counters. Debug builds (where an armed twin costs tens of
/// seconds) check the default mode; release builds check every mode.
#[test]
fn a_trace_compiled_once_stays_exact_across_demand_faults() {
    const LAZY_PAGES: u64 = 4;
    let modes = if cfg!(debug_assertions) {
        vec![HammerMode::default()]
    } else {
        HammerMode::all()
    };
    for mode in modes {
        let (mut interpreted, pid_i, armed_i) = armed_system(mode, 2);
        let (mut compiled, pid_c, armed_c) = armed_system(mode, 2);
        let ops = mode.strategy().round_ops().to_vec();
        let trace = CompiledTrace::compile(&armed_c, &ops).expect("compile");

        let lazy_i = interpreted
            .mmap(pid_i, LAZY_PAGES * PAGE_SIZE, MmapOptions::default())
            .expect("mmap");
        let lazy_c = compiled
            .mmap(pid_c, LAZY_PAGES * PAGE_SIZE, MmapOptions::default())
            .expect("mmap");
        assert_eq!(lazy_i, lazy_c);
        let faults_at_compile = compiled.stats().faults_handled;

        for page in 0..LAZY_PAGES {
            let reference =
                interpret_round(&armed_i, &mut interpreted, pid_i, &ops).expect("interpret");
            let replayed = trace.replay(&mut compiled, pid_c).expect("replay");
            assert_eq!(replayed, reference, "{mode}: round before fault {page}");
            interpreted
                .access(pid_i, lazy_i + page * PAGE_SIZE)
                .expect("demand fault");
            compiled
                .access(pid_c, lazy_c + page * PAGE_SIZE)
                .expect("demand fault");
        }
        let reference =
            interpret_round(&armed_i, &mut interpreted, pid_i, &ops).expect("interpret");
        let replayed = trace.replay(&mut compiled, pid_c).expect("replay");
        assert_eq!(replayed, reference, "{mode}: round after the last fault");

        assert_eq!(
            compiled.stats().faults_handled,
            faults_at_compile + LAZY_PAGES,
            "{mode}: every lazy page was a handled demand fault"
        );
        assert_eq!(counters(&interpreted), counters(&compiled), "{mode}");
    }
}
