//! Criterion bench: host-side cost of one simulated double-sided implicit
//! hammer iteration (the simulator's hottest path).
use criterion::{criterion_group, criterion_main, Criterion};
use pthammer::{
    hammer::strategy::ImplicitSingleSided, pairs::candidate_pairs, AttackConfig, CompiledTrace,
    HammerStrategy, PtHammer, Target,
};
use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::System;
use pthammer_machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hammer_iteration(c: &mut Criterion) {
    let mut cfg = MachineConfig::test_small(FlipModelProfile::invulnerable(), 3);
    cfg.cache = CacheHierarchyConfig {
        llc: LlcConfig {
            slices: 2,
            sets_per_slice: 256,
            ways: 8,
            latency: 18,
            replacement: ReplacementPolicy::Srrip,
            inclusive: true,
        },
        ..CacheHierarchyConfig::test_small(3)
    };
    let mut sys = System::undefended(cfg);
    let pid = sys.spawn_process(1000).unwrap();
    let config = AttackConfig {
        spray_bytes: 512 << 20,
        llc_profile_trials: 4,
        ..AttackConfig::quick_test(3, false)
    };
    let prepared = PtHammer::new(config.clone())
        .unwrap()
        .prepare(&mut sys, pid)
        .unwrap();
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let mut rng = StdRng::seed_from_u64(3);
    let pair = candidate_pairs(&prepared.spray, row_span, 1, &mut rng)[0];
    let armed = ImplicitSingleSided
        .arm(&mut sys, pid, pair, &prepared, &config, 0)
        .unwrap()
        .armed
        .unwrap();
    let trace = CompiledTrace::compile(&armed, ImplicitSingleSided.round_ops()).unwrap();
    let (tlb_low, llc_low) = armed.sets_for(Target::Low).unwrap();

    let mut group = c.benchmark_group("hammer");
    group.sample_size(20);
    group.bench_function("implicit_double_sided_iteration", |b| {
        b.iter(|| trace.hammer(&mut sys, pid, 1).unwrap())
    });
    // Component benchmarks of the same round, for hot-path attribution.
    group.bench_function("tlb_evict_one_target", |b| {
        b.iter(|| tlb_low.evict(&mut sys, pid).unwrap())
    });
    group.bench_function("llc_evict_one_target", |b| {
        b.iter(|| llc_low.evict(&mut sys, pid).unwrap())
    });
    group.bench_function("touch_target", |b| {
        b.iter(|| sys.access(pid, armed.pair.low).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_hammer_iteration);
criterion_main!(benches);
