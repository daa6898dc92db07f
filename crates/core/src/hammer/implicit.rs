//! The implicit-hammer primitive (Section III-B of the paper).
//!
//! One double-sided PThammer iteration evicts the TLB entries and the cached
//! Level-1 PTEs of both targets and then touches the two targets. The touch
//! triggers a page-table walk whose only uncached step is the Level-1 PTE
//! load — an access to kernel memory that the attacker never had permission
//! to perform, served directly from the DRAM row the attacker wants to
//! activate.
//!
//! [`ImplicitHammer`] holds the per-pair eviction state; the iteration itself
//! runs as a [`crate::trace::CompiledTrace`] of the strategy's schedule.

use serde::Serialize;

use pthammer_kernel::{Pid, System};

use crate::error::AttackError;
use crate::eviction::llc::{LlcEvictionPool, SelectedEvictionSet};
use crate::eviction::tlb::{TlbEvictionPool, TlbEvictionSet};
use crate::pairs::HammerPair;

/// A fully prepared double-sided implicit hammer for one pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ImplicitHammer {
    /// The pair being hammered.
    pub pair: HammerPair,
    /// TLB eviction set for the low target.
    pub tlb_low: TlbEvictionSet,
    /// TLB eviction set for the high target.
    pub tlb_high: TlbEvictionSet,
    /// LLC eviction set selected (Algorithm 2) for the low target's L1PTE.
    pub llc_low: SelectedEvictionSet,
    /// LLC eviction set selected (Algorithm 2) for the high target's L1PTE.
    pub llc_high: SelectedEvictionSet,
}

/// Statistics of a hammering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HammerStats {
    /// Iterations performed.
    pub rounds: u64,
    /// Total simulated cycles spent hammering.
    pub total_cycles: u64,
    /// Fastest single iteration.
    pub min_round_cycles: u64,
    /// Slowest single iteration.
    pub max_round_cycles: u64,
    /// Iterations in which the low target's L1PTE was served from DRAM
    /// (instrumentation only; the real attacker cannot observe this).
    pub low_dram_hits: u64,
    /// Iterations in which the high target's L1PTE was served from DRAM.
    pub high_dram_hits: u64,
    /// DRAM-served implicit touches of indexed pattern aggressors
    /// (always 0 for the pair-addressed strategies).
    pub aggressor_dram_hits: u64,
}

impl HammerStats {
    /// Average cycles per iteration.
    pub fn avg_round_cycles(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.rounds as f64
        }
    }

    /// Fraction of iterations that actually activated the low aggressor row.
    pub fn low_dram_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.low_dram_hits as f64 / self.rounds as f64
        }
    }

    /// Fraction of iterations that actually activated the high aggressor row.
    pub fn high_dram_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.high_dram_hits as f64 / self.rounds as f64
        }
    }
}

impl ImplicitHammer {
    /// Prepares the hammer for a pair: draws TLB eviction sets from the pool
    /// and runs Algorithm 2 to select the LLC eviction sets for both L1PTEs.
    pub fn prepare(
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        tlb_pool: &TlbEvictionPool,
        llc_pool: &LlcEvictionPool,
        selection_trials: usize,
    ) -> Result<Self, AttackError> {
        let tlb_low = tlb_pool.minimal_eviction_set_for(pair.low);
        let tlb_high = tlb_pool.minimal_eviction_set_for(pair.high);
        if tlb_low.is_empty() || tlb_high.is_empty() {
            return Err(AttackError::EvictionSetUnavailable(
                "TLB eviction pool has no pages for the target's sets".to_string(),
            ));
        }
        let llc_low = llc_pool.select_for_l1pte(sys, pid, pair.low, &tlb_low, selection_trials)?;
        let llc_high =
            llc_pool.select_for_l1pte(sys, pid, pair.high, &tlb_high, selection_trials)?;
        Ok(Self {
            pair,
            tlb_low,
            tlb_high,
            llc_low,
            llc_high,
        })
    }

    /// Total simulated cycles spent on Algorithm 2 selection for this pair.
    pub fn selection_cycles(&self) -> u64 {
        self.llc_low.selection_cycles + self.llc_high.selection_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::eviction::llc::LlcEvictionPool;
    use crate::eviction::tlb::TlbEvictionPool;
    use crate::hammer::strategy::{HammerStrategy, ImplicitSingleSided};
    use crate::pairs::candidate_pairs;
    use crate::pipeline::PreparedAttack;
    use crate::spray::spray_page_tables;
    use crate::trace::CompiledTrace;
    use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small machine with a small LLC so pool construction stays fast, but a
    /// realistic TLB and DRAM mapping.
    fn test_system() -> (System, Pid) {
        let mut cfg = MachineConfig::test_small(FlipModelProfile::invulnerable(), 21);
        cfg.cache = CacheHierarchyConfig {
            llc: LlcConfig {
                slices: 2,
                sets_per_slice: 256,
                ways: 8,
                latency: 18,
                replacement: ReplacementPolicy::Srrip,
                inclusive: true,
            },
            ..CacheHierarchyConfig::test_small(21)
        };
        let mut sys = System::undefended(cfg);
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    /// Prepares the pools and the spray, then arms (without verification)
    /// the first of `candidates` candidate pairs and compiles the paper's
    /// double-sided iteration for it.
    fn first_pair_trace(
        sys: &mut System,
        pid: Pid,
        seed: u64,
        candidates: usize,
    ) -> (u64, CompiledTrace) {
        let config = AttackConfig {
            spray_bytes: 512 << 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(seed, false)
        };
        let prepared = PreparedAttack {
            tlb_pool: TlbEvictionPool::build(sys, pid, &config, 12).unwrap(),
            llc_pool: LlcEvictionPool::build(sys, pid, &config, 9).unwrap(),
            spray: spray_page_tables(sys, pid, &config).unwrap(),
        };
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = candidate_pairs(&prepared.spray, row_span, candidates, &mut rng);
        assert!(!pairs.is_empty());
        let arm = ImplicitSingleSided
            .arm(sys, pid, pairs[0], &prepared, &config, 0)
            .unwrap();
        let armed = arm.armed.expect("single-sided arms every candidate");
        let trace = CompiledTrace::compile(&armed, ImplicitSingleSided.round_ops()).unwrap();
        (arm.llc_selection_cycles, trace)
    }

    #[test]
    fn implicit_rounds_reach_dram_for_both_l1ptes() {
        let (mut sys, pid) = test_system();
        let (selection_cycles, trace) = first_pair_trace(&mut sys, pid, 3, 4);

        let stats = trace.hammer(&mut sys, pid, 40).unwrap();
        assert_eq!(stats.rounds, 40);
        assert!(
            stats.low_dram_rate() > 0.8,
            "low L1PTE should usually come from DRAM, rate {}",
            stats.low_dram_rate()
        );
        assert!(
            stats.high_dram_rate() > 0.8,
            "high L1PTE should usually come from DRAM, rate {}",
            stats.high_dram_rate()
        );
        // Iteration cost is bounded: well below the no-flip threshold of
        // Figure 5 (1500-1600 cycles) and above the cost of a pure cache hit.
        let avg = stats.avg_round_cycles();
        assert!(avg > 200.0, "avg {avg}");
        assert!(avg < 3_500.0, "avg {avg}");
        assert!(stats.min_round_cycles <= stats.max_round_cycles);
        assert!(selection_cycles > 0);
    }

    #[test]
    fn per_round_cycles_have_low_variance_after_warmup() {
        let (mut sys, pid) = test_system();
        let (_, trace) = first_pair_trace(&mut sys, pid, 5, 1);
        // Warm up, then sample (mirrors the 50-round measurement of Fig. 6).
        trace.hammer(&mut sys, pid, 10).unwrap();
        let samples: Vec<u64> = (0..50)
            .map(|_| trace.replay(&mut sys, pid).unwrap().cycles)
            .collect();
        assert_eq!(samples.len(), 50);
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(
            max < 4 * min,
            "cycle samples too spread: min {min}, max {max}"
        );
    }
}
