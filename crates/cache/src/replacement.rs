//! Cache replacement policies.
//!
//! The LLC of real Sandy Bridge parts is not true-LRU, which is why an
//! eviction set exactly as large as the associativity does not evict reliably
//! (Figure 4 of the paper) and why traversing a 13-line eviction set does not
//! thrash itself completely. [`ReplacementPolicy::Srrip`] reproduces both
//! effects and is the default for the LLC; the other policies are provided for
//! ablation studies.
//!
//! The policy logic operates on *flat* per-way metadata through the
//! [`WaySlot`] trait so that cache and TLB structures can keep each way's tag
//! and replacement word together in one contiguous, cache-line-friendly
//! array (the hot-path layout) while [`SetMeta`] remains available as the
//! boxed per-set wrapper the original API exposed.

use serde::Serialize;

/// Replacement policy of a set-associative structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction (2-bit RRPV), the default LLC
    /// policy; rarely-touched lines age out quickly.
    Srrip,
    /// Not-recently-used with a rotating clock hand (typical TLB policy).
    Nru,
    /// Uniformly random victim.
    Random,
    /// Bimodal insertion (LRU insertion most of the time), thrash-resistant.
    Bip,
}

const SRRIP_MAX: u64 = 3;
const SRRIP_INSERT: u64 = 2;

/// One way of a set exposing its replacement-metadata word.
///
/// Implemented by the flattened cache/TLB slot types (which store the tag or
/// entry next to the metadata word) and by bare `u64` words (the [`SetMeta`]
/// representation).
pub trait WaySlot {
    /// The replacement-metadata word (age / RRPV / used-bit, meaning depends
    /// on the policy).
    fn meta(&self) -> u64;
    /// Overwrites the replacement-metadata word.
    fn set_meta(&mut self, value: u64);
}

impl WaySlot for u64 {
    #[inline]
    fn meta(&self) -> u64 {
        *self
    }
    #[inline]
    fn set_meta(&mut self, value: u64) {
        *self = value;
    }
}

/// The policy-independent per-set scalars: the LRU tick, the NRU clock hand
/// and the deterministic PRNG state for Random / BIP decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReplacementState {
    tick: u64,
    hand: usize,
    rng_state: u64,
}

impl ReplacementState {
    /// Creates the per-set state from a seed (the low bit is forced so the
    /// xorshift stream never starts at zero).
    pub fn new(seed: u64) -> Self {
        Self {
            tick: 0,
            hand: 0,
            rng_state: seed | 1,
        }
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl ReplacementPolicy {
    /// Records a hit on `way` of a set.
    #[inline(always)]
    pub fn on_hit<S: WaySlot>(self, ways: &mut [S], state: &mut ReplacementState, way: usize) {
        state.tick += 1;
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Bip => ways[way].set_meta(state.tick),
            ReplacementPolicy::Srrip => ways[way].set_meta(0),
            ReplacementPolicy::Nru => ways[way].set_meta(1),
            ReplacementPolicy::Random => {}
        }
    }

    /// Records a fill into `way` of a set.
    #[inline(always)]
    pub fn on_fill<S: WaySlot>(self, ways: &mut [S], state: &mut ReplacementState, way: usize) {
        state.tick += 1;
        match self {
            ReplacementPolicy::Lru => ways[way].set_meta(state.tick),
            ReplacementPolicy::Bip => {
                // Mostly insert as LRU (old timestamp); occasionally as MRU.
                if state.next_rand().is_multiple_of(32) {
                    ways[way].set_meta(state.tick);
                } else {
                    ways[way].set_meta(state.tick.saturating_sub(1_000_000));
                }
            }
            ReplacementPolicy::Srrip => ways[way].set_meta(SRRIP_INSERT),
            ReplacementPolicy::Nru => ways[way].set_meta(1),
            ReplacementPolicy::Random => {}
        }
    }

    /// Chooses a victim way among the occupied ways (callers fill invalid
    /// ways first, so every way is occupied when this is called).
    #[inline]
    pub fn choose_victim<S: WaySlot>(self, ways: &mut [S], state: &mut ReplacementState) -> usize {
        let count = ways.len();
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Bip => {
                let mut victim = 0;
                let mut best = u64::MAX;
                for (i, slot) in ways.iter().enumerate() {
                    let age = slot.meta();
                    if age < best {
                        best = age;
                        victim = i;
                    }
                }
                victim
            }
            ReplacementPolicy::Srrip => {
                // Age everyone until someone reaches SRRIP_MAX, then pick the
                // first such way. Equivalent single pass: every way ages by
                // the same deficit (SRRIP_MAX minus the current maximum RRPV,
                // when positive), which preserves relative order, and the
                // victim is the first way holding the maximum.
                let mut victim = 0;
                let mut max = 0;
                for (i, slot) in ways.iter().enumerate() {
                    let v = slot.meta();
                    if v > max {
                        max = v;
                        victim = i;
                    }
                }
                if max < SRRIP_MAX {
                    let deficit = SRRIP_MAX - max;
                    for slot in ways.iter_mut() {
                        slot.set_meta(slot.meta() + deficit);
                    }
                }
                victim
            }
            ReplacementPolicy::Nru => {
                // Rotating clock: first way (from the hand) with used bit 0;
                // clear used bits if all are set.
                for _ in 0..2 {
                    for offset in 0..count {
                        let idx = (state.hand + offset) % count;
                        if ways[idx].meta() == 0 {
                            state.hand = (idx + 1) % count;
                            return idx;
                        }
                    }
                    for slot in ways.iter_mut() {
                        slot.set_meta(0);
                    }
                }
                state.hand
            }
            ReplacementPolicy::Random => (state.next_rand() % count as u64) as usize,
        }
    }

    /// Clears metadata for `way` (used when a line is invalidated).
    #[inline]
    pub fn on_invalidate<S: WaySlot>(self, ways: &mut [S], way: usize) {
        ways[way].set_meta(0);
    }
}

/// Per-set replacement metadata as a standalone object.
///
/// The flattened cache and TLB structures keep their metadata inline in their
/// way arrays; `SetMeta` remains for callers that want one self-contained
/// per-set object, delegating to the same policy engine.
#[derive(Debug, Clone, Serialize)]
pub struct SetMeta {
    policy: ReplacementPolicy,
    /// Per-way age / RRPV / used-bit, meaning depends on the policy.
    meta: Vec<u64>,
    /// The per-set scalars (tick, clock hand, PRNG state).
    state: ReplacementState,
}

impl SetMeta {
    /// Creates replacement metadata for a set with `ways` ways.
    pub fn new(policy: ReplacementPolicy, ways: usize, seed: u64) -> Self {
        Self {
            policy,
            meta: vec![0; ways],
            state: ReplacementState::new(seed),
        }
    }

    /// Records a hit on `way`.
    pub fn on_hit(&mut self, way: usize) {
        self.policy.on_hit(&mut self.meta, &mut self.state, way);
    }

    /// Records a fill into `way`.
    pub fn on_fill(&mut self, way: usize) {
        self.policy.on_fill(&mut self.meta, &mut self.state, way);
    }

    /// Chooses a victim way among the occupied ways (callers fill invalid
    /// ways first, so every way is occupied when this is called).
    pub fn choose_victim(&mut self, ways: usize) -> usize {
        debug_assert_eq!(ways, self.meta.len());
        self.policy.choose_victim(&mut self.meta, &mut self.state)
    }

    /// Clears metadata for `way` (used when a line is invalidated).
    pub fn on_invalidate(&mut self, way: usize) {
        self.policy.on_invalidate(&mut self.meta, way);
    }

    /// The policy of this set.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut m = SetMeta::new(ReplacementPolicy::Lru, 4, 1);
        for way in 0..4 {
            m.on_fill(way);
        }
        m.on_hit(0);
        m.on_hit(2);
        m.on_hit(3);
        assert_eq!(m.choose_victim(4), 1);
    }

    #[test]
    fn srrip_protects_recently_hit_lines() {
        let mut m = SetMeta::new(ReplacementPolicy::Srrip, 4, 1);
        for way in 0..4 {
            m.on_fill(way);
        }
        // Way 2 was recently reused: RRPV 0; the rest stay at insert RRPV.
        m.on_hit(2);
        let victim = m.choose_victim(4);
        assert_ne!(victim, 2, "recently reused line should not be the victim");
    }

    #[test]
    fn srrip_ages_untouched_lines_out() {
        let mut m = SetMeta::new(ReplacementPolicy::Srrip, 2, 1);
        m.on_fill(0);
        m.on_fill(1);
        m.on_hit(0);
        // Line 1 was never reused after fill: it must be evicted before line 0.
        assert_eq!(m.choose_victim(2), 1);
    }

    #[test]
    fn nru_cycles_through_ways() {
        let mut m = SetMeta::new(ReplacementPolicy::Nru, 4, 1);
        for way in 0..4 {
            m.on_fill(way);
        }
        // All used bits set: policy clears them and picks from the hand.
        let v1 = m.choose_victim(4);
        m.on_fill(v1);
        let v2 = m.choose_victim(4);
        assert_ne!(v1, v2, "clock hand should advance");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = SetMeta::new(ReplacementPolicy::Random, 8, 42);
        let mut b = SetMeta::new(ReplacementPolicy::Random, 8, 42);
        let va: Vec<usize> = (0..32).map(|_| a.choose_victim(8)).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.choose_victim(8)).collect();
        assert_eq!(va, vb);
        assert!(va.iter().any(|&v| v != va[0]), "victims should vary");
    }

    #[test]
    fn victims_are_always_in_range() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Srrip,
            ReplacementPolicy::Nru,
            ReplacementPolicy::Random,
            ReplacementPolicy::Bip,
        ] {
            let mut m = SetMeta::new(policy, 12, 7);
            for way in 0..12 {
                m.on_fill(way);
            }
            for i in 0..100 {
                let v = m.choose_victim(12);
                assert!(v < 12, "{policy:?} produced out-of-range victim");
                if i % 3 == 0 {
                    m.on_hit(v);
                } else {
                    m.on_fill(v);
                }
            }
        }
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    /// The flat policy engine over merged slots and the boxed [`SetMeta`]
    /// wrapper must make identical decisions from identical seeds.
    #[test]
    fn flat_engine_matches_set_meta_wrapper() {
        #[derive(Clone, Copy)]
        struct Slot {
            meta: u64,
        }
        impl WaySlot for Slot {
            fn meta(&self) -> u64 {
                self.meta
            }
            fn set_meta(&mut self, value: u64) {
                self.meta = value;
            }
        }
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Srrip,
            ReplacementPolicy::Nru,
            ReplacementPolicy::Random,
            ReplacementPolicy::Bip,
        ] {
            let seed = 0xA5A5;
            let mut wrapper = SetMeta::new(policy, 8, seed);
            let mut slots = vec![Slot { meta: 0 }; 8];
            let mut state = ReplacementState::new(seed);
            for step in 0..200usize {
                match step % 3 {
                    0 => {
                        let way = step % 8;
                        wrapper.on_fill(way);
                        policy.on_fill(&mut slots, &mut state, way);
                    }
                    1 => {
                        let way = (step * 5) % 8;
                        wrapper.on_hit(way);
                        policy.on_hit(&mut slots, &mut state, way);
                    }
                    _ => {
                        let a = wrapper.choose_victim(8);
                        let b = policy.choose_victim(&mut slots, &mut state);
                        assert_eq!(a, b, "{policy:?} diverged at step {step}");
                    }
                }
            }
        }
    }
}
