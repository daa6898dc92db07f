//! A single set-associative cache structure.
//!
//! The tag store is a single contiguous array indexed by `(set, way)`, with
//! each way's tag and replacement-metadata word merged into one 16-byte
//! [`CacheSlot`] so a set probe walks exactly one run of adjacent slots —
//! this is the hottest data structure of the whole simulator (every simulated
//! memory access probes three cache levels).

use serde::Serialize;

use pthammer_types::PhysAddr;

use crate::replacement::{ReplacementPolicy, ReplacementState, WaySlot};

/// Tag value of an empty way. Physical addresses are bounded by the DRAM
/// capacity, so no real cache line ever produces this tag.
const INVALID_TAG: u64 = u64::MAX;

/// Result of an access to one cache structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// The set that was probed.
    pub set: u32,
}

/// One way of one set: the line tag and its replacement-metadata word,
/// adjacent in memory so a set scan touches the minimum number of host cache
/// lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct CacheSlot {
    tag: u64,
    meta: u64,
}

impl CacheSlot {
    const EMPTY: CacheSlot = CacheSlot {
        tag: INVALID_TAG,
        meta: 0,
    };

    #[inline]
    fn is_valid(&self) -> bool {
        self.tag != INVALID_TAG
    }
}

impl WaySlot for CacheSlot {
    #[inline]
    fn meta(&self) -> u64 {
        self.meta
    }
    #[inline]
    fn set_meta(&mut self, value: u64) {
        self.meta = value;
    }
}

/// A physically-indexed set-associative cache (or one LLC slice).
///
/// Only presence is tracked; tags store the full cache-line address. Set
/// selection uses `line_index % sets`, which matches real hardware when the
/// set count is a power of two.
///
/// # Examples
///
/// ```
/// use pthammer_cache::{ReplacementPolicy, SetAssociativeCache};
/// use pthammer_types::PhysAddr;
///
/// let mut cache = SetAssociativeCache::new(64, 8, ReplacementPolicy::Lru, 1);
/// let addr = PhysAddr::new(0x1000);
/// assert!(!cache.access(addr).hit);
/// cache.fill(addr);
/// assert!(cache.access(addr).hit);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct SetAssociativeCache {
    sets: u32,
    ways: u32,
    /// `sets - 1`; set selection is a mask because `sets` is a power of two.
    set_mask: u64,
    policy: ReplacementPolicy,
    /// `sets * ways` slots, way-major within each set.
    slots: Vec<CacheSlot>,
    /// Per-set replacement scalars (tick / clock hand / PRNG).
    states: Vec<ReplacementState>,
}

impl SetAssociativeCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: u32, ways: u32, replacement: ReplacementPolicy, seed: u64) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        let slots = vec![CacheSlot::EMPTY; sets as usize * ways as usize];
        let states = (0..sets)
            .map(|s| ReplacementState::new(seed ^ (u64::from(s) << 17) | 1))
            .collect();
        Self {
            sets,
            ways,
            set_mask: u64::from(sets) - 1,
            policy: replacement,
            slots,
            states,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Set index of a physical address.
    #[inline]
    pub fn set_index(&self, paddr: PhysAddr) -> u32 {
        (paddr.cache_line_index() & self.set_mask) as u32
    }

    #[inline]
    fn line_tag(paddr: PhysAddr) -> u64 {
        paddr.cache_line_index()
    }

    /// The slots of one set as a contiguous slice.
    #[inline]
    fn set_slots(&self, set: usize) -> &[CacheSlot] {
        let ways = self.ways as usize;
        &self.slots[set * ways..set * ways + ways]
    }

    /// Probes for the line without updating replacement state.
    #[inline]
    pub fn contains(&self, paddr: PhysAddr) -> bool {
        let set = self.set_index(paddr) as usize;
        let tag = Self::line_tag(paddr);
        self.set_slots(set).iter().any(|slot| slot.tag == tag)
    }

    /// Looks up the line, updating replacement state on a hit.
    #[inline(always)]
    pub fn access(&mut self, paddr: PhysAddr) -> CacheAccess {
        let set = self.set_index(paddr);
        let tag = Self::line_tag(paddr);
        let set_idx = set as usize;
        let ways = self.ways as usize;
        let base = set_idx * ways;
        let slots = &mut self.slots[base..base + ways];
        if let Some(way) = slots.iter().position(|slot| slot.tag == tag) {
            self.policy.on_hit(slots, &mut self.states[set_idx], way);
            CacheAccess { hit: true, set }
        } else {
            CacheAccess { hit: false, set }
        }
    }

    /// Looks up the line like [`SetAssociativeCache::access`]; on a miss,
    /// additionally reports the first empty way of the probed set (if any),
    /// so a subsequent [`SetAssociativeCache::fill_absent_at`] of the same
    /// line can skip re-scanning the set. The extra information falls out of
    /// the probe scan for free.
    #[inline(always)]
    pub fn access_noting_empty(&mut self, paddr: PhysAddr) -> (CacheAccess, Option<u32>) {
        let set = self.set_index(paddr);
        let tag = Self::line_tag(paddr);
        let set_idx = set as usize;
        let ways = self.ways as usize;
        let base = set_idx * ways;
        let slots = &mut self.slots[base..base + ways];
        let mut empty = None;
        for (way, slot) in slots.iter().enumerate() {
            if slot.tag == tag {
                self.policy.on_hit(slots, &mut self.states[set_idx], way);
                return (CacheAccess { hit: true, set }, None);
            }
            if empty.is_none() && !slot.is_valid() {
                empty = Some(way as u32);
            }
        }
        (CacheAccess { hit: false, set }, empty)
    }

    /// Inserts the line, returning the physical line address it displaced (if
    /// any). Filling an already-present line only refreshes its replacement
    /// state.
    pub fn fill(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
        let set = self.set_index(paddr) as usize;
        let tag = Self::line_tag(paddr);
        let ways = self.ways as usize;
        let base = set * ways;
        let slots = &mut self.slots[base..base + ways];
        if let Some(way) = slots.iter().position(|slot| slot.tag == tag) {
            self.policy.on_hit(slots, &mut self.states[set], way);
            return None;
        }
        self.fill_absent(paddr)
    }

    /// Inserts a line that is known to be absent from this structure (e.g.
    /// because a lookup just missed), skipping the presence scan of
    /// [`SetAssociativeCache::fill`]. Returns the displaced line, if any.
    ///
    /// Calling this for a line that *is* present would duplicate the line;
    /// debug builds assert against that.
    #[inline]
    pub fn fill_absent(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
        let set = self.set_index(paddr) as usize;
        let ways = self.ways as usize;
        let empty = self.slots[set * ways..set * ways + ways]
            .iter()
            .position(|slot| !slot.is_valid())
            .map(|w| w as u32);
        self.fill_absent_at(paddr, empty)
    }

    /// Inserts an absent line whose destination set was already scanned by
    /// [`SetAssociativeCache::access_noting_empty`]: `empty_way` is that
    /// probe's result, so no way scan runs at all. The set must not have
    /// been touched in between.
    #[inline(always)]
    pub fn fill_absent_at(&mut self, paddr: PhysAddr, empty_way: Option<u32>) -> Option<PhysAddr> {
        debug_assert!(!self.contains(paddr), "fill_absent on a present line");
        debug_assert_ne!(Self::line_tag(paddr), INVALID_TAG, "unrepresentable tag");
        let set = self.set_index(paddr) as usize;
        let tag = Self::line_tag(paddr);
        let ways = self.ways as usize;
        let base = set * ways;
        let slots = &mut self.slots[base..base + ways];
        let state = &mut self.states[set];
        if let Some(way) = empty_way {
            let way = way as usize;
            debug_assert!(!slots[way].is_valid(), "hinted way is occupied");
            slots[way].tag = tag;
            self.policy.on_fill(slots, state, way);
            return None;
        }
        let victim_way = self.policy.choose_victim(slots, state);
        let victim_tag = slots[victim_way].tag;
        slots[victim_way].tag = tag;
        self.policy.on_fill(slots, state, victim_way);
        Some(PhysAddr::new(victim_tag * 64))
    }

    /// Invalidates the line if present; returns whether it was present.
    pub fn invalidate(&mut self, paddr: PhysAddr) -> bool {
        let set = self.set_index(paddr) as usize;
        let tag = Self::line_tag(paddr);
        let ways = self.ways as usize;
        let base = set * ways;
        let slots = &mut self.slots[base..base + ways];
        if let Some(way) = slots.iter().position(|slot| slot.tag == tag) {
            slots[way].tag = INVALID_TAG;
            self.policy.on_invalidate(slots, way);
            true
        } else {
            false
        }
    }

    /// Invalidates every line (e.g. `wbinvd`).
    pub fn invalidate_all(&mut self) {
        for slot in &mut self.slots {
            slot.tag = INVALID_TAG;
        }
    }

    /// Number of valid lines currently held in the given set.
    pub fn occupancy(&self, set: u32) -> usize {
        self.set_slots(set as usize)
            .iter()
            .filter(|s| s.is_valid())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr_in_set(cache: &SetAssociativeCache, set: u32, n: u64) -> PhysAddr {
        // Distinct lines that map to the same set: step by sets*64.
        PhysAddr::new(u64::from(set) * 64 + n * u64::from(cache.sets()) * 64)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru, 1);
        let a = PhysAddr::new(0x1040);
        assert!(!c.access(a).hit);
        assert_eq!(c.fill(a), None);
        assert!(c.access(a).hit);
        assert!(c.contains(a));
    }

    #[test]
    fn same_line_bytes_share_entry() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru, 1);
        c.fill(PhysAddr::new(0x1000));
        assert!(c.access(PhysAddr::new(0x103f)).hit);
        assert!(!c.access(PhysAddr::new(0x1040)).hit);
    }

    #[test]
    fn lru_eviction_of_oldest_line() {
        let mut c = SetAssociativeCache::new(16, 2, ReplacementPolicy::Lru, 1);
        let a = addr_in_set(&c, 3, 0);
        let b = addr_in_set(&c, 3, 1);
        let d = addr_in_set(&c, 3, 2);
        c.fill(a);
        c.fill(b);
        // Touch `a` so `b` is LRU.
        c.access(a);
        let evicted = c.fill(d);
        assert_eq!(evicted, Some(b.cache_line_base()));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn fill_existing_line_does_not_evict() {
        let mut c = SetAssociativeCache::new(16, 2, ReplacementPolicy::Lru, 1);
        let a = addr_in_set(&c, 5, 0);
        let b = addr_in_set(&c, 5, 1);
        c.fill(a);
        c.fill(b);
        assert_eq!(c.fill(a), None);
        assert_eq!(c.occupancy(5), 2);
    }

    #[test]
    fn fill_absent_matches_fill_for_missing_lines() {
        let mut via_fill = SetAssociativeCache::new(8, 2, ReplacementPolicy::Srrip, 5);
        let mut via_absent = SetAssociativeCache::new(8, 2, ReplacementPolicy::Srrip, 5);
        for n in 0..12u64 {
            let a = addr_in_set(&via_fill, 2, n);
            assert!(!via_fill.contains(a));
            assert_eq!(via_fill.fill(a), via_absent.fill_absent(a));
        }
        for n in 0..12u64 {
            let a = addr_in_set(&via_fill, 2, n);
            assert_eq!(via_fill.contains(a), via_absent.contains(a));
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru, 1);
        let a = PhysAddr::new(0x2000);
        c.fill(a);
        assert!(c.invalidate(a));
        assert!(!c.contains(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = SetAssociativeCache::new(8, 2, ReplacementPolicy::Lru, 1);
        for i in 0..16u64 {
            c.fill(PhysAddr::new(i * 64));
        }
        c.invalidate_all();
        for set in 0..8 {
            assert_eq!(c.occupancy(set), 0);
        }
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = SetAssociativeCache::new(16, 1, ReplacementPolicy::Lru, 1);
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(64);
        c.fill(a);
        c.fill(b);
        assert!(c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn eviction_within_capacity_limits() {
        let mut c = SetAssociativeCache::new(4, 3, ReplacementPolicy::Srrip, 9);
        // Fill 10 lines mapping to set 0; occupancy can never exceed 3.
        for n in 0..10 {
            c.fill(addr_in_set(&c, 0, n));
            assert!(c.occupancy(0) <= 3);
        }
        assert_eq!(c.occupancy(0), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssociativeCache::new(12, 4, ReplacementPolicy::Lru, 1);
    }
}
