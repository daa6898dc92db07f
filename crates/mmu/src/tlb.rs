//! Translation-lookaside buffers (L1 dTLB, L2 sTLB, huge-page dTLB).

use core::fmt;

use serde::Serialize;

use pthammer_cache::{ReplacementState, WaySlot};
use pthammer_types::{PageSize, PhysAddr, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};

use crate::config::{MmuConfig, TlbConfig};
use crate::pte::Pte;

/// A cached virtual-to-physical translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TlbEntry {
    /// Virtual page number (of the 4 KiB page or the 2 MiB superpage).
    pub vpn: u64,
    /// Base physical address of the mapped page.
    pub frame: PhysAddr,
    /// Leaf PTE that produced this translation (flags are consulted on use).
    pub pte: Pte,
    /// Size of the mapping.
    pub page_size: PageSize,
}

impl TlbEntry {
    /// Translates a full virtual address covered by this entry.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        let offset = match self.page_size {
            PageSize::Base4K => vaddr.page_offset(),
            PageSize::Huge2M => vaddr.huge_page_offset(),
        };
        self.frame + offset
    }
}

/// Which TLB level served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TlbLevel {
    /// L1 dTLB (4 KiB or 2 MiB).
    L1,
    /// L2 sTLB.
    L2,
}

/// TLB-related performance counters (the `dtlb_load_misses.miss_causes_a_walk`
/// event the paper's kernel module reads during Algorithm 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TlbPmc {
    /// Translations attempted.
    pub lookups: u64,
    /// Lookups that missed the L1 dTLB.
    pub l1_misses: u64,
    /// Lookups that missed every TLB level and caused a page-table walk.
    pub walks: u64,
}

impl TlbPmc {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = TlbPmc::default();
    }

    /// Difference of two snapshots (`self - earlier`).
    pub fn since(&self, earlier: &TlbPmc) -> TlbPmc {
        TlbPmc {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            walks: self.walks.saturating_sub(earlier.walks),
        }
    }
}

impl fmt::Display for TlbPmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lookups={} l1_misses={} walks={}",
            self.lookups, self.l1_misses, self.walks
        )
    }
}

/// One way of one TLB set: the cached entry and its replacement-metadata
/// word, adjacent in memory so a set probe scans one contiguous run.
#[derive(Debug, Clone, Copy, Serialize)]
struct TlbSlot {
    entry: Option<TlbEntry>,
    meta: u64,
}

impl TlbSlot {
    const EMPTY: TlbSlot = TlbSlot {
        entry: None,
        meta: 0,
    };

    #[inline]
    fn holds(&self, vpn: u64) -> bool {
        matches!(self.entry, Some(e) if e.vpn == vpn)
    }
}

impl WaySlot for TlbSlot {
    #[inline]
    fn meta(&self) -> u64 {
        self.meta
    }
    #[inline]
    fn set_meta(&mut self, value: u64) {
        self.meta = value;
    }
}

/// One set-associative TLB level.
///
/// Like the flattened caches, the entry store is a single contiguous array
/// indexed by `(set, way)` — TLB lookups run on every simulated access, so
/// this layout is on the simulator's hottest path.
#[derive(Debug, Clone, Serialize)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets * ways` slots, way-major within each set.
    slots: Vec<TlbSlot>,
    /// Per-set replacement scalars.
    states: Vec<ReplacementState>,
}

impl Tlb {
    /// Creates a TLB from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TlbConfig, seed: u64) -> Self {
        config.validate().expect("invalid TLB configuration");
        let slots = vec![TlbSlot::EMPTY; config.sets as usize * config.ways as usize];
        let states = (0..config.sets)
            .map(|s| ReplacementState::new(seed ^ (u64::from(s) << 13) | 1))
            .collect();
        Self {
            config,
            slots,
            states,
        }
    }

    /// The configuration of this TLB.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Set index of a virtual page number (the reverse-engineered mapping the
    /// attack relies on to build congruent page sets).
    pub fn set_index(&self, vpn: u64) -> u32 {
        self.config.indexing.set_index(vpn, self.config.sets)
    }

    /// The slots of one set as a contiguous slice.
    #[inline]
    fn set_slots(&self, set: usize) -> &[TlbSlot] {
        let ways = self.config.ways as usize;
        &self.slots[set * ways..set * ways + ways]
    }

    /// Looks up `vpn`, refreshing replacement state on a hit.
    #[inline(always)]
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        let set = self.set_index(vpn) as usize;
        let ways = self.config.ways as usize;
        let slots = &mut self.slots[set * ways..set * ways + ways];
        let way = slots.iter().position(|slot| slot.holds(vpn))?;
        self.config
            .replacement
            .on_hit(slots, &mut self.states[set], way);
        slots[way].entry
    }

    /// Probes for `vpn` without touching replacement state.
    pub fn contains(&self, vpn: u64) -> bool {
        let set = self.set_index(vpn) as usize;
        self.set_slots(set).iter().any(|slot| slot.holds(vpn))
    }

    /// Inserts a translation, evicting a victim if the set is full. Returns
    /// the evicted entry, if any.
    #[inline]
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_index(entry.vpn) as usize;
        let ways = self.config.ways as usize;
        let slots = &mut self.slots[set * ways..set * ways + ways];
        let state = &mut self.states[set];
        if let Some(way) = slots.iter().position(|slot| slot.holds(entry.vpn)) {
            slots[way].entry = Some(entry);
            self.config.replacement.on_hit(slots, state, way);
            return None;
        }
        if let Some(way) = slots.iter().position(|slot| slot.entry.is_none()) {
            slots[way].entry = Some(entry);
            self.config.replacement.on_fill(slots, state, way);
            return None;
        }
        let victim_way = self.config.replacement.choose_victim(slots, state);
        let victim = slots[victim_way].entry;
        slots[victim_way].entry = Some(entry);
        self.config.replacement.on_fill(slots, state, victim_way);
        victim
    }

    /// Inserts a translation that a lookup just missed in this TLB, skipping
    /// the presence scan of [`Tlb::insert`]. Inserting a vpn that *is*
    /// present would duplicate it; callers must only use this right after a
    /// miss (the walker's refill path).
    #[inline]
    pub fn insert_after_miss(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        debug_assert!(
            !self.contains(entry.vpn),
            "insert_after_miss on present vpn"
        );
        let set = self.set_index(entry.vpn) as usize;
        let ways = self.config.ways as usize;
        let slots = &mut self.slots[set * ways..set * ways + ways];
        let state = &mut self.states[set];
        if let Some(way) = slots.iter().position(|slot| slot.entry.is_none()) {
            slots[way].entry = Some(entry);
            self.config.replacement.on_fill(slots, state, way);
            return None;
        }
        let victim_way = self.config.replacement.choose_victim(slots, state);
        let victim = slots[victim_way].entry;
        slots[victim_way].entry = Some(entry);
        self.config.replacement.on_fill(slots, state, victim_way);
        victim
    }

    /// Removes the translation for `vpn` (models `invlpg`). Returns whether
    /// an entry was removed.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_index(vpn) as usize;
        let ways = self.config.ways as usize;
        let slots = &mut self.slots[set * ways..set * ways + ways];
        if let Some(way) = slots.iter().position(|slot| slot.holds(vpn)) {
            slots[way].entry = None;
            self.config.replacement.on_invalidate(slots, way);
            true
        } else {
            false
        }
    }

    /// Removes every translation (models a CR3 write without PCID).
    pub fn flush_all(&mut self) {
        for slot in &mut self.slots {
            slot.entry = None;
        }
    }

    /// Number of valid entries currently held in `set`.
    pub fn occupancy(&self, set: u32) -> usize {
        self.set_slots(set as usize)
            .iter()
            .filter(|s| s.entry.is_some())
            .count()
    }
}

/// The full TLB hierarchy of one core: L1 dTLB (4 KiB), L1 dTLB (2 MiB) and a
/// unified L2 sTLB for 4 KiB pages.
#[derive(Debug, Clone, Serialize)]
pub struct TlbHierarchy {
    l1d: Tlb,
    l1d_huge: Tlb,
    l2s: Tlb,
    pmc: TlbPmc,
}

impl TlbHierarchy {
    /// Builds the hierarchy from the MMU configuration.
    pub fn new(config: &MmuConfig) -> Self {
        Self {
            l1d: Tlb::new(config.l1_dtlb, config.seed ^ 0xA1),
            l1d_huge: Tlb::new(config.l1_dtlb_huge, config.seed ^ 0xB2),
            l2s: Tlb::new(config.l2_stlb, config.seed ^ 0xC3),
            pmc: TlbPmc::default(),
        }
    }

    /// The performance counters.
    pub fn pmc(&self) -> &TlbPmc {
        &self.pmc
    }

    /// Resets the performance counters.
    pub fn reset_pmc(&mut self) {
        self.pmc.reset();
    }

    /// The L1 dTLB for 4 KiB pages.
    pub fn l1d(&self) -> &Tlb {
        &self.l1d
    }

    /// The L2 sTLB.
    pub fn l2s(&self) -> &Tlb {
        &self.l2s
    }

    /// The L1 dTLB for 2 MiB pages.
    pub fn l1d_huge(&self) -> &Tlb {
        &self.l1d_huge
    }

    /// Looks up a virtual address. Returns the serving level and entry, or
    /// `None` when a page-table walk is required. Counts PMC events.
    #[inline(always)]
    pub fn lookup(&mut self, vaddr: VirtAddr) -> Option<(TlbLevel, TlbEntry)> {
        self.pmc.lookups += 1;
        let vpn4k = vaddr.as_u64() / PAGE_SIZE;
        let vpn_huge = vaddr.as_u64() / HUGE_PAGE_SIZE;

        if let Some(entry) = self.l1d.lookup(vpn4k) {
            return Some((TlbLevel::L1, entry));
        }
        if let Some(entry) = self.l1d_huge.lookup(vpn_huge) {
            return Some((TlbLevel::L1, entry));
        }
        self.pmc.l1_misses += 1;

        if let Some(entry) = self.l2s.lookup(vpn4k) {
            // Refill the L1 on an sTLB hit; the L1 probe above just missed,
            // so the entry is absent there.
            self.l1d.insert_after_miss(entry);
            return Some((TlbLevel::L2, entry));
        }
        self.pmc.walks += 1;
        None
    }

    /// Inserts a translation produced by a page-table walk.
    ///
    /// The walker only reaches this after [`TlbHierarchy::lookup`] missed
    /// every level for the entry's vpn, so the per-level presence scans are
    /// skipped. External callers inserting speculatively must use the
    /// individual [`Tlb::insert`] methods instead.
    pub fn insert(&mut self, entry: TlbEntry) {
        match entry.page_size {
            PageSize::Base4K => {
                self.l1d.insert_after_miss(entry);
                self.l2s.insert_after_miss(entry);
            }
            PageSize::Huge2M => {
                self.l1d_huge.insert_after_miss(entry);
            }
        }
    }

    /// Invalidates any cached translation for the page containing `vaddr`
    /// (models `invlpg`; privileged — only the kernel substrate calls this).
    pub fn invalidate(&mut self, vaddr: VirtAddr) {
        self.l1d.invalidate(vaddr.as_u64() / PAGE_SIZE);
        self.l2s.invalidate(vaddr.as_u64() / PAGE_SIZE);
        self.l1d_huge.invalidate(vaddr.as_u64() / HUGE_PAGE_SIZE);
    }

    /// Flushes every entry from every level (CR3 reload).
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l2s.flush_all();
        self.l1d_huge.flush_all();
    }

    /// Probes whether any level holds a translation for `vaddr` without
    /// updating replacement state (evaluation oracle).
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        self.l1d.contains(vaddr.as_u64() / PAGE_SIZE)
            || self.l2s.contains(vaddr.as_u64() / PAGE_SIZE)
            || self.l1d_huge.contains(vaddr.as_u64() / HUGE_PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;

    fn entry(vpn: u64) -> TlbEntry {
        let frame = PhysAddr::new((vpn % 1024) * PAGE_SIZE + 0x10_0000);
        TlbEntry {
            vpn,
            frame,
            pte: Pte::page(frame, PteFlags::user_rw()),
            page_size: PageSize::Base4K,
        }
    }

    #[test]
    fn insert_then_lookup() {
        let mut tlb = Tlb::new(TlbConfig::l1_dtlb_64(), 1);
        tlb.insert(entry(0x42));
        assert!(tlb.contains(0x42));
        assert_eq!(tlb.lookup(0x42).unwrap().vpn, 0x42);
        assert!(tlb.lookup(0x43).is_none());
    }

    #[test]
    fn insert_same_vpn_updates_in_place() {
        let mut tlb = Tlb::new(TlbConfig::l1_dtlb_64(), 1);
        tlb.insert(entry(7));
        let mut e2 = entry(7);
        e2.frame = PhysAddr::new(0x9_0000);
        assert_eq!(tlb.insert(e2), None);
        assert_eq!(tlb.lookup(7).unwrap().frame, PhysAddr::new(0x9_0000));
        assert_eq!(tlb.occupancy(tlb.set_index(7)), 1);
    }

    #[test]
    fn eviction_when_set_full() {
        let cfg = TlbConfig::l1_dtlb_64(); // 16 sets, 4 ways, linear
        let mut tlb = Tlb::new(cfg, 1);
        // 6 VPNs congruent to set 3.
        let vpns: Vec<u64> = (0..6).map(|i| 3 + i * 16).collect();
        let mut evicted = 0;
        for &vpn in &vpns {
            if tlb.insert(entry(vpn)).is_some() {
                evicted += 1;
            }
        }
        assert_eq!(evicted, 2, "6 inserts into a 4-way set evict twice");
        assert_eq!(tlb.occupancy(3), 4);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(TlbConfig::l2_stlb_512(), 1);
        tlb.insert(entry(100));
        tlb.insert(entry(200));
        assert!(tlb.invalidate(100));
        assert!(!tlb.invalidate(100));
        assert!(tlb.contains(200));
        tlb.flush_all();
        assert!(!tlb.contains(200));
    }

    #[test]
    fn entry_translation_offsets() {
        let e = entry(0x42);
        let vaddr = VirtAddr::new(0x42 * PAGE_SIZE + 0x123);
        assert_eq!(e.translate(vaddr), e.frame + 0x123);

        let huge = TlbEntry {
            vpn: 3,
            frame: PhysAddr::new(3 * HUGE_PAGE_SIZE),
            pte: Pte::page(PhysAddr::new(3 * HUGE_PAGE_SIZE), PteFlags::user_rw_huge()),
            page_size: PageSize::Huge2M,
        };
        let vaddr = VirtAddr::new(3 * HUGE_PAGE_SIZE + 0x12_3456);
        assert_eq!(
            huge.translate(vaddr),
            PhysAddr::new(3 * HUGE_PAGE_SIZE + 0x12_3456)
        );
    }

    #[test]
    fn hierarchy_l1_miss_falls_back_to_l2() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        let e = entry(0x1000);
        h.insert(e);
        // Evict from the 4-way L1 set by inserting 8 more conflicting entries
        // directly into the L1 (simulating later accesses).
        for i in 1..=8u64 {
            h.l1d.insert(entry(0x1000 + i * 16));
        }
        let vaddr = VirtAddr::new(0x1000 * PAGE_SIZE + 5);
        let (level, found) = h.lookup(vaddr).expect("still in sTLB");
        assert_eq!(level, TlbLevel::L2);
        assert_eq!(found.vpn, 0x1000);
        // The hit refilled L1: next lookup hits L1.
        let (level, _) = h.lookup(vaddr).unwrap();
        assert_eq!(level, TlbLevel::L1);
    }

    #[test]
    fn hierarchy_counts_walks() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        assert!(h.lookup(VirtAddr::new(0xdead_b000)).is_none());
        assert_eq!(h.pmc().lookups, 1);
        assert_eq!(h.pmc().l1_misses, 1);
        assert_eq!(h.pmc().walks, 1);
        h.reset_pmc();
        assert_eq!(h.pmc().walks, 0);
    }

    #[test]
    fn hierarchy_huge_entries_use_huge_tlb() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        let frame = PhysAddr::new(8 * HUGE_PAGE_SIZE);
        h.insert(TlbEntry {
            vpn: 5,
            frame,
            pte: Pte::page(frame, PteFlags::user_rw_huge()),
            page_size: PageSize::Huge2M,
        });
        assert!(h.l1d_huge().contains(5));
        assert!(!h.l1d().contains(5 * 512));
        let vaddr = VirtAddr::new(5 * HUGE_PAGE_SIZE + 0x777);
        let (level, e) = h.lookup(vaddr).expect("huge TLB hit");
        assert_eq!(level, TlbLevel::L1);
        assert_eq!(e.translate(vaddr), frame + 0x777);
    }

    #[test]
    fn hierarchy_invalidate_removes_everywhere() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        let e = entry(77);
        h.insert(e);
        let vaddr = VirtAddr::new(77 * PAGE_SIZE);
        assert!(h.contains(vaddr));
        h.invalidate(vaddr);
        assert!(!h.contains(vaddr));
    }

    #[test]
    fn pmc_since_subtracts() {
        let a = TlbPmc {
            lookups: 10,
            l1_misses: 4,
            walks: 2,
        };
        let b = TlbPmc {
            lookups: 25,
            l1_misses: 9,
            walks: 5,
        };
        let d = b.since(&a);
        assert_eq!(d.lookups, 15);
        assert_eq!(d.l1_misses, 5);
        assert_eq!(d.walks, 3);
    }

    #[test]
    fn nru_tlb_needs_more_than_associativity_to_evict_reliably() {
        // The observation behind Algorithm 1: under a non-LRU policy, an
        // eviction set exactly as large as the associativity does not always
        // evict, a somewhat larger one does. We measure eviction probability
        // of a target VPN after sequentially inserting k congruent VPNs into
        // an NRU-managed TLB (available for the replacement ablation).
        let evict_rate = |k: u64| -> f64 {
            let mut evictions = 0;
            let trials = 200;
            for trial in 0..trials {
                let cfg = TlbConfig {
                    replacement: pthammer_cache::ReplacementPolicy::Nru,
                    ..TlbConfig::l1_dtlb_64()
                };
                let mut tlb = Tlb::new(cfg, trial);
                let target = 5u64;
                tlb.insert(entry(target));
                // Pre-populate the set with unrelated entries to vary state.
                for j in 0..(trial % 4) {
                    tlb.insert(entry(5 + (100 + j) * 16));
                }
                for i in 1..=k {
                    tlb.insert(entry(5 + i * 16));
                }
                if !tlb.contains(target) {
                    evictions += 1;
                }
            }
            evictions as f64 / trials as f64
        };
        let at_assoc = evict_rate(4);
        let at_8 = evict_rate(8);
        assert!(
            at_8 > 0.95,
            "8 congruent inserts should almost always evict, got {at_8}"
        );
        assert!(at_assoc <= at_8);
    }
}
