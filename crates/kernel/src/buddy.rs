//! A buddy-style physical frame allocator.
//!
//! The attack depends on one well-known behaviour of the Linux buddy
//! allocator: consecutive allocations tend to return physically consecutive
//! frames, which is what makes the 256 MiB virtual-address stride of the
//! paper's pair selection land Level-1 page tables two DRAM rows apart. This
//! allocator reproduces that behaviour by always splitting the lowest-address
//! (or, on request, highest-address) free block.
//!
//! Placement defenses constrain a frame to a [`FrameSet`];
//! [`BuddyAllocator::alloc_frame_in`] finds the lowest (or highest) free
//! frame of the set with range queries over the per-order free lists.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::frame_set::{Cursor, FrameSet};

/// Maximum block order (2^10 frames = 4 MiB blocks).
pub const MAX_ORDER: u32 = 10;

/// Source of allocator generations; starts at 1 because a [`Cursor`] uses 0
/// for "no knowledge".
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    // Relaxed: a generation only has to be unique; it publishes no data.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Exact work counters of set-constrained allocation
/// ([`BuddyAllocator::alloc_frame_in`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Calls to [`BuddyAllocator::alloc_frame_in`].
    pub filtered: u64,
    /// Free-list range queries those calls made. One query asks every order
    /// for the lowest free frame at or above a frame (the highest at or
    /// below it, top-down).
    pub probes: u64,
}

/// A buddy allocator over physical frame numbers.
///
/// # Examples
///
/// ```
/// use pthammer_kernel::BuddyAllocator;
/// let mut buddy = BuddyAllocator::new(0, 1024);
/// let a = buddy.alloc_frame().unwrap();
/// let b = buddy.alloc_frame().unwrap();
/// assert_eq!(b, a + 1, "consecutive allocations are physically consecutive");
/// buddy.free_frame(a);
/// buddy.free_frame(b);
/// ```
#[derive(Debug)]
pub struct BuddyAllocator {
    /// Free blocks per order, keyed by their first frame number.
    free_lists: Vec<BTreeSet<u64>>,
    start_frame: u64,
    end_frame: u64,
    free_frames: u64,
    /// Process-unique stamp of this allocator's free state, renewed on every
    /// free. Between two frees the free frames only shrink, so a
    /// [`FrameSet`] cursor computed at one generation stays valid for as
    /// long as the generation does.
    generation: u64,
    counters: AllocCounters,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `start_frame..end_frame`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(start_frame: u64, end_frame: u64) -> Self {
        assert!(end_frame > start_frame, "empty frame range");
        let mut this = Self {
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            start_frame,
            end_frame,
            free_frames: 0,
            generation: fresh_generation(),
            counters: AllocCounters::default(),
        };
        // Seed the free lists greedily with the largest aligned blocks.
        let mut frame = start_frame;
        while frame < end_frame {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if frame.is_multiple_of(size) && frame + size <= end_frame {
                    break;
                }
                order -= 1;
            }
            this.free_lists[order as usize].insert(frame);
            this.free_frames += 1 << order;
            frame += 1 << order;
        }
        this
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Total number of managed frames.
    pub fn total_frames(&self) -> u64 {
        self.end_frame - self.start_frame
    }

    /// The managed frame range.
    pub fn range(&self) -> (u64, u64) {
        (self.start_frame, self.end_frame)
    }

    /// Work done so far by [`alloc_frame_in`](Self::alloc_frame_in).
    pub fn counters(&self) -> AllocCounters {
        self.counters
    }

    /// Allocates a block of `2^order` frames, preferring the lowest address
    /// (or the highest when `from_top` is true). Returns the first frame.
    pub fn alloc_order(&mut self, order: u32, from_top: bool) -> Option<u64> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Choose the lowest-address (or highest-address) block among every
        // order that can satisfy the request; this keeps plain frame
        // allocations physically consecutive even when the free lists are
        // fragmented across orders.
        // (order, block start, comparison key): the key is the block start
        // for bottom-up allocation and the block's last frame for top-down.
        let mut found: Option<(u32, u64, u64)> = None;
        for o in order..=MAX_ORDER {
            let list = &self.free_lists[o as usize];
            let candidate = if from_top {
                list.iter().next_back().copied()
            } else {
                list.iter().next().copied()
            };
            if let Some(start) = candidate {
                let key = if from_top {
                    start + (1u64 << o) - 1
                } else {
                    start
                };
                let better = match found {
                    None => true,
                    Some((_, _, best_key)) => {
                        if from_top {
                            key > best_key
                        } else {
                            key < best_key
                        }
                    }
                };
                if better {
                    found = Some((o, start, key));
                }
            }
        }
        let (mut o, frame, _) = found?;
        self.free_lists[o as usize].remove(&frame);
        // Split down to the requested order, freeing the buddy halves.
        let mut base = frame;
        while o > order {
            o -= 1;
            let half = 1u64 << o;
            if from_top {
                // Keep the upper half, free the lower half.
                self.free_lists[o as usize].insert(base);
                base += half;
            } else {
                // Keep the lower half, free the upper half.
                self.free_lists[o as usize].insert(base + half);
            }
        }
        self.free_frames -= 1 << order;
        Some(base)
    }

    /// Allocates a single frame (order 0), lowest address first.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        self.alloc_order(0, false)
    }

    /// Allocates a single frame from the top of memory (highest address).
    pub fn alloc_frame_from_top(&mut self) -> Option<u64> {
        self.alloc_order(0, true)
    }

    /// Allocates the lowest (or, when `from_top`, the highest) free frame in
    /// `set`.
    ///
    /// Used by placement-policy defenses that constrain where page tables or
    /// user data may live (e.g. CATT's kernel/user partitions or CTA's
    /// true-cell region). Each step is one range query over the free lists:
    /// it finds the nearest free frame in the search direction, and when that
    /// frame falls in a gap of the set the search jumps to the next range.
    /// The set's cursor skips the ranges earlier searches found full.
    pub fn alloc_frame_in(&mut self, set: &mut FrameSet, from_top: bool) -> Option<u64> {
        self.counters.filtered += 1;
        let FrameSet {
            ranges,
            bottom_up,
            top_down,
        } = set;
        let cursor = if from_top { top_down } else { bottom_up };
        if cursor.generation != self.generation {
            *cursor = Cursor {
                passed: 0,
                generation: self.generation,
            };
        }
        let (frame, block, order) = if from_top {
            self.search_down(ranges, &mut cursor.passed)
        } else {
            self.search_up(ranges, &mut cursor.passed)
        }?;
        self.carve_frame(block, order, frame);
        Some(frame)
    }

    /// Lowest free frame of `ranges[*passed..]`, advancing `*passed` past
    /// every range found full.
    fn search_up(&mut self, ranges: &[Range<u64>], passed: &mut usize) -> Option<(u64, u64, u32)> {
        let mut at = ranges.get(*passed)?.start;
        loop {
            self.counters.probes += 1;
            let Some(found) = self.lowest_free_at_or_above(at) else {
                *passed = ranges.len();
                return None;
            };
            // Every range ending at or below the found frame is full.
            *passed += ranges[*passed..].partition_point(|r| r.end <= found.0);
            let range = ranges.get(*passed)?;
            if found.0 >= range.start {
                return Some(found);
            }
            at = range.start;
        }
    }

    /// Highest free frame of the ranges left after dropping `*passed` from
    /// the back, advancing `*passed` past every range found full.
    fn search_down(
        &mut self,
        ranges: &[Range<u64>],
        passed: &mut usize,
    ) -> Option<(u64, u64, u32)> {
        let mut end = ranges.len() - *passed;
        let mut at = ranges[..end].last()?.end - 1;
        loop {
            self.counters.probes += 1;
            let Some(found) = self.highest_free_at_or_below(at) else {
                *passed = ranges.len();
                return None;
            };
            // Every range starting above the found frame is full.
            end = ranges[..end].partition_point(|r| r.start <= found.0);
            *passed = ranges.len() - end;
            let range = ranges[..end].last()?;
            if found.0 < range.end {
                return Some(found);
            }
            at = range.end - 1;
        }
    }

    /// The lowest free frame at or above `at`, with its block and order.
    fn lowest_free_at_or_above(&self, at: u64) -> Option<(u64, u64, u32)> {
        let mut best: Option<(u64, u64, u32)> = None;
        for (order, list) in self.free_lists.iter().enumerate() {
            // The first block starting late enough to reach `at` either
            // contains `at` or is the next block above it.
            let reach = (1u64 << order) - 1;
            if let Some(&block) = list.range(at.saturating_sub(reach)..).next() {
                let frame = block.max(at);
                if best.is_none_or(|(f, _, _)| frame < f) {
                    best = Some((frame, block, order as u32));
                }
            }
        }
        best
    }

    /// The highest free frame at or below `at`, with its block and order.
    fn highest_free_at_or_below(&self, at: u64) -> Option<(u64, u64, u32)> {
        let mut best: Option<(u64, u64, u32)> = None;
        for (order, list) in self.free_lists.iter().enumerate() {
            if let Some(&block) = list.range(..=at).next_back() {
                let frame = (block + (1u64 << order) - 1).min(at);
                if best.is_none_or(|(f, _, _)| frame > f) {
                    best = Some((frame, block, order as u32));
                }
            }
        }
        best
    }

    /// Removes `frame` from the free block `(block, order)`, returning the
    /// remainder to the free lists.
    fn carve_frame(&mut self, block: u64, order: u32, frame: u64) {
        self.free_lists[order as usize].remove(&block);
        // Re-insert every other frame of the block as order-0 blocks and then
        // let free_frame's coalescing rebuild larger blocks lazily. Simpler:
        // split recursively, keeping only the half containing `frame`.
        let mut base = block;
        let mut o = order;
        while o > 0 {
            o -= 1;
            let half = 1u64 << o;
            if frame < base + half {
                self.free_lists[o as usize].insert(base + half);
            } else {
                self.free_lists[o as usize].insert(base);
                base += half;
            }
        }
        self.free_frames -= 1;
    }

    /// Frees a single frame, coalescing buddies where possible.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside the managed range or already free.
    pub fn free_frame(&mut self, frame: u64) {
        self.free_block(frame, 0);
    }

    /// Frees a block of `2^order` frames.
    ///
    /// # Panics
    ///
    /// Panics if the block leaves the managed range or any of its frames is
    /// already free.
    pub fn free_block(&mut self, frame: u64, order: u32) {
        let freed = 1u64 << order;
        assert!(
            frame >= self.start_frame && frame + freed <= self.end_frame,
            "frame {frame} outside managed range"
        );
        if let Some((free, _, _)) = self.lowest_free_at_or_above(frame) {
            assert!(
                free >= frame + freed,
                "double free: frame {free} of block {frame} (order {order}) is already free"
            );
        }
        self.generation = fresh_generation();
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            if self.free_lists[order as usize].remove(&buddy) {
                frame = frame.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(frame);
        self.free_frames += freed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl BuddyAllocator {
        /// The frame-by-frame scan `alloc_frame_in` replaced, kept as its
        /// oracle: collect every free block, sort by address and test frames
        /// one at a time in the requested direction.
        fn alloc_frame_scan(&mut self, pred: impl Fn(u64) -> bool, from_top: bool) -> Option<u64> {
            let mut blocks: Vec<(u64, u32)> = Vec::new();
            for (order, list) in self.free_lists.iter().enumerate() {
                for &frame in list {
                    blocks.push((frame, order as u32));
                }
            }
            blocks.sort_unstable();
            if from_top {
                blocks.reverse();
            }
            for (block, order) in blocks {
                let mut frames = block..block + (1u64 << order);
                let hit = if from_top {
                    frames.rfind(|&f| pred(f))
                } else {
                    frames.find(|&f| pred(f))
                };
                if let Some(frame) = hit {
                    self.carve_frame(block, order, frame);
                    return Some(frame);
                }
            }
            None
        }
    }

    #[test]
    fn consecutive_allocations_are_consecutive_frames() {
        let mut b = BuddyAllocator::new(0, 4096);
        let frames: Vec<u64> = (0..64).map(|_| b.alloc_frame().unwrap()).collect();
        for w in frames.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn allocation_and_free_preserve_counts() {
        let mut b = BuddyAllocator::new(0, 2048);
        assert_eq!(b.free_frames(), 2048);
        let f = b.alloc_frame().unwrap();
        assert_eq!(b.free_frames(), 2047);
        b.free_frame(f);
        assert_eq!(b.free_frames(), 2048);
    }

    #[test]
    fn order_allocation_is_aligned() {
        let mut b = BuddyAllocator::new(0, 4096);
        for order in [0u32, 1, 3, 7, 10] {
            let f = b.alloc_order(order, false).unwrap();
            assert_eq!(f % (1 << order), 0, "order {order} block misaligned");
        }
    }

    #[test]
    fn from_top_allocates_highest_frames() {
        let mut b = BuddyAllocator::new(0, 1024);
        let top = b.alloc_frame_from_top().unwrap();
        assert_eq!(top, 1023);
        let next = b.alloc_frame_from_top().unwrap();
        assert_eq!(next, 1022);
        let low = b.alloc_frame().unwrap();
        assert_eq!(low, 0);
    }

    #[test]
    fn set_allocation_stays_in_the_set() {
        let mut b = BuddyAllocator::new(0, 1024);
        // Only frames in "odd row spans" (every other group of 64 frames).
        let mut odd = FrameSet::new((0..16).filter(|r| r % 2 == 1).map(|r| r * 64..(r + 1) * 64));
        for _ in 0..10 {
            let f = b.alloc_frame_in(&mut odd, false).unwrap();
            assert!((f / 64) % 2 == 1);
        }
        // An empty set returns None without corrupting state.
        assert!(b.alloc_frame_in(&mut FrameSet::new([]), false).is_none());
        assert!(b.alloc_frame_in(&mut FrameSet::new([]), true).is_none());
        let before = b.free_frames();
        let f = b.alloc_frame().unwrap();
        b.free_frame(f);
        assert_eq!(b.free_frames(), before);
    }

    #[test]
    fn set_from_top_picks_highest_member() {
        let mut b = BuddyAllocator::new(0, 1024);
        let f = b
            .alloc_frame_in(&mut FrameSet::new(std::iter::once(0..500)), true)
            .unwrap();
        assert_eq!(f, 499);
    }

    #[test]
    fn sets_reaching_past_the_managed_range_are_clipped() {
        let mut b = BuddyAllocator::new(256, 512);
        let mut all = FrameSet::new(std::iter::once(0..u64::MAX));
        assert_eq!(b.alloc_frame_in(&mut all, false), Some(256));
        assert_eq!(b.alloc_frame_in(&mut all, true), Some(511));
        let mut outside = FrameSet::new([0..256, 512..u64::MAX]);
        assert_eq!(b.alloc_frame_in(&mut outside, false), None);
        assert_eq!(b.alloc_frame_in(&mut outside, true), None);
    }

    #[test]
    fn a_free_behind_the_cursor_is_found_again() {
        let mut b = BuddyAllocator::new(0, 1024);
        let mut rows = FrameSet::new([0..64, 128..192, 256..320]);
        let first: Vec<u64> = (0..70)
            .map(|_| b.alloc_frame_in(&mut rows, false).unwrap())
            .collect();
        assert_eq!(first[69], 133, "the cursor has passed the first range");
        b.free_frame(first[5]);
        assert_eq!(b.alloc_frame_in(&mut rows, false), Some(5));
        assert_eq!(b.alloc_frame_in(&mut rows, false), Some(134));
    }

    #[test]
    fn a_cursor_never_carries_over_to_another_allocator() {
        let mut rows = FrameSet::new([0..64, 128..192]);
        let mut first = BuddyAllocator::new(0, 1024);
        for _ in 0..64 {
            first.alloc_frame_in(&mut rows, false).unwrap();
        }
        assert_eq!(first.alloc_frame_in(&mut rows, false), Some(128));
        // The cursor has passed the first range, which is still free in a
        // fresh allocator.
        let mut fresh = BuddyAllocator::new(0, 1024);
        assert_eq!(fresh.alloc_frame_in(&mut rows, false), Some(0));
    }

    #[test]
    fn cursor_keeps_guard_row_sets_to_few_probes() {
        // ZebRAM's shape: every other row usable, the guard rows free.
        let mut b = BuddyAllocator::new(16, 8192);
        let mut even = FrameSet::new((0..128).step_by(2).map(|r| r * 64..(r + 1) * 64));
        for _ in 0..2000 {
            b.alloc_frame_in(&mut even, false).unwrap();
        }
        let c = b.counters();
        assert_eq!(c.filtered, 2000);
        assert!(c.probes <= 2 * c.filtered, "{c:?}");
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let mut b = BuddyAllocator::new(0, 1024);
        let frames: Vec<u64> = (0..1024).map(|_| b.alloc_frame().unwrap()).collect();
        assert_eq!(b.free_frames(), 0);
        assert!(b.alloc_frame().is_none());
        for f in frames {
            b.free_frame(f);
        }
        assert_eq!(b.free_frames(), 1024);
        // A max-order allocation should succeed again after coalescing.
        assert!(b.alloc_order(MAX_ORDER, false).is_some());
    }

    #[test]
    fn nonzero_start_range() {
        let mut b = BuddyAllocator::new(256, 512);
        let f = b.alloc_frame().unwrap();
        assert_eq!(f, 256);
        assert_eq!(b.total_frames(), 256);
    }

    #[test]
    #[should_panic(expected = "outside managed range")]
    fn freeing_foreign_frame_panics() {
        let mut b = BuddyAllocator::new(0, 128);
        b.free_frame(500);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_a_free_frame_panics() {
        let mut b = BuddyAllocator::new(0, 128);
        let f = b.alloc_frame().unwrap();
        b.free_frame(f);
        b.free_frame(f);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_a_block_with_a_free_frame_panics() {
        let mut b = BuddyAllocator::new(0, 128);
        let block = b.alloc_order(2, false).unwrap();
        b.free_block(block, 2);
        b.alloc_frame().unwrap();
        b.free_block(block, 2);
    }

    /// A small deterministic generator for the proptest's frame sets.
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    /// Four frame sets over a ~600-frame allocator: empty, random ranges,
    /// random ranges with one reaching past the managed range, and
    /// alternating 16-frame rows.
    fn trace_sets(seed: u64) -> Vec<FrameSet> {
        let mut state = seed;
        let mut random = |open_ended: bool| {
            let count = next(&mut state) % 6 + 1;
            let mut ranges: Vec<Range<u64>> = (0..count)
                .map(|_| {
                    let start = next(&mut state) % 700;
                    start..start + next(&mut state) % 90
                })
                .collect();
            if open_ended {
                ranges.push(next(&mut state) % 700..u64::MAX);
            }
            FrameSet::new(ranges)
        };
        vec![
            FrameSet::new([]),
            random(false),
            random(true),
            FrameSet::new((0..40).step_by(2).map(|r| r * 16..(r + 1) * 16)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_alloc_free_never_loses_frames(ops in prop::collection::vec(0u8..3, 1..200)) {
            let mut b = BuddyAllocator::new(0, 512);
            let mut held = Vec::new();
            for op in ops {
                match op {
                    0 | 1 => {
                        if let Some(f) = b.alloc_frame() {
                            prop_assert!(f < 512);
                            prop_assert!(!held.contains(&f), "double allocation of frame {}", f);
                            held.push(f);
                        }
                    }
                    _ => {
                        if let Some(f) = held.pop() {
                            b.free_frame(f);
                        }
                    }
                }
                prop_assert_eq!(b.free_frames() as usize + held.len(), 512);
            }
        }

        // `alloc_frame_in` returns exactly the frames the old scan returned,
        // and leaves exactly the same free lists, under random traces of
        // every allocator operation.
        #[test]
        fn prop_set_allocation_matches_the_scan(
            seed in any::<u64>(),
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            let start = seed % 40;
            let end = 512 + (seed >> 8) % 100;
            let mut fast = BuddyAllocator::new(start, end);
            let mut scan = BuddyAllocator::new(start, end);
            let mut sets = trace_sets(seed);
            let mut held: Vec<(u64, u32)> = Vec::new();
            for op in ops {
                let (kind, arg, from_top) = (op % 8, op >> 8, (op >> 4) & 1 == 1);
                match kind {
                    0 => {
                        let got = fast.alloc_frame();
                        prop_assert_eq!(got, scan.alloc_frame());
                        held.extend(got.map(|f| (f, 0)));
                    }
                    1 => {
                        let order = (arg % 4) as u32;
                        let got = fast.alloc_order(order, from_top);
                        prop_assert_eq!(got, scan.alloc_order(order, from_top));
                        held.extend(got.map(|f| (f, order)));
                    }
                    2 | 3 if !held.is_empty() => {
                        let (frame, order) = held.swap_remove((arg % held.len() as u64) as usize);
                        fast.free_block(frame, order);
                        scan.free_block(frame, order);
                    }
                    _ => {
                        let set = &mut sets[(arg % 4) as usize];
                        let expected = scan.alloc_frame_scan(|f| set.contains(f), from_top);
                        let got = fast.alloc_frame_in(set, from_top);
                        prop_assert_eq!(got, expected);
                        held.extend(got.map(|f| (f, 0)));
                    }
                }
                prop_assert_eq!(fast.free_frames(), scan.free_frames());
            }
            prop_assert_eq!(&fast.free_lists, &scan.free_lists);
        }
    }
}
