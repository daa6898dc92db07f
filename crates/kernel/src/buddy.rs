//! A buddy-style physical frame allocator.
//!
//! The attack depends on one well-known behaviour of the Linux buddy
//! allocator: consecutive allocations tend to return physically consecutive
//! frames, which is what makes the 256 MiB virtual-address stride of the
//! paper's pair selection land Level-1 page tables two DRAM rows apart. This
//! allocator reproduces that behaviour by always splitting the lowest-address
//! (or, on request, highest-address) free block.

use std::collections::BTreeSet;

use serde::Serialize;

/// Maximum block order (2^10 frames = 4 MiB blocks).
pub const MAX_ORDER: u32 = 10;

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
#[derive(Debug, Clone, Serialize)]
pub struct BuddyAllocator {
    /// Free blocks per order, keyed by their first frame number.
    free_lists: Vec<BTreeSet<u64>>,
    start_frame: u64,
    end_frame: u64,
    free_frames: u64,
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

    /// Allocates the lowest (or highest) free frame satisfying `pred`.
    ///
    /// Used by placement-policy defenses that constrain where page tables or
    /// user data may live (e.g. CATT's per-bank partitions or CTA's
    /// true-cell region).
    pub fn alloc_frame_filtered<F: Fn(u64) -> bool>(
        &mut self,
        pred: F,
        from_top: bool,
    ) -> Option<u64> {
        // Collect candidate blocks across orders sorted by address.
        let mut blocks: Vec<(u64, u32)> = Vec::new();
        for (order, list) in self.free_lists.iter().enumerate() {
            for &frame in list {
                blocks.push((frame, order as u32));
            }
        }
        blocks.sort_unstable();
        let iter: Box<dyn Iterator<Item = &(u64, u32)>> = if from_top {
            Box::new(blocks.iter().rev())
        } else {
            Box::new(blocks.iter())
        };
        for &(block, order) in iter {
            let size = 1u64 << order;
            let frames: Box<dyn Iterator<Item = u64>> = if from_top {
                Box::new((block..block + size).rev())
            } else {
                Box::new(block..block + size)
            };
            for frame in frames {
                if pred(frame) {
                    self.carve_frame(block, order, frame);
                    return Some(frame);
                }
            }
        }
        None
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
    /// Panics if the frame is outside the managed range.
    pub fn free_frame(&mut self, frame: u64) {
        self.free_block(frame, 0);
    }

    /// Frees a block of `2^order` frames.
    pub fn free_block(&mut self, frame: u64, order: u32) {
        assert!(
            frame >= self.start_frame && frame + (1 << order) <= self.end_frame,
            "frame {frame} outside managed range"
        );
        let freed = 1u64 << order;
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

    /// Exhausts all free blocks smaller than `min_order`, returning the
    /// allocated frames. This models the allocator-massaging technique of
    /// Cheng et al. (used in the paper's CATT evaluation) that forces later
    /// page-table allocations into large, physically contiguous runs.
    pub fn exhaust_small_blocks(&mut self, min_order: u32) -> Vec<u64> {
        let mut taken = Vec::new();
        for order in 0..min_order.min(MAX_ORDER + 1) {
            let frames: Vec<u64> = self.free_lists[order as usize].iter().copied().collect();
            for frame in frames {
                self.free_lists[order as usize].remove(&frame);
                let count = 1u64 << order;
                self.free_frames -= count;
                taken.extend(frame..frame + count);
            }
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn filtered_allocation_respects_predicate() {
        let mut b = BuddyAllocator::new(0, 1024);
        // Only frames in "odd row spans" (every other group of 64 frames).
        let pred = |frame: u64| (frame / 64) % 2 == 1;
        for _ in 0..10 {
            let f = b.alloc_frame_filtered(pred, false).unwrap();
            assert!(pred(f));
        }
        // Unsatisfiable predicate returns None without corrupting state.
        assert!(b.alloc_frame_filtered(|_| false, false).is_none());
        let before = b.free_frames();
        let f = b.alloc_frame().unwrap();
        b.free_frame(f);
        assert_eq!(b.free_frames(), before);
    }

    #[test]
    fn filtered_from_top_picks_highest_satisfying() {
        let mut b = BuddyAllocator::new(0, 1024);
        let f = b.alloc_frame_filtered(|fr| fr < 500, true).unwrap();
        assert_eq!(f, 499);
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
    fn exhaust_small_blocks_removes_fragments() {
        let mut b = BuddyAllocator::new(0, 1024);
        // Create fragmentation: allocate some frames and free every other one.
        let frames: Vec<u64> = (0..32).map(|_| b.alloc_frame().unwrap()).collect();
        for f in frames.iter().step_by(2) {
            b.free_frame(*f);
        }
        let taken = b.exhaust_small_blocks(5);
        assert!(!taken.is_empty());
        // After exhaustion, the next allocations come from large blocks and
        // are therefore consecutive.
        let a = b.alloc_frame().unwrap();
        let c = b.alloc_frame().unwrap();
        assert_eq!(c, a + 1);
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
    }
}
