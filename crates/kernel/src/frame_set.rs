//! Frame sets: the shape every placement constraint takes.
//!
//! A placement defense decides where a frame may live from its DRAM row
//! alone, and a row is a contiguous run of frames, so each constraint is a
//! union of frame ranges. [`FrameSet`] stores that union sorted and
//! disjoint; [`BuddyAllocator::alloc_frame_in`](crate::BuddyAllocator::alloc_frame_in)
//! answers "lowest (or highest) free frame in the set" with range queries
//! over the free lists instead of testing frames one by one.

use std::ops::Range;

/// A set of physical frames as sorted, disjoint, non-adjacent ranges, plus
/// one search cursor per allocation direction.
///
/// The cursors belong to the allocator's search: they remember how many
/// ranges (from the front for bottom-up, from the back for top-down) are
/// known to hold no free frame, so a later search resumes where the last
/// one stopped. A cursor is only trusted while the allocator it was computed
/// against has freed nothing since; otherwise the search restarts.
///
/// # Examples
///
/// ```
/// use pthammer_kernel::{BuddyAllocator, FrameSet};
/// let mut odd_rows = FrameSet::new((0..16).filter(|r| r % 2 == 1).map(|r| r * 64..(r + 1) * 64));
/// let mut buddy = BuddyAllocator::new(0, 1024);
/// assert_eq!(buddy.alloc_frame_in(&mut odd_rows, false), Some(64));
/// assert_eq!(buddy.alloc_frame_in(&mut odd_rows, true), Some(1023));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameSet {
    pub(crate) ranges: Vec<Range<u64>>,
    pub(crate) bottom_up: Cursor,
    pub(crate) top_down: Cursor,
}

/// Where one direction's search resumes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    /// Ranges, counted from the search's starting end, that hold no free
    /// frame.
    pub(crate) passed: usize,
    /// Generation of the allocator `passed` was computed against; 0 (never
    /// an allocator's generation) means "no knowledge".
    pub(crate) generation: u64,
}

impl FrameSet {
    /// The union of `ranges`, which may be unsorted, overlapping, adjacent
    /// or empty.
    pub fn new(ranges: impl IntoIterator<Item = Range<u64>>) -> Self {
        let mut ranges: Vec<Range<u64>> = ranges.into_iter().filter(|r| r.start < r.end).collect();
        ranges.sort_unstable_by_key(|r| r.start);
        ranges.dedup_by(|next, kept| {
            let touches = next.start <= kept.end;
            if touches {
                kept.end = kept.end.max(next.end);
            }
            touches
        });
        ranges.shrink_to_fit();
        Self {
            ranges,
            ..Self::default()
        }
    }

    /// True when `frame` is in the set.
    pub fn contains(&self, frame: u64) -> bool {
        let i = self.ranges.partition_point(|r| r.end <= frame);
        self.ranges.get(i).is_some_and(|r| r.start <= frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_merges_and_drops_empty_ranges() {
        let set = FrameSet::new([10..12, 0..4, 4..6, 7..7, 11..20, 30..31]);
        assert_eq!(set.ranges, vec![0..6, 10..20, 30..31]);
        assert!(FrameSet::new([]).ranges.is_empty());
    }

    #[test]
    fn contains_matches_ranges() {
        let set = FrameSet::new([2..4, 8..u64::MAX]);
        let inside: Vec<u64> = (0..12).filter(|&f| set.contains(f)).collect();
        assert_eq!(inside, vec![2, 3, 8, 9, 10, 11]);
        assert!(set.contains(u64::MAX - 1));
        assert!(!set.contains(u64::MAX));
    }
}
