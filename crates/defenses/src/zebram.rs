//! ZebRAM-style guard-row interleaving (Konoth et al., OSDI 2018).

use pthammer_dram::DramGeometry;
use pthammer_kernel::{BuddyAllocator, DefenseKind, FramePurpose, FrameSet, PlacementPolicy};

use crate::{frames_per_row, row_frames, row_of_frame};

/// ZebRAM places all usable data in alternating DRAM rows, keeping the rows
/// in between as unused guard rows (in the real system the guard rows hold an
/// integrity-protected swap cache; modelling them as unused is the strongest
/// version of the defense). Because every aggressor row's neighbours are
/// guard rows, rowhammer flips land in memory nobody relies on.
///
/// The paper explicitly lists ZebRAM as a defense PThammer does *not*
/// overcome; the defense-evaluation benchmark reproduces that negative
/// result.
#[derive(Debug, Clone)]
pub struct ZebramPolicy {
    geometry: DramGeometry,
    /// The frames of the even (usable) rows.
    usable_frames: FrameSet,
}

impl ZebramPolicy {
    /// Creates a ZebRAM policy for the given DRAM geometry.
    pub fn new(geometry: &DramGeometry) -> Self {
        let rows = geometry.total_frames().div_ceil(frames_per_row(geometry));
        Self {
            geometry: *geometry,
            usable_frames: FrameSet::new(
                (0..rows)
                    .step_by(2)
                    .map(|row| row_frames(geometry, row..row + 1)),
            ),
        }
    }

    /// True when the frame lies in a usable (even) row.
    pub fn frame_is_usable(&self, frame: u64) -> bool {
        row_of_frame(&self.geometry, frame).is_multiple_of(2)
    }
}

impl PlacementPolicy for ZebramPolicy {
    fn name(&self) -> &str {
        "ZebRAM (guard-row interleaving)"
    }

    fn kind(&self) -> DefenseKind {
        DefenseKind::Zebram
    }

    fn allocate(&mut self, _purpose: FramePurpose, buddy: &mut BuddyAllocator) -> Option<u64> {
        buddy.alloc_frame_in(&mut self.usable_frames, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usable_frames_match_the_predicate() {
        let g = DramGeometry::small_1gib();
        let policy = ZebramPolicy::new(&g);
        for frame in 0..g.total_frames() {
            assert_eq!(
                policy.usable_frames.contains(frame),
                policy.frame_is_usable(frame),
                "frame {frame}"
            );
        }
    }

    #[test]
    fn all_allocations_land_in_even_rows() {
        let g = DramGeometry::small_1gib();
        let mut policy = ZebramPolicy::new(&g);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        for purpose in [
            FramePurpose::PageTable { level: 1, pid: 1 },
            FramePurpose::UserPage { pid: 1 },
            FramePurpose::KernelData,
        ] {
            for _ in 0..50 {
                let f = policy.allocate(purpose, &mut buddy).unwrap();
                assert_eq!(row_of_frame(&g, f) % 2, 0);
            }
        }
    }

    #[test]
    fn adjacent_rows_of_any_allocation_are_guard_rows() {
        let g = DramGeometry::small_1gib();
        let mut policy = ZebramPolicy::new(&g);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let f = policy
            .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
            .unwrap();
        let row = row_of_frame(&g, f);
        for neighbour in [row.wrapping_sub(1), row + 1] {
            if neighbour < g.capacity_bytes() / g.row_span_bytes() {
                // Guard rows are odd rows, never handed out.
                assert_eq!(neighbour % 2, 1);
            }
        }
        let _ = frames_per_row(&g);
    }

    #[test]
    fn policy_name_mentions_zebram() {
        let g = DramGeometry::small_1gib();
        assert!(ZebramPolicy::new(&g).name().contains("ZebRAM"));
    }
}
