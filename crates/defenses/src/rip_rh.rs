//! RIP-RH: Rowhammer-induced inter-process isolation (Bock et al., AsiaCCS 2019).

use std::collections::HashMap;

use pthammer_dram::DramGeometry;
use pthammer_kernel::{BuddyAllocator, DefenseKind, FramePurpose, FrameSet, PlacementPolicy};

use crate::{row_frames, total_rows};

/// RIP-RH isolates *user processes* from one another by giving each process a
/// dedicated band of DRAM rows (with guard rows between bands). It does not
/// protect kernel memory, so page tables and kernel data fall back to the
/// default lowest-frame allocation — which is exactly why PThammer applies to
/// it unchanged (Section IV-G2 of the paper).
#[derive(Debug, Clone)]
pub struct RipRhPolicy {
    geometry: DramGeometry,
    /// Number of row indices in each per-process band.
    rows_per_process: u64,
    /// Guard rows between bands.
    guard_rows: u64,
    /// First row index available for user bands (above the kernel's share).
    first_user_row: u64,
    /// Assigned band per pid.
    bands: HashMap<u32, Band>,
    /// Next band start row.
    next_band_row: u64,
    /// Every frame above the kernel's share, where a process's pages go once
    /// its band is full.
    above_kernel: FrameSet,
}

/// One process's band of rows.
#[derive(Debug, Clone)]
struct Band {
    start_row: u64,
    frames: FrameSet,
}

impl RipRhPolicy {
    /// Creates a RIP-RH policy. `rows_per_process` row indices are dedicated
    /// to each user process, separated by `guard_rows`.
    pub fn new(geometry: &DramGeometry, rows_per_process: u64, guard_rows: u64) -> Self {
        let rows = total_rows(geometry);
        // Reserve the lowest quarter of rows for the (unprotected) kernel.
        let first_user_row = rows / 4;
        Self {
            geometry: *geometry,
            rows_per_process: rows_per_process.max(1),
            guard_rows,
            first_user_row,
            bands: HashMap::new(),
            next_band_row: first_user_row,
            above_kernel: FrameSet::new([row_frames(geometry, first_user_row..u64::MAX)]),
        }
    }

    /// The row band assigned to `pid`, if any.
    pub fn band_of(&self, pid: u32) -> Option<(u64, u64)> {
        self.bands
            .get(&pid)
            .map(|band| (band.start_row, band.start_row + self.rows_per_process))
    }

    /// The frames of `pid`'s band, assigning the next band on first use.
    fn band_for(&mut self, pid: u32) -> &mut FrameSet {
        let band = self.bands.entry(pid).or_insert_with(|| {
            let start_row = self.next_band_row;
            self.next_band_row = start_row + self.rows_per_process + self.guard_rows;
            let rows = start_row..start_row + self.rows_per_process;
            Band {
                start_row,
                frames: FrameSet::new([row_frames(&self.geometry, rows)]),
            }
        });
        &mut band.frames
    }

    /// First row index available to user processes.
    pub fn first_user_row(&self) -> u64 {
        self.first_user_row
    }
}

impl PlacementPolicy for RipRhPolicy {
    fn name(&self) -> &str {
        "RIP-RH (per-process DRAM partitioning)"
    }

    fn kind(&self) -> DefenseKind {
        DefenseKind::RipRh
    }

    fn allocate(&mut self, purpose: FramePurpose, buddy: &mut BuddyAllocator) -> Option<u64> {
        match purpose {
            FramePurpose::UserPage { pid } => {
                if let Some(frame) = buddy.alloc_frame_in(self.band_for(pid), false) {
                    return Some(frame);
                }
                // If the band is exhausted, RIP-RH would grow it; we fall back
                // to any frame above the kernel share.
                buddy.alloc_frame_in(&mut self.above_kernel, false)
            }
            // Kernel memory (including all page tables) is not protected.
            FramePurpose::PageTable { .. } | FramePurpose::KernelData => buddy.alloc_frame(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frames_per_row, row_of_frame};

    fn geometry() -> DramGeometry {
        DramGeometry::small_1gib()
    }

    #[test]
    fn frame_sets_match_the_band_predicates() {
        let g = geometry();
        let mut policy = RipRhPolicy::new(&g, 8, 2);
        for pid in [3, 1, 7] {
            policy.band_for(pid);
        }
        let fpr = frames_per_row(&g);
        for frame in 0..g.total_frames() {
            let row = row_of_frame(&g, frame);
            for pid in [1, 3, 7] {
                let (start, end) = policy.band_of(pid).unwrap();
                assert_eq!(
                    policy.bands[&pid].frames.contains(frame),
                    row >= start && row < end,
                    "band of pid {pid}, frame {frame}"
                );
            }
            assert_eq!(
                policy.above_kernel.contains(frame),
                frame >= policy.first_user_row() * fpr,
                "above the kernel share, frame {frame}"
            );
        }
    }

    #[test]
    fn each_process_gets_its_own_band() {
        let g = geometry();
        let mut policy = RipRhPolicy::new(&g, 8, 2);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let f1 = policy
            .allocate(FramePurpose::UserPage { pid: 1 }, &mut buddy)
            .unwrap();
        let f2 = policy
            .allocate(FramePurpose::UserPage { pid: 2 }, &mut buddy)
            .unwrap();
        let band1 = policy.band_of(1).unwrap();
        let band2 = policy.band_of(2).unwrap();
        assert_ne!(band1, band2);
        let row1 = row_of_frame(&g, f1);
        let row2 = row_of_frame(&g, f2);
        assert!(row1 >= band1.0 && row1 < band1.1);
        assert!(row2 >= band2.0 && row2 < band2.1);
        // Bands are separated by at least the guard distance.
        assert!(band2.0 >= band1.1 + 2 || band1.0 >= band2.1 + 2);
    }

    #[test]
    fn kernel_allocations_are_unconstrained_low_memory() {
        let g = geometry();
        let mut policy = RipRhPolicy::new(&g, 8, 2);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let pt = policy
            .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
            .unwrap();
        let user = policy
            .allocate(FramePurpose::UserPage { pid: 1 }, &mut buddy)
            .unwrap();
        assert!(row_of_frame(&g, pt) < policy.first_user_row());
        assert!(row_of_frame(&g, user) >= policy.first_user_row());
    }

    #[test]
    fn same_process_allocations_stay_in_band_until_exhausted() {
        let g = geometry();
        let mut policy = RipRhPolicy::new(&g, 2, 1);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let band = {
            policy
                .allocate(FramePurpose::UserPage { pid: 9 }, &mut buddy)
                .unwrap();
            policy.band_of(9).unwrap()
        };
        let fpr = frames_per_row(&g);
        let band_capacity = (band.1 - band.0) * fpr;
        let mut outside = 0;
        for _ in 0..band_capacity + 10 {
            let f = policy
                .allocate(FramePurpose::UserPage { pid: 9 }, &mut buddy)
                .unwrap();
            let row = row_of_frame(&g, f);
            if !(row >= band.0 && row < band.1) {
                outside += 1;
            }
        }
        // Only the overflow allocations spill outside the band.
        assert!(outside <= 11);
        assert!(outside >= 1, "band should eventually be exhausted");
    }
}
