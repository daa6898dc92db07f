//! CATT: CAn't-Touch-This (Brasser et al., USENIX Security 2017).

use pthammer_dram::DramGeometry;
use pthammer_kernel::{BuddyAllocator, DefenseKind, FramePurpose, FrameSet, PlacementPolicy};

use crate::{row_frames, row_of_frame, total_rows};

/// CATT partitions DRAM rows into a kernel region (low row indices) and a
/// user region (high row indices), separated by guard rows. Unprivileged
/// processes can therefore never own memory in a row adjacent to kernel data
/// — the assumption PThammer voids by making the *processor* access kernel
/// rows on the attacker's behalf.
#[derive(Debug, Clone)]
pub struct CattPolicy {
    geometry: DramGeometry,
    /// First row index of the guard band.
    kernel_rows_end: u64,
    /// First row index of the user region.
    user_rows_start: u64,
    /// The kernel region's frames (page tables and kernel data).
    kernel_frames: FrameSet,
    /// The user region's frames.
    user_frames: FrameSet,
}

impl CattPolicy {
    /// Creates a CATT policy reserving the lowest `kernel_fraction` of row
    /// indices for the kernel, with `guard_rows` unused rows between the
    /// kernel and user regions.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_fraction` is not in `(0, 1)`.
    pub fn new(geometry: &DramGeometry, kernel_fraction: f64, guard_rows: u64) -> Self {
        assert!(
            kernel_fraction > 0.0 && kernel_fraction < 1.0,
            "kernel_fraction must be in (0, 1)"
        );
        let rows = total_rows(geometry);
        let kernel_rows_end = ((rows as f64) * kernel_fraction) as u64;
        let user_rows_start = (kernel_rows_end + guard_rows).min(rows);
        Self {
            geometry: *geometry,
            kernel_rows_end,
            user_rows_start,
            kernel_frames: FrameSet::new([row_frames(geometry, 0..kernel_rows_end)]),
            user_frames: FrameSet::new([row_frames(geometry, user_rows_start..u64::MAX)]),
        }
    }

    /// True when `frame` lies in the kernel region.
    pub fn frame_in_kernel_region(&self, frame: u64) -> bool {
        row_of_frame(&self.geometry, frame) < self.kernel_rows_end
    }

    /// True when `frame` lies in the user region.
    pub fn frame_in_user_region(&self, frame: u64) -> bool {
        row_of_frame(&self.geometry, frame) >= self.user_rows_start
    }

    /// First row index of the user region (for reporting).
    pub fn user_rows_start(&self) -> u64 {
        self.user_rows_start
    }
}

impl PlacementPolicy for CattPolicy {
    fn name(&self) -> &str {
        "CATT (kernel/user DRAM partitioning)"
    }

    fn kind(&self) -> DefenseKind {
        DefenseKind::Catt
    }

    fn allocate(&mut self, purpose: FramePurpose, buddy: &mut BuddyAllocator) -> Option<u64> {
        match purpose {
            FramePurpose::PageTable { .. } | FramePurpose::KernelData => {
                buddy.alloc_frame_in(&mut self.kernel_frames, false)
            }
            FramePurpose::UserPage { .. } => buddy.alloc_frame_in(&mut self.user_frames, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> DramGeometry {
        DramGeometry::small_1gib()
    }

    #[test]
    fn partitions_are_disjoint_with_guard() {
        let g = geometry();
        let catt = CattPolicy::new(&g, 0.25, 2);
        let rows = total_rows(&g);
        assert!(catt.kernel_rows_end < catt.user_rows_start);
        assert!(catt.user_rows_start <= rows);
        // No frame is in both regions.
        for frame in (0..g.total_frames()).step_by(997) {
            assert!(!(catt.frame_in_kernel_region(frame) && catt.frame_in_user_region(frame)));
        }
    }

    #[test]
    fn frame_sets_match_the_region_predicates() {
        let g = geometry();
        let catt = CattPolicy::new(&g, 0.25, 2);
        for frame in 0..g.total_frames() {
            assert_eq!(
                catt.kernel_frames.contains(frame),
                catt.frame_in_kernel_region(frame),
                "kernel region, frame {frame}"
            );
            assert_eq!(
                catt.user_frames.contains(frame),
                catt.frame_in_user_region(frame),
                "user region, frame {frame}"
            );
        }
    }

    #[test]
    fn kernel_allocations_stay_in_kernel_region() {
        let g = geometry();
        let mut catt = CattPolicy::new(&g, 0.25, 1);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        for _ in 0..100 {
            let f = catt
                .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
                .unwrap();
            assert!(catt.frame_in_kernel_region(f));
            let f = catt.allocate(FramePurpose::KernelData, &mut buddy).unwrap();
            assert!(catt.frame_in_kernel_region(f));
        }
    }

    #[test]
    fn user_allocations_stay_in_user_region() {
        let g = geometry();
        let mut catt = CattPolicy::new(&g, 0.25, 1);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        for _ in 0..100 {
            let f = catt
                .allocate(FramePurpose::UserPage { pid: 7 }, &mut buddy)
                .unwrap();
            assert!(catt.frame_in_user_region(f));
        }
    }

    #[test]
    fn user_rows_never_adjacent_to_kernel_rows() {
        let g = geometry();
        let catt = CattPolicy::new(&g, 0.25, 1);
        // Any user row index is at least guard_rows away from any kernel row.
        let kernel_last = catt.kernel_rows_end - 1;
        let user_first = catt.user_rows_start;
        assert!(
            user_first > kernel_last + 1,
            "guard row(s) separate the regions"
        );
    }

    #[test]
    #[should_panic(expected = "kernel_fraction")]
    fn invalid_fraction_rejected() {
        let _ = CattPolicy::new(&geometry(), 1.5, 1);
    }
}
