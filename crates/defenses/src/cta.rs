//! CTA: Cell-Type-Aware page-table protection (Wu et al., ASPLOS 2019).

use pthammer_dram::{DramGeometry, FlipModel};
use pthammer_kernel::{BuddyAllocator, DefenseKind, FramePurpose, FrameSet, PlacementPolicy};

use crate::{frames_per_row, row_frames, row_of_frame, total_rows};

/// CTA's two layers of defense:
///
/// 1. Level-1 page tables are segregated into a dedicated region at the *top*
///    of physical memory (so, like CATT, user memory is never adjacent to
///    them).
/// 2. Within that region, only DRAM rows consisting purely of *true cells*
///    (cells that can only flip 1 → 0) are used, and L1PTs sit above every
///    user page; a flip can therefore only lower the frame number stored in
///    an L1PTE, which means the corrupted entry can never point at another
///    L1PT page.
///
/// The policy consults the DRAM module's weak-cell model to find true-cell
/// rows — in reality CTA performs a memory test at boot; the simulation has
/// the ground truth available, which is equivalent for placement purposes.
#[derive(Debug, Clone)]
pub struct CtaPolicy {
    geometry: DramGeometry,
    /// First row index of the protected L1PT region (top of memory).
    region_start_row: u64,
    /// Row indices (within the whole module) that contain only true cells.
    safe_rows: Vec<bool>,
    /// The true-cell rows of the protected region: where L1PTs go.
    l1pt_frames: FrameSet,
    /// Every frame below the protected region: user memory from the bottom,
    /// upper-level page tables and kernel data from the top.
    low_frames: FrameSet,
}

impl CtaPolicy {
    /// Creates a CTA policy dedicating the top `l1pt_fraction` of row indices
    /// to Level-1 page tables, using `flip_model` as the boot-time cell-type
    /// test.
    ///
    /// # Panics
    ///
    /// Panics if `l1pt_fraction` is not in `(0, 1)`.
    pub fn new(geometry: &DramGeometry, flip_model: &FlipModel, l1pt_fraction: f64) -> Self {
        assert!(
            l1pt_fraction > 0.0 && l1pt_fraction < 1.0,
            "l1pt_fraction must be in (0, 1)"
        );
        let rows = total_rows(geometry);
        let region_start_row = rows - ((rows as f64) * l1pt_fraction) as u64;
        // A row index is safe if, in every bank, all of its weak cells (if
        // any) are true cells.
        let banks = geometry.total_banks();
        let safe_rows: Vec<bool> = (0..rows)
            .map(|row| {
                (0..banks).all(|bank| {
                    flip_model
                        .weak_cells(bank, row as u32)
                        .iter()
                        .all(|c| c.orientation == pthammer_types::CellOrientation::TrueCell)
                })
            })
            .collect();
        let l1pt_frames = FrameSet::new(
            (region_start_row..rows)
                .filter(|&row| safe_rows[row as usize])
                .map(|row| row_frames(geometry, row..row + 1)),
        );
        Self {
            geometry: *geometry,
            region_start_row,
            safe_rows,
            l1pt_frames,
            low_frames: FrameSet::new([row_frames(geometry, 0..region_start_row)]),
        }
    }

    /// True when the frame lies in the protected L1PT region.
    pub fn frame_in_l1pt_region(&self, frame: u64) -> bool {
        row_of_frame(&self.geometry, frame) >= self.region_start_row
    }

    /// True when the frame's row consists only of true cells.
    pub fn frame_in_true_cell_row(&self, frame: u64) -> bool {
        let row = row_of_frame(&self.geometry, frame) as usize;
        self.safe_rows.get(row).copied().unwrap_or(false)
    }

    /// First row index of the protected region.
    pub fn region_start_row(&self) -> u64 {
        self.region_start_row
    }

    /// Number of true-cell-only rows in the module (for reporting).
    pub fn safe_row_count(&self) -> usize {
        self.safe_rows.iter().filter(|&&s| s).count()
    }

    /// Lowest physical frame of the protected region; every L1PT frame is at
    /// or above this, and every user frame below it — the monotonicity
    /// argument of CTA.
    pub fn region_first_frame(&self) -> u64 {
        self.region_start_row * frames_per_row(&self.geometry)
    }
}

impl PlacementPolicy for CtaPolicy {
    fn name(&self) -> &str {
        "CTA (true-cell L1PT region with monotonic pointers)"
    }

    fn kind(&self) -> DefenseKind {
        DefenseKind::Cta
    }

    fn allocate(&mut self, purpose: FramePurpose, buddy: &mut BuddyAllocator) -> Option<u64> {
        match purpose {
            // Highest true-cell frame in the protected region.
            FramePurpose::PageTable { level: 1, .. } => {
                buddy.alloc_frame_in(&mut self.l1pt_frames, true)
            }
            // Upper-level page tables and kernel data live below the L1PT
            // region but above user memory (allocated from the top of the
            // unprotected part).
            FramePurpose::PageTable { .. } | FramePurpose::KernelData => {
                buddy.alloc_frame_in(&mut self.low_frames, true)
            }
            // User pages use the default bottom-up allocation, guaranteeing
            // they sit below every L1PT frame.
            FramePurpose::UserPage { .. } => buddy.alloc_frame_in(&mut self.low_frames, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::FlipModelProfile;

    fn setup() -> (DramGeometry, FlipModel) {
        let g = DramGeometry::small_1gib();
        // Moderate weak-cell density with mostly true cells, so that
        // true-cell-only rows exist (as on real DDR3 modules, where weak
        // cells are rare) while some rows still contain anti cells.
        let profile = FlipModelProfile {
            weak_row_density: 0.1,
            true_cell_fraction: 0.9,
            ..FlipModelProfile::fast()
        };
        let model = FlipModel::new(profile, 11, g.row_bytes);
        (g, model)
    }

    #[test]
    fn frame_sets_match_the_region_predicates() {
        let (g, model) = setup();
        let cta = CtaPolicy::new(&g, &model, 0.2);
        for frame in 0..g.total_frames() {
            assert_eq!(
                cta.l1pt_frames.contains(frame),
                cta.frame_in_l1pt_region(frame) && cta.frame_in_true_cell_row(frame),
                "L1PT rows, frame {frame}"
            );
            assert_eq!(
                cta.low_frames.contains(frame),
                frame < cta.region_first_frame(),
                "below the region, frame {frame}"
            );
        }
    }

    #[test]
    fn l1pts_go_to_top_true_cell_rows() {
        let (g, model) = setup();
        let mut cta = CtaPolicy::new(&g, &model, 0.2);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        for _ in 0..50 {
            let f = cta
                .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
                .unwrap();
            assert!(cta.frame_in_l1pt_region(f));
            assert!(cta.frame_in_true_cell_row(f));
        }
    }

    #[test]
    fn user_frames_are_always_below_l1pt_frames() {
        let (g, model) = setup();
        let mut cta = CtaPolicy::new(&g, &model, 0.2);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let l1pt = cta
            .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
            .unwrap();
        for _ in 0..200 {
            let user = cta
                .allocate(FramePurpose::UserPage { pid: 1 }, &mut buddy)
                .unwrap();
            assert!(
                user < l1pt,
                "user frame {user} must be below L1PT frame {l1pt}"
            );
        }
    }

    #[test]
    fn monotonicity_a_downward_flip_cannot_reach_an_l1pt() {
        let (g, model) = setup();
        let mut cta = CtaPolicy::new(&g, &model, 0.2);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let l1pt = cta
            .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
            .unwrap();
        let user = cta
            .allocate(FramePurpose::UserPage { pid: 1 }, &mut buddy)
            .unwrap();
        // A true-cell flip can only clear bits of the frame number stored in
        // an L1PTE, i.e. produce a strictly smaller frame number. Any frame
        // number smaller than the original user frame is still below the
        // protected region.
        for bit in 0..20u32 {
            let flipped = user & !(1 << bit);
            assert!(
                flipped < cta.region_first_frame(),
                "flipped frame {flipped} must not reach the L1PT region"
            );
        }
        assert!(l1pt >= cta.region_first_frame());
    }

    #[test]
    fn true_cell_rows_exist_and_are_a_subset() {
        let (g, model) = setup();
        let cta = CtaPolicy::new(&g, &model, 0.2);
        let safe = cta.safe_row_count();
        let rows = total_rows(&g) as usize;
        assert!(safe > 0, "there should be some all-true-cell rows");
        assert!(safe < rows, "the ci profile has anti-cell rows too");
    }

    #[test]
    fn upper_level_tables_below_region() {
        let (g, model) = setup();
        let mut cta = CtaPolicy::new(&g, &model, 0.2);
        let mut buddy = BuddyAllocator::new(16, g.total_frames());
        let pml4 = cta
            .allocate(FramePurpose::PageTable { level: 4, pid: 1 }, &mut buddy)
            .unwrap();
        assert!(pml4 < cta.region_first_frame());
    }

    #[test]
    #[should_panic(expected = "l1pt_fraction")]
    fn invalid_fraction_rejected() {
        let (g, model) = setup();
        let _ = CtaPolicy::new(&g, &model, 0.0);
    }
}
