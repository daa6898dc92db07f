//! Software-only rowhammer defenses, implemented as frame-placement policies
//! for the kernel substrate (plus an ANVIL-style detector).
//!
//! The paper evaluates PThammer against three published software-only
//! defenses, all of which rely on keeping attacker-reachable memory away from
//! DRAM rows adjacent to sensitive data:
//!
//! * **CATT** (Brasser et al., USENIX Security 2017) — partitions DRAM rows
//!   into a kernel region and a user region with guard rows between them.
//! * **RIP-RH** (Bock et al., AsiaCCS 2019) — gives each user process its own
//!   DRAM partition; the kernel itself is not protected.
//! * **CTA** (Wu et al., ASPLOS 2019) — moves Level-1 page tables to the top
//!   of physical memory into rows made only of true cells, so a rowhammer
//!   flip can only lower the frame number a PTE points to.
//! * **ZebRAM** (Konoth et al., OSDI 2018) — interleaves data rows with
//!   unused guard rows (modelled here in its strongest form; the paper notes
//!   PThammer does *not* defeat ZebRAM).
//!
//! All of them are [`PlacementPolicy`](pthammer_kernel::PlacementPolicy)
//! implementations, so a [`System`](pthammer_kernel::System) can be booted
//! with any of them and attacked by the `pthammer` crate.
//!
//! # Examples
//!
//! ```
//! use pthammer_defenses::CattPolicy;
//! use pthammer_kernel::{System, KernelConfig};
//! use pthammer_machine::MachineConfig;
//! use pthammer_dram::FlipModelProfile;
//!
//! let machine = MachineConfig::test_small(FlipModelProfile::ci(), 1);
//! let catt = CattPolicy::new(&machine.dram.geometry, 0.25, 1);
//! let sys = System::new(machine, KernelConfig::default_config(), Box::new(catt));
//! assert!(sys.policy_name().contains("CATT"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anvil;
mod catt;
mod choice;
mod cta;
mod rip_rh;
mod zebram;

pub use anvil::{AnvilDetector, AnvilMode, AnvilVerdict};
pub use catt::CattPolicy;
pub use choice::DefenseChoice;
pub use cta::CtaPolicy;
pub use rip_rh::RipRhPolicy;
pub use zebram::ZebramPolicy;

/// Frames per DRAM row-index span (one row index covers
/// `row_span_bytes / 4096` frames).
pub(crate) fn frames_per_row(geometry: &pthammer_dram::DramGeometry) -> u64 {
    geometry.row_span_bytes() / pthammer_types::PAGE_SIZE
}

/// Row index (paper terminology: the 256 KiB "row span") of a frame.
pub(crate) fn row_of_frame(geometry: &pthammer_dram::DramGeometry, frame: u64) -> u64 {
    frame / frames_per_row(geometry)
}

/// The frames of the row indices `rows`; a row end past the last
/// representable frame saturates to `u64::MAX`.
pub(crate) fn row_frames(
    geometry: &pthammer_dram::DramGeometry,
    rows: std::ops::Range<u64>,
) -> std::ops::Range<u64> {
    let fpr = frames_per_row(geometry);
    rows.start.saturating_mul(fpr)..rows.end.saturating_mul(fpr)
}

/// Total number of row indices in the module.
pub(crate) fn total_rows(geometry: &pthammer_dram::DramGeometry) -> u64 {
    geometry.capacity_bytes() / geometry.row_span_bytes()
}
