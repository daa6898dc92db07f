//! Simulated kernel memory-management substrate for the PThammer
//! reproduction.
//!
//! This crate plays the role of the Linux kernel in the paper's attack: it
//! owns the physical frame allocator (a buddy allocator whose consecutive-
//! allocation behaviour the attack depends on), builds 4-level page tables in
//! the simulated physical memory, manages processes with in-memory
//! `struct cred` objects, and exposes the small system-call surface the
//! unprivileged attacker uses: `mmap`, memory accesses with demand paging,
//! `clflush`, `rdtsc` and `getuid`.
//!
//! Frame placement goes through a [`PlacementPolicy`], which is where the
//! software-only defenses (CATT, RIP-RH, CTA) plug in — they are
//! implemented in the `pthammer-defenses` crate.
//!
//! # Examples
//!
//! ```
//! use pthammer_kernel::{System, MmapOptions};
//! use pthammer_machine::MachineConfig;
//! use pthammer_dram::FlipModelProfile;
//!
//! let mut sys = System::undefended(MachineConfig::test_small(FlipModelProfile::ci(), 1));
//! let pid = sys.spawn_process(1000)?;
//! let va = sys.mmap(pid, 4096, MmapOptions::default())?;
//! sys.write_u64(pid, va, 42)?;
//! assert_eq!(sys.read_u64(pid, va)?.value, 42);
//! assert_eq!(sys.getuid(pid)?, 1000);
//! # Ok::<(), pthammer_kernel::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buddy;
mod cred;
mod error;
mod frame_set;
mod policy;
mod process;
mod system;
mod vma;

pub use buddy::{AllocCounters, BuddyAllocator, MAX_ORDER};
pub use cred::{Cred, CredSlot, CREDS_PER_FRAME, CRED_MAGIC, CRED_SIZE};
pub use error::KernelError;
pub use frame_set::FrameSet;
pub use policy::{DefaultPolicy, DefenseKind, FramePurpose, PlacementPolicy};
pub use process::{Pid, Process};
pub use system::{KernelConfig, KernelStats, MmapOptions, System};
pub use vma::{Vma, VmaBacking};
