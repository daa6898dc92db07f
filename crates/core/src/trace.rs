//! Per-attempt compiled hammer traces — the one hammer executor.
//!
//! A strategy declares its hammer iteration as a [`RoundOp`] schedule. None
//! of the schedule's target resolution can change while a pair stays armed —
//! the eviction sets and aggressor addresses are fixed for the whole attempt
//! — so the schedule is compiled **once per attempt** into a
//! [`CompiledTrace`]: a flat address pool plus a dense step list that
//! [`CompiledTrace::hammer`] replays through the lean batch paths
//! ([`System::access_batch_passes`] / [`System::touch`]) with no per-round
//! matching, re-lookup or allocation.
//!
//! A trace holds only virtual addresses resolved from the [`ArmedPair`], and
//! every replay translates them afresh through the MMU. A demand fault
//! handled mid-attempt therefore changes what the replayed accesses walk,
//! never what the trace holds: a trace compiled once stays valid for the
//! whole attempt.

use pthammer_kernel::{Pid, System};
use pthammer_types::VirtAddr;

use crate::error::AttackError;
use crate::eviction::llc::LLC_EVICTION_PASSES;
use crate::hammer::implicit::HammerStats;
use crate::hammer::strategy::{ArmedPair, RoundOp, RoundOutcome, Target};

/// Which pair member an implicit touch reports its DRAM outcome as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TouchKind {
    Low,
    High,
    Aggressor,
}

/// One pre-resolved replay step. Eviction runs index into the trace's flat
/// address pool so replay streams contiguous memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceStep {
    /// A pipelined batch over `addrs[start..start + len]`, `passes` times —
    /// one step per eviction op, so batch-call boundaries (and therefore
    /// fault-handling order) follow the op schedule.
    Batch { start: u32, len: u32, passes: u32 },
    /// An implicit (page-walk) touch of a pre-resolved target address.
    Touch { addr: VirtAddr, kind: TouchKind },
    /// A plain data access (explicit hammering).
    Access { addr: VirtAddr },
    /// A `clflush` of the target's line (explicit hammering).
    Clflush { addr: VirtAddr },
}

/// A strategy's per-round schedule with every target resolved to flat,
/// pre-translated addresses. Built once per attempt by
/// [`CompiledTrace::compile`] and run by [`CompiledTrace::hammer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// Flat pool of eviction-run addresses, in op order.
    addrs: Vec<VirtAddr>,
    /// Dense replay program over `addrs`.
    steps: Vec<TraceStep>,
}

impl CompiledTrace {
    /// Compiles `ops` against `armed`. TLB eviction ops traverse their set
    /// once, LLC eviction ops [`LLC_EVICTION_PASSES`] times. Pure: only the
    /// armed state is read.
    ///
    /// # Errors
    ///
    /// Fails when an op addresses a target the strategy never armed.
    pub fn compile(armed: &ArmedPair, ops: &[RoundOp]) -> Result<Self, AttackError> {
        let mut addrs = Vec::new();
        let mut steps = Vec::with_capacity(ops.len());
        let run = |addrs: &mut Vec<VirtAddr>, lines: &[VirtAddr], passes: usize| {
            let start = addrs.len() as u32;
            addrs.extend_from_slice(lines);
            TraceStep::Batch {
                start,
                len: lines.len() as u32,
                passes: passes as u32,
            }
        };
        for op in ops {
            steps.push(match op {
                RoundOp::EvictTlb(t) => {
                    let (tlb, _) = armed.sets_for(*t)?;
                    run(&mut addrs, tlb.addresses(), 1)
                }
                RoundOp::EvictLlc(t) => {
                    let (_, llc) = armed.sets_for(*t)?;
                    run(&mut addrs, &llc.lines, LLC_EVICTION_PASSES)
                }
                RoundOp::TouchImplicit(t) => TraceStep::Touch {
                    addr: armed.addr(*t)?,
                    kind: match t {
                        Target::Low => TouchKind::Low,
                        Target::High => TouchKind::High,
                        Target::Aggressor(_) => TouchKind::Aggressor,
                    },
                },
                RoundOp::AccessData(t) => TraceStep::Access {
                    addr: armed.addr(*t)?,
                },
                RoundOp::Clflush(t) => TraceStep::Clflush {
                    addr: armed.addr(*t)?,
                },
            });
        }
        Ok(Self { addrs, steps })
    }

    /// Replay steps per round.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the trace replays no operations.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes one hammer iteration: the schedule's operations in order,
    /// reporting the iteration's cycle cost and which implicit loads reached
    /// DRAM.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable faults from the underlying accesses.
    pub fn replay(&self, sys: &mut System, pid: Pid) -> Result<RoundOutcome, AttackError> {
        let start = sys.rdtsc();
        let mut low_dram = false;
        let mut high_dram = false;
        let mut aggressor_dram_hits = 0u64;
        for step in &self.steps {
            match step {
                TraceStep::Batch { start, len, passes } => {
                    let run = &self.addrs[*start as usize..(*start + *len) as usize];
                    sys.access_batch_passes(pid, run, *passes as usize)?;
                }
                TraceStep::Touch { addr, kind } => {
                    let acc = sys.touch(pid, *addr)?;
                    match kind {
                        TouchKind::Low => low_dram = acc.l1pte_from_dram,
                        TouchKind::High => high_dram = acc.l1pte_from_dram,
                        TouchKind::Aggressor => {
                            aggressor_dram_hits += u64::from(acc.l1pte_from_dram);
                        }
                    }
                }
                TraceStep::Access { addr } => {
                    sys.access(pid, *addr)?;
                }
                TraceStep::Clflush { addr } => {
                    sys.clflush(pid, *addr)?;
                }
            }
        }
        Ok(RoundOutcome {
            cycles: sys.rdtsc() - start,
            low_dram,
            high_dram,
            aggressor_dram_hits,
        })
    }

    /// Hammers for `rounds` iterations, accumulating statistics.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable faults from the underlying accesses.
    pub fn hammer(
        &self,
        sys: &mut System,
        pid: Pid,
        rounds: u64,
    ) -> Result<HammerStats, AttackError> {
        let mut stats = HammerStats {
            min_round_cycles: u64::MAX,
            ..HammerStats::default()
        };
        for _ in 0..rounds {
            let round = self.replay(sys, pid)?;
            stats.rounds += 1;
            stats.total_cycles += round.cycles;
            stats.min_round_cycles = stats.min_round_cycles.min(round.cycles);
            stats.max_round_cycles = stats.max_round_cycles.max(round.cycles);
            stats.low_dram_hits += u64::from(round.low_dram);
            stats.high_dram_hits += u64::from(round.high_dram);
            stats.aggressor_dram_hits += round.aggressor_dram_hits;
        }
        if stats.rounds == 0 {
            stats.min_round_cycles = 0;
        }
        Ok(stats)
    }
}
