//! Test-support reference semantics for the hammer executor.
//!
//! [`interpret_round`] runs a [`RoundOp`] schedule the direct way: every op
//! re-resolves its target against the armed state and calls the eviction-set
//! traversal helpers. It is the oracle `CompiledTrace` replay is pinned to;
//! the library itself only ever runs compiled traces.

use pthammer::hammer::{ArmedPair, RoundOp, RoundOutcome, Target};
use pthammer::AttackError;
use pthammer_kernel::{Pid, System};

/// Executes one hammer iteration by interpreting `ops` in order, reporting
/// the iteration's cycle cost and which implicit loads reached DRAM.
pub fn interpret_round(
    armed: &ArmedPair,
    sys: &mut System,
    pid: Pid,
    ops: &[RoundOp],
) -> Result<RoundOutcome, AttackError> {
    let start = sys.rdtsc();
    let mut low_dram = false;
    let mut high_dram = false;
    let mut aggressor_dram_hits = 0u64;
    for op in ops {
        match *op {
            RoundOp::EvictTlb(t) => armed.sets_for(t)?.0.evict(sys, pid)?,
            RoundOp::EvictLlc(t) => armed.sets_for(t)?.1.evict(sys, pid)?,
            RoundOp::TouchImplicit(t) => {
                let acc = sys.touch(pid, armed.addr(t)?)?;
                match t {
                    Target::Low => low_dram = acc.l1pte_from_dram,
                    Target::High => high_dram = acc.l1pte_from_dram,
                    Target::Aggressor(_) => {
                        aggressor_dram_hits += u64::from(acc.l1pte_from_dram);
                    }
                }
            }
            RoundOp::AccessData(t) => {
                sys.access(pid, armed.addr(t)?)?;
            }
            RoundOp::Clflush(t) => {
                sys.clflush(pid, armed.addr(t)?)?;
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
