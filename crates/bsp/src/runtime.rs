//! The BSP runtime: superstep execution with barrier semantics.
//!
//! [`BspRuntime`] owns the process states and inboxes of one job and drives
//! supersteps: every live process computes on the messages delivered to it,
//! sends are buffered, the barrier commits them for the next superstep. The
//! job finishes when every process votes [`StepOutcome::Halt`] in the same
//! superstep.
//!
//! Execution is deterministic: processes run in pid order and message
//! delivery preserves (sender, send-order), so a checkpoint/restore or a
//! re-run from the same state produces identical results — the property the
//! grid layer relies on when it migrates work between nodes.

use crate::program::{BspContext, BspProgram, ProcId, StepOutcome};
use integrade_orb::cdr::CdrEncode;
use serde::{Deserialize, Serialize};

/// Aggregate statistics for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BspStats {
    /// Supersteps executed.
    pub supersteps: u64,
    /// Total messages exchanged.
    pub messages: u64,
    /// Total marshalled message bytes (CDR size).
    pub message_bytes: u64,
    /// Largest h-relation observed (max per-process in+out degree in one
    /// superstep) — the `h` of the BSP cost model.
    pub max_h_relation: u64,
}

/// Result of driving the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// Every process voted halt.
    Completed {
        /// Supersteps executed in total.
        supersteps: usize,
    },
    /// The superstep budget ran out first.
    BudgetExhausted,
}

/// One BSP job's execution state.
///
/// # Examples
///
/// ```
/// use integrade_bsp::program::{BspContext, BspProgram, StepOutcome};
/// use integrade_bsp::runtime::BspRuntime;
///
/// // Each process adds its pid to a ring token until it has gone around.
/// // Its state checkpoints as CDR, fields in the order listed.
/// #[derive(Clone, Debug)]
/// struct Ring { total: u64, hops: u64 }
/// integrade_orb::impl_cdr!(struct Ring { total, hops });
/// impl BspProgram for Ring {
///     type Message = u64;
///     fn superstep(&mut self, ctx: &mut BspContext<u64>) -> StepOutcome {
///         if ctx.superstep() == 0 && ctx.pid() == 0 {
///             ctx.send(1 % ctx.num_procs(), 0);
///             return StepOutcome::Continue;
///         }
///         let incoming: Vec<u64> = ctx.incoming().iter().map(|&(_, v)| v).collect();
///         for v in incoming {
///             self.hops += 1;
///             let acc = v + ctx.pid() as u64;
///             if ctx.pid() == 0 {
///                 self.total = acc;
///                 return StepOutcome::Halt;
///             }
///             ctx.send((ctx.pid() + 1) % ctx.num_procs(), acc);
///         }
///         StepOutcome::Continue
///     }
/// }
///
/// let mut rt = BspRuntime::new(vec![Ring { total: 0, hops: 0 }; 4]);
/// rt.run(100);
/// assert_eq!(rt.procs()[0].total, 1 + 2 + 3);
/// ```
#[derive(Debug, Clone)]
pub struct BspRuntime<P: BspProgram> {
    procs: Vec<P>,
    inboxes: Vec<Vec<(ProcId, P::Message)>>,
    superstep: usize,
    halted: bool,
    stats: BspStats,
}

impl<P: BspProgram> BspRuntime<P> {
    /// Creates a runtime over the initial process states.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty.
    pub fn new(procs: Vec<P>) -> Self {
        assert!(!procs.is_empty(), "a BSP job needs at least one process");
        let n = procs.len();
        BspRuntime {
            procs,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            superstep: 0,
            halted: false,
            stats: BspStats::default(),
        }
    }

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Current superstep index (the next one to execute).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// True once every process has voted halt in one superstep.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The process states (for result extraction).
    pub fn procs(&self) -> &[P] {
        &self.procs
    }

    /// Statistics so far.
    pub fn stats(&self) -> BspStats {
        self.stats
    }

    /// Pending inboxes (messages committed for the next superstep).
    pub(crate) fn inboxes(&self) -> &[Vec<(ProcId, P::Message)>] {
        &self.inboxes
    }

    /// Rebuilds a runtime from restored parts (checkpoint recovery).
    pub(crate) fn from_parts(
        procs: Vec<P>,
        inboxes: Vec<Vec<(ProcId, P::Message)>>,
        superstep: usize,
        halted: bool,
    ) -> Self {
        assert_eq!(procs.len(), inboxes.len(), "one inbox per process");
        BspRuntime {
            procs,
            inboxes,
            superstep,
            halted,
            stats: BspStats::default(),
        }
    }

    /// Executes one superstep: compute on all processes, then the barrier
    /// (message commit). Returns `true` if the job halted in this superstep.
    ///
    /// # Panics
    ///
    /// Panics if called after the job halted.
    pub fn step(&mut self) -> bool {
        assert!(!self.halted, "job already halted");
        let n = self.procs.len();
        let mut next_inboxes: Vec<Vec<(ProcId, P::Message)>> = (0..n).map(|_| Vec::new()).collect();
        let mut all_halt = true;
        let mut out_degree = vec![0u64; n];
        let mut in_degree = vec![0u64; n];

        #[allow(clippy::needless_range_loop)] // pid is an identity, not just an index
        for pid in 0..n {
            let inbox = std::mem::take(&mut self.inboxes[pid]);
            let mut ctx = BspContext::new(pid, n, self.superstep, inbox);
            let outcome = self.procs[pid].superstep(&mut ctx);
            if outcome == StepOutcome::Continue {
                all_halt = false;
            }
            for (to, message) in ctx.into_outbox() {
                self.stats.messages += 1;
                self.stats.message_bytes += message.to_cdr_bytes().len() as u64;
                out_degree[pid] += 1;
                in_degree[to] += 1;
                next_inboxes[to].push((pid, message));
            }
        }
        // Barrier: commit messages.
        self.inboxes = next_inboxes;
        self.superstep += 1;
        self.stats.supersteps += 1;
        let h = out_degree
            .iter()
            .zip(&in_degree)
            .map(|(o, i)| o + i)
            .max()
            .unwrap_or(0);
        self.stats.max_h_relation = self.stats.max_h_relation.max(h);
        // A unanimous halt with no pending messages ends the job; halting
        // with messages in flight would lose them, so keep running.
        if all_halt && self.inboxes.iter().all(Vec::is_empty) {
            self.halted = true;
        }
        self.halted
    }

    /// Runs until halt or `max_supersteps` more supersteps.
    pub fn run(&mut self, max_supersteps: usize) -> RunResult {
        for _ in 0..max_supersteps {
            if self.halted {
                break;
            }
            if self.step() {
                break;
            }
        }
        if self.halted {
            RunResult::Completed {
                supersteps: self.superstep,
            }
        } else {
            RunResult::BudgetExhausted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use integrade_orb::impl_cdr;

    /// Every process sends its value to pid 0, which sums; used across the
    /// runtime tests.
    #[derive(Clone, Debug, PartialEq)]
    struct SumToZero {
        value: u64,
        total: u64,
    }

    impl_cdr!(struct SumToZero { value, total });

    impl BspProgram for SumToZero {
        type Message = u64;
        fn superstep(&mut self, ctx: &mut BspContext<u64>) -> StepOutcome {
            match ctx.superstep() {
                0 => {
                    if ctx.pid() != 0 {
                        ctx.send(0, self.value);
                    }
                    StepOutcome::Continue
                }
                _ => {
                    if ctx.pid() == 0 {
                        self.total =
                            self.value + ctx.incoming().iter().map(|(_, v)| v).sum::<u64>();
                    }
                    StepOutcome::Halt
                }
            }
        }
    }

    fn sum_job(n: u64) -> BspRuntime<SumToZero> {
        BspRuntime::new((0..n).map(|value| SumToZero { value, total: 0 }).collect())
    }

    #[test]
    fn sum_reduction_completes() {
        let mut rt = sum_job(8);
        let result = rt.run(10);
        assert_eq!(result, RunResult::Completed { supersteps: 2 });
        assert_eq!(rt.procs()[0].total, (0..8).sum::<u64>());
        assert!(rt.is_halted());
    }

    #[test]
    fn messages_delivered_next_superstep_only() {
        // In superstep 0 nothing has arrived yet.
        #[derive(Clone, Debug)]
        struct Probe {
            saw_early: bool,
            saw_late: bool,
        }
        impl_cdr!(struct Probe { saw_early, saw_late });

        impl BspProgram for Probe {
            type Message = u8;
            fn superstep(&mut self, ctx: &mut BspContext<u8>) -> StepOutcome {
                match ctx.superstep() {
                    0 => {
                        self.saw_early = !ctx.incoming().is_empty();
                        let peer = (ctx.pid() + 1) % ctx.num_procs();
                        ctx.send(peer, 1);
                        StepOutcome::Continue
                    }
                    _ => {
                        self.saw_late = !ctx.incoming().is_empty();
                        StepOutcome::Halt
                    }
                }
            }
        }
        let mut rt = BspRuntime::new(vec![
            Probe {
                saw_early: false,
                saw_late: false
            };
            3
        ]);
        rt.run(5);
        for p in rt.procs() {
            assert!(!p.saw_early, "no deliveries in superstep 0");
            assert!(p.saw_late, "deliveries arrive in superstep 1");
        }
    }

    #[test]
    fn stats_track_traffic() {
        let mut rt = sum_job(5);
        rt.run(10);
        let stats = rt.stats();
        assert_eq!(stats.supersteps, 2);
        assert_eq!(stats.messages, 4);
        assert_eq!(stats.message_bytes, 4 * 8); // u64 CDR = 8 bytes each
        assert_eq!(stats.max_h_relation, 4); // pid 0 receives 4
    }

    #[test]
    fn halt_with_inflight_messages_keeps_running() {
        // A process that halts immediately but is sent a message: the job
        // must survive to deliver it.
        #[derive(Clone, Debug)]
        struct Lazy {
            received: u64,
        }
        impl_cdr!(struct Lazy { received });

        impl BspProgram for Lazy {
            type Message = u64;
            fn superstep(&mut self, ctx: &mut BspContext<u64>) -> StepOutcome {
                self.received += ctx.incoming().len() as u64;
                if ctx.superstep() == 0 && ctx.pid() == 0 {
                    ctx.send(1, 42);
                }
                StepOutcome::Halt
            }
        }
        let mut rt = BspRuntime::new(vec![Lazy { received: 0 }; 2]);
        let result = rt.run(10);
        assert_eq!(result, RunResult::Completed { supersteps: 2 });
        assert_eq!(rt.procs()[1].received, 1, "in-flight message must arrive");
    }

    #[test]
    fn budget_exhaustion_reported() {
        #[derive(Clone, Debug)]
        struct Forever;
        impl_cdr!(
            struct Forever {}
        );

        impl BspProgram for Forever {
            type Message = u8;
            fn superstep(&mut self, _ctx: &mut BspContext<u8>) -> StepOutcome {
                StepOutcome::Continue
            }
        }
        let mut rt = BspRuntime::new(vec![Forever; 2]);
        assert_eq!(rt.run(5), RunResult::BudgetExhausted);
        assert_eq!(rt.superstep(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_job_panics() {
        BspRuntime::<SumToZero>::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "already halted")]
    fn stepping_after_halt_panics() {
        let mut rt = sum_job(2);
        rt.run(10);
        rt.step();
    }

    #[test]
    fn deterministic_replay() {
        let mut a = sum_job(6);
        let mut b = sum_job(6);
        a.run(10);
        b.run(10);
        assert_eq!(a.procs(), b.procs());
        assert_eq!(a.stats(), b.stats());
    }
}
