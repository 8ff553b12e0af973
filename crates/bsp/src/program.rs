//! The BSP programming model.
//!
//! InteGrade "adopts BSP \[Val90\] as the model for parallel computation;
//! imposing frequent synchronizations among application nodes" (§3). A BSP
//! program is a set of processes that proceed in *supersteps*: local
//! computation, message exchange, barrier. Messages sent in superstep *s*
//! are delivered at the start of superstep *s + 1*.
//!
//! A program is a state type implementing [`BspProgram`]; the runtime calls
//! [`BspProgram::superstep`] once per process per superstep with a
//! [`BspContext`] carrying the delivered messages and collecting sends.
//! State and messages must be CDR-marshallable so checkpoints are machine-
//! independent — the property the paper needs for migration across
//! heterogeneous grid nodes. For a plain state struct that is one
//! [`integrade_orb::impl_cdr!`] line listing its fields.

use integrade_orb::cdr::{CdrDecode, CdrEncode};

/// Logical process id within a BSP job, `0..num_procs`.
pub type ProcId = usize;

/// What a process wants after a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Keep running.
    Continue,
    /// Vote to halt; the job ends when every process votes halt in the same
    /// superstep.
    Halt,
}

/// Per-process view of one superstep.
#[derive(Debug)]
pub struct BspContext<M> {
    pid: ProcId,
    num_procs: usize,
    superstep: usize,
    inbox: Vec<(ProcId, M)>,
    outbox: Vec<(ProcId, M)>,
}

impl<M> BspContext<M> {
    /// Creates the context the runtime hands to a process.
    pub(crate) fn new(
        pid: ProcId,
        num_procs: usize,
        superstep: usize,
        inbox: Vec<(ProcId, M)>,
    ) -> Self {
        BspContext {
            pid,
            num_procs,
            superstep,
            inbox,
            outbox: Vec::new(),
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Total processes in the job.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Current superstep index (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// Messages delivered this superstep, each with its sender.
    pub fn incoming(&self) -> &[(ProcId, M)] {
        &self.inbox
    }

    /// Sends `message` to process `to`, for delivery next superstep.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn send(&mut self, to: ProcId, message: M) {
        assert!(to < self.num_procs, "send to unknown process {to}");
        self.outbox.push((to, message));
    }

    /// Broadcasts a clone of `message` to every other process.
    pub fn broadcast(&mut self, message: M)
    where
        M: Clone,
    {
        for to in 0..self.num_procs {
            if to != self.pid {
                self.outbox.push((to, message.clone()));
            }
        }
    }

    /// Consumes the context, yielding the sends.
    pub(crate) fn into_outbox(self) -> Vec<(ProcId, M)> {
        self.outbox
    }
}

/// A BSP program: per-process state plus the superstep function.
///
/// The state type *is* the process; the runtime owns `num_procs` values of
/// it. CDR bounds make every program checkpointable.
pub trait BspProgram: CdrEncode + CdrDecode + Clone {
    /// The inter-process message type.
    type Message: CdrEncode + CdrDecode + Clone;

    /// Executes one superstep: read [`BspContext::incoming`], compute, and
    /// [`BspContext::send`] for the next superstep.
    fn superstep(&mut self, ctx: &mut BspContext<Self::Message>) -> StepOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_accessors() {
        let ctx: BspContext<u32> = BspContext::new(2, 4, 7, vec![(0, 5)]);
        assert_eq!(ctx.pid(), 2);
        assert_eq!(ctx.num_procs(), 4);
        assert_eq!(ctx.superstep(), 7);
        assert_eq!(ctx.incoming(), &[(0, 5)]);
    }

    #[test]
    fn send_collects_outbox() {
        let mut ctx: BspContext<u32> = BspContext::new(0, 3, 0, vec![]);
        ctx.send(1, 10);
        ctx.send(2, 20);
        assert_eq!(ctx.into_outbox(), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn broadcast_skips_self() {
        let mut ctx: BspContext<u32> = BspContext::new(1, 3, 0, vec![]);
        ctx.broadcast(9);
        assert_eq!(ctx.into_outbox(), vec![(0, 9), (2, 9)]);
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn send_out_of_range_panics() {
        let mut ctx: BspContext<u32> = BspContext::new(0, 2, 0, vec![]);
        ctx.send(5, 1);
    }
}
