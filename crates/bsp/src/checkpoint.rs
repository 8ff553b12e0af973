//! Superstep-boundary checkpointing and rollback recovery.
//!
//! The paper: "We still need a model that saves the state of computation
//! periodically, providing milestones that can be used to resume the
//! application in case of crashes or when there is need for migration" (§3).
//! BSP's barrier is that milestone: at a superstep boundary the global state
//! is exactly (process states, committed inboxes), with no in-flight
//! communication to reconcile — the very problem the paper says makes
//! general parallel checkpointing "prohibitive".
//!
//! [`GlobalCheckpoint`] marshals that state with CDR, the same machine-
//! independent encoding as the protocol messages, so a checkpoint taken on
//! one (simulated) architecture restores on any other.

use crate::program::{BspProgram, ProcId};
use crate::runtime::BspRuntime;
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};

/// A marshalled, machine-independent snapshot of a BSP job at a superstep
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalCheckpoint {
    /// Superstep index at which the snapshot was taken (the next to run).
    pub superstep: u64,
    /// Whether the job had already halted.
    pub halted: bool,
    /// CDR-encoded state per process.
    pub proc_states: Vec<Vec<u8>>,
    /// CDR-encoded committed inbox per process: sequences of (sender, msg).
    pub inboxes: Vec<Vec<u8>>,
}

impl GlobalCheckpoint {
    /// Total marshalled size in bytes — the paper's checkpoint overhead.
    pub fn size_bytes(&self) -> usize {
        self.proc_states.iter().map(Vec::len).sum::<usize>()
            + self.inboxes.iter().map(Vec::len).sum::<usize>()
            + 16
    }
}

// Hand-written: one count shared by the two sequences that follow it.
impl CdrEncode for GlobalCheckpoint {
    fn encode(&self, w: &mut CdrWriter) {
        self.superstep.encode(w);
        self.halted.encode(w);
        (self.proc_states.len() as u32).encode(w);
        for s in &self.proc_states {
            (s.len() as u32).encode(w);
            w.write_bytes(s);
        }
        for s in &self.inboxes {
            (s.len() as u32).encode(w);
            w.write_bytes(s);
        }
    }
}

impl CdrDecode for GlobalCheckpoint {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let superstep = u64::decode(r)?;
        let halted = bool::decode(r)?;
        // The count is untrusted: reserve a bounded amount and let a short
        // buffer end the loops.
        let n = u32::decode(r)? as usize;
        let mut proc_states = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let len = u32::decode(r)? as usize;
            proc_states.push(r.read_bytes(len)?.to_vec());
        }
        let mut inboxes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let len = u32::decode(r)? as usize;
            inboxes.push(r.read_bytes(len)?.to_vec());
        }
        Ok(GlobalCheckpoint {
            superstep,
            halted,
            proc_states,
            inboxes,
        })
    }
}

/// Error restoring from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A process state or inbox failed to unmarshal.
    Corrupt(CdrError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Corrupt(e) => write!(f, "checkpoint is corrupt: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CdrError> for RestoreError {
    fn from(e: CdrError) -> Self {
        RestoreError::Corrupt(e)
    }
}

fn encode_inbox<M: CdrEncode>(inbox: &[(ProcId, M)]) -> Vec<u8> {
    let mut w = CdrWriter::new();
    (inbox.len() as u32).encode(&mut w);
    for (from, message) in inbox {
        (*from as u32).encode(&mut w);
        message.encode(&mut w);
    }
    w.into_bytes()
}

fn decode_inbox<M: CdrDecode>(bytes: &[u8]) -> Result<Vec<(ProcId, M)>, CdrError> {
    let mut r = CdrReader::new(bytes);
    let len = u32::decode(&mut r)? as usize;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        let from = u32::decode(&mut r)? as ProcId;
        let message = M::decode(&mut r)?;
        out.push((from, message));
    }
    r.finish()?;
    Ok(out)
}

/// Takes a checkpoint of `runtime` at its current superstep boundary.
pub fn checkpoint<P: BspProgram>(runtime: &BspRuntime<P>) -> GlobalCheckpoint {
    GlobalCheckpoint {
        superstep: runtime.superstep() as u64,
        halted: runtime.is_halted(),
        proc_states: runtime.procs().iter().map(|p| p.to_cdr_bytes()).collect(),
        inboxes: runtime.inboxes().iter().map(|i| encode_inbox(i)).collect(),
    }
}

/// Restores a runtime from a checkpoint (rollback recovery / migration).
///
/// # Errors
///
/// Fails if any marshalled state is corrupt.
pub fn restore<P: BspProgram>(ckpt: &GlobalCheckpoint) -> Result<BspRuntime<P>, RestoreError> {
    let mut procs = Vec::with_capacity(ckpt.proc_states.len());
    for bytes in &ckpt.proc_states {
        procs.push(P::from_cdr_bytes(bytes)?);
    }
    let mut inboxes = Vec::with_capacity(ckpt.inboxes.len());
    for bytes in &ckpt.inboxes {
        inboxes.push(decode_inbox::<P::Message>(bytes)?);
    }
    Ok(BspRuntime::from_parts(
        procs,
        inboxes,
        ckpt.superstep as usize,
        ckpt.halted,
    ))
}

/// When to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `k` supersteps; `0` disables checkpointing.
    pub every_supersteps: usize,
}

impl CheckpointPolicy {
    /// Checkpoint every `k` supersteps.
    pub const fn every(k: usize) -> Self {
        CheckpointPolicy {
            every_supersteps: k,
        }
    }

    /// Never checkpoint.
    pub const fn disabled() -> Self {
        CheckpointPolicy {
            every_supersteps: 0,
        }
    }

    /// Whether a checkpoint is due after `superstep` completed supersteps.
    pub fn due_at(&self, superstep: usize) -> bool {
        self.every_supersteps > 0
            && superstep > 0
            && superstep.is_multiple_of(self.every_supersteps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BspContext, StepOutcome};
    use crate::runtime::RunResult;
    use integrade_orb::cdr::assert_wire_sound;
    use integrade_orb::impl_cdr;

    /// Iterative averaging with neighbours: runs a fixed number of rounds so
    /// mid-run checkpoints are interesting.
    #[derive(Clone, Debug, PartialEq)]
    struct Diffuse {
        value: f64,
        rounds: u64,
    }

    impl_cdr!(struct Diffuse { value, rounds });

    impl BspProgram for Diffuse {
        type Message = f64;
        fn superstep(&mut self, ctx: &mut BspContext<f64>) -> StepOutcome {
            // Average with whatever arrived, then exchange with neighbours.
            if !ctx.incoming().is_empty() {
                let sum: f64 = ctx.incoming().iter().map(|(_, v)| v).sum();
                self.value = (self.value + sum) / (1.0 + ctx.incoming().len() as f64);
            }
            if ctx.superstep() as u64 >= self.rounds {
                return StepOutcome::Halt;
            }
            let n = ctx.num_procs();
            ctx.send((ctx.pid() + 1) % n, self.value);
            ctx.send((ctx.pid() + n - 1) % n, self.value);
            StepOutcome::Continue
        }
    }

    fn job(n: usize, rounds: u64) -> BspRuntime<Diffuse> {
        BspRuntime::new(
            (0..n)
                .map(|i| Diffuse {
                    value: i as f64,
                    rounds,
                })
                .collect(),
        )
    }

    #[test]
    fn restore_resumes_identically() {
        // Run to completion straight through.
        let mut reference = job(6, 10);
        reference.run(100);

        // Run halfway, checkpoint, restore, finish.
        let mut first_half = job(6, 10);
        for _ in 0..5 {
            first_half.step();
        }
        let ckpt = checkpoint(&first_half);
        let mut resumed: BspRuntime<Diffuse> = restore(&ckpt).unwrap();
        assert_eq!(resumed.superstep(), 5);
        resumed.run(100);

        assert_eq!(
            resumed.procs(),
            reference.procs(),
            "bitwise-identical results"
        );
        assert_eq!(resumed.superstep(), reference.superstep());
    }

    #[test]
    fn checkpoint_includes_inflight_messages() {
        let mut rt = job(4, 10);
        rt.step(); // messages now committed for superstep 1
        let ckpt = checkpoint(&rt);
        // Inboxes are non-trivial.
        assert!(ckpt.inboxes.iter().any(|b| b.len() > 4));
        let resumed: BspRuntime<Diffuse> = restore(&ckpt).unwrap();
        assert_eq!(resumed.inboxes().iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn checkpoint_wire_round_trip() {
        // Running with messages in flight, and halted. A flipped bit in the
        // shared process count must be refused, not abort on allocation.
        let mut running = job(3, 4);
        running.step();
        let mut halted = job(2, 2);
        halted.run(100);
        for rt in [running, halted] {
            let ckpt = checkpoint(&rt);
            assert_eq!(ckpt.halted, rt.is_halted());
            assert_wire_sound(&ckpt);
            assert!(ckpt.size_bytes() > 0);
        }
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let rt = job(2, 2);
        let mut ckpt = checkpoint(&rt);
        ckpt.proc_states[0] = vec![1, 2, 3]; // garbage
        assert!(matches!(
            restore::<Diffuse>(&ckpt),
            Err(RestoreError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_of_completed_job_stays_halted() {
        let mut rt = job(3, 2);
        assert_eq!(rt.run(100), RunResult::Completed { supersteps: 3 });
        let ckpt = checkpoint(&rt);
        let resumed: BspRuntime<Diffuse> = restore(&ckpt).unwrap();
        assert!(resumed.is_halted());
    }

    #[test]
    fn policy_schedule() {
        let p = CheckpointPolicy::every(3);
        assert!(!p.due_at(0));
        assert!(!p.due_at(2));
        assert!(p.due_at(3));
        assert!(p.due_at(6));
        assert!(!CheckpointPolicy::disabled().due_at(3));
    }

    #[test]
    fn lost_work_bounded_by_checkpoint_interval() {
        // Simulate a crash at superstep 7 with checkpoints every 3: recovery
        // re-executes from superstep 6, losing exactly 1 superstep of work.
        let policy = CheckpointPolicy::every(3);
        let mut rt = job(5, 20);
        let mut last_ckpt = checkpoint(&rt);
        for step in 1..=7 {
            rt.step();
            if policy.due_at(step) {
                last_ckpt = checkpoint(&rt);
            }
        }
        // "Crash": discard rt, restore.
        let resumed: BspRuntime<Diffuse> = restore(&last_ckpt).unwrap();
        assert_eq!(resumed.superstep(), 6);
        let lost = 7 - resumed.superstep();
        assert!(lost < policy.every_supersteps);
    }
}
