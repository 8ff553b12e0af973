//! Intra-cluster protocol messages.
//!
//! Two protocols tie LRMs and the GRM together (§4):
//!
//! * **Information Update Protocol** — each LRM periodically sends its node
//!   status to the GRM, which stores it (in the Trader) as the scheduling
//!   hint: [`StatusUpdate`].
//! * **Resource Reservation and Execution Protocol** — when an application
//!   is submitted the GRM picks candidates from its (possibly stale) local
//!   state, then *negotiates directly* with each candidate to confirm and
//!   reserve resources, retrying on refusal: [`ReserveRequest`] /
//!   [`ReserveReply`], then [`LaunchRequest`] / [`LaunchReply`], and
//!   asynchronous completion/eviction notifications back to the GRM.
//!
//! All payloads are CDR-marshalled and travel inside GIOP frames, so every
//! protocol interaction has a realistic wire size.

use crate::asct::JobSpec;
use crate::hierarchy::UsageSummary;
use crate::types::{ClusterId, JobId, NodeId, NodeStatus};
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
use serde::{Deserialize, Serialize};

/// Reference-counted immutable byte payload. Checkpoint blobs carry one so
/// that fanning a checkpoint out to `k` replicas (and stashing it in the
/// per-node repository) shares a single allocation instead of deep-cloning
/// kilobytes per copy. Atomically counted, so the per-node replica stores
/// that hold these — and with them every node's state — are `Send`: a shard
/// worker may drop or clone a payload its node shares with another shard's.
pub type SharedBytes = std::sync::Arc<[u8]>;

/// Operation name: LRM → GRM periodic status (oneway).
pub const OP_UPDATE_STATUS: &str = "update_status";
/// Operation name: GRM → LRM reservation negotiation.
pub const OP_RESERVE: &str = "reserve";
/// Operation name: GRM → LRM launch a part under a reservation.
pub const OP_LAUNCH: &str = "launch";
/// Operation name: GRM → LRM cancel a reservation or running part.
pub const OP_CANCEL: &str = "cancel";
/// Operation name: GRM → LRM cancel a *running* part (BSP gang teardown),
/// returning its progress.
pub const OP_CANCEL_PART: &str = "cancel_part";
/// Operation name: LRM → GRM a part completed (oneway).
pub const OP_PART_DONE: &str = "part_done";
/// Operation name: LRM → GRM a part was evicted (oneway).
pub const OP_PART_EVICTED: &str = "part_evicted";
/// Operation name: LRM → LRM (or GRM → LRM during re-replication) store a
/// checkpoint replica.
pub const OP_STORE_CKPT: &str = "store_checkpoint";
/// Operation name: GRM → LRM fetch a held checkpoint replica.
pub const OP_FETCH_CKPT: &str = "fetch_checkpoint";
/// Operation name: GRM → LRM drop a part's replica after completion (oneway).
pub const OP_PURGE_CKPT: &str = "purge_checkpoint";
/// Operation name: GRM → parent GRM periodic subtree usage summary (oneway).
pub const OP_FED_SUMMARY: &str = "fed_summary";
/// Operation name: GRM → linked GRM spillover resource probe.
pub const OP_FED_QUERY: &str = "fed_query";
/// Operation name: origin GRM → remote GRM forward a job for execution.
pub const OP_FED_FORWARD: &str = "fed_forward";
/// Operation name: remote GRM → origin GRM forwarded-job admission outcome.
pub const OP_FED_FORWARD_ACK: &str = "fed_forward_ack";
/// Operation name: remote GRM → origin GRM periodic forwarded-job status
/// (oneway).
pub const OP_FED_STATUS: &str = "fed_status";
/// Object key under which every LRM servant registers.
pub const LRM_OBJECT_KEY: &str = "integrade/lrm";
/// Object key under which the GRM servant registers.
pub const GRM_OBJECT_KEY: &str = "integrade/grm";
/// Trader service type for node offers.
pub const NODE_SERVICE_TYPE: &str = "integrade::node";

/// Property names of a node offer (the GRM's trader schema).
///
/// Constraint strings built by [`crate::asct`] and the offers the GRM
/// exports must agree on these names; keeping them in one place is what
/// lets the GRM resolve each to a trader slot once and refresh status
/// updates through [`integrade_orb::trading::Trader::modify_values`]
/// without per-update key allocation.
pub mod node_props {
    /// Long: the node id.
    pub const NODE_ID: &str = "node_id";
    /// Long: hardware CPU capacity, MIPS.
    pub const CPU_MIPS: &str = "cpu_mips";
    /// Long: hardware RAM capacity, MB.
    pub const RAM_MB: &str = "ram_mb";
    /// Str: operating system.
    pub const OS: &str = "os";
    /// Str: CPU architecture.
    pub const ARCH: &str = "arch";
    /// Double: fraction of CPU currently free for the grid.
    pub const FREE_CPU: &str = "free_cpu";
    /// Long: MB of RAM currently free for the grid.
    pub const FREE_RAM_MB: &str = "free_ram_mb";
    /// Bool: whether the NCC currently allows exporting.
    pub const EXPORTING: &str = "exporting";
    /// Bool: whether the owner is actively using the machine.
    pub const OWNER_ACTIVE: &str = "owner_active";
    /// Long: grid parts currently hosted.
    pub const RUNNING_PARTS: &str = "running_parts";
}

/// One checkpoint replica held on the reporting node's disk, piggybacked on
/// status updates. These re-announces are the *only* feed of the GRM's
/// soft-state replica map (the design the InteGrade group later published
/// as checkpointing-based rollback recovery; here it is what makes §3's
/// "resume the application in case of crashes" work when the crashed disk
/// is gone): after a GRM restart the map rebuilds itself from the next
/// round of updates with no dedicated recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Job the replicated part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Monotonic checkpoint version of the held replica.
    pub version: u64,
    /// Work preserved by the held replica, MIPS-s.
    pub work_mips_s: u64,
}

impl CdrEncode for ReplicaReport {
    fn encode(&self, w: &mut CdrWriter) {
        self.job.encode(w);
        self.part.encode(w);
        self.version.encode(w);
        self.work_mips_s.encode(w);
    }
}
impl CdrDecode for ReplicaReport {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ReplicaReport {
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            version: u64::decode(r)?,
            work_mips_s: u64::decode(r)?,
        })
    }
}

/// Observed execution progress of one running part, piggybacked on status
/// updates. The GRM differences consecutive observations of `done_mips_s`
/// to estimate a per-part progress *rate*, feeding the straggler detector:
/// gray-failed hosts (owner reclaimed the CPU, derated clock, limping NIC)
/// keep reporting — just slowly — which is exactly what the silent-crash
/// scan cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressReport {
    /// Job the running part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Cumulative work executed on this node so far, MIPS-s (monotonic
    /// while the part stays on the node; restarts from the resume point
    /// after a migration).
    pub done_mips_s: u64,
}

impl CdrEncode for ProgressReport {
    fn encode(&self, w: &mut CdrWriter) {
        self.job.encode(w);
        self.part.encode(w);
        self.done_mips_s.encode(w);
    }
}
impl CdrDecode for ProgressReport {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ProgressReport {
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            done_mips_s: u64::decode(r)?,
        })
    }
}

/// LRM → GRM: periodic node status (the Information Update Protocol).
///
/// Besides the status itself the update piggybacks any `part_done` /
/// `part_evicted` outcomes whose oneway notification has not been
/// acknowledged yet, making those notifications loss-tolerant: the LRM
/// keeps re-sending them here until an [`UpdateAck`] confirms receipt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusUpdate {
    /// Reporting node.
    pub node: NodeId,
    /// Monotonic per-node sequence number (stale updates are discarded).
    pub seq: u64,
    /// Current status.
    pub status: NodeStatus,
    /// Checkpoint replicas held on this node's disk (repository
    /// re-announces).
    pub replicas: Vec<ReplicaReport>,
    /// Completion outcomes not yet acknowledged by the GRM.
    pub pending_done: Vec<PartDone>,
    /// Eviction outcomes not yet acknowledged by the GRM.
    pub pending_evicted: Vec<PartEvicted>,
    /// Observed progress of each part currently running here.
    pub progress: Vec<ProgressReport>,
}

impl CdrEncode for StatusUpdate {
    fn encode(&self, w: &mut CdrWriter) {
        self.node.encode(w);
        self.seq.encode(w);
        self.status.encode(w);
        self.replicas.encode(w);
        self.pending_done.encode(w);
        self.pending_evicted.encode(w);
        self.progress.encode(w);
    }
}
impl CdrDecode for StatusUpdate {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(StatusUpdate {
            node: NodeId::decode(r)?,
            seq: u64::decode(r)?,
            status: NodeStatus::decode(r)?,
            replicas: Vec::decode(r)?,
            pending_done: Vec::decode(r)?,
            pending_evicted: Vec::decode(r)?,
            progress: Vec::decode(r)?,
        })
    }
}

/// GRM → LRM: acknowledgement of a [`StatusUpdate`].
///
/// Carries the GRM's *epoch* — bumped every time the GRM restarts with its
/// volatile state wiped — so LRMs detect the restart and re-announce full
/// state in their next update. Echoing `seq` lets the LRM retire the
/// piggybacked outcomes that were included in the acknowledged update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateAck {
    /// The GRM's current incarnation number.
    pub epoch: u64,
    /// The sequence number of the update being acknowledged.
    pub seq: u64,
}

impl CdrEncode for UpdateAck {
    fn encode(&self, w: &mut CdrWriter) {
        self.epoch.encode(w);
        self.seq.encode(w);
    }
}
impl CdrDecode for UpdateAck {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(UpdateAck {
            epoch: u64::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

/// GRM → LRM: request a reservation for one part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReserveRequest {
    /// Sender-unique id for idempotent dedup: a retransmitted request with
    /// an id the LRM has already answered returns the cached reply instead
    /// of reserving twice. `0` disables dedup (used by unit tests).
    pub request_id: u64,
    /// The job the part belongs to.
    pub job: JobId,
    /// Part index within the job.
    pub part: u32,
    /// RAM the part needs, MB.
    pub ram_mb: u64,
    /// Minimum useful CPU share (reservation refused below this).
    pub min_cpu_fraction: f64,
    /// Expected duration hint, seconds (for lease sizing).
    pub duration_hint_s: u64,
}

impl CdrEncode for ReserveRequest {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.job.encode(w);
        self.part.encode(w);
        self.ram_mb.encode(w);
        self.min_cpu_fraction.encode(w);
        self.duration_hint_s.encode(w);
    }
}
impl CdrDecode for ReserveRequest {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ReserveRequest {
            request_id: u64::decode(r)?,
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            ram_mb: u64::decode(r)?,
            min_cpu_fraction: f64::decode(r)?,
            duration_hint_s: u64::decode(r)?,
        })
    }
}

/// LRM → GRM: outcome of a reservation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReserveReply {
    /// Whether the node accepted.
    pub granted: bool,
    /// Reservation handle when granted.
    pub reservation: u64,
    /// Refusal reason when not granted.
    pub reason: String,
}

impl ReserveReply {
    /// A refusal with the given reason.
    pub fn refused(reason: &str) -> Self {
        ReserveReply {
            granted: false,
            reservation: 0,
            reason: reason.to_owned(),
        }
    }
}

impl CdrEncode for ReserveReply {
    fn encode(&self, w: &mut CdrWriter) {
        self.granted.encode(w);
        self.reservation.encode(w);
        self.reason.encode(w);
    }
}
impl CdrDecode for ReserveReply {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ReserveReply {
            granted: bool::decode(r)?,
            reservation: u64::decode(r)?,
            reason: String::decode(r)?,
        })
    }
}

/// GRM → LRM: start a part under a previously granted reservation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchRequest {
    /// Sender-unique id for idempotent dedup (see [`ReserveRequest`]).
    pub request_id: u64,
    /// The granted reservation handle.
    pub reservation: u64,
    /// Job and part to run.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Work to execute, MIPS-seconds (remaining work when resuming from a
    /// checkpoint).
    pub work_mips_s: u64,
    /// Checkpoint interval, MIPS-s of work between checkpoints (0 disables
    /// checkpointing for this part).
    pub checkpoint_interval_mips_s: f64,
    /// Size of the part's marshalled execution state, bytes — the payload
    /// each replicated checkpoint blob carries over the network.
    pub state_bytes: u64,
    /// Checkpoint version already banked by the GRM for this part; the
    /// first checkpoint of this launch is `resume_version + 1`, keeping
    /// versions monotonic across relaunches.
    pub resume_version: u64,
    /// Replica nodes (chosen by the GRM) the executing LRM must write each
    /// checkpoint to.
    pub replicas: Vec<NodeId>,
}

impl CdrEncode for LaunchRequest {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.reservation.encode(w);
        self.job.encode(w);
        self.part.encode(w);
        self.work_mips_s.encode(w);
        self.checkpoint_interval_mips_s.encode(w);
        self.state_bytes.encode(w);
        self.resume_version.encode(w);
        self.replicas.encode(w);
    }
}
impl CdrDecode for LaunchRequest {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(LaunchRequest {
            request_id: u64::decode(r)?,
            reservation: u64::decode(r)?,
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            work_mips_s: u64::decode(r)?,
            checkpoint_interval_mips_s: f64::decode(r)?,
            state_bytes: u64::decode(r)?,
            resume_version: u64::decode(r)?,
            replicas: Vec::decode(r)?,
        })
    }
}

/// LRM → GRM: launch outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchReply {
    /// Whether execution started.
    pub accepted: bool,
    /// Refusal reason otherwise.
    pub reason: String,
}

impl CdrEncode for LaunchReply {
    fn encode(&self, w: &mut CdrWriter) {
        self.accepted.encode(w);
        self.reason.encode(w);
    }
}
impl CdrDecode for LaunchReply {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(LaunchReply {
            accepted: bool::decode(r)?,
            reason: String::decode(r)?,
        })
    }
}

/// GRM → LRM: stop a running part (gang teardown after a sibling eviction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CancelPartRequest {
    /// Sender-unique id for idempotent dedup (see [`ReserveRequest`]).
    pub request_id: u64,
    /// Job the part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
}

impl CdrEncode for CancelPartRequest {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.job.encode(w);
        self.part.encode(w);
    }
}
impl CdrDecode for CancelPartRequest {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(CancelPartRequest {
            request_id: u64::decode(r)?,
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
        })
    }
}

/// LRM → GRM: progress of a cancelled part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CancelPartReply {
    /// Whether the part was found running here.
    pub found: bool,
    /// Work preserved by its last checkpoint, MIPS-s.
    pub checkpointed_work_mips_s: u64,
    /// Version of that last checkpoint (`resume_version` when none was
    /// taken this launch).
    pub checkpoint_version: u64,
    /// Work executed in this launch, MIPS-s.
    pub done_work_mips_s: u64,
}

impl CdrEncode for CancelPartReply {
    fn encode(&self, w: &mut CdrWriter) {
        self.found.encode(w);
        self.checkpointed_work_mips_s.encode(w);
        self.checkpoint_version.encode(w);
        self.done_work_mips_s.encode(w);
    }
}
impl CdrDecode for CancelPartReply {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(CancelPartReply {
            found: bool::decode(r)?,
            checkpointed_work_mips_s: u64::decode(r)?,
            checkpoint_version: u64::decode(r)?,
            done_work_mips_s: u64::decode(r)?,
        })
    }
}

/// LRM → GRM: a part finished (oneway notification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartDone {
    /// Job the part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Node that ran it.
    pub node: NodeId,
    /// Digest of the result the node computed. An honest executor reports
    /// [`canonical_result_digest`]`(job, part)`; a wrong result shows up as
    /// any other value, which is what the GRM's certification engine votes
    /// on. Zero is reserved for "no digest" (pre-certification senders).
    pub digest: u64,
}

/// The digest an honest executor reports for a finished part.
///
/// In the simulation the "result" of a part is fully determined by its
/// identity, so the canonical digest is a pure hash of `(job, part)`. Both
/// sides use it: the LRM to stamp [`PartDone`], the GRM to verify
/// spot-check probes against the known answer.
pub fn canonical_result_digest(job: JobId, part: u32) -> u64 {
    // splitmix64 finalizer over the packed identity; never zero (zero is
    // the "no digest" sentinel).
    let mut h = (job.0.rotate_left(32) ^ u64::from(part)) ^ 0x52455355_4C543244; // "RESULT2D"
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h.max(1)
}

impl CdrEncode for PartDone {
    fn encode(&self, w: &mut CdrWriter) {
        self.job.encode(w);
        self.part.encode(w);
        self.node.encode(w);
        self.digest.encode(w);
    }
}
impl CdrDecode for PartDone {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(PartDone {
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            node: NodeId::decode(r)?,
            digest: u64::decode(r)?,
        })
    }
}

/// LRM → GRM: a part was evicted by the returning owner (oneway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartEvicted {
    /// Job the part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Node it was evicted from.
    pub node: NodeId,
    /// Work completed and preserved by checkpointing, MIPS-s (0 when the
    /// job has no checkpointing — all work is lost).
    pub checkpointed_work_mips_s: u64,
    /// Version of the checkpoint that preserved it (`resume_version` when
    /// none was taken this launch). The GRM banks the work only when this
    /// exceeds the part's already-banked version, so a replica from an old
    /// launch can never be double-counted.
    pub checkpoint_version: u64,
    /// Work lost (re-execution needed), MIPS-s.
    pub lost_work_mips_s: u64,
}

impl CdrEncode for PartEvicted {
    fn encode(&self, w: &mut CdrWriter) {
        self.job.encode(w);
        self.part.encode(w);
        self.node.encode(w);
        self.checkpointed_work_mips_s.encode(w);
        self.checkpoint_version.encode(w);
        self.lost_work_mips_s.encode(w);
    }
}
impl CdrDecode for PartEvicted {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(PartEvicted {
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            node: NodeId::decode(r)?,
            checkpointed_work_mips_s: u64::decode(r)?,
            checkpoint_version: u64::decode(r)?,
            lost_work_mips_s: u64::decode(r)?,
        })
    }
}

/// A part's checkpoint as it travels the wire: the real marshalled
/// `GlobalCheckpoint` CDR bytes plus enough metadata to version and verify
/// them without unmarshalling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointBlob {
    /// Job the checkpoint belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Monotonic checkpoint version (superstep counter for BSP parts).
    pub version: u64,
    /// Work preserved by this checkpoint, MIPS-s.
    pub work_mips_s: u64,
    /// CRC32 over `payload`, computed by the writer before the bytes hit
    /// the network. Verified on store and again on fetch.
    pub digest: u32,
    /// The marshalled `GlobalCheckpoint` bytes, shared between the replica
    /// fan-out copies (cloning a blob bumps a refcount, not kilobytes).
    pub payload: SharedBytes,
}

impl CheckpointBlob {
    /// The placeholder blob carried by negative replies (`found == false`).
    pub fn empty(job: JobId, part: u32) -> Self {
        CheckpointBlob {
            job,
            part,
            version: 0,
            work_mips_s: 0,
            digest: 0,
            payload: SharedBytes::from(&[][..]),
        }
    }
}

impl CdrEncode for CheckpointBlob {
    fn encode(&self, w: &mut CdrWriter) {
        self.job.encode(w);
        self.part.encode(w);
        self.version.encode(w);
        self.work_mips_s.encode(w);
        self.digest.encode(w);
        // Length-prefixed raw bytes: same wire shape as Vec<u8>, without
        // the per-byte encode loop (payloads are kilobytes, not words).
        (self.payload.len() as u32).encode(w);
        w.write_bytes(&self.payload);
    }
}
impl CdrDecode for CheckpointBlob {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(CheckpointBlob {
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
            version: u64::decode(r)?,
            work_mips_s: u64::decode(r)?,
            digest: u32::decode(r)?,
            payload: {
                let len = u32::decode(r)? as usize;
                SharedBytes::from(r.read_bytes(len)?)
            },
        })
    }
}

/// Executing LRM → replica LRM (or GRM → LRM when re-replicating): write a
/// checkpoint replica to the destination's disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreCheckpoint {
    /// Sender-unique id for idempotent dedup (see [`ReserveRequest`]).
    pub request_id: u64,
    /// The node producing (or relaying) the checkpoint.
    pub origin: NodeId,
    /// The checkpoint itself.
    pub blob: CheckpointBlob,
}

impl CdrEncode for StoreCheckpoint {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.origin.encode(w);
        self.blob.encode(w);
    }
}
impl CdrDecode for StoreCheckpoint {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(StoreCheckpoint {
            request_id: u64::decode(r)?,
            origin: NodeId::decode(r)?,
            blob: CheckpointBlob::decode(r)?,
        })
    }
}

/// Replica LRM → writer: outcome of a [`StoreCheckpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCheckpointReply {
    /// The replica is now on disk.
    pub accepted: bool,
    /// The payload failed digest verification (corrupted in flight); the
    /// writer should re-send under a fresh request id. This reply is never
    /// cached, so a plain retransmission also re-executes the store.
    pub corrupt: bool,
    /// The version now held for the part (the incoming one when accepted,
    /// the existing newer one when the incoming was stale).
    pub held_version: u64,
}

impl CdrEncode for StoreCheckpointReply {
    fn encode(&self, w: &mut CdrWriter) {
        self.accepted.encode(w);
        self.corrupt.encode(w);
        self.held_version.encode(w);
    }
}
impl CdrDecode for StoreCheckpointReply {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(StoreCheckpointReply {
            accepted: bool::decode(r)?,
            corrupt: bool::decode(r)?,
            held_version: u64::decode(r)?,
        })
    }
}

/// GRM → replica LRM: read back a held replica (recovery or re-replication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchCheckpoint {
    /// Sender-unique id (fetches are read-only, so replies are not cached;
    /// the id exists for tracing symmetry).
    pub request_id: u64,
    /// Job the wanted checkpoint belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
}

impl CdrEncode for FetchCheckpoint {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.job.encode(w);
        self.part.encode(w);
    }
}
impl CdrDecode for FetchCheckpoint {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FetchCheckpoint {
            request_id: u64::decode(r)?,
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
        })
    }
}

/// Replica LRM → GRM: the held replica, if any.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FetchCheckpointReply {
    /// Whether a replica for the part is held here.
    pub found: bool,
    /// The replica ([`CheckpointBlob::empty`] when not found).
    pub blob: CheckpointBlob,
}

impl CdrEncode for FetchCheckpointReply {
    fn encode(&self, w: &mut CdrWriter) {
        self.found.encode(w);
        self.blob.encode(w);
    }
}
impl CdrDecode for FetchCheckpointReply {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FetchCheckpointReply {
            found: bool::decode(r)?,
            blob: CheckpointBlob::decode(r)?,
        })
    }
}

/// GRM → replica LRM: a part completed; drop its replica (oneway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PurgeCheckpoint {
    /// Job whose part completed.
    pub job: JobId,
    /// Part index.
    pub part: u32,
}

impl CdrEncode for PurgeCheckpoint {
    fn encode(&self, w: &mut CdrWriter) {
        self.job.encode(w);
        self.part.encode(w);
    }
}
impl CdrDecode for PurgeCheckpoint {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(PurgeCheckpoint {
            job: JobId::decode(r)?,
            part: u32::decode(r)?,
        })
    }
}

/// GRM → parent GRM: the cluster's (subtree's) usage summary, sent every
/// update period — the inter-cluster arm of the Information Update Protocol
/// (\[MK02\]'s "information updates ... across a collection of clusters").
/// The receiver holds it as staleness-bounded soft state
/// ([`crate::hierarchy::ClusterHierarchy::apply_child_report`]); the epoch
/// inside `usage` guards against out-of-order WAN delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedSummary {
    /// The reporting cluster.
    pub cluster: ClusterId,
    /// Its subtree usage summary (resource aggregate + predicted-
    /// availability histogram + send epoch).
    pub usage: UsageSummary,
}

impl CdrEncode for FedSummary {
    fn encode(&self, w: &mut CdrWriter) {
        self.cluster.encode(w);
        self.usage.encode(w);
    }
}
impl CdrDecode for FedSummary {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FedSummary {
            cluster: ClusterId::decode(r)?,
            usage: UsageSummary::decode(r)?,
        })
    }
}

/// GRM → linked GRM: a spillover probe along a trader federation link —
/// "can your offer set satisfy this?" Carries the origin and a hop budget
/// so a probe chain terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FedQuery {
    /// Sender-unique id matching replies to probes.
    pub request_id: u64,
    /// The cluster whose GRM could not satisfy the request locally.
    pub origin: ClusterId,
    /// Exporting nodes needed.
    pub nodes: u32,
    /// Minimum node speed, MIPS.
    pub min_cpu_mips: u64,
    /// Minimum free RAM per node, MB.
    pub min_ram_mb: u64,
    /// Remaining link-follow budget (decremented per hop).
    pub hop_budget: u32,
}

impl CdrEncode for FedQuery {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.origin.encode(w);
        self.nodes.encode(w);
        self.min_cpu_mips.encode(w);
        self.min_ram_mb.encode(w);
        self.hop_budget.encode(w);
    }
}
impl CdrDecode for FedQuery {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FedQuery {
            request_id: u64::decode(r)?,
            origin: ClusterId::decode(r)?,
            nodes: u32::decode(r)?,
            min_cpu_mips: u64::decode(r)?,
            min_ram_mb: u64::decode(r)?,
            hop_budget: u32::decode(r)?,
        })
    }
}

/// Linked GRM → querying GRM: live match count for a [`FedQuery`] — the
/// probed trader's current offers matching the constraint, not a stale
/// summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FedQueryReply {
    /// Echo of the probe's id.
    pub request_id: u64,
    /// The replying cluster.
    pub cluster: ClusterId,
    /// Exporting nodes currently matching the probe's constraint.
    pub matches: u32,
}

impl CdrEncode for FedQueryReply {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.cluster.encode(w);
        self.matches.encode(w);
    }
}
impl CdrDecode for FedQueryReply {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FedQueryReply {
            request_id: u64::decode(r)?,
            cluster: ClusterId::decode(r)?,
            matches: u32::decode(r)?,
        })
    }
}

/// Origin GRM → remote GRM: forward a job for remote execution (the
/// request-forwarding arm of \[MK02\]). The full [`JobSpec`] is marshalled —
/// the forward costs what the submission actually weighs on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedForward {
    /// Sender-unique id matching the ack to the forward.
    pub request_id: u64,
    /// The submitting cluster (status flows back here).
    pub origin: ClusterId,
    /// The job id in the *origin's* numbering — together with `origin`
    /// this is the job's global identity.
    pub job: JobId,
    /// The submission itself.
    pub spec: JobSpec,
}

impl CdrEncode for FedForward {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.origin.encode(w);
        self.job.encode(w);
        self.spec.encode(w);
    }
}
impl CdrDecode for FedForward {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FedForward {
            request_id: u64::decode(r)?,
            origin: ClusterId::decode(r)?,
            job: JobId::decode(r)?,
            spec: JobSpec::decode(r)?,
        })
    }
}

/// Remote GRM → origin GRM: admission outcome of a [`FedForward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FedForwardAck {
    /// Echo of the forward's id.
    pub request_id: u64,
    /// Whether the remote GRM admitted the job.
    pub accepted: bool,
    /// The job id in the *executing* cluster's numbering (0 when refused).
    pub remote_job: JobId,
}

impl CdrEncode for FedForwardAck {
    fn encode(&self, w: &mut CdrWriter) {
        self.request_id.encode(w);
        self.accepted.encode(w);
        self.remote_job.encode(w);
    }
}
impl CdrDecode for FedForwardAck {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FedForwardAck {
            request_id: u64::decode(r)?,
            accepted: bool::decode(r)?,
            remote_job: JobId::decode(r)?,
        })
    }
}

/// Remote GRM → origin GRM: periodic status of a forwarded job, so the
/// submitting user's ASCT can "monitor application progress" (§4) across
/// the WAN. Sent on the executing cluster's update cadence until the job
/// completes; the final message has `completed == true`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedStatus {
    /// The executing cluster.
    pub cluster: ClusterId,
    /// The job id in the *origin's* numbering.
    pub job: JobId,
    /// Parts finished so far.
    pub parts_done: u32,
    /// Total parts.
    pub parts_total: u32,
    /// Whether the job has completed remotely.
    pub completed: bool,
}

impl CdrEncode for FedStatus {
    fn encode(&self, w: &mut CdrWriter) {
        self.cluster.encode(w);
        self.job.encode(w);
        self.parts_done.encode(w);
        self.parts_total.encode(w);
        self.completed.encode(w);
    }
}
impl CdrDecode for FedStatus {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FedStatus {
            cluster: ClusterId::decode(r)?,
            job: JobId::decode(r)?,
            parts_done: u32::decode(r)?,
            parts_total: u32::decode(r)?,
            completed: bool::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status() -> NodeStatus {
        NodeStatus {
            free_cpu_fraction: 0.3,
            free_ram_mb: 128,
            owner_active: false,
            exporting: true,
            running_parts: 1,
        }
    }

    #[test]
    fn all_messages_round_trip() {
        let u = StatusUpdate {
            node: NodeId(4),
            seq: 17,
            status: status(),
            replicas: vec![ReplicaReport {
                job: JobId(2),
                part: 1,
                version: 6,
                work_mips_s: 300,
            }],
            pending_done: vec![PartDone {
                job: JobId(5),
                part: 0,
                node: NodeId(4),
                digest: canonical_result_digest(JobId(5), 0),
            }],
            pending_evicted: vec![PartEvicted {
                job: JobId(6),
                part: 2,
                node: NodeId(4),
                checkpointed_work_mips_s: 40,
                checkpoint_version: 2,
                lost_work_mips_s: 10,
            }],
            progress: vec![ProgressReport {
                job: JobId(2),
                part: 1,
                done_mips_s: 12_500,
            }],
        };
        assert_eq!(StatusUpdate::from_cdr_bytes(&u.to_cdr_bytes()).unwrap(), u);

        let ack = UpdateAck { epoch: 3, seq: 17 };
        assert_eq!(UpdateAck::from_cdr_bytes(&ack.to_cdr_bytes()).unwrap(), ack);

        let rr = ReserveRequest {
            request_id: 41,
            job: JobId(2),
            part: 3,
            ram_mb: 64,
            min_cpu_fraction: 0.25,
            duration_hint_s: 600,
        };
        assert_eq!(
            ReserveRequest::from_cdr_bytes(&rr.to_cdr_bytes()).unwrap(),
            rr
        );

        let rp = ReserveReply {
            granted: true,
            reservation: 99,
            reason: String::new(),
        };
        assert_eq!(
            ReserveReply::from_cdr_bytes(&rp.to_cdr_bytes()).unwrap(),
            rp
        );

        let lr = LaunchRequest {
            request_id: 42,
            reservation: 99,
            job: JobId(2),
            part: 3,
            work_mips_s: 1000,
            checkpoint_interval_mips_s: 250.0,
            state_bytes: 8192,
            resume_version: 4,
            replicas: vec![NodeId(1), NodeId(5)],
        };
        assert_eq!(
            LaunchRequest::from_cdr_bytes(&lr.to_cdr_bytes()).unwrap(),
            lr
        );

        let lp = LaunchReply {
            accepted: false,
            reason: "reservation expired".into(),
        };
        assert_eq!(LaunchReply::from_cdr_bytes(&lp.to_cdr_bytes()).unwrap(), lp);

        let cpr = CancelPartRequest {
            request_id: 43,
            job: JobId(2),
            part: 3,
        };
        assert_eq!(
            CancelPartRequest::from_cdr_bytes(&cpr.to_cdr_bytes()).unwrap(),
            cpr
        );

        let cpp = CancelPartReply {
            found: true,
            checkpointed_work_mips_s: 450,
            checkpoint_version: 9,
            done_work_mips_s: 510,
        };
        assert_eq!(
            CancelPartReply::from_cdr_bytes(&cpp.to_cdr_bytes()).unwrap(),
            cpp
        );

        let pd = PartDone {
            job: JobId(2),
            part: 3,
            node: NodeId(4),
            digest: canonical_result_digest(JobId(2), 3),
        };
        assert_eq!(PartDone::from_cdr_bytes(&pd.to_cdr_bytes()).unwrap(), pd);

        let pe = PartEvicted {
            job: JobId(2),
            part: 3,
            node: NodeId(4),
            checkpointed_work_mips_s: 500,
            checkpoint_version: 7,
            lost_work_mips_s: 120,
        };
        assert_eq!(PartEvicted::from_cdr_bytes(&pe.to_cdr_bytes()).unwrap(), pe);

        let sc = StoreCheckpoint {
            request_id: 44,
            origin: NodeId(4),
            blob: CheckpointBlob {
                job: JobId(2),
                part: 3,
                version: 8,
                work_mips_s: 600,
                digest: 0xDEAD_BEEF,
                payload: vec![1, 2, 3, 4, 5].into(),
            },
        };
        assert_eq!(
            StoreCheckpoint::from_cdr_bytes(&sc.to_cdr_bytes()).unwrap(),
            sc
        );

        let sr = StoreCheckpointReply {
            accepted: true,
            corrupt: false,
            held_version: 8,
        };
        assert_eq!(
            StoreCheckpointReply::from_cdr_bytes(&sr.to_cdr_bytes()).unwrap(),
            sr
        );

        let fc = FetchCheckpoint {
            request_id: 45,
            job: JobId(2),
            part: 3,
        };
        assert_eq!(
            FetchCheckpoint::from_cdr_bytes(&fc.to_cdr_bytes()).unwrap(),
            fc
        );

        let fr = FetchCheckpointReply {
            found: false,
            blob: CheckpointBlob::empty(JobId(2), 3),
        };
        assert_eq!(
            FetchCheckpointReply::from_cdr_bytes(&fr.to_cdr_bytes()).unwrap(),
            fr
        );

        let pc = PurgeCheckpoint {
            job: JobId(2),
            part: 3,
        };
        assert_eq!(
            PurgeCheckpoint::from_cdr_bytes(&pc.to_cdr_bytes()).unwrap(),
            pc
        );
    }

    #[test]
    fn federation_messages_round_trip() {
        use crate::asct::{JobKind, JobSpec};
        use crate::hierarchy::{AvailabilityHistogram, ClusterSummary};

        let mut histogram = AvailabilityHistogram::default();
        histogram.observe(0.2);
        histogram.observe(0.9);
        let fs = FedSummary {
            cluster: ClusterId(3),
            usage: UsageSummary {
                summary: ClusterSummary {
                    nodes: 40,
                    exporting_nodes: 25,
                    max_cpu_mips: 1500,
                    max_free_ram_mb: 512,
                    max_cluster_exporting: 25,
                },
                histogram,
                epoch: 9,
            },
        };
        assert_eq!(FedSummary::from_cdr_bytes(&fs.to_cdr_bytes()).unwrap(), fs);

        let fq = FedQuery {
            request_id: 77,
            origin: ClusterId(1),
            nodes: 4,
            min_cpu_mips: 1000,
            min_ram_mb: 64,
            hop_budget: 3,
        };
        assert_eq!(FedQuery::from_cdr_bytes(&fq.to_cdr_bytes()).unwrap(), fq);

        let fr = FedQueryReply {
            request_id: 77,
            cluster: ClusterId(2),
            matches: 6,
        };
        assert_eq!(
            FedQueryReply::from_cdr_bytes(&fr.to_cdr_bytes()).unwrap(),
            fr
        );

        // A forward carries the full marshalled JobSpec, every JobKind shape.
        for kind in [
            JobKind::Sequential { work_mips_s: 9000 },
            JobKind::BagOfTasks {
                task_work_mips_s: vec![100, 200, 300],
            },
            JobKind::Bsp {
                procs: 4,
                supersteps: 10,
                work_per_superstep_mips_s: 50,
                bytes_per_superstep: 4096,
                checkpoint_every: 2,
                state_bytes: 8192,
            },
        ] {
            let ff = FedForward {
                request_id: 78,
                origin: ClusterId(1),
                job: JobId(12),
                spec: JobSpec {
                    name: "wide-area".into(),
                    kind,
                    requirements: crate::asct::JobRequirements {
                        platform: Some(crate::types::Platform::linux_x86()),
                        min_ram_mb: 64,
                        min_cpu_mips: 1000,
                        extra_constraint: Some("free_cpu >= 0.5".into()),
                    },
                    preference: crate::asct::SchedulingPreference::LongestPredictedIdle,
                    topology: None,
                },
            };
            assert_eq!(FedForward::from_cdr_bytes(&ff.to_cdr_bytes()).unwrap(), ff);
        }

        let fa = FedForwardAck {
            request_id: 78,
            accepted: true,
            remote_job: JobId(3),
        };
        assert_eq!(
            FedForwardAck::from_cdr_bytes(&fa.to_cdr_bytes()).unwrap(),
            fa
        );

        let st = FedStatus {
            cluster: ClusterId(2),
            job: JobId(12),
            parts_done: 2,
            parts_total: 3,
            completed: false,
        };
        assert_eq!(FedStatus::from_cdr_bytes(&st.to_cdr_bytes()).unwrap(), st);
    }

    #[test]
    fn truncated_federation_messages_rejected() {
        let bytes = FedForward {
            request_id: 5,
            origin: ClusterId(1),
            job: JobId(2),
            spec: crate::asct::JobSpec::sequential("trunc", 100),
        }
        .to_cdr_bytes();
        for cut in 1..8 {
            assert!(
                FedForward::from_cdr_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "decoded despite losing {cut} trailing bytes"
            );
        }
        let bytes = FedSummary {
            cluster: ClusterId(1),
            usage: UsageSummary::default(),
        }
        .to_cdr_bytes();
        assert!(FedSummary::from_cdr_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn refusal_constructor() {
        let r = ReserveReply::refused("owner active");
        assert!(!r.granted);
        assert_eq!(r.reason, "owner active");
    }

    #[test]
    fn truncated_messages_rejected() {
        let bytes = StatusUpdate {
            node: NodeId(1),
            seq: 1,
            status: status(),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![ProgressReport {
                job: JobId(3),
                part: 0,
                done_mips_s: 99,
            }],
        }
        .to_cdr_bytes();
        assert!(StatusUpdate::from_cdr_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn truncated_checkpoint_blobs_rejected() {
        // The payload length prefix must not read past the frame.
        let bytes = StoreCheckpoint {
            request_id: 7,
            origin: NodeId(2),
            blob: CheckpointBlob {
                job: JobId(1),
                part: 0,
                version: 1,
                work_mips_s: 100,
                digest: 42,
                payload: vec![9; 64].into(),
            },
        }
        .to_cdr_bytes();
        for cut in [1, 16, 63, 64] {
            assert!(
                StoreCheckpoint::from_cdr_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "decoded despite losing {cut} trailing bytes"
            );
        }
    }

    #[test]
    fn truncated_cancel_part_messages_rejected() {
        let bytes = CancelPartRequest {
            request_id: 7,
            job: JobId(2),
            part: 3,
        }
        .to_cdr_bytes();
        for cut in 1..bytes.len() {
            assert!(
                CancelPartRequest::from_cdr_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "decoded despite losing {cut} trailing bytes"
            );
        }
        let bytes = CancelPartReply {
            found: true,
            checkpointed_work_mips_s: 450,
            checkpoint_version: 9,
            done_work_mips_s: 510,
        }
        .to_cdr_bytes();
        assert!(CancelPartReply::from_cdr_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn update_wire_size_is_modest() {
        // The Information Update Protocol's cost per message (E1 input):
        // should be tens of bytes, not kilobytes. The piggyback vectors
        // cost one length word each when empty (the common case).
        let bytes = StatusUpdate {
            node: NodeId(1),
            seq: 1,
            status: status(),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        }
        .to_cdr_bytes();
        assert!(bytes.len() < 72, "status update is {} bytes", bytes.len());
    }
}
