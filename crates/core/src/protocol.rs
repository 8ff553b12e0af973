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
use integrade_orb::impl_cdr;
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

impl_cdr!(struct ReplicaReport { job, part, version, work_mips_s });

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

impl_cdr!(struct ProgressReport { job, part, done_mips_s });

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

impl_cdr!(struct StatusUpdate {
    node, seq, status, replicas, pending_done, pending_evicted, progress
});

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

impl_cdr!(struct UpdateAck { epoch, seq });

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

impl_cdr!(struct ReserveRequest {
    request_id, job, part, ram_mb, min_cpu_fraction, duration_hint_s
});

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

impl_cdr!(struct ReserveReply { granted, reservation, reason });

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

impl_cdr!(struct LaunchRequest {
    request_id, reservation, job, part, work_mips_s, checkpoint_interval_mips_s, state_bytes,
    resume_version, replicas
});

/// LRM → GRM: launch outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchReply {
    /// Whether execution started.
    pub accepted: bool,
    /// Refusal reason otherwise.
    pub reason: String,
}

impl_cdr!(struct LaunchReply { accepted, reason });

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

impl_cdr!(struct CancelPartRequest { request_id, job, part });

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

impl_cdr!(struct CancelPartReply {
    found, checkpointed_work_mips_s, checkpoint_version, done_work_mips_s
});

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

impl_cdr!(struct PartDone { job, part, node, digest });

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

impl_cdr!(struct PartEvicted {
    job, part, node, checkpointed_work_mips_s, checkpoint_version, lost_work_mips_s
});

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

impl_cdr!(struct CheckpointBlob { job, part, version, work_mips_s, digest, payload });

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

impl_cdr!(struct StoreCheckpoint { request_id, origin, blob });

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

impl_cdr!(struct StoreCheckpointReply { accepted, corrupt, held_version });

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

impl_cdr!(struct FetchCheckpoint { request_id, job, part });

/// Replica LRM → GRM: the held replica, if any.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FetchCheckpointReply {
    /// Whether a replica for the part is held here.
    pub found: bool,
    /// The replica ([`CheckpointBlob::empty`] when not found).
    pub blob: CheckpointBlob,
}

impl_cdr!(struct FetchCheckpointReply { found, blob });

/// GRM → replica LRM: a part completed; drop its replica (oneway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PurgeCheckpoint {
    /// Job whose part completed.
    pub job: JobId,
    /// Part index.
    pub part: u32,
}

impl_cdr!(struct PurgeCheckpoint { job, part });

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

impl_cdr!(struct FedSummary { cluster, usage });

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

impl_cdr!(struct FedQuery { request_id, origin, nodes, min_cpu_mips, min_ram_mb, hop_budget });

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

impl_cdr!(struct FedQueryReply { request_id, cluster, matches });

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

impl_cdr!(struct FedForward { request_id, origin, job, spec });

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

impl_cdr!(struct FedForwardAck { request_id, accepted, remote_job });

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

impl_cdr!(struct FedStatus { cluster, job, parts_done, parts_total, completed });

#[cfg(test)]
mod tests {
    use super::*;
    use integrade_orb::cdr::{assert_wire_sound, CdrDecode, CdrEncode};

    fn status() -> NodeStatus {
        NodeStatus {
            free_cpu_fraction: 0.3,
            free_ram_mb: 128,
            owner_active: false,
            exporting: true,
            running_parts: 1,
        }
    }

    /// Runs the generic wire check on `message` and appends its encoding to
    /// `wire`, the concatenated corpus the pinned hash covers.
    fn sample<T>(wire: &mut Vec<u8>, message: T)
    where
        T: CdrEncode + CdrDecode + PartialEq + std::fmt::Debug,
    {
        assert_wire_sound(&message);
        wire.extend_from_slice(&message.to_cdr_bytes());
    }

    /// Every intra-cluster message, with its piggybacked reports.
    fn intra_cluster_corpus(wire: &mut Vec<u8>) {
        sample(
            wire,
            StatusUpdate {
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
            },
        );

        sample(wire, UpdateAck { epoch: 3, seq: 17 });

        sample(
            wire,
            ReserveRequest {
                request_id: 41,
                job: JobId(2),
                part: 3,
                ram_mb: 64,
                min_cpu_fraction: 0.25,
                duration_hint_s: 600,
            },
        );

        sample(
            wire,
            ReserveReply {
                granted: true,
                reservation: 99,
                reason: String::new(),
            },
        );

        sample(
            wire,
            LaunchRequest {
                request_id: 42,
                reservation: 99,
                job: JobId(2),
                part: 3,
                work_mips_s: 1000,
                checkpoint_interval_mips_s: 250.0,
                state_bytes: 8192,
                resume_version: 4,
                replicas: vec![NodeId(1), NodeId(5)],
            },
        );

        sample(
            wire,
            LaunchReply {
                accepted: false,
                reason: "reservation expired".into(),
            },
        );

        sample(
            wire,
            CancelPartRequest {
                request_id: 43,
                job: JobId(2),
                part: 3,
            },
        );

        sample(
            wire,
            CancelPartReply {
                found: true,
                checkpointed_work_mips_s: 450,
                checkpoint_version: 9,
                done_work_mips_s: 510,
            },
        );

        sample(
            wire,
            PartDone {
                job: JobId(2),
                part: 3,
                node: NodeId(4),
                digest: canonical_result_digest(JobId(2), 3),
            },
        );

        sample(
            wire,
            PartEvicted {
                job: JobId(2),
                part: 3,
                node: NodeId(4),
                checkpointed_work_mips_s: 500,
                checkpoint_version: 7,
                lost_work_mips_s: 120,
            },
        );

        sample(
            wire,
            StoreCheckpoint {
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
            },
        );

        sample(
            wire,
            StoreCheckpointReply {
                accepted: true,
                corrupt: false,
                held_version: 8,
            },
        );

        sample(
            wire,
            FetchCheckpoint {
                request_id: 45,
                job: JobId(2),
                part: 3,
            },
        );

        sample(
            wire,
            FetchCheckpointReply {
                found: false,
                blob: CheckpointBlob::empty(JobId(2), 3),
            },
        );

        sample(
            wire,
            PurgeCheckpoint {
                job: JobId(2),
                part: 3,
            },
        );
    }

    /// Every federation message; a forward carries each `JobKind` shape.
    fn federation_corpus(wire: &mut Vec<u8>) {
        use crate::asct::{JobKind, JobSpec};
        use crate::hierarchy::{AvailabilityHistogram, ClusterSummary};

        let mut histogram = AvailabilityHistogram::default();
        histogram.observe(0.2);
        histogram.observe(0.9);
        sample(
            wire,
            FedSummary {
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
            },
        );

        sample(
            wire,
            FedQuery {
                request_id: 77,
                origin: ClusterId(1),
                nodes: 4,
                min_cpu_mips: 1000,
                min_ram_mb: 64,
                hop_budget: 3,
            },
        );

        sample(
            wire,
            FedQueryReply {
                request_id: 77,
                cluster: ClusterId(2),
                matches: 6,
            },
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
            sample(
                wire,
                FedForward {
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
                },
            );
        }

        sample(
            wire,
            FedForwardAck {
                request_id: 78,
                accepted: true,
                remote_job: JobId(3),
            },
        );

        sample(
            wire,
            FedStatus {
                cluster: ClusterId(2),
                job: JobId(12),
                parts_done: 2,
                parts_total: 3,
                completed: false,
            },
        );
    }

    #[test]
    fn all_messages_round_trip() {
        intra_cluster_corpus(&mut Vec::new());
    }

    #[test]
    fn federation_messages_round_trip() {
        federation_corpus(&mut Vec::new());
    }

    #[test]
    fn corpus_wire_bytes_are_pinned() {
        // FNV-1a over the concatenated encodings of every corpus sample. A
        // codec change that moves a single wire byte of any message moves it.
        const PINNED: u64 = 0x2d68_028e_644f_282e;
        let mut wire = Vec::new();
        intra_cluster_corpus(&mut wire);
        federation_corpus(&mut wire);
        let hash = wire.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(hash, PINNED, "protocol wire bytes moved: {hash:#018x}");
    }

    #[test]
    fn refusal_constructor() {
        let r = ReserveReply::refused("owner active");
        assert!(!r.granted);
        assert_eq!(r.reason, "owner active");
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
