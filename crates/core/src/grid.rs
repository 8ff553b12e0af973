//! The runnable grid: Figure 1 assembled.
//!
//! [`GridBuilder`] wires the whole intra-cluster architecture into a
//! deterministic discrete-event simulation: per-node LRMs (with NCC
//! policies and LUPA collection), the GRM with its Trader-backed node
//! registry, the GUPA, and the ASCT-facing submission/monitoring API. All
//! LRM↔GRM interactions — status updates, reservation negotiation,
//! launches, completion and eviction notices — travel as CDR-marshalled
//! GIOP frames through the simulated network, so protocol costs are real.
//!
//! The execution manager (this module) plays the roles the paper assigns to
//! the GRM and ASCT on the cluster-manager node: it runs the scheduling
//! pipeline (trader query → GUPA prediction → strategy ranking → direct
//! negotiation with retry) and tracks application lifecycles, including BSP
//! gang scheduling with superstep-checkpoint rollback on eviction.

use crate::asct::{JobKind, JobRecord, JobSpec, JobState};
use crate::grm::{GrmState, NodeRegistration, UpdateStats};
use crate::gupa::GupaState;
use crate::lrm::{DueCheckpoint, LrmConfig, LrmState};
use crate::ncc::{SharingPolicy, WeeklySchedule};
use crate::observe::GridObs;
use crate::protocol::{
    canonical_result_digest, CancelPartReply, CancelPartRequest, CheckpointBlob, FetchCheckpoint,
    FetchCheckpointReply, LaunchReply, LaunchRequest, PartDone, PartEvicted, PurgeCheckpoint,
    ReserveReply, ReserveRequest, StatusUpdate, StoreCheckpoint, StoreCheckpointReply, UpdateAck,
    GRM_OBJECT_KEY, LRM_OBJECT_KEY, OP_CANCEL_PART, OP_FETCH_CKPT, OP_LAUNCH, OP_PART_DONE,
    OP_PART_EVICTED, OP_PURGE_CKPT, OP_RESERVE, OP_STORE_CKPT, OP_UPDATE_STATUS,
};
use crate::qos::{OverheadLedger, QosLedger};
use crate::repo::crc32;
use crate::scheduler::{place_groups, rank, CandidateNode, Strategy};
pub use crate::tick::occupancy_ranges;
use crate::tick::{
    for_each_shard, replay_node_local, shard_ranges, tick_node_local, wall_at, NodeLocal,
    NodeTickEffects,
};
use crate::types::{JobId, NodeId, NodeRoles, Platform, ResourceVector};
use integrade_bsp::checkpoint::GlobalCheckpoint;
use integrade_obs::metrics::MetricsSnapshot;
use integrade_obs::profile::{Phase, ProfileReport};
use integrade_obs::span::{Span, SpanKind, SpanOutcome, SpanTree};
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrWriter};
use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
use integrade_orb::orb::{Incoming, Orb};
use integrade_simnet::event::{run_until_profiled, EventQueue, RunOutcome, World};
use integrade_simnet::faults::{scheduled_draw, FaultPlan};
use integrade_simnet::idmap::IdMap;
use integrade_simnet::net::{NetStats, Network};
use integrade_simnet::rng::{streams, DetRng};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::{ClusterTag, HostId, LinkSpec, Topology};
use integrade_simnet::trace::TraceLog;
use integrade_usage::patterns::LupaConfig;
use integrade_usage::sample::{DayPeriod, SamplingConfig, UsageSample, Weekday};
use std::collections::{BTreeMap, BTreeSet};

/// How `slot_tick` walks the node population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// The original O(all nodes)-per-tick loop on one thread, kept as the
    /// oracle the lazy walk is checked against (see `tests/tick_parity.rs`).
    Reference,
    /// The lazy walk on `workers` shards — the engine. Per-slot work runs
    /// only for nodes in the *active set*: nodes running grid parts,
    /// holding reservations or checkpoint replicas, or with outcome notices
    /// awaiting acknowledgement. Idle nodes' owner sampling, QoS accounting
    /// and LUPA accumulation are replayed lazily (bulk-advanced) the moment
    /// their state is next needed, and the information-update timers of
    /// disengaged always-idle nodes are parked until a frame next reaches
    /// them. Observable behaviour — messages, event logs, reports — is
    /// bit-for-bit identical to [`Self::Reference`].
    ///
    /// Nodes are partitioned by id into `workers` contiguous shards. Each
    /// shard runs its members' slot bodies (including lazy catch-up replay
    /// and GUPA digestion) against its own `&mut` slice of the node table,
    /// and the cross-shard effects — messages, event-queue inserts, log
    /// records, metrics — are merged on the coordinating thread at the frame
    /// boundary in (shard-id, seq) order before the single-threaded
    /// GRM/trader/event-queue phase runs. Shard 0 runs on the coordinating
    /// thread itself and shards `1..` on scoped worker threads, so
    /// `workers: 1` (the default) is a plain sequential walk that never
    /// creates a thread.
    ///
    /// # Determinism contract
    ///
    /// Shards are *contiguous node-id ranges*, so (shard-id, seq) merge
    /// order is exactly ascending node-id order — the order the reference
    /// walk uses. Range boundaries are recomputed at every frame boundary
    /// from the active set ([`occupancy_ranges`]) so each worker carries a
    /// near-equal share of the frame's live members; a node never migrates
    /// mid-frame, and shard `i` always owns the RNG stream derived from
    /// `(seed, i)` alone ([`DetRng::for_shard`]) regardless of where the
    /// boundaries fall. Per-node stochastic work — today the
    /// [`GridConfig::lupa_noise`] measurement jitter — draws only from the
    /// executing shard's stream (the reference walk and the coordinator's
    /// single-node catch-ups hold stream 0). The contract is therefore:
    ///
    /// * **Fixed worker count:** bit-for-bit reproducible, run over run,
    ///   regardless of OS thread scheduling.
    /// * **With `lupa_noise == 0` (the default):** no stream is ever
    ///   consumed, so every worker count and the reference walk are
    ///   observably identical.
    /// * **With `lupa_noise > 0`, across worker counts:** the learned
    ///   pattern models may legitimately differ (each width draws different
    ///   jitter), but every execution-visible artifact — completions, QoS
    ///   totals, upload/report counts, messages, logs — is invariant,
    ///   because jitter feeds only the LUPA window, never the owner state
    ///   that drives eviction, QoS and status updates. Proven in
    ///   `tests/tick_parity.rs`.
    Sharded {
        /// Shards (and, beyond the first, worker threads). Must be nonzero;
        /// validated by [`crate::builder::GridConfigBuilder::try_build`].
        workers: usize,
    },
}

/// Global grid configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Execution/owner-activity tick (the 5-minute sampling slot).
    pub tick: SimDuration,
    /// Per-node LRM configuration.
    pub lrm: LrmConfig,
    /// Scheduling strategy (E5's independent variable).
    pub strategy: Strategy,
    /// LUPA/GUPA analysis configuration.
    pub lupa: LupaConfig,
    /// Maximum candidates fetched per trader query.
    pub max_candidates: usize,
    /// Scheduling attempts before a job fails.
    pub max_attempts: u32,
    /// Delay before re-running the scheduling pipeline after a failure or
    /// eviction.
    pub reschedule_delay: SimDuration,
    /// Horizon for GUPA idle predictions, minutes.
    pub prediction_horizon_mins: u32,
    /// Checkpoint interval for sequential/bag-of-tasks parts, MIPS-s
    /// (0 = restart from scratch on eviction).
    pub sequential_checkpoint_mips_s: f64,
    /// Days of owner-trace history replayed into the GUPA before the run
    /// (so pattern-aware scheduling has trained models from t = 0).
    pub gupa_warmup_days: usize,
    /// On a reservation refusal, immediately try the next candidate from
    /// the ranked list (the §4 protocol). Disable only for the E2b
    /// ablation, which shows why the paper's step is necessary.
    pub candidate_failover: bool,
    /// How long the GRM waits for a negotiation reply before treating the
    /// node as unreachable.
    pub request_timeout: SimDuration,
    /// Silence after which a previously-reporting node is declared crashed
    /// and its parts recovered from the checkpoint repository.
    pub crash_silence: SimDuration,
    /// When set, every protocol frame is sealed with this cluster key
    /// (SipHash-2-4 MAC envelope) and unauthenticated frames are dropped —
    /// the paper's §3 authentication investigation, enabled.
    pub cluster_key: Option<integrade_orb::security::ClusterKey>,
    /// How many times an unanswered negotiation request is retransmitted
    /// (with capped exponential backoff) before it is treated as failed.
    pub max_retransmits: u32,
    /// Replicas each checkpoint is written to (the repository's `k`). With
    /// `k = 0` checkpoints are never replicated and crash recovery restarts
    /// parts from scratch.
    pub replication_factor: usize,
    /// Marshalled execution-state size of sequential/bag-of-tasks parts,
    /// bytes — the payload each replicated checkpoint carries. BSP parts use
    /// their spec's `state_bytes` instead.
    pub checkpoint_state_bytes: u64,
    /// How the per-slot node loop is driven (the lazy walk on one or more
    /// shards, or the exhaustive reference walk).
    pub tick_mode: TickMode,
    /// Enables the straggler detector and speculative re-execution of
    /// lagging parts (gray-failure mitigation). Off by default: every
    /// existing scenario replays bit-for-bit unchanged.
    pub speculation: bool,
    /// A part is a straggler candidate when its observed progress rate
    /// falls below this fraction of its job's median running-part rate.
    pub straggler_threshold: f64,
    /// Consecutive below-threshold observations (slot ticks) before a
    /// speculative twin launches — the hysteresis that keeps transient
    /// owner activity from tripping the detector.
    pub straggler_strikes: u32,
    /// Enables Byzantine result certification: a finished part counts only
    /// once its result digest is certified — by a vote quorum, a passed
    /// known-answer spot check, or (under adaptive mode) a trusted
    /// executor. Off by default: every existing scenario replays
    /// bit-for-bit unchanged.
    pub certification: bool,
    /// Matching digests required to certify an unknown executor's result
    /// (the replication degree `r`; re-executions run sequentially until
    /// the quorum is met).
    pub cert_replication: u32,
    /// Credibility-adaptive replication (Sarmenta): an executor whose
    /// credibility has reached [`GridConfig::cert_trust_threshold`]
    /// certifies with a single vote; unknowns still pay the full
    /// [`GridConfig::cert_replication`] quorum.
    pub cert_adaptive: bool,
    /// Fraction of parts designated (by a pure seeded hash) as known-answer
    /// spot-check probes the GRM verifies directly, in `[0, 1)`.
    pub cert_spot_check_rate: f64,
    /// Credibility score (certified agreements plus passed spot checks) at
    /// which an executor becomes trusted under adaptive certification.
    pub cert_trust_threshold: u32,
    /// Amplitude of the per-slot measurement jitter applied to the owner
    /// samples the LUPA collection window records, in `[0, 1)`. Zero (the
    /// default) draws nothing: every pre-existing scenario replays
    /// bit-for-bit and all tick modes stay observably identical. When
    /// positive, every slot observation perturbs the *measured* CPU and
    /// memory components with two draws from the executing shard's
    /// deterministic stream ([`DetRng::for_shard`]) before the sample
    /// enters the LUPA window — modelling real sensor noise and putting
    /// genuine per-node stochastic work on the shard workers. The true
    /// owner sample still drives eviction, QoS accounting and status
    /// updates, so runs stay bit-for-bit reproducible per (mode, worker
    /// count) and execution-visibly invariant across worker counts; see
    /// [`TickMode::Sharded`] for the full contract.
    pub lupa_noise: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            seed: 0x1A7E_67AD,
            tick: SimDuration::from_mins(5),
            lrm: LrmConfig::default(),
            strategy: Strategy::AvailabilityOnly,
            lupa: LupaConfig::default(),
            max_candidates: 64,
            max_attempts: 200,
            reschedule_delay: SimDuration::from_secs(60),
            prediction_horizon_mins: 120,
            sequential_checkpoint_mips_s: 0.0,
            gupa_warmup_days: 14,
            candidate_failover: true,
            request_timeout: SimDuration::from_secs(30),
            crash_silence: SimDuration::from_secs(120),
            cluster_key: None,
            max_retransmits: 4,
            replication_factor: 2,
            checkpoint_state_bytes: 4096,
            tick_mode: TickMode::Sharded { workers: 1 },
            speculation: false,
            straggler_threshold: 0.5,
            straggler_strikes: 3,
            certification: false,
            cert_replication: 2,
            cert_adaptive: false,
            cert_spot_check_rate: 0.0,
            cert_trust_threshold: 10,
            lupa_noise: 0.0,
        }
    }
}

/// Per-node setup supplied to the builder.
#[derive(Debug, Clone)]
pub struct NodeSetup {
    /// Hardware capacity.
    pub resources: ResourceVector,
    /// Software platform.
    pub platform: Platform,
    /// Owner sharing policy.
    pub policy: SharingPolicy,
    /// Figure-1 roles.
    pub roles: NodeRoles,
    /// Owner usage trace, one sample per 5-minute slot, cycled when
    /// exhausted. An empty trace means always idle.
    pub trace: Vec<UsageSample>,
}

impl NodeSetup {
    /// An always-idle shared desktop with default policy.
    pub fn idle_desktop() -> Self {
        NodeSetup {
            resources: ResourceVector::desktop(),
            platform: Platform::linux_x86(),
            policy: SharingPolicy::default(),
            roles: NodeRoles::provider(),
            trace: Vec::new(),
        }
    }

    /// A dedicated grid node.
    pub fn dedicated() -> Self {
        NodeSetup {
            resources: ResourceVector::dedicated(),
            platform: Platform::linux_x86(),
            policy: SharingPolicy::dedicated(),
            roles: NodeRoles::dedicated(),
            trace: Vec::new(),
        }
    }
}

/// Builds a [`Grid`].
#[derive(Debug)]
pub struct GridBuilder {
    config: GridConfig,
    clusters: Vec<Vec<NodeSetup>>,
    intra: LinkSpec,
    inter: LinkSpec,
}

impl GridBuilder {
    /// Starts a builder.
    pub fn new(config: GridConfig) -> Self {
        GridBuilder {
            config,
            clusters: Vec::new(),
            intra: LinkSpec::lan_100mbps(),
            inter: LinkSpec::lan_10mbps(),
        }
    }

    /// Sets the intra-cluster and inter-cluster link characteristics
    /// (defaults: 100 Mbps inside, 10 Mbps between — the paper's example).
    pub fn links(&mut self, intra: LinkSpec, inter: LinkSpec) -> &mut Self {
        self.intra = intra;
        self.inter = inter;
        self
    }

    /// Adds a cluster of nodes.
    pub fn add_cluster(&mut self, nodes: Vec<NodeSetup>) -> &mut Self {
        self.clusters.push(nodes);
        self
    }

    /// Builds the grid.
    ///
    /// # Panics
    ///
    /// Panics if no cluster was added.
    pub fn build(&mut self) -> Grid {
        assert!(
            !self.clusters.is_empty() && self.clusters.iter().any(|c| !c.is_empty()),
            "a grid needs at least one node"
        );
        // The execution tick doubles as the LUPA sampling slot: owner
        // samples, day periods and trace indexing all assume they agree.
        assert_eq!(
            self.config.tick,
            SimDuration::from_mins(self.config.lrm.sampling.interval_mins as u64),
            "grid tick must equal the LUPA sampling interval"
        );
        Grid::assemble(
            self.config.clone(),
            std::mem::take(&mut self.clusters),
            self.intra,
            self.inter,
        )
    }
}

/// Discrete-event payloads.
#[derive(Debug)]
enum GridEvent {
    /// Framed bytes arriving at a host.
    Wire {
        from: HostId,
        to: HostId,
        bytes: Vec<u8>,
    },
    /// Execution/owner-activity tick.
    SlotTick,
    /// One node's Information Update Protocol timer.
    UpdateTick { node: usize },
    /// Run the scheduling pipeline for a job.
    Schedule { job: JobId },
    /// A deferred submission.
    Submit { spec: Box<JobSpec> },
    /// A deferred submission under a pre-allocated id — a job forwarded
    /// from another cluster, whose global identity was fixed when the
    /// forward left the origin, arriving after the WAN latency.
    SubmitAs { id: JobId, spec: Box<JobSpec> },
    /// A request issued by `from`'s orb has gone unanswered too long.
    RequestTimeout { from: HostId, request_id: u64 },
    /// A fault-plan host outage transition (crash when `up` is false,
    /// reboot when true).
    HostFault { host: HostId, up: bool },
}

/// What an in-flight request is waiting for.
#[derive(Debug)]
enum Pending {
    Reserve {
        job: JobId,
        part: u32,
        node: NodeId,
    },
    Launch {
        job: JobId,
        part: u32,
        node: NodeId,
    },
    CancelPart {
        job: JobId,
    },
    /// An LRM status update awaiting the GRM's [`UpdateAck`]. Never
    /// retransmitted: the seq/piggyback machinery is the retry layer.
    UpdateAck {
        node: usize,
        seq: u64,
    },
    /// A checkpoint replica write: issued by the executing LRM at each
    /// interval boundary, or by the GRM when relaying during
    /// re-replication (`rerepl`). The blob is kept so a corrupt nack can
    /// re-send the payload under a fresh request id.
    StoreCkpt {
        origin: NodeId,
        blob: CheckpointBlob,
        replica: NodeId,
        /// Fresh-id re-sends after corrupt nacks (the in-flight bit flip
        /// path; plain retransmits of a lost frame are counted separately).
        resends: u32,
        rerepl: bool,
    },
    /// A recovery read for a part that was running on `dead_node`: verify
    /// the reply's digest, fall back across `rest` on corruption or
    /// silence, give up (restart from the banked level) when exhausted.
    FetchCkpt {
        job: JobId,
        part: u32,
        dead_node: NodeId,
        rest: Vec<NodeId>,
    },
    /// A re-replication read from live holder `source`; an intact reply is
    /// relayed to `target` as a [`Pending::StoreCkpt`] with `rerepl` set.
    RereplFetch {
        job: JobId,
        part: u32,
        source: NodeId,
        target: NodeId,
    },
    /// A speculative twin's checkpoint read: fetch the newest banked
    /// replica so the backup resumes from verified progress instead of
    /// zero. Falls back across `rest` like recovery; exhaustion resumes
    /// from the banked level.
    TwinFetch {
        job: JobId,
        part: u32,
        rest: Vec<NodeId>,
    },
    /// A speculative twin's reservation. Refusal walks the twin's own
    /// candidate list and never touches the primary's negotiation round.
    TwinReserve {
        job: JobId,
        part: u32,
        node: NodeId,
    },
    /// A speculative twin's launch.
    TwinLaunch {
        job: JobId,
        part: u32,
        node: NodeId,
    },
    /// Teardown of a speculation loser (primary or twin) after the other
    /// copy finished first; the reply's progress is charged as wasted
    /// speculative work.
    TwinCancel {
        job: JobId,
        part: u32,
        node: NodeId,
        /// Work already covered by the winner's lineage (the checkpoint the
        /// winner resumed from): only the loser's progress beyond this is
        /// wasted.
        credit: u64,
    },
}

/// An in-flight request: its continuation plus everything needed to put the
/// identical frame back on the wire when the reply timer expires.
#[derive(Debug)]
struct PendingEntry {
    what: Pending,
    /// Destination host of the original send.
    dest: HostId,
    /// The protected frame, byte-identical on every retransmission so the
    /// receiver's dedup cache can recognise it.
    wire: Vec<u8>,
    /// Bulk payload bytes costed alongside the frame (checkpoint images).
    extra_bytes: u64,
    /// Retransmissions performed so far.
    attempt: u32,
    /// When the original frame was first put on the wire (for RTT
    /// histograms; retransmissions do not reset it).
    sent_at: SimTime,
    /// Trace-span id covering this request, or 0 when untraced
    /// (status-update acks, which bypass the request path).
    span: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartState {
    Unplaced,
    Reserving,
    Launching,
    Running,
    /// The node running the part went silent; a digest-verified replica
    /// fetch is in flight before the part is rescheduled.
    Recovering,
    Done,
}

#[derive(Debug)]
struct PartRuntime {
    state: PartState,
    node: Option<NodeId>,
    reservation: u64,
    /// Remaining work for sequential / bag-of-tasks parts, MIPS-s.
    remaining: f64,
    /// Highest checkpoint version whose work has been subtracted from
    /// `remaining` (or folded into the BSP superstep bank). Recovery and
    /// eviction bank a checkpoint's work only when its version exceeds
    /// this, so a stale blob from an earlier launch is never double-counted.
    banked_version: u64,
    /// Consecutive straggler-detector rounds this part's observed rate fell
    /// below the threshold fraction of the job median. Reset to zero the
    /// moment a round clears it, so only a *sustained* deficit (gray
    /// failure) escalates to speculation.
    slow_strikes: u32,
    /// Live speculative backup, if one has been escalated.
    twin: Option<TwinRuntime>,
}

/// Lifecycle of a speculative twin, mirroring the primary's
/// reserve→launch path plus an optional leading checkpoint fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TwinState {
    /// Reading the newest banked checkpoint replica.
    Fetching,
    /// Reservation request in flight.
    Reserving,
    /// Launch request in flight.
    Launching,
    /// Executing; first of twin/primary to finish wins the part.
    Running,
}

/// A speculative backup copy of one straggling part. The twin races the
/// primary from the newest digest-verified checkpoint; whichever copy
/// reports `PartDone` first wins and the loser is cancelled, its progress
/// charged as wasted speculative work. Twins launch with a zero checkpoint
/// interval so the primary's checkpoint lineage (and `banked_version`
/// monotonicity) is never forked.
#[derive(Debug)]
struct TwinRuntime {
    state: TwinState,
    node: Option<NodeId>,
    reservation: u64,
    /// Untried trader candidates for refusal fallthrough, consumed front
    /// to back — deliberately separate from the primary's
    /// `next_candidate` walk so the two paths cannot double-launch.
    candidates: Vec<NodeId>,
    /// Work covered by the checkpoint the twin resumed from, relative to
    /// the primary launch's resume level: the twin's launch covers
    /// `remaining - resume_work`, and when the twin wins this much of the
    /// cancelled primary's progress was not wasted.
    resume_work: f64,
    /// Version of that checkpoint — the twin's `resume_version` on the
    /// wire, so a won race leaves version bookkeeping consistent.
    resume_version: u64,
}

#[derive(Debug)]
struct JobExec {
    spec: JobSpec,
    record: JobRecord,
    parts: Vec<PartRuntime>,
    /// Ranked candidates for the current scheduling round, consumed front
    /// to back during negotiation.
    candidates: Vec<CandidateNode>,
    attempts: u32,
    /// BSP: supersteps still to execute (rolls back to the last global
    /// checkpoint on eviction).
    bsp_remaining_supersteps: f64,
    /// BSP: per-superstep work (compute + comm surcharge) of the current
    /// placement, MIPS-s.
    bsp_step_work: f64,
    /// BSP gang teardown: cancel replies still outstanding.
    pending_cancels: u32,
    /// BSP gang teardown: smallest checkpointed progress seen, MIPS-s.
    min_checkpoint: f64,
    /// Highest checkpoint version seen in any cancel reply or eviction.
    /// After a rollback every part's `banked_version` is raised to this so
    /// the next launch's checkpoints supersede every replica on disk.
    max_checkpoint_version: u64,
    /// Reservation in-flight count for the current round.
    pending_reservations: u32,
    /// Next untried candidate index — on refusal the GRM "selects another
    /// candidate node and repeats the process" (§4) without re-querying.
    next_candidate: usize,
    /// Gang mode: reservations granted, waiting to launch together.
    granted: Vec<(u32, NodeId, u64)>,
}

/// Salt distinguishing spot-check-probe designation draws from every other
/// scheduled-hash stream ("CERT" in ASCII).
const CERT_PROBE_KEY: u64 = 0x4345_5254;

/// Majority-digest tally for result certification.
///
/// Returns the digest to accept once a *unique* plurality of the votes
/// agrees on it with at least `needed` supporters; `None` means keep
/// collecting votes (quorum not reached, or the top digests are tied — a
/// tie is indistinguishable from an ongoing attack, so it never certifies).
///
/// Pure and order-independent: any permutation of `votes` yields the same
/// verdict, which is what lets vote arrival order (retransmissions,
/// piggyback redeliveries) never affect the outcome.
pub fn certification_verdict(votes: &[(NodeId, u64)], needed: u32) -> Option<u64> {
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    for (_, digest) in votes {
        *counts.entry(*digest).or_insert(0) += 1;
    }
    let best = counts.values().copied().max()?;
    if best < needed.max(1) {
        return None;
    }
    let mut leaders = counts.iter().filter(|(_, c)| **c == best);
    let leader = *leaders.next().expect("max exists").0;
    if leaders.next().is_some() {
        return None; // tied plurality: no certification
    }
    Some(leader)
}

/// Nominal work of one part, MIPS-s — what a certification re-execution of
/// that part costs the grid in redundant cycles.
fn part_nominal_work(kind: &JobKind, part: u32) -> f64 {
    match kind {
        JobKind::Sequential { work_mips_s } => *work_mips_s as f64,
        JobKind::BagOfTasks { task_work_mips_s } => {
            task_work_mips_s.get(part as usize).copied().unwrap_or(0) as f64
        }
        // Certification never applies to gang-scheduled parallel jobs.
        JobKind::Bsp { .. } => 0.0,
    }
}

/// End-of-run summary.
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Per-job monitoring records (the ASCT view).
    pub records: Vec<JobRecord>,
    /// Network traffic.
    pub net: NetStats,
    /// Information Update Protocol statistics.
    pub updates: UpdateStats,
    /// Trader queries run by the scheduler.
    pub trader_queries: u64,
    /// Owner QoS ledger.
    pub qos: QosLedger,
    /// Redundant work the grid spent on purpose (speculation losers,
    /// certification re-executions).
    pub overhead: OverheadLedger,
    /// Nodes with trained GUPA models.
    pub gupa_models: usize,
}

impl GridReport {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.state == JobState::Completed)
            .count()
    }

    /// Jobs that failed permanently.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.state == JobState::Failed)
            .count()
    }

    /// Total evictions across jobs.
    pub fn total_evictions(&self) -> u64 {
        self.records.iter().map(|r| r.evictions).sum()
    }

    /// Total wasted (re-executed) work, MIPS-s.
    pub fn total_wasted_work(&self) -> u64 {
        self.records.iter().map(|r| r.wasted_work_mips_s).sum()
    }

    /// Mean makespan of completed jobs, seconds.
    pub fn mean_makespan_s(&self) -> f64 {
        let spans: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.makespan().map(|d| d.as_secs_f64()))
            .collect();
        if spans.is_empty() {
            0.0
        } else {
            spans.iter().sum::<f64>() / spans.len() as f64
        }
    }
}

struct GridWorld {
    config: GridConfig,
    net: Network,
    /// One ORB per host. No servant is activated on any of them: the GRM
    /// and the LRMs are owned below as plain data and lent to the receiving
    /// host's ORB for the duration of each dispatch (`handle_wire`).
    orbs: IdMap<HostId, Orb>,
    /// Per-node state the slot walk owns and shards: LRM, QoS ledger, tick
    /// cursor, owner trace (index = `NodeId.0`).
    nodes: Vec<NodeLocal>,
    lrm_iors: Vec<Ior>,
    node_hosts: Vec<HostId>,
    grm: GrmState,
    grm_host: HostId,
    grm_ior: Ior,
    gupa: GupaState,
    jobs: BTreeMap<JobId, JobExec>,
    /// In-flight requests keyed by (issuing host, orb request id) — orb ids
    /// are only unique per orb, and both the GRM and the LRMs issue
    /// requests now.
    pending: BTreeMap<(HostId, u64), PendingEntry>,
    /// Reverse map from physical host to LRM index (fault targeting and
    /// dedup-hit draining).
    host_to_node: IdMap<HostId, usize>,
    next_job: u64,
    /// Protocol-level request ids embedded in negotiation RPCs so the
    /// receiving LRM can deduplicate retransmissions.
    next_rpc: u64,
    rng: DetRng,
    /// Dedicated stream for retry/backoff jitter so retransmission noise
    /// never perturbs the scheduler's ranking stream.
    retry_rng: DetRng,
    /// One RNG stream per shard of the slot walk ([`TickMode::Sharded`]'s
    /// `workers`; the reference walk holds exactly one), each derived from
    /// `(seed, shard index)` alone ([`DetRng::for_shard`]) so a shard can be
    /// replayed in isolation. Per-node stochastic work — the
    /// [`GridConfig::lupa_noise`] measurement jitter — draws only from the
    /// executing shard's stream; the coordinator's single-node catch-ups
    /// (`catch_up_node`) and the reference walk draw from stream 0. The
    /// global `rng`/`retry_rng` streams belong to the single-threaded phase.
    shard_rngs: Vec<DetRng>,
    log: TraceLog,
    slots_elapsed: u64,
    /// Nodes with per-slot work to do: running parts, held reservations,
    /// unacknowledged outcome notices, or stored checkpoint replicas.
    /// Maintained as a superset of the truly engaged set; membership is
    /// refreshed after every state transition (wire dispatch, slot
    /// processing, crash/restore).
    active: BTreeSet<usize>,
    /// Per-node flag: the information-update timer is parked (no UpdateTick
    /// event in the queue). Only ever set by the lazy walk
    /// ([`TickMode::Sharded`]), only for statically idle disengaged nodes
    /// whose updates are suppressed; cleared (and the timer resumed) when a
    /// frame next reaches the node.
    update_parked: Vec<bool>,
    /// Precomputed per node: the node has no owner trace and an
    /// always-available sharing schedule, so its status can only change
    /// through message delivery — the precondition for parking its timer.
    static_status: Vec<bool>,
    /// Scratch buffers recycled between encode→frame→transmit cycles so the
    /// steady-state messaging path allocates nothing.
    buffer_pool: Vec<Vec<u8>>,
    /// Parts with a re-replication relay in flight (one at a time per part).
    rerepl_inflight: BTreeSet<(JobId, u32)>,
    /// Simulator-side record of each crashed executor's in-launch progress,
    /// captured at crash time so recovery can report the work truly lost
    /// (the GRM protocol itself cannot know it). Metric only — never feeds
    /// scheduling or banking decisions.
    crash_progress: BTreeMap<(JobId, u32), u64>,
    /// Nodes the straggler detector currently holds a slow strike against.
    /// A gray-failed host reports healthy static resources, so the trader
    /// would happily place a speculative twin on the *other* straggler;
    /// twin placement filters through this set instead. Entries clear when
    /// the node's part posts a clean round, or on GRM restart (the progress
    /// evidence behind them is gone).
    suspect_nodes: BTreeSet<NodeId>,
    /// Certification ballot box: digest votes received per part, in arrival
    /// order. GRM soft state — wiped when the GRM crashes (the restarted
    /// manager re-collects votes from scratch) and stripped of a node's
    /// votes the moment that node is declared dead (its evidence dies with
    /// it, mirroring the update-seq gate reset in `mark_unavailable`).
    cert_votes: BTreeMap<(JobId, u32), Vec<(NodeId, u64)>>,
    /// Unified redundant-work ledger (speculation waste + certification
    /// re-execution), MIPS-s.
    overhead: OverheadLedger,
    /// Metrics registry, trace spans and hot-loop profiler. Strictly
    /// passive: updating (or disabling) it never changes a run.
    obs: GridObs,
}

/// The assembled, runnable grid.
pub struct Grid {
    world: GridWorld,
    queue: EventQueue<GridEvent>,
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid")
            .field("nodes", &self.world.nodes.len())
            .field("jobs", &self.world.jobs.len())
            .field("now", &self.queue.now())
            .finish()
    }
}

impl Grid {
    fn assemble(
        config: GridConfig,
        clusters: Vec<Vec<NodeSetup>>,
        intra: LinkSpec,
        inter: LinkSpec,
    ) -> Grid {
        // Physical topology: a core switch, per-cluster switches, the
        // cluster-manager host on the core, nodes on their switches.
        let mut topo = Topology::new();
        let core = topo.add_switch("core");
        let grm_host = topo.add_host("manager", None);
        topo.connect(grm_host, core, intra);

        let mut grm = GrmState::new(config.seed ^ 0x6772);
        let mut orbs: IdMap<HostId, Orb> = IdMap::new();
        let grm_endpoint = Endpoint::new(grm_host.0, 0);
        let grm_ior = Ior::new(
            GrmState::TYPE_ID,
            grm_endpoint,
            ObjectKey::new(GRM_OBJECT_KEY),
        );
        orbs.insert(grm_host, Orb::new(grm_endpoint));

        let n_nodes = clusters.iter().map(Vec::len).sum();
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut lrm_iors = Vec::with_capacity(n_nodes);
        let mut node_hosts = Vec::with_capacity(n_nodes);
        let mut static_status = Vec::with_capacity(n_nodes);

        for (cluster_index, setups) in clusters.into_iter().enumerate() {
            let tag = ClusterTag(cluster_index as u32);
            let sw = topo.add_switch(&format!("sw{cluster_index}"));
            topo.connect(sw, core, inter);
            for setup in setups {
                let node_index = nodes.len();
                let node = NodeId(node_index as u32);
                let host = topo.add_host(&format!("c{cluster_index}n{node_index}"), Some(tag));
                topo.connect(host, sw, intra);
                static_status.push(
                    setup.trace.is_empty() && setup.policy.schedule == WeeklySchedule::always(),
                );
                let endpoint = Endpoint::new(host.0, 0);
                let ior = Ior::new(LrmState::TYPE_ID, endpoint, ObjectKey::new(LRM_OBJECT_KEY));
                orbs.insert(host, Orb::new(endpoint));
                let lrm = LrmState::new(
                    node,
                    setup.resources,
                    setup.platform,
                    setup.policy,
                    setup.roles,
                    config.lrm,
                );
                nodes.push(NodeLocal::new(lrm, setup.trace));
                lrm_iors.push(ior);
                node_hosts.push(host);
            }
        }

        // Register every node with the GRM — in a pass of its own, so the
        // trader's offers sit together in memory rather than interleaved
        // with the per-node allocations above (interleaved, the scheduling
        // queries of a 50k-node grid measurably slow down).
        for (local, (host, ior)) in nodes.iter().zip(node_hosts.iter().zip(&lrm_iors)) {
            grm.register_node(NodeRegistration {
                node: local.lrm.node,
                host: *host,
                resources: local.lrm.resources,
                platform: local.lrm.platform.clone(),
                lrm: ior.clone(),
            });
        }

        let mut host_to_node: IdMap<HostId, usize> = IdMap::new();
        for (i, host) in node_hosts.iter().enumerate() {
            host_to_node.insert(*host, i);
        }
        let shards = match config.tick_mode {
            TickMode::Sharded { workers } => workers.max(1) as u64,
            TickMode::Reference => 1,
        };
        let mut world = GridWorld {
            rng: DetRng::with_stream(config.seed, streams::GRID_WORLD),
            retry_rng: DetRng::with_stream(config.seed, streams::RETRY),
            shard_rngs: (0..shards)
                .map(|i| DetRng::for_shard(config.seed, i))
                .collect(),
            gupa: GupaState::new(config.lupa),
            net: Network::new(topo),
            orbs,
            nodes,
            lrm_iors,
            node_hosts,
            grm,
            grm_host,
            grm_ior,
            jobs: BTreeMap::new(),
            pending: BTreeMap::new(),
            host_to_node,
            next_job: 1,
            next_rpc: 0,
            log: TraceLog::new(),
            slots_elapsed: 0,
            active: BTreeSet::new(),
            update_parked: vec![false; n_nodes],
            static_status,
            buffer_pool: Vec::new(),
            rerepl_inflight: BTreeSet::new(),
            crash_progress: BTreeMap::new(),
            suspect_nodes: BTreeSet::new(),
            cert_votes: BTreeMap::new(),
            overhead: OverheadLedger::new(),
            obs: GridObs::new(),
            config,
        };
        world.warmup_gupa();

        let mut queue = EventQueue::new();
        queue.schedule_at(SimTime::ZERO, GridEvent::SlotTick);
        for i in 0..n_nodes {
            let offset = world.config.lrm.update_period.as_micros() * i as u64 / n_nodes as u64;
            queue.schedule_at(
                SimTime::from_micros(offset),
                GridEvent::UpdateTick { node: i },
            );
        }
        Grid { world, queue }
    }

    /// Submits a job now (before or between runs). Returns its id.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let now = self.queue.now();
        self.world.admit_job(spec, now, &mut self.queue)
    }

    /// Schedules a submission at a future virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn submit_at(&mut self, spec: JobSpec, at: SimTime) {
        self.queue.schedule_at(
            at,
            GridEvent::Submit {
                spec: Box::new(spec),
            },
        );
    }

    /// Schedules a submission arriving at a future virtual time under an id
    /// allocated *now* — the shape of a job forwarded from another cluster:
    /// its identity is fixed when the forward leaves the origin, but
    /// admission happens only once the marshalled spec has crossed the WAN.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn submit_arriving(&mut self, spec: JobSpec, at: SimTime) -> JobId {
        let id = JobId(self.world.next_job);
        self.world.next_job += 1;
        self.queue.schedule_at(
            at,
            GridEvent::SubmitAs {
                id,
                spec: Box::new(spec),
            },
        );
        id
    }

    /// Crashes a node: it drops off the network and loses its volatile
    /// state (running parts, reservations). The GRM notices via silence and
    /// recovers the node's parts from the checkpoint repository.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn crash_node(&mut self, node: NodeId) {
        let host = self.world.node_hosts[node.0 as usize];
        let now = self.queue.now();
        self.world.crash_host(now, host);
    }

    /// Brings a crashed node back (reboot: empty volatile state).
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn restore_node(&mut self, node: NodeId) {
        let host = self.world.node_hosts[node.0 as usize];
        let now = self.queue.now();
        self.world.restore_host(now, host, &mut self.queue);
    }

    /// Crashes the cluster manager: the GRM loses all volatile soft state
    /// (node liveness, update sequence tracking, the checkpoint-repository
    /// index, queued notifications) and its host drops off the network.
    /// LRMs keep executing; they detect the restart through the epoch bump
    /// in update acks and re-announce their full state.
    pub fn crash_grm(&mut self) {
        let host = self.world.grm_host;
        let now = self.queue.now();
        self.world.crash_host(now, host);
    }

    /// Restarts a crashed cluster manager with a fresh epoch, grants every
    /// registered node a new liveness grace period, and reconciles jobs
    /// whose negotiation state died with the old incarnation.
    pub fn restart_grm(&mut self) {
        let host = self.world.grm_host;
        let now = self.queue.now();
        self.world.restore_host(now, host, &mut self.queue);
    }

    /// The physical host a node lives on (fault-plan targeting).
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn host_of(&self, node: NodeId) -> HostId {
        self.world.node_hosts[node.0 as usize]
    }

    /// Installs a deterministic fault plan. Message drops, latency jitter,
    /// link partitions and link limps apply to every send from now on; host
    /// outage schedules (including flap expansions) are translated into
    /// crash/reboot events on the simulation timeline (manager-host outages
    /// crash and restart the GRM); CPU derating windows are handed to each
    /// afflicted node's LRM, which scales its effective MIPS inside them.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let now = self.queue.now();
        if !plan.derates().is_empty() {
            for (node, host) in self.world.node_hosts.iter().enumerate() {
                let schedule = plan.derates_for(*host);
                if !schedule.is_empty() {
                    self.world.nodes[node].lrm.set_derate_schedule(schedule);
                }
            }
        }
        if !plan.saboteurs().is_empty() {
            let salt = self.world.config.seed;
            for (node, host) in self.world.node_hosts.iter().enumerate() {
                let windows = plan.saboteurs_for(*host);
                if windows.is_empty() {
                    continue;
                }
                // Colluders share a group-keyed wrong digest so their lies
                // agree; loners each get a node-keyed one.
                let schedule = windows
                    .iter()
                    .map(|s| {
                        let wrong_key = match s.collusion {
                            Some(group) => scheduled_draw(salt, [0x434F_4C4C, u64::from(group), 0]),
                            None => scheduled_draw(salt, [0x4C4F_4E45, node as u64, 0]),
                        };
                        // Map the unit draw back to a nonzero 64-bit key.
                        let wrong_key = ((wrong_key * (1u64 << 53) as f64) as u64).max(1);
                        (s.start, s.end, s.probability, wrong_key)
                    })
                    .collect();
                self.world.nodes[node]
                    .lrm
                    .set_sabotage_schedule(salt, schedule);
            }
        }
        for outage in plan.outages() {
            if outage.down_at >= now {
                self.queue.schedule_at(
                    outage.down_at,
                    GridEvent::HostFault {
                        host: outage.host,
                        up: false,
                    },
                );
            }
            if outage.up_at >= now {
                self.queue.schedule_at(
                    outage.up_at,
                    GridEvent::HostFault {
                        host: outage.host,
                        up: true,
                    },
                );
            }
        }
        self.world.net.set_fault_plan(plan);
    }

    /// Injects raw bytes as if they arrived at `to` from `from` — a fault/
    /// attack-injection hook for tests (e.g. forged frames when the cluster
    /// key is enabled).
    pub fn inject_frame(&mut self, from: HostId, to: HostId, bytes: Vec<u8>) {
        self.queue.schedule_after(
            SimDuration::from_micros(1),
            GridEvent::Wire { from, to, bytes },
        );
    }

    /// The cluster-manager host id (target for injected frames).
    pub fn manager_host(&self) -> HostId {
        self.world.grm_host
    }

    /// Whether the cluster manager's host is currently up. A WAN message
    /// delivered while the GRM is down is lost with its volatile state —
    /// the sender's soft-state retry is what makes federation traffic
    /// survive a manager crash.
    pub fn grm_up(&self) -> bool {
        self.world.net.topology().is_up(self.world.grm_host)
    }

    /// The GRM's incarnation number, bumped each restart. Federation soft
    /// state tags origin-side bookkeeping with this so a restarted origin
    /// GRM re-learns its forwarded jobs from re-sent status messages.
    pub fn grm_epoch(&self) -> u64 {
        self.world.grm.epoch()
    }

    /// Runs the grid until `horizon`. Returns the simulation outcome.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let (outcome, _) = self.run_until_counting(horizon);
        outcome
    }

    /// Like [`Grid::run_until`], but also returns the number of events
    /// fired — benchmark harnesses derive events/second from it.
    pub fn run_until_counting(&mut self, horizon: SimTime) -> (RunOutcome, u64) {
        let profiler = self.world.obs.profiler.clone();
        run_until_profiled(
            &mut self.world,
            &mut self.queue,
            horizon,
            u64::MAX,
            &profiler,
        )
    }

    /// Event-queue instrumentation: peak occupancy outside the timer wheel
    /// and timer-wheel vs heap scheduling counts.
    pub fn queue_stats(&self) -> integrade_simnet::event::QueueStats {
        self.queue.stats()
    }

    /// Turns off event-log recording. Benchmark harnesses call this so
    /// trace formatting and allocation never pollute throughput numbers;
    /// tests leave it on.
    pub fn disable_trace(&mut self) {
        self.world.log = TraceLog::disabled();
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The ASCT monitoring view of one job.
    pub fn job_record(&self, job: JobId) -> Option<&JobRecord> {
        self.world.jobs.get(&job).map(|j| &j.record)
    }

    /// The event trace (component interactions).
    pub fn log(&self) -> &TraceLog {
        &self.world.log
    }

    /// Direct read access to a node's LRM (inspection in tests/examples).
    pub fn lrm(&self, node: NodeId) -> Option<&LrmState> {
        self.world.nodes.get(node.0 as usize).map(|n| &n.lrm)
    }

    /// Where the GRM currently believes replicas of `(job, part)` live,
    /// newest version first (inspection in tests/experiments).
    pub fn replica_holders(&self, job: JobId, part: u32) -> Vec<NodeId> {
        self.world
            .grm
            .replicas()
            .holders(job, part)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.world.nodes.len()
    }

    /// Scheduler-side progress bookkeeping for one part — `(banked
    /// checkpoint version, remaining MIPS-s)` — for invariant tests:
    /// `banked_version` must never decrease and `remaining` must never
    /// increase, speculation or not.
    pub fn part_progress(&self, job: JobId, part: u32) -> Option<(u64, f64)> {
        self.world
            .jobs
            .get(&job)
            .and_then(|j| j.parts.get(part as usize))
            .map(|p| (p.banked_version, p.remaining))
    }

    /// The executors the scheduler currently believes are computing this
    /// part: the primary placement plus a speculative twin when one is
    /// racing. At most two entries, and exactly one outside an active
    /// speculation window.
    pub fn part_executors(&self, job: JobId, part: u32) -> Vec<NodeId> {
        let Some(p) = self
            .world
            .jobs
            .get(&job)
            .and_then(|j| j.parts.get(part as usize))
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if matches!(p.state, PartState::Running | PartState::Launching) {
            if let Some(n) = p.node {
                out.push(n);
            }
        }
        if let Some(t) = &p.twin {
            if matches!(t.state, TwinState::Launching | TwinState::Running) {
                if let Some(n) = t.node {
                    out.push(n);
                }
            }
        }
        out
    }

    /// This cluster's aggregated summary for the inter-cluster hierarchy
    /// (the GRM's current — possibly stale — view).
    pub fn cluster_summary(&self) -> crate::hierarchy::ClusterSummary {
        self.world.grm.cluster_summary()
    }

    /// The cluster's usage summary for the hierarchical GUPA aggregation:
    /// the GRM's resource aggregate plus a predicted-availability histogram
    /// over every GUPA-modelled node, stamped with the caller's update
    /// `epoch`. This is what the federation marshals into a
    /// [`crate::protocol::FedSummary`] every update period.
    pub fn usage_summary(&mut self, epoch: u64) -> crate::hierarchy::UsageSummary {
        // Predictions read each LRM's partial-day window — state the
        // lazy walk defers for idle nodes — so flush first (mode-
        // invariant, same contract as `report`).
        self.world.flush_catch_up();
        let now = self.queue.now();
        let (_, weekday, minute) = wall_at(now);
        let slots_per_day = SamplingConfig::default().slots_per_day();
        let mut histogram = crate::hierarchy::AvailabilityHistogram::default();
        let mut loads = Vec::new();
        for (i, local) in self.world.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            if !self.world.gupa.has_model(node) {
                continue;
            }
            if let Some(p) = self.world.gupa.predict_idle(
                node,
                weekday,
                minute,
                local.lrm.lupa_window().partial_day(),
                slots_per_day,
                self.world.config.prediction_horizon_mins,
                &mut loads,
            ) {
                histogram.observe(p);
            }
        }
        let mut summary = self.cluster_summary();
        summary.max_cluster_exporting = summary.exporting_nodes;
        crate::hierarchy::UsageSummary {
            summary,
            histogram,
            epoch,
        }
    }

    /// Live match count for a spillover probe: how many currently
    /// exporting, non-blacklisted nodes satisfy the requirements *right
    /// now*, per the trader's offer set. This is what a linked-trader
    /// [`crate::protocol::FedQuery`] consults — the probed cluster's live
    /// offers, not a stale summary.
    pub fn trader_matches(&mut self, requirements: &crate::asct::JobRequirements) -> usize {
        self.world.grm.matching_nodes(&requirements.to_constraint())
    }

    /// Installs a federation link on this cluster's trader (CORBA trading
    /// service §16: linked traders forward unsatisfied queries). `name` is
    /// the link's directory name; `target` the linked cluster.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate link name.
    pub fn add_trader_link(
        &mut self,
        name: &str,
        target: crate::types::ClusterId,
        follow: integrade_orb::trading::LinkFollowPolicy,
    ) -> Result<(), integrade_orb::trading::TraderError> {
        self.world
            .grm
            .trader_mut()
            .add_link(name, u64::from(target.0), follow)
    }

    /// This cluster's trader federation links, in insertion order (the
    /// deterministic spillover probe order).
    pub fn trader_links(&self) -> Vec<integrade_orb::trading::TraderLink> {
        self.world.grm.trader().links().to_vec()
    }

    /// Records that a spillover query followed the named trader link
    /// (per-link `link_follows` statistics).
    ///
    /// # Errors
    ///
    /// Fails on an unknown link name.
    pub fn record_trader_link_followed(
        &mut self,
        name: &str,
    ) -> Result<(), integrade_orb::trading::TraderError> {
        self.world.grm.trader_mut().record_link_followed(name)
    }

    /// The final report. Flushes any lazily deferred per-node bookkeeping
    /// first so lazy and reference runs report identically.
    pub fn report(&mut self) -> GridReport {
        self.world.flush_catch_up();
        let mut qos = QosLedger::new();
        for node in &self.world.nodes {
            qos.merge(&node.qos);
        }
        GridReport {
            records: self.world.jobs.values().map(|j| j.record.clone()).collect(),
            net: self.world.net.stats(),
            updates: self.world.grm.update_stats(),
            trader_queries: self.world.grm.trader_queries(),
            qos,
            overhead: self.world.overhead,
            gupa_models: (0..self.world.nodes.len())
                .filter(|&i| self.world.gupa.has_model(NodeId(i as u32)))
                .count(),
        }
    }

    /// Enables or disables metric and trace-span recording. Instrumentation
    /// is passive either way: flipping this never changes a run's events.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.world.obs.set_enabled(enabled);
    }

    /// Point-in-time snapshot of every registered metric, with component
    /// mirrors (network, event queue, GRM update protocol, ORB traffic)
    /// synced first. Serialise with [`MetricsSnapshot::to_json`] or
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut orb = integrade_orb::OrbStats::default();
        for o in self.world.orbs.values() {
            let s = o.stats();
            orb.requests_sent += s.requests_sent;
            orb.oneways_sent += s.oneways_sent;
            orb.replies_received += s.replies_received;
            orb.requests_dispatched += s.requests_dispatched;
        }
        let grm = &self.world.grm;
        self.world.obs.sync_mirrors(
            &self.world.net.stats(),
            grm.update_stats(),
            grm.trader_queries(),
            &self.queue.stats(),
            orb,
        );
        self.world.obs.snapshot()
    }

    /// All recorded trace spans, in causal (sim-time) order.
    pub fn spans(&self) -> &[Span] {
        self.world.obs.spans.spans()
    }

    /// Reconstructs the causal span forest of one part: negotiation →
    /// launch → checkpoint stores → crash → replica fetch → relaunch, as a
    /// parent-linked tree per root request.
    pub fn part_span_tree(&self, job: JobId, part: u32) -> Vec<SpanTree> {
        self.world.obs.spans.tree(job.0, part)
    }

    /// Wall-clock totals from the hot-loop phase timers. All zeros (and
    /// `enabled: false`) unless the crate was built with the `profile`
    /// feature.
    pub fn profile_report(&self) -> ProfileReport {
        self.world.obs.profiler.report()
    }

    /// Read access to the cluster's GUPA — trained models, per-node upload
    /// history, upload counter. The parity tests use this to prove that
    /// different shard widths genuinely measured different (jittered)
    /// samples even though every execution-visible artifact is invariant.
    pub fn gupa(&self) -> &GupaState {
        &self.world.gupa
    }
}

impl GridWorld {
    /// Replays the deferred slot-tick bookkeeping of one node up to tick
    /// count `target` (the `slots_elapsed` value whose ticks should all be
    /// applied), on the coordinating thread.
    ///
    /// A node outside the active set has no running parts, reservations,
    /// unacknowledged outcomes or stored replicas, so its reference
    /// per-slot body collapses to owner-trace sampling, LUPA accumulation
    /// and owner-QoS accounting — deterministic functions of the trace, the
    /// tick index and (with [`GridConfig::lupa_noise`] on) the shard-0
    /// measurement-jitter stream, sending no messages and writing no logs.
    /// Replaying them here in bulk is therefore bit-for-bit identical to
    /// having run them eagerly every tick of the same mode.
    fn catch_up_node(&mut self, node: usize, target: u64) {
        if self.nodes[node].ticks_applied >= target {
            return;
        }
        let profiler = self.obs.profiler.clone();
        let _replay = profiler.enter(Phase::CatchUpReplay);
        let uploads = replay_node_local(
            &self.config,
            &mut self.nodes[node],
            &mut self.shard_rngs[0],
            target,
        );
        drop(_replay);
        if !uploads.is_empty() {
            let _digest = profiler.enter(Phase::GupaDigest);
            for call in uploads {
                self.gupa.upload(NodeId(node as u32), call);
            }
        }
    }

    /// Catches every node up to the current tick count — the full-population
    /// flush `report()` and pattern-aware prediction ranking need. Both the
    /// per-node replay work *and* the GUPA digestion of the uploads it
    /// produces (curve reduction + retrain — the O(n) terms that dominate
    /// the flush at 50k nodes) run shard by shard, each shard against its
    /// own disjoint slices of the node and GUPA cell tables; only the
    /// per-shard upload counts are folded back at the merge, in ascending
    /// shard order. (Under the reference walk nothing is ever deferred and
    /// every replay returns at once.)
    fn flush_catch_up(&mut self) {
        let target = self.slots_elapsed;
        let profiler = self.obs.profiler.clone();
        let _replay = profiler.enter(Phase::CatchUpReplay);
        let digested = {
            let _shard = profiler.enter(Phase::ShardWalk);
            let (config, gupa_config) = (&self.config, self.gupa.config());
            let n = self.nodes.len();
            for_each_shard(
                &shard_ranges(n, self.shard_rngs.len()),
                &mut self.nodes,
                self.gupa.cells_mut(n),
                &mut self.shard_rngs,
                |shard| shard.flush(config, gupa_config, target),
            )
        };
        let _merge = profiler.enter(Phase::ShardMerge);
        for count in digested {
            self.gupa.add_uploads(count);
        }
    }

    /// Re-derives a node's active-set membership from its LRM engagement.
    /// Called after anything that can change engagement: wire dispatch,
    /// slot processing, crash.
    fn refresh_activity(&mut self, node: usize) {
        if self.nodes[node].lrm.is_engaged() {
            self.active.insert(node);
        } else {
            self.active.remove(&node);
        }
    }

    /// The first instant strictly after `now` on a node's information-update
    /// grid (offset + k * period) — where a parked update timer resumes.
    fn next_update_instant(&self, node: usize, now: SimTime) -> SimTime {
        let period = self.config.lrm.update_period.as_micros();
        let n = self.nodes.len() as u64;
        let offset = period * node as u64 / n.max(1);
        let now_us = now.as_micros();
        if now_us < offset {
            return SimTime::from_micros(offset);
        }
        let k = (now_us - offset) / period + 1;
        SimTime::from_micros(offset + k * period)
    }

    /// Replays warmup days of each node's trace into the GUPA so
    /// pattern-aware scheduling starts with trained models.
    fn warmup_gupa(&mut self) {
        let days = self.config.gupa_warmup_days;
        if days == 0 {
            return;
        }
        let slots_per_day = SamplingConfig::default().slots_per_day();
        for (node, local) in self.nodes.iter().enumerate() {
            let trace = &local.trace;
            if trace.is_empty() {
                continue;
            }
            let periods: Vec<DayPeriod> = (0..days)
                .map(|d| DayPeriod {
                    day: d as u64,
                    weekday: Weekday::from_day_number(d as u64),
                    samples: (0..slots_per_day)
                        .map(|s| trace[(d * slots_per_day + s) % trace.len()])
                        .collect(),
                })
                .collect();
            self.gupa.upload(NodeId(node as u32), periods);
        }
    }

    fn admit_job(
        &mut self,
        spec: JobSpec,
        now: SimTime,
        queue: &mut EventQueue<GridEvent>,
    ) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.admit_job_as(id, spec, now, queue);
        id
    }

    /// Admits a job under a caller-allocated id (the id was reserved by
    /// [`Grid::submit_arriving`] when the forward left its origin cluster).
    fn admit_job_as(
        &mut self,
        id: JobId,
        spec: JobSpec,
        now: SimTime,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let parts_total = spec.kind.parts();
        let (bsp_supersteps, _) = match &spec.kind {
            JobKind::Bsp { supersteps, .. } => (*supersteps as f64, ()),
            _ => (0.0, ()),
        };
        let parts = (0..parts_total)
            .map(|i| PartRuntime {
                state: PartState::Unplaced,
                node: None,
                reservation: 0,
                banked_version: 0,
                slow_strikes: 0,
                twin: None,
                remaining: match &spec.kind {
                    JobKind::Sequential { work_mips_s } => *work_mips_s as f64,
                    JobKind::BagOfTasks { task_work_mips_s } => task_work_mips_s[i] as f64,
                    JobKind::Bsp { .. } => 0.0,
                },
            })
            .collect();
        self.jobs.insert(
            id,
            JobExec {
                record: JobRecord {
                    id,
                    name: spec.name.clone(),
                    state: JobState::Queued,
                    submitted_at: now,
                    started_at: None,
                    completed_at: None,
                    parts_done: 0,
                    parts_total,
                    evictions: 0,
                    negotiation_refusals: 0,
                    wasted_work_mips_s: 0,
                },
                spec,
                parts,
                candidates: Vec::new(),
                attempts: 0,
                bsp_remaining_supersteps: bsp_supersteps,
                bsp_step_work: 0.0,
                pending_cancels: 0,
                min_checkpoint: f64::INFINITY,
                max_checkpoint_version: 0,
                pending_reservations: 0,
                next_candidate: 0,
                granted: Vec::new(),
            },
        );
        self.log.record(now, "asct.submit", format!("{id}"));
        queue.schedule_at(now, GridEvent::Schedule { job: id });
    }

    /// Seals a frame under the cluster key when authentication is enabled.
    /// Takes a recycled scratch buffer (always empty) for an encode→frame→
    /// transmit cycle, or a fresh one when the pool is dry.
    fn pooled_buf(&mut self) -> Vec<u8> {
        self.buffer_pool.pop().unwrap_or_default()
    }

    /// Returns a spent wire buffer to the scratch pool. Bounded so a burst
    /// of in-flight frames cannot pin memory forever.
    fn reclaim_buf(&mut self, mut buf: Vec<u8>) {
        if self.buffer_pool.len() < 256 {
            buf.clear();
            self.buffer_pool.push(buf);
        }
    }

    fn protect(&mut self, frame: Vec<u8>) -> Vec<u8> {
        match self.config.cluster_key {
            Some(key) => {
                let sealed = integrade_orb::security::seal(key, &frame);
                self.reclaim_buf(frame);
                sealed
            }
            None => frame,
        }
    }

    /// Verifies and strips the security envelope; `None` means the frame
    /// must be dropped (and has been logged). Borrows from the wire bytes
    /// in every success case — authentication no longer copies the frame.
    fn unprotect<'a>(&mut self, now: SimTime, bytes: &'a [u8]) -> Option<&'a [u8]> {
        match self.config.cluster_key {
            None => Some(bytes),
            Some(key) => match integrade_orb::security::open(key, bytes) {
                Ok(frame) => Some(frame),
                Err(e) => {
                    self.log.record(now, "auth.reject", e.to_string());
                    None
                }
            },
        }
    }

    /// Fresh protocol-level request id (never 0 — 0 disables dedup).
    fn rpc_id(&mut self) -> u64 {
        self.next_rpc += 1;
        self.next_rpc
    }

    /// Delay before retransmission `attempt` (1-based): the request timeout
    /// doubled per attempt, capped at 8x, with ±25% seeded jitter.
    fn retransmit_backoff(&mut self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(3);
        let base = self.config.request_timeout * (1u64 << shift);
        let micros = base.as_micros();
        let jittered = self
            .retry_rng
            .uniform_range(micros * 3 / 4, micros * 5 / 4 + 1);
        SimDuration::from_micros(jittered.max(1))
    }

    /// Delay before scheduling attempt `attempt` (1-based) re-runs the
    /// pipeline: the base reschedule delay doubled per attempt, capped at
    /// 32x, with ±50% seeded jitter to decorrelate retry storms.
    fn reschedule_backoff(&mut self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(5);
        let base = self.config.reschedule_delay * (1u64 << shift);
        let micros = base.as_micros();
        let jittered = self.retry_rng.uniform_range(micros / 2, micros * 3 / 2 + 1);
        SimDuration::from_micros(jittered.max(1))
    }

    /// Takes a host off the network and wipes the volatile state of the
    /// component living on it (an LRM, or the GRM itself).
    fn crash_host(&mut self, now: SimTime, host: HostId) {
        self.net
            .topology_mut()
            .set_up(host, false)
            .expect("known host");
        // Requests issued by the crashed host's orb die with it; their
        // timeout events find no entry and fall through harmlessly.
        self.pending.retain(|(from, _), _| *from != host);
        if host == self.grm_host {
            self.grm.crash();
            let epoch = self.grm.epoch();
            // Relays in flight died with the GRM's orb; the placement map
            // is rebuilt from replica re-announces after restart.
            self.rerepl_inflight.clear();
            self.obs.grm_crashes.inc();
            self.log
                .record(now, "grm.crash", format!("next epoch {epoch}"));
        } else if let Some(&node) = self.host_to_node.get(host) {
            {
                let lrm = &mut self.nodes[node].lrm;
                for part in lrm.running() {
                    self.crash_progress
                        .insert((part.job, part.part), part.done as u64);
                    self.obs.spans.event(
                        SpanKind::Crash,
                        part.job.0,
                        part.part,
                        node as u64,
                        now.as_micros(),
                    );
                }
                lrm.crash();
            }
            self.obs.node_crashes.inc();
            // Volatile engagement (running parts, reservations, unacked
            // outcomes) died with the node; only surviving replicas keep it
            // in the active set.
            self.refresh_activity(node);
            self.log
                .record(now, "node.crash", format!("{}", NodeId(node as u32)));
        }
    }

    /// Brings a crashed host back (reboot semantics: volatile state stays
    /// empty; the GRM additionally reconciles orphaned negotiation state).
    fn restore_host(&mut self, now: SimTime, host: HostId, queue: &mut EventQueue<GridEvent>) {
        self.net
            .topology_mut()
            .set_up(host, true)
            .expect("known host");
        if host == self.grm_host {
            self.grm.restart(now);
            let epoch = self.grm.epoch();
            self.log
                .record(now, "grm.epoch", format!("restarted as epoch {epoch}"));
            self.reconcile_after_grm_restart(now, queue);
        } else if let Some(&node) = self.host_to_node.get(host) {
            self.log
                .record(now, "node.restore", format!("{}", NodeId(node as u32)));
        }
    }

    /// After a GRM restart, no in-flight negotiation of the old incarnation
    /// can ever complete: zero the in-flight counters, unwind parts stuck
    /// mid-handshake (their LRM-side reservations expire via leases) and
    /// re-run the pipeline, so jobs are rescheduled instead of wedging.
    fn reconcile_after_grm_restart(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        // The restarted GRM lost every progress track; the suspicion built
        // on them must not outlive its evidence.
        self.suspect_nodes.clear();
        // The ballot box was GRM soft state too: the restarted manager
        // re-collects votes from scratch (parts awaiting certification go
        // back through the at-least-once outcome redelivery).
        self.cert_votes.clear();
        let mut rollbacks: Vec<JobId> = Vec::new();
        let mut reschedules: Vec<(JobId, u32)> = Vec::new();
        let mut twin_cancels: Vec<(JobId, u32, NodeId)> = Vec::new();
        for (id, job) in self.jobs.iter_mut() {
            if matches!(job.record.state, JobState::Completed | JobState::Failed) {
                continue;
            }
            let mid_teardown = job.pending_cancels > 0;
            job.pending_cancels = 0;
            job.pending_reservations = 0;
            job.granted.clear();
            for (index, part) in job.parts.iter_mut().enumerate() {
                // Speculative twins do not survive a GRM restart: their
                // continuations died with the old incarnation's orb. A twin
                // that reached Running is cancelled on its node so an
                // untracked copy is never left computing; the rest just
                // evaporate.
                if let Some(twin) = part.twin.take() {
                    if twin.state == TwinState::Running {
                        if let Some(node) = twin.node {
                            twin_cancels.push((*id, index as u32, node));
                        }
                    }
                }
                // Recovering parts unwind too: the fetch continuation died
                // with the old incarnation's orb, so restart them from the
                // banked level rather than wedging in Recovering forever.
                if matches!(
                    part.state,
                    PartState::Reserving | PartState::Launching | PartState::Recovering
                ) {
                    part.state = PartState::Unplaced;
                    part.node = None;
                    part.reservation = 0;
                }
            }
            if job.record.state == JobState::Negotiating {
                job.record.state = JobState::Queued;
            }
            if mid_teardown {
                // The gang teardown loses its cancel replies: bank whatever
                // checkpoint level was already folded in and move on.
                rollbacks.push(*id);
            } else if job.parts.iter().any(|p| p.state == PartState::Unplaced) {
                reschedules.push((*id, job.attempts.max(1)));
            }
            // Parts still Running keep running: their LRMs re-announce via
            // the epoch-forced full update and report outcomes at-least-once.
        }
        for id in rollbacks {
            self.log
                .record(now, "grm.reconcile", format!("{id} rollback"));
            self.finish_bsp_rollback(now, id, queue);
        }
        for (id, attempt) in reschedules {
            self.log
                .record(now, "grm.reconcile", format!("{id} reschedule"));
            let backoff = self.reschedule_backoff(attempt);
            queue.schedule_after(backoff, GridEvent::Schedule { job: id });
        }
        for (job_id, part_id, node) in twin_cancels {
            self.obs.spec_cancelled.inc();
            self.log.record(
                now,
                "spec.cancelled",
                format!("{job_id} part {part_id} at {node}: grm restart"),
            );
            let request_id = self.rpc_id();
            self.send_to_lrm(
                now,
                node,
                OP_CANCEL_PART,
                move |w| {
                    CancelPartRequest {
                        request_id,
                        job: job_id,
                        part: part_id,
                    }
                    .encode(w)
                },
                Pending::TwinCancel {
                    job: job_id,
                    part: part_id,
                    node,
                    credit: 0,
                },
                queue,
            );
        }
    }

    /// Sends a framed request from the GRM to a node's LRM, registering the
    /// pending continuation.
    fn send_to_lrm(
        &mut self,
        now: SimTime,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut integrade_orb::cdr::CdrWriter),
        pending: Pending,
        queue: &mut EventQueue<GridEvent>,
    ) {
        self.send_to_lrm_with_payload(now, node, operation, body, pending, 0, queue)
    }

    /// Like [`Self::send_to_lrm`], but the transfer is costed as the frame
    /// plus `extra_bytes` of bulk payload (e.g. a migrated checkpoint).
    #[allow(clippy::too_many_arguments)]
    fn send_to_lrm_with_payload(
        &mut self,
        now: SimTime,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut integrade_orb::cdr::CdrWriter),
        pending: Pending,
        extra_bytes: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        self.send_request_from(
            now,
            self.grm_host,
            node,
            operation,
            body,
            pending,
            extra_bytes,
            queue,
        )
    }

    /// Sends a framed request from `from` (the GRM host or an executing
    /// node's host) to a node's LRM, registering the pending continuation
    /// under the issuing host so the reply routes back to it.
    #[allow(clippy::too_many_arguments)]
    fn send_request_from(
        &mut self,
        now: SimTime,
        from: HostId,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut integrade_orb::cdr::CdrWriter),
        pending: Pending,
        extra_bytes: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let mut out = self.pooled_buf();
        let target = &self.lrm_iors[node.0 as usize];
        let orb = self.orbs.get_mut(from).expect("issuing orb");
        let request_id = {
            let _enc = self.obs.profiler.enter(Phase::GiopEncode);
            orb.make_request_into(target, operation, body, &mut out)
        };
        // Trace-span id: every caller draws the protocol request id with
        // `rpc_id()` immediately before building the frame it hands us, so
        // `next_rpc` still holds that id. Using it as the span id keys the
        // trace on the same grid-unique id the receiver deduplicates on,
        // without consuming ids of its own.
        let span_id = self.next_rpc;
        let span = match &pending {
            Pending::Reserve { job, part, node } => {
                Some((SpanKind::Reserve, job.0, *part, node.0 as u64))
            }
            Pending::Launch { job, part, node } => {
                Some((SpanKind::Launch, job.0, *part, node.0 as u64))
            }
            Pending::CancelPart { job } => {
                // Job-wide: cancels are addressed per node, not per part.
                Some((SpanKind::CancelPart, job.0, u32::MAX, node.0 as u64))
            }
            Pending::StoreCkpt { blob, replica, .. } => {
                Some((SpanKind::StoreCkpt, blob.job.0, blob.part, replica.0 as u64))
            }
            Pending::FetchCkpt { job, part, .. } => {
                Some((SpanKind::FetchCkpt, job.0, *part, node.0 as u64))
            }
            Pending::RereplFetch {
                job, part, source, ..
            } => Some((SpanKind::RereplFetch, job.0, *part, source.0 as u64)),
            // Twin traffic reuses the primary span kinds: the span stream
            // keys on (kind, job, part, node), and the twin always targets
            // a different node than the primary's in-flight requests.
            Pending::TwinFetch { job, part, .. } => {
                Some((SpanKind::FetchCkpt, job.0, *part, node.0 as u64))
            }
            Pending::TwinReserve { job, part, node } => {
                Some((SpanKind::Reserve, job.0, *part, node.0 as u64))
            }
            Pending::TwinLaunch { job, part, node } => {
                Some((SpanKind::Launch, job.0, *part, node.0 as u64))
            }
            Pending::TwinCancel {
                job, part, node, ..
            } => Some((SpanKind::CancelPart, job.0, *part, node.0 as u64)),
            Pending::UpdateAck { .. } => None,
        };
        let span_id = if let Some((kind, job, part, on_node)) = span {
            self.obs
                .spans
                .start_rpc(span_id, kind, job, part, on_node, now.as_micros());
            span_id
        } else {
            0
        };
        let bytes = self.protect(out);
        let to = self.node_hosts[node.0 as usize];
        self.pending.insert(
            (from, request_id),
            PendingEntry {
                what: pending,
                dest: to,
                wire: bytes.clone(),
                extra_bytes,
                attempt: 0,
                sent_at: now,
                span: span_id,
            },
        );
        if self.transmit(now, from, to, bytes, extra_bytes, queue) {
            // Crashed nodes never answer: a timeout converts silence
            // into retransmission and, eventually, the failure path.
            queue.schedule_after(
                self.config.request_timeout,
                GridEvent::RequestTimeout { from, request_id },
            );
        } else {
            // Unreachable node or injected loss: fast-path straight to
            // the timeout handler, which retransmits with backoff.
            self.obs.drops.inc();
            self.log.record(now, "drops", format!("request to {node}"));
            queue.schedule_after(
                SimDuration::from_micros(1),
                GridEvent::RequestTimeout { from, request_id },
            );
        }
    }

    /// Puts a frame on the wire, applying any fault-injected in-flight
    /// corruption (a single bit flip chosen by the fault plan's draw) so the
    /// receiver's integrity checks — frame seal or checkpoint digest — see
    /// genuinely damaged bytes. Returns false when the send failed outright.
    fn transmit(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        mut bytes: Vec<u8>,
        extra_bytes: u64,
        queue: &mut EventQueue<GridEvent>,
    ) -> bool {
        match self
            .net
            .send_checked(now, from, to, bytes.len() as u64 + extra_bytes)
        {
            Ok(delivery) => {
                if let Some(draw) = delivery.corrupt {
                    if !bytes.is_empty() {
                        let bit = (draw % (bytes.len() as u64 * 8)) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        self.obs.net_corrupt.inc();
                        self.log.record(
                            now,
                            "net.corrupt",
                            format!("bit {bit} of {} -> {}", from.0, to.0),
                        );
                    }
                }
                queue.schedule_after(delivery.delay, GridEvent::Wire { from, to, bytes });
                true
            }
            Err(_) => false,
        }
    }

    /// Handles an expired reply timer: retransmit the identical frame with
    /// capped exponential backoff while attempts remain, then fall through
    /// to the transport-error continuation.
    fn on_request_timeout(
        &mut self,
        now: SimTime,
        from: HostId,
        request_id: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let key = (from, request_id);
        let Some(entry) = self.pending.get(&key) else {
            return; // answered in the meantime
        };
        if entry.attempt >= self.config.max_retransmits {
            self.obs.timeouts.inc();
            self.obs
                .spans
                .finish(entry.span, SpanOutcome::TimedOut, now.as_micros());
            self.log
                .record(now, "grm.timeout", format!("request {request_id}"));
            self.handle_reply(
                now,
                from,
                request_id,
                Err(integrade_orb::orb::RemoteError::Unreachable(
                    integrade_orb::ior::Endpoint::new(u32::MAX, 0),
                )),
                queue,
            );
            return;
        }
        let entry = self.pending.get_mut(&key).expect("entry exists");
        entry.attempt += 1;
        let attempt = entry.attempt;
        let dest = entry.dest;
        let wire = entry.wire.clone();
        let extra = entry.extra_bytes;
        let span = entry.span;
        self.obs.retransmits.inc();
        self.obs.spans.add_attempt(span);
        self.log.record(
            now,
            "retransmits",
            format!("request {request_id} attempt {attempt}"),
        );
        let next_timeout = self.retransmit_backoff(attempt);
        if !self.transmit(now, from, dest, wire, extra, queue) {
            self.obs.drops.inc();
            self.log
                .record(now, "drops", format!("retransmit {request_id}"));
        }
        queue.schedule_after(next_timeout, GridEvent::RequestTimeout { from, request_id });
    }

    /// Sends a oneway notification from a node's LRM to the GRM.
    fn send_to_grm(
        &mut self,
        now: SimTime,
        node: usize,
        operation: &str,
        body: impl FnOnce(&mut integrade_orb::cdr::CdrWriter),
        queue: &mut EventQueue<GridEvent>,
    ) {
        let from = self.node_hosts[node];
        let mut out = self.pooled_buf();
        let target = &self.grm_ior;
        let orb = self.orbs.get_mut(from).expect("lrm orb");
        orb.make_oneway_into(target, operation, body, &mut out);
        let bytes = self.protect(out);
        let grm_host = self.grm_host;
        self.transmit(now, from, grm_host, bytes, 0, queue);
    }

    /// Sends an unacknowledged oneway from the GRM to a node's LRM (e.g. a
    /// checkpoint purge — best effort, a lost purge only delays GC until the
    /// holder next garbage-collects on a newer store).
    fn send_oneway_to_lrm(
        &mut self,
        now: SimTime,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut integrade_orb::cdr::CdrWriter),
        queue: &mut EventQueue<GridEvent>,
    ) {
        let mut out = self.pooled_buf();
        let target = &self.lrm_iors[node.0 as usize];
        let grm_host = self.grm_host;
        let orb = self.orbs.get_mut(grm_host).expect("grm orb");
        orb.make_oneway_into(target, operation, body, &mut out);
        let bytes = self.protect(out);
        let to = self.node_hosts[node.0 as usize];
        self.transmit(now, grm_host, to, bytes, 0, queue);
    }

    fn handle_wire(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: Vec<u8>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if !self.net.topology().is_up(to) {
            // The destination crashed while the frame was in flight.
            self.obs.drops.inc();
            self.log
                .record_with(now, "drops", || format!("host {} down", to.0));
            return;
        }
        let node_at_dest = self.host_to_node.get(to).copied();
        if let Some(node) = node_at_dest {
            // A delivered frame is the only way a lazily ticked node's
            // engagement can change: apply its deferred bookkeeping and
            // resume a parked update timer first, so the servant sees
            // exactly the state the eager reference walk would have built.
            self.catch_up_node(node, self.slots_elapsed);
            if self.update_parked[node] {
                self.update_parked[node] = false;
                let at = self.next_update_instant(node, now);
                queue.schedule_at(at, GridEvent::UpdateTick { node });
            }
        }
        let Some(frame) = self.unprotect(now, &bytes) else {
            return;
        };
        let Some(orb) = self.orbs.get_mut(to) else {
            return;
        };
        // Lend the host's implementation object — its LRM, or the GRM on
        // the manager host — to the ORB for this one dispatch.
        let incoming = {
            let _dec = self.obs.profiler.enter(Phase::GiopDecode);
            match node_at_dest {
                Some(node) => orb.handle_wire_with(
                    frame,
                    &self.lrm_iors[node].object_key,
                    &mut self.nodes[node].lrm.servant(now),
                ),
                None => orb.handle_wire_with(
                    frame,
                    &self.grm_ior.object_key,
                    &mut self.grm.servant(now),
                ),
            }
        };
        match incoming {
            Ok(Incoming::ReplyToSend(reply)) => {
                let reply = self.protect(reply);
                self.transmit(now, to, from, reply, 0, queue);
            }
            Ok(Incoming::OnewayHandled) => {}
            Ok(Incoming::ReplyReceived { request_id, result }) => {
                self.handle_reply(now, to, request_id, result, queue);
            }
            Err(e) => {
                self.log.record(now, "orb.error", e.to_string());
            }
        }
        // Surface any dedup hits and repository counters the LRM servant
        // just recorded as trace events, and re-derive the node's
        // active-set membership from whatever the dispatch changed.
        if let Some(node) = node_at_dest {
            let lrm = &mut self.nodes[node].lrm;
            let hits = lrm.take_dedup_hits();
            let corrupt = lrm.take_corrupt_detected();
            let gc = lrm.take_repo_gc();
            self.obs.dedup_hits.add(hits);
            self.obs.corrupt_detected.add(corrupt);
            self.obs.repo_gc.add(gc);
            for _ in 0..hits {
                self.log
                    .record_indexed(now, "dedup_hits", "node ", node as u64);
            }
            for _ in 0..corrupt {
                self.log
                    .record_indexed(now, "corrupt_detected", "node ", node as u64);
            }
            for _ in 0..gc {
                self.log
                    .record_indexed(now, "repo.gc", "node ", node as u64);
            }
            self.refresh_activity(node);
        }
        // The GRM servant may have queued notifications; drain them.
        if to == self.grm_host {
            self.drain_grm_notifications(now, queue);
        }
        // The frame's backing buffer has served its purpose; recycle it for
        // a future encode instead of freeing it.
        self.reclaim_buf(bytes);
    }

    fn drain_grm_notifications(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let done = std::mem::take(&mut self.grm.pending_done);
        let evicted = std::mem::take(&mut self.grm.pending_evictions);
        for d in done {
            self.on_part_done(now, &d, queue);
        }
        for e in evicted {
            self.on_part_evicted(now, &e, queue);
        }
    }

    fn on_part_done(&mut self, now: SimTime, done: &PartDone, queue: &mut EventQueue<GridEvent>) {
        // Speculation race settlement: whichever copy reported first wins;
        // the loser is torn down and its uncovered progress charged as
        // wasted speculative work via the cancel reply.
        let mut spec_cancel: Option<(NodeId, u64)> = None;
        let mut twin_won = false;
        // Certification outcome of this report: either the part's result is
        // accepted (quorum met, probe passed, or certification off), or the
        // part goes back to the scheduler for another independent vote.
        let mut reexecute = false;
        let mut certified = false;
        let mut cert_agree: Vec<NodeId> = Vec::new();
        let mut cert_punish: Vec<NodeId> = Vec::new();
        {
            let Some(job) = self.jobs.get_mut(&done.job) else {
                return;
            };
            let certify = self.config.certification && !job.spec.kind.is_parallel();
            let nominal = part_nominal_work(&job.spec.kind, done.part);
            // Field values can arrive damaged when corruption faults are
            // active: an out-of-range part index must not panic.
            let Some(part) = job.parts.get_mut(done.part as usize) else {
                return;
            };
            if part.state == PartState::Done {
                return;
            }
            let canonical = canonical_result_digest(done.job, done.part);
            if certify {
                let votes = self.cert_votes.entry((done.job, done.part)).or_default();
                // Outcomes arrive at-least-once (oneway plus the update
                // piggyback): a node re-reporting its result is the same
                // vote, not fresh evidence — and it must not re-settle the
                // speculation race below.
                if votes.iter().any(|(n, _)| *n == done.node) {
                    return;
                }
                if !votes.is_empty() {
                    // Every execution beyond the part's first is redundancy
                    // bought for integrity; charge the unified ledger.
                    self.obs.cert_reexecutions.inc();
                    self.obs.cert_redundant_mips_s.add(nominal as u64);
                    self.overhead.cert_redundant_mips_s += nominal;
                }
                votes.push((done.node, done.digest));
                self.obs.cert_votes.inc();
                // Spot-check probes are designated by a pure seeded hash of
                // the part's identity, so every vote on a probe part — in
                // any tick mode, any arrival order — sees the same
                // designation. The GRM knows the answer and verdicts alone.
                let is_probe = self.config.cert_spot_check_rate > 0.0
                    && scheduled_draw(
                        self.config.seed,
                        [CERT_PROBE_KEY, done.job.0, u64::from(done.part)],
                    ) < self.config.cert_spot_check_rate;
                if is_probe {
                    self.obs.cert_spot_checks.inc();
                    if done.digest == canonical {
                        certified = true;
                        cert_agree.push(done.node);
                    } else {
                        cert_punish.push(done.node);
                        reexecute = true;
                    }
                } else {
                    // Credibility-adaptive replication: a trusted executor's
                    // word certifies alone; unknowns pay the full quorum.
                    let trusted = self.config.cert_adaptive
                        && self.grm.cert_credibility(done.node) >= self.config.cert_trust_threshold;
                    let needed = if trusted {
                        1
                    } else {
                        self.config.cert_replication.max(1)
                    };
                    match certification_verdict(votes, needed) {
                        Some(accepted) => {
                            certified = true;
                            for (voter, digest) in votes.iter() {
                                if *digest == accepted {
                                    cert_agree.push(*voter);
                                } else {
                                    cert_punish.push(*voter);
                                }
                            }
                            if accepted != canonical {
                                // Omniscient ground-truth accounting: the
                                // quorum certified a lie (e.g. colluders
                                // outvoted the honest minority).
                                self.obs.cert_wrong_delivered.inc();
                            }
                        }
                        None => reexecute = true,
                    }
                }
            } else if done.digest != canonical && done.digest != 0 {
                // Certification off: whatever the executor reported is
                // delivered as-is. The omniscient wrong-result counter
                // still observes it — that is the no-cert arm's error rate.
                self.obs.cert_wrong_delivered.inc();
            }
            if let Some(twin) = part.twin.take() {
                match twin.state {
                    TwinState::Running if twin.node == Some(done.node) => {
                        // The backup finished first: cancel the straggling
                        // primary, crediting the checkpoint the twin
                        // resumed from (that much was not wasted).
                        twin_won = true;
                        if let Some(primary) = part.node {
                            spec_cancel = Some((primary, twin.resume_work as u64));
                        }
                    }
                    TwinState::Running => {
                        // The primary finished first: cancel the backup.
                        // All of the twin's progress duplicated work.
                        if let Some(backup) = twin.node {
                            spec_cancel = Some((backup, 0));
                        }
                    }
                    // The twin never launched; its in-flight replies stand
                    // down via the missing-runtime guards.
                    _ => {}
                }
            }
            if reexecute {
                // Uncertified: the part returns to the scheduler for an
                // independent re-execution (its remaining work is untouched,
                // so the relaunch runs the full honest workload again).
                part.state = PartState::Unplaced;
                part.node = None;
                job.record.state = JobState::Rescheduling;
                self.log.record(
                    now,
                    "cert.reexecute",
                    format!(
                        "{} part {} after vote from {}",
                        done.job, done.part, done.node
                    ),
                );
                queue.schedule_after(
                    SimDuration::from_secs(1),
                    GridEvent::Schedule { job: done.job },
                );
            } else {
                part.state = PartState::Done;
                part.node = None;
                job.record.parts_done += 1;
                self.log.record(
                    now,
                    "job.part_done",
                    format!("{} part {}", done.job, done.part),
                );
                if job.record.parts_done == job.record.parts_total {
                    job.record.state = JobState::Completed;
                    job.record.completed_at = Some(now);
                    self.log
                        .record(now, "job.completed", format!("{}", done.job));
                } else if !job.spec.kind.is_parallel() {
                    // More bag-of-tasks parts may be waiting for a node.
                    if job.parts.iter().any(|p| p.state == PartState::Unplaced) {
                        queue.schedule_after(
                            SimDuration::from_secs(1),
                            GridEvent::Schedule { job: done.job },
                        );
                    }
                }
            }
        }
        if twin_won {
            self.obs.spec_won.inc();
            self.log.record(
                now,
                "spec.won",
                format!("{} part {} on {}", done.job, done.part, done.node),
            );
        }
        if let Some((loser, credit)) = spec_cancel {
            self.obs.spec_cancelled.inc();
            self.log.record(
                now,
                "spec.cancelled",
                format!("{} part {} at {loser}", done.job, done.part),
            );
            let request_id = self.rpc_id();
            let (job_id, part_id) = (done.job, done.part);
            self.send_to_lrm(
                now,
                loser,
                OP_CANCEL_PART,
                move |w| {
                    CancelPartRequest {
                        request_id,
                        job: job_id,
                        part: part_id,
                    }
                    .encode(w)
                },
                Pending::TwinCancel {
                    job: job_id,
                    part: part_id,
                    node: loser,
                    credit,
                },
                queue,
            );
        }
        // Certification verdicts feed the credibility ledger whether or not
        // the part finished this round: agreement earns trust slowly, any
        // mismatch collapses it and blacklists the node from the trader.
        for node in cert_punish {
            let newly = self.grm.record_cert_mismatch(node);
            self.obs.cert_mismatches.inc();
            self.log.record(
                now,
                "cert.mismatch",
                format!("{} part {} by {node}", done.job, done.part),
            );
            if newly {
                self.obs.cert_blacklisted.inc();
                self.log.record(now, "cert.blacklist", format!("{node}"));
            }
        }
        if certified {
            for node in &cert_agree {
                self.grm.record_cert_agreement(*node);
            }
            self.cert_votes.remove(&(done.job, done.part));
            self.obs.cert_certified.inc();
            self.log.record(
                now,
                "cert.certified",
                format!("{} part {}", done.job, done.part),
            );
        }
        if reexecute {
            // The part is still live: keep its rate estimates and replicas
            // for the re-execution that is about to be scheduled.
            return;
        }
        // The part is finished: its rate estimates can never matter again.
        self.grm.clear_progress(done.job, done.part);
        // The part's replicas are superseded: drop them from the placement
        // map and ask each holder to garbage-collect its copy. Purges are
        // best-effort oneways — a holder that misses one merely keeps a dead
        // blob until its disk is next reused.
        self.rerepl_inflight.remove(&(done.job, done.part));
        let holders = self.grm.replicas_mut().remove_part(done.job, done.part);
        for holder in holders {
            self.log.record(
                now,
                "repo.purge",
                format!("{} part {} at {holder}", done.job, done.part),
            );
            let (job_id, part_id) = (done.job, done.part);
            self.send_oneway_to_lrm(
                now,
                holder,
                OP_PURGE_CKPT,
                move |w| {
                    PurgeCheckpoint {
                        job: job_id,
                        part: part_id,
                    }
                    .encode(w)
                },
                queue,
            );
        }
    }

    fn on_part_evicted(
        &mut self,
        now: SimTime,
        evicted: &PartEvicted,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&evicted.job) else {
            return;
        };
        if job.record.state == JobState::Completed || job.record.state == JobState::Failed {
            return;
        }
        if evicted.part as usize >= job.parts.len() {
            return; // damaged frame under corruption faults
        }
        let is_bsp = job.spec.kind.is_parallel();
        if !is_bsp {
            // A speculative twin evicted from its backup node stands the
            // speculation down without touching the primary: the eviction
            // names the twin's node, not the part's.
            {
                let part = &mut job.parts[evicted.part as usize];
                if part.node != Some(evicted.node)
                    && part
                        .twin
                        .as_ref()
                        .is_some_and(|t| t.node == Some(evicted.node))
                {
                    part.twin = None;
                    job.record.wasted_work_mips_s += evicted.lost_work_mips_s;
                    self.obs.spec_wasted_mips_s.add(evicted.lost_work_mips_s);
                    self.overhead.spec_wasted_mips_s += evicted.lost_work_mips_s as f64;
                    self.log.record(
                        now,
                        "spec.standdown",
                        format!(
                            "{} part {} evicted from {}",
                            evicted.job, evicted.part, evicted.node
                        ),
                    );
                    return;
                }
            }
            // Outcomes arrive at-least-once (oneway plus the update
            // piggyback): an eviction for a part no longer running on that
            // node is a stale duplicate and must not evict twice.
            {
                let part = &job.parts[evicted.part as usize];
                if !matches!(
                    part.state,
                    PartState::Running | PartState::Launching | PartState::Recovering
                ) || part.node != Some(evicted.node)
                {
                    return;
                }
            }
            job.record.evictions += 1;
            job.record.wasted_work_mips_s += evicted.lost_work_mips_s;
            let part = &mut job.parts[evicted.part as usize];
            // Bank the checkpoint only if it is newer than what has already
            // been credited: a stale blob from an earlier launch reports a
            // version at or below `banked_version` and must not subtract
            // its work a second time.
            if evicted.checkpoint_version > part.banked_version {
                part.banked_version = evicted.checkpoint_version;
                part.remaining =
                    (part.remaining - evicted.checkpointed_work_mips_s as f64).max(0.0);
            }
            let finished = part.remaining <= 0.0;
            // An evicted primary with a racing backup promotes the twin
            // instead of rescheduling — the part never goes Unplaced, so
            // the speculation converts an eviction into continued progress.
            if !finished
                && part
                    .twin
                    .as_ref()
                    .is_some_and(|t| t.state == TwinState::Running && t.node.is_some())
            {
                let twin = part.twin.take().expect("twin exists");
                part.node = twin.node;
                part.reservation = twin.reservation;
                part.state = PartState::Running;
                self.log.record(
                    now,
                    "spec.promoted",
                    format!(
                        "{} part {} continues on {}",
                        evicted.job,
                        evicted.part,
                        twin.node.expect("checked above")
                    ),
                );
                return;
            }
            // A twin that never reached Running cannot take over; stand it
            // down (its in-flight replies clean up after themselves). A
            // Running twin stays: when the eviction finished the part, the
            // synthesized `PartDone` below settles the race and cancels it.
            if part
                .twin
                .as_ref()
                .is_some_and(|t| t.state != TwinState::Running)
            {
                part.twin = None;
                self.log.record(
                    now,
                    "spec.standdown",
                    format!("{} part {} primary evicted", evicted.job, evicted.part),
                );
            }
            part.state = PartState::Unplaced;
            part.node = None;
            let attempt = job.attempts.max(1);
            if !finished {
                job.record.state = JobState::Rescheduling;
            }
            self.log.record(
                now,
                "job.evicted",
                format!(
                    "{} part {} from {}",
                    evicted.job, evicted.part, evicted.node
                ),
            );
            if finished {
                // Evicted exactly at a 100% checkpoint: nothing is left to
                // re-run, so complete the part instead of relaunching it
                // for a phantom sliver of residual work.
                let digest = self.nodes[evicted.node.0 as usize].lrm.result_digest(
                    now,
                    evicted.job,
                    evicted.part,
                );
                let done = PartDone {
                    job: evicted.job,
                    part: evicted.part,
                    node: evicted.node,
                    digest,
                };
                self.on_part_done(now, &done, queue);
            } else {
                let backoff = self.reschedule_backoff(attempt);
                queue.schedule_after(backoff, GridEvent::Schedule { job: evicted.job });
            }
            return;
        }
        // BSP gang teardown: cancel every other live part and collect
        // checkpoints; the evicted part contributes its own.
        if job.record.state == JobState::Rescheduling && job.pending_cancels > 0 {
            // A second eviction during teardown: fold its checkpoint in
            // (min-fold is idempotent under duplicate delivery).
            job.record.evictions += 1;
            job.record.wasted_work_mips_s += evicted.lost_work_mips_s;
            job.min_checkpoint = job
                .min_checkpoint
                .min(evicted.checkpointed_work_mips_s as f64);
            job.max_checkpoint_version = job.max_checkpoint_version.max(evicted.checkpoint_version);
            let part = &mut job.parts[evicted.part as usize];
            part.state = PartState::Unplaced;
            part.node = None;
            return;
        }
        {
            // Stale duplicate after the teardown already completed: the
            // cancel replies accounted for this part.
            let part = &job.parts[evicted.part as usize];
            if !matches!(
                part.state,
                PartState::Running | PartState::Launching | PartState::Recovering
            ) || part.node != Some(evicted.node)
            {
                return;
            }
        }
        job.record.evictions += 1;
        job.record.wasted_work_mips_s += evicted.lost_work_mips_s;
        self.log.record(
            now,
            "job.evicted",
            format!(
                "{} part {} from {}",
                evicted.job, evicted.part, evicted.node
            ),
        );
        job.record.state = JobState::Rescheduling;
        job.min_checkpoint = evicted.checkpointed_work_mips_s as f64;
        job.max_checkpoint_version = job.max_checkpoint_version.max(evicted.checkpoint_version);
        {
            let part = &mut job.parts[evicted.part as usize];
            part.state = PartState::Unplaced;
            part.node = None;
        }
        let job_id = evicted.job;
        let mut cancels = Vec::new();
        for (index, part) in job.parts.iter_mut().enumerate() {
            if matches!(part.state, PartState::Running | PartState::Launching) {
                if let Some(node) = part.node {
                    cancels.push((index as u32, node));
                }
                part.state = PartState::Unplaced;
                part.node = None;
            } else if part.state == PartState::Recovering {
                // Gang teardown abandons any in-flight replica fetch: the
                // rollback re-banks from the version high-water mark anyway.
                part.state = PartState::Unplaced;
                part.node = None;
            }
        }
        job.pending_cancels = cancels.len() as u32;
        let none_pending = cancels.is_empty();
        for (part, node) in cancels {
            let request_id = self.rpc_id();
            self.send_to_lrm(
                now,
                node,
                OP_CANCEL_PART,
                move |w| {
                    CancelPartRequest {
                        request_id,
                        job: job_id,
                        part,
                    }
                    .encode(w)
                },
                Pending::CancelPart { job: job_id },
                queue,
            );
        }
        if none_pending {
            self.finish_bsp_rollback(now, job_id, queue);
        }
    }

    fn finish_bsp_rollback(
        &mut self,
        now: SimTime,
        job_id: JobId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let step = job.bsp_step_work.max(1.0);
        let ckpt = if job.min_checkpoint.is_finite() {
            job.min_checkpoint
        } else {
            0.0
        };
        let steps_banked = (ckpt / step).floor();
        job.bsp_remaining_supersteps = (job.bsp_remaining_supersteps - steps_banked).max(0.0);
        job.min_checkpoint = f64::INFINITY;
        // Raise every part's banked version to the gang-wide high-water mark
        // so the relaunch's checkpoints supersede every replica on disk and
        // stale blobs can never be re-banked.
        let max_v = job.max_checkpoint_version;
        for part in &mut job.parts {
            part.banked_version = part.banked_version.max(max_v);
        }
        let attempt = job.attempts.max(1);
        self.log.record(
            now,
            "job.rollback",
            format!("{job_id} banked {steps_banked} supersteps"),
        );
        let backoff = self.reschedule_backoff(attempt);
        queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
    }

    fn handle_reply(
        &mut self,
        now: SimTime,
        at: HostId,
        request_id: u64,
        result: Result<Vec<u8>, integrade_orb::orb::RemoteError>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(entry) = self.pending.remove(&(at, request_id)) else {
            return;
        };
        let span = entry.span;
        let rtt_s = (now.as_micros().saturating_sub(entry.sent_at.as_micros())) as f64 / 1e6;
        match entry.what {
            Pending::Reserve { job, part, node } => {
                let reply = result
                    .ok()
                    .and_then(|b| ReserveReply::from_cdr_bytes(&b).ok())
                    .unwrap_or_else(|| ReserveReply::refused("transport error"));
                self.obs.negotiation_latency_s.observe(rtt_s);
                self.obs.spans.finish(
                    span,
                    if reply.granted {
                        SpanOutcome::Ok
                    } else {
                        SpanOutcome::Refused
                    },
                    now.as_micros(),
                );
                self.on_reserve_reply(now, job, part, node, reply, queue);
            }
            Pending::Launch { job, part, node } => {
                let reply = result
                    .ok()
                    .and_then(|b| LaunchReply::from_cdr_bytes(&b).ok())
                    .unwrap_or(LaunchReply {
                        accepted: false,
                        reason: "transport error".into(),
                    });
                self.obs.negotiation_latency_s.observe(rtt_s);
                self.obs.spans.finish(
                    span,
                    if reply.accepted {
                        SpanOutcome::Ok
                    } else {
                        SpanOutcome::Refused
                    },
                    now.as_micros(),
                );
                self.on_launch_reply(now, job, part, node, reply, queue);
            }
            Pending::CancelPart { job } => {
                let reply = result
                    .ok()
                    .and_then(|b| CancelPartReply::from_cdr_bytes(&b).ok())
                    .unwrap_or(CancelPartReply {
                        found: false,
                        checkpointed_work_mips_s: 0,
                        checkpoint_version: 0,
                        done_work_mips_s: 0,
                    });
                self.obs.spans.finish(
                    span,
                    if reply.found {
                        SpanOutcome::Ok
                    } else {
                        SpanOutcome::Refused
                    },
                    now.as_micros(),
                );
                self.on_cancel_reply(now, job, reply, queue);
            }
            Pending::UpdateAck { node, seq } => {
                // The ack window: an ack `request_timeout` or more late
                // counts as lost, and its entry (just removed) with it.
                if now < entry.sent_at + self.config.request_timeout {
                    self.on_update_ack(now, node, seq, result);
                }
            }
            Pending::StoreCkpt {
                origin,
                blob,
                replica,
                resends,
                rerepl,
            } => {
                let reply = result
                    .ok()
                    .and_then(|b| StoreCheckpointReply::from_cdr_bytes(&b).ok());
                self.obs.store_rtt_s.observe(rtt_s);
                self.obs.spans.finish(
                    span,
                    match &reply {
                        Some(r) if r.accepted => SpanOutcome::Ok,
                        _ => SpanOutcome::Refused,
                    },
                    now.as_micros(),
                );
                self.on_store_reply(
                    now, at, origin, blob, replica, resends, rerepl, reply, queue,
                );
            }
            Pending::FetchCkpt {
                job,
                part,
                dead_node,
                rest,
            } => {
                let reply = result
                    .ok()
                    .and_then(|b| FetchCheckpointReply::from_cdr_bytes(&b).ok());
                self.obs.spans.finish(
                    span,
                    match &reply {
                        Some(r) if r.found => SpanOutcome::Ok,
                        _ => SpanOutcome::Refused,
                    },
                    now.as_micros(),
                );
                self.on_recovery_fetch_reply(now, job, part, dead_node, rest, reply, queue);
            }
            Pending::RereplFetch {
                job,
                part,
                source,
                target,
            } => {
                let reply = result
                    .ok()
                    .and_then(|b| FetchCheckpointReply::from_cdr_bytes(&b).ok());
                self.obs.spans.finish(
                    span,
                    match &reply {
                        Some(r) if r.found => SpanOutcome::Ok,
                        _ => SpanOutcome::Refused,
                    },
                    now.as_micros(),
                );
                self.on_rerepl_fetch_reply(now, job, part, source, target, reply, queue);
            }
            Pending::TwinFetch { job, part, rest } => {
                let reply = result
                    .ok()
                    .and_then(|b| FetchCheckpointReply::from_cdr_bytes(&b).ok());
                self.obs.spans.finish(
                    span,
                    match &reply {
                        Some(r) if r.found => SpanOutcome::Ok,
                        _ => SpanOutcome::Refused,
                    },
                    now.as_micros(),
                );
                self.on_twin_fetch_reply(now, job, part, rest, reply, queue);
            }
            Pending::TwinReserve { job, part, node } => {
                let reply = result
                    .ok()
                    .and_then(|b| ReserveReply::from_cdr_bytes(&b).ok())
                    .unwrap_or_else(|| ReserveReply::refused("transport error"));
                self.obs.negotiation_latency_s.observe(rtt_s);
                self.obs.spans.finish(
                    span,
                    if reply.granted {
                        SpanOutcome::Ok
                    } else {
                        SpanOutcome::Refused
                    },
                    now.as_micros(),
                );
                self.on_twin_reserve_reply(now, job, part, node, reply, queue);
            }
            Pending::TwinLaunch { job, part, node } => {
                let reply = result
                    .ok()
                    .and_then(|b| LaunchReply::from_cdr_bytes(&b).ok())
                    .unwrap_or(LaunchReply {
                        accepted: false,
                        reason: "transport error".into(),
                    });
                self.obs.negotiation_latency_s.observe(rtt_s);
                self.obs.spans.finish(
                    span,
                    if reply.accepted {
                        SpanOutcome::Ok
                    } else {
                        SpanOutcome::Refused
                    },
                    now.as_micros(),
                );
                self.on_twin_launch_reply(now, job, part, node, reply, queue);
            }
            Pending::TwinCancel {
                job,
                part,
                node,
                credit,
            } => {
                let reply = result
                    .ok()
                    .and_then(|b| CancelPartReply::from_cdr_bytes(&b).ok())
                    .unwrap_or(CancelPartReply {
                        found: false,
                        checkpointed_work_mips_s: 0,
                        checkpoint_version: 0,
                        done_work_mips_s: 0,
                    });
                self.obs.spans.finish(
                    span,
                    if reply.found {
                        SpanOutcome::Ok
                    } else {
                        SpanOutcome::Refused
                    },
                    now.as_micros(),
                );
                self.on_twin_cancel_reply(now, job, part, node, credit, reply);
            }
        }
    }

    /// Processes a replica's answer to a checkpoint store. A corrupt nack
    /// (the frame or payload was damaged in flight) re-sends the same blob
    /// under a fresh request id — the retransmission layer only replays
    /// identical bytes, which would replay the damage's detection, not the
    /// data. Stale nacks and transport failures are dropped: the next
    /// interval's store supersedes this one.
    #[allow(clippy::too_many_arguments)]
    fn on_store_reply(
        &mut self,
        now: SimTime,
        at: HostId,
        origin: NodeId,
        blob: CheckpointBlob,
        replica: NodeId,
        resends: u32,
        rerepl: bool,
        reply: Option<StoreCheckpointReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if rerepl {
            self.rerepl_inflight.remove(&(blob.job, blob.part));
        }
        let Some(reply) = reply else {
            return; // replica unreachable; the next interval retries placement
        };
        if reply.accepted {
            self.log.record(
                now,
                if rerepl {
                    "repo.rereplicated"
                } else {
                    "repo.store"
                },
                format!(
                    "{} part {} v{} at {replica}",
                    blob.job, blob.part, blob.version
                ),
            );
            if rerepl {
                // The GRM performed this relay itself, so it can credit the
                // new holder immediately instead of waiting for the
                // replica's next status update to re-announce it.
                self.grm.replicas_mut().observe(
                    replica,
                    blob.job,
                    blob.part,
                    crate::repo::ReplicaInfo {
                        version: blob.version,
                        work_mips_s: blob.work_mips_s,
                    },
                );
            }
            return;
        }
        if reply.corrupt && resends < self.config.max_retransmits {
            self.log.record(
                now,
                "repo.resend",
                format!(
                    "{} part {} v{} to {replica}",
                    blob.job, blob.part, blob.version
                ),
            );
            if rerepl {
                self.rerepl_inflight.insert((blob.job, blob.part));
            }
            let req = StoreCheckpoint {
                request_id: self.rpc_id(),
                origin,
                blob: blob.clone(),
            };
            self.send_request_from(
                now,
                at,
                replica,
                OP_STORE_CKPT,
                move |w| req.encode(w),
                Pending::StoreCkpt {
                    origin,
                    blob,
                    replica,
                    resends: resends + 1,
                    rerepl,
                },
                0,
                queue,
            );
        }
        // A stale nack needs no action: the replica already holds a newer
        // version than the one we tried to write.
    }

    /// Processes the GRM's acknowledgement of a status update: retire the
    /// outcomes it piggybacked and watch the epoch for GRM restarts.
    fn on_update_ack(
        &mut self,
        now: SimTime,
        node: usize,
        seq: u64,
        result: Result<Vec<u8>, integrade_orb::orb::RemoteError>,
    ) {
        let Some(ack) = result.ok().and_then(|b| UpdateAck::from_cdr_bytes(&b).ok()) else {
            return; // lost ack: the next update re-piggybacks everything
        };
        let lrm = &mut self.nodes[node].lrm;
        lrm.acknowledge(ack.seq.min(seq));
        if lrm.observe_grm_epoch(ack.epoch) {
            self.log.record(
                now,
                "grm.epoch",
                format!("node {node} observed epoch {}", ack.epoch),
            );
        }
    }

    fn on_cancel_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        reply: CancelPartReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        if reply.found {
            job.min_checkpoint = job
                .min_checkpoint
                .min(reply.checkpointed_work_mips_s as f64);
            job.max_checkpoint_version = job.max_checkpoint_version.max(reply.checkpoint_version);
            job.record.wasted_work_mips_s += reply
                .done_work_mips_s
                .saturating_sub(reply.checkpointed_work_mips_s);
        }
        job.pending_cancels = job.pending_cancels.saturating_sub(1);
        if job.pending_cancels == 0 {
            self.finish_bsp_rollback(now, job_id, queue);
        }
    }

    /// Starts replica-based recovery for a part whose executor went silent:
    /// fetch the newest copy from the placement map's live holders, falling
    /// back across them on corruption or silence.
    fn begin_recovery(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        dead_node: NodeId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let holders = self.grm.replicas().holders(job_id, part_id);
        let candidates: Vec<NodeId> = holders
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| {
                // The map is rebuilt from wire data, so bound-check before
                // indexing: a damaged re-announce must not panic here.
                *n != dead_node
                    && (n.0 as usize) < self.node_hosts.len()
                    && self.net.topology().is_up(self.node_hosts[n.0 as usize])
            })
            .collect();
        self.obs.spans.event(
            SpanKind::Recovery,
            job_id.0,
            part_id,
            dead_node.0 as u64,
            now.as_micros(),
        );
        self.log.record(
            now,
            "repo.recover",
            format!(
                "{job_id} part {part_id}: {} candidate replicas",
                candidates.len()
            ),
        );
        self.try_next_replica(now, job_id, part_id, dead_node, candidates, queue);
    }

    /// Issues a recovery fetch to the next candidate holder, or concedes —
    /// restarting the part from its already-banked level — when none remain.
    fn try_next_replica(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        dead_node: NodeId,
        mut rest: Vec<NodeId>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if rest.is_empty() {
            self.finish_recovery(now, job_id, part_id, dead_node, None, queue);
            return;
        }
        let replica = rest.remove(0);
        let req = FetchCheckpoint {
            request_id: self.rpc_id(),
            job: job_id,
            part: part_id,
        };
        self.send_to_lrm(
            now,
            replica,
            OP_FETCH_CKPT,
            move |w| req.encode(w),
            Pending::FetchCkpt {
                job: job_id,
                part: part_id,
                dead_node,
                rest,
            },
            queue,
        );
    }

    /// Processes a holder's answer to a recovery fetch: accept only a blob
    /// whose digest matches and whose payload decodes as a real
    /// [`GlobalCheckpoint`] — anything else falls back to the next holder.
    #[allow(clippy::too_many_arguments)]
    fn on_recovery_fetch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        dead_node: NodeId,
        rest: Vec<NodeId>,
        reply: Option<FetchCheckpointReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if let Some(reply) = reply {
            if reply.found {
                let blob = reply.blob;
                if crc32(&blob.payload) == blob.digest
                    && GlobalCheckpoint::from_cdr_bytes(&blob.payload).is_ok()
                {
                    self.log.record(
                        now,
                        "repo.fetch",
                        format!("{job_id} part {part_id} v{}", blob.version),
                    );
                    self.finish_recovery(
                        now,
                        job_id,
                        part_id,
                        dead_node,
                        Some((blob.version, blob.work_mips_s)),
                        queue,
                    );
                    return;
                }
                // End-to-end integrity: the copy rotted on the holder's disk
                // or was damaged in flight. Try the next one.
                self.log.record(
                    now,
                    "corrupt_detected",
                    format!("{job_id} part {part_id} recovery fetch"),
                );
            }
        }
        self.try_next_replica(now, job_id, part_id, dead_node, rest, queue);
    }

    /// Concludes recovery by synthesizing an eviction that carries the
    /// recovered checkpoint (or the already-banked level when every replica
    /// failed); the common eviction path banks it version-gated and
    /// reschedules or tears down the gang as appropriate.
    fn finish_recovery(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        dead_node: NodeId,
        recovered: Option<(u64, u64)>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let banked = {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            let part = &job.parts[part_id as usize];
            if part.state != PartState::Recovering || part.node != Some(dead_node) {
                return; // abandoned by a gang teardown or GRM restart
            }
            part.banked_version
        };
        let (work, version) = match recovered {
            Some((v, w)) if v > banked => (w, v),
            _ => (0, banked),
        };
        if recovered.is_none() {
            self.log.record(
                now,
                "repo.recover_failed",
                format!("{job_id} part {part_id}"),
            );
        }
        // The GRM cannot know the dead executor's progress, but the
        // simulator recorded it at crash time: the wasted-work metric is
        // whatever ran past the recovered checkpoint.
        let lost = self
            .crash_progress
            .remove(&(job_id, part_id))
            .unwrap_or(0)
            .saturating_sub(work);
        let evicted = PartEvicted {
            job: job_id,
            part: part_id,
            node: dead_node,
            checkpointed_work_mips_s: work,
            checkpoint_version: version,
            lost_work_mips_s: lost,
        };
        self.on_part_evicted(now, &evicted, queue);
    }

    /// Processes the source holder's answer to a re-replication fetch: an
    /// intact blob is relayed to the chosen target as a store; anything
    /// else abandons this round (the next slot tick retries).
    #[allow(clippy::too_many_arguments)]
    fn on_rerepl_fetch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        source: NodeId,
        target: NodeId,
        reply: Option<FetchCheckpointReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(reply) = reply else {
            self.rerepl_inflight.remove(&(job_id, part_id));
            return;
        };
        if !reply.found {
            self.rerepl_inflight.remove(&(job_id, part_id));
            return;
        }
        let blob = reply.blob;
        if crc32(&blob.payload) != blob.digest
            || GlobalCheckpoint::from_cdr_bytes(&blob.payload).is_err()
        {
            self.log.record(
                now,
                "corrupt_detected",
                format!("{job_id} part {part_id} re-replication fetch"),
            );
            self.rerepl_inflight.remove(&(job_id, part_id));
            return;
        }
        let req = StoreCheckpoint {
            request_id: self.rpc_id(),
            origin: source,
            blob: blob.clone(),
        };
        let grm_host = self.grm_host;
        self.send_request_from(
            now,
            grm_host,
            target,
            OP_STORE_CKPT,
            move |w| req.encode(w),
            Pending::StoreCkpt {
                origin: source,
                blob,
                replica: target,
                resends: 0,
                rerepl: true,
            },
            0,
            queue,
        );
    }

    /// Progress-based straggler scan (the gray-failure detector). For each
    /// non-parallel job with at least three rated running parts, each
    /// part's observed rate (from the piggybacked progress reports) is
    /// compared against the job median: a part below
    /// `straggler_threshold × median` accumulates a strike, a part at or
    /// above it resets to zero. Only `straggler_strikes` *consecutive*
    /// slow rounds escalate to a speculative twin — the hysteresis that
    /// keeps one-off jitter (a lost update, a momentary owner burst) from
    /// triggering wasteful speculation, while a sustained gray failure
    /// (a derated CPU, a limping link) cannot hide.
    fn detect_stragglers(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let mut escalate: Vec<(JobId, u32)> = Vec::new();
        let mut mark_suspect: Vec<NodeId> = Vec::new();
        let mut clear_suspect: Vec<NodeId> = Vec::new();
        {
            let grm = &self.grm;
            let threshold = self.config.straggler_threshold;
            let strikes = self.config.straggler_strikes;
            for (job_id, job) in self.jobs.iter_mut() {
                if job.spec.kind.is_parallel() {
                    continue; // BSP gangs already rollback as a unit
                }
                if matches!(job.record.state, JobState::Completed | JobState::Failed) {
                    continue;
                }
                let mut rates: Vec<(usize, f64)> = Vec::new();
                for (i, part) in job.parts.iter().enumerate() {
                    if part.state != PartState::Running {
                        continue;
                    }
                    let Some(node) = part.node else { continue };
                    if let Some(rate) = grm.progress_rate(*job_id, i as u32, node) {
                        rates.push((i, rate));
                    }
                }
                if rates.len() < 3 {
                    continue; // a median of fewer parts is noise
                }
                let mut sorted: Vec<f64> = rates.iter().map(|(_, r)| *r).collect();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let median = sorted[sorted.len() / 2];
                if median <= 0.0 {
                    continue;
                }
                for (i, rate) in rates {
                    let part = &mut job.parts[i];
                    if rate < threshold * median {
                        part.slow_strikes += 1;
                        if let Some(node) = part.node {
                            mark_suspect.push(node);
                        }
                        if part.slow_strikes >= strikes && part.twin.is_none() {
                            part.slow_strikes = 0;
                            escalate.push((*job_id, i as u32));
                        }
                    } else {
                        part.slow_strikes = 0;
                        if let Some(node) = part.node {
                            clear_suspect.push(node);
                        }
                    }
                }
            }
        }
        for node in mark_suspect {
            self.suspect_nodes.insert(node);
        }
        for node in clear_suspect {
            self.suspect_nodes.remove(&node);
        }
        for (job_id, part_id) in escalate {
            self.obs.straggler_detected.inc();
            self.log.record(
                now,
                "straggler.detected",
                format!("{job_id} part {part_id}"),
            );
            self.begin_speculation(now, job_id, part_id, queue);
        }
    }

    /// Escalates a straggling part to speculative execution: fetch the
    /// newest banked checkpoint from a live replica holder (so the backup
    /// resumes from verified progress instead of zero), then reserve and
    /// launch a twin on a fresh trader candidate. The primary keeps
    /// running throughout — first copy to report `PartDone` wins.
    fn begin_speculation(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let primary = {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            let part = &job.parts[part_id as usize];
            if part.state != PartState::Running || part.twin.is_some() {
                return;
            }
            part.node
        };
        let Some(primary) = primary else { return };
        let holders = self.grm.replicas().holders(job_id, part_id);
        let replicas: Vec<NodeId> = holders
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| {
                // Rebuilt from wire data — bound-check before indexing.
                *n != primary
                    && (n.0 as usize) < self.node_hosts.len()
                    && self.net.topology().is_up(self.node_hosts[n.0 as usize])
            })
            .collect();
        {
            let job = self.jobs.get_mut(&job_id).expect("job exists");
            let part = &mut job.parts[part_id as usize];
            part.twin = Some(TwinRuntime {
                state: TwinState::Fetching,
                node: None,
                reservation: 0,
                candidates: Vec::new(),
                resume_work: 0.0,
                resume_version: part.banked_version,
            });
        }
        self.twin_try_next_replica(now, job_id, part_id, replicas, queue);
    }

    /// Issues the twin's checkpoint fetch to the next candidate holder, or
    /// moves on to the trader query — resuming from the banked level —
    /// when none remain.
    fn twin_try_next_replica(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        mut rest: Vec<NodeId>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if rest.is_empty() {
            self.twin_query_trader(now, job_id, part_id, queue);
            return;
        }
        let replica = rest.remove(0);
        let req = FetchCheckpoint {
            request_id: self.rpc_id(),
            job: job_id,
            part: part_id,
        };
        self.send_to_lrm(
            now,
            replica,
            OP_FETCH_CKPT,
            move |w| req.encode(w),
            Pending::TwinFetch {
                job: job_id,
                part: part_id,
                rest,
            },
            queue,
        );
    }

    /// Processes a holder's answer to a twin's checkpoint fetch: a
    /// digest-verified blob newer than the banked level becomes the twin's
    /// resume point; anything else falls back across the remaining
    /// holders, and exhaustion resumes from the banked level.
    fn on_twin_fetch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        rest: Vec<NodeId>,
        reply: Option<FetchCheckpointReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let fetching = self
            .jobs
            .get(&job_id)
            .and_then(|j| j.parts.get(part_id as usize))
            .is_some_and(|p| {
                p.twin
                    .as_ref()
                    .is_some_and(|t| t.state == TwinState::Fetching)
            });
        if !fetching {
            return; // the race settled while the fetch was in flight
        }
        if let Some(reply) = reply {
            if reply.found {
                let blob = reply.blob;
                if crc32(&blob.payload) == blob.digest
                    && GlobalCheckpoint::from_cdr_bytes(&blob.payload).is_ok()
                {
                    let job = self.jobs.get_mut(&job_id).expect("job exists");
                    let part = &mut job.parts[part_id as usize];
                    if blob.version > part.banked_version {
                        let twin = part.twin.as_mut().expect("twin exists");
                        twin.resume_work = blob.work_mips_s as f64;
                        twin.resume_version = blob.version;
                    }
                    self.log.record(
                        now,
                        "spec.fetch",
                        format!("{job_id} part {part_id} v{}", blob.version),
                    );
                    self.twin_query_trader(now, job_id, part_id, queue);
                    return;
                }
                self.log.record(
                    now,
                    "corrupt_detected",
                    format!("{job_id} part {part_id} twin fetch"),
                );
            }
        }
        self.twin_try_next_replica(now, job_id, part_id, rest, queue);
    }

    /// Re-queries the trader for the twin's placement, preferring nodes
    /// the usage-pattern predictor expects to stay idle, and excluding the
    /// straggling primary. The ranked list is stashed on the twin for
    /// refusal fallthrough — deliberately separate from the primary's
    /// negotiation round so the two candidate walks can never
    /// double-launch a part.
    fn twin_query_trader(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let (constraint, preference, spec_pref, primary) = {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            let part = &job.parts[part_id as usize];
            if part.twin.is_none() || part.state != PartState::Running {
                return;
            }
            (
                job.spec.requirements.to_constraint(),
                job.spec.preference.to_trader_preference(),
                job.spec.preference,
                part.node,
            )
        };
        let predictions = self.predictions_for_scheduling(now);
        let candidates = self
            .grm
            .candidates(
                &constraint,
                preference,
                self.config.max_candidates,
                &predictions,
            )
            .unwrap_or_default();
        let ranked = rank(&candidates, self.config.strategy, spec_pref, &mut self.rng);
        // A gray-failed host advertises full static capacity, so the trader
        // cannot tell it from a healthy one — but the detector's strike
        // evidence can. Never place a twin on the primary or on any node
        // currently under suspicion, or the backup inherits the slowness
        // the speculation was meant to escape. Nodes already hosting a twin
        // are excluded too: the trader ranks from the same status snapshot
        // for every query in a slot, so two simultaneous escalations would
        // otherwise stack their backups on the one best-ranked node and
        // split its CPU between the very races both need to win.
        let twin_hosts: BTreeSet<NodeId> = self
            .jobs
            .values()
            .flat_map(|j| j.parts.iter())
            .filter_map(|p| p.twin.as_ref().and_then(|t| t.node))
            .collect();
        let nodes: Vec<NodeId> = ranked
            .into_iter()
            .map(|c| c.node)
            .filter(|n| {
                Some(*n) != primary && !self.suspect_nodes.contains(n) && !twin_hosts.contains(n)
            })
            .collect();
        if nodes.is_empty() {
            self.clear_twin(now, job_id, part_id, "no candidates");
            return;
        }
        {
            let job = self.jobs.get_mut(&job_id).expect("job exists");
            let twin = job.parts[part_id as usize].twin.as_mut().expect("twin");
            twin.candidates = nodes;
        }
        self.twin_reserve_next(now, job_id, part_id, queue);
    }

    /// Sends the twin's reservation to its next untried candidate, or
    /// stands the speculation down when the list is exhausted (the
    /// detector will re-escalate if the part is still slow).
    fn twin_reserve_next(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        queue: &mut EventQueue<GridEvent>,
    ) {
        // Other parts' twins may have claimed nodes since this part's
        // candidate list was ranked; skip those or a refusal walk would
        // stack two backups on one host after all.
        let other_twin_hosts: BTreeSet<NodeId> = self
            .jobs
            .iter()
            .flat_map(|(jid, j)| j.parts.iter().enumerate().map(move |(i, p)| (jid, i, p)))
            .filter(|(jid, i, _)| !(**jid == job_id && *i == part_id as usize))
            .filter_map(|(_, _, p)| p.twin.as_ref().and_then(|t| t.node))
            .collect();
        let send = {
            let Some(job) = self.jobs.get_mut(&job_id) else {
                return;
            };
            let ram = job.spec.requirements.min_ram_mb.max(16);
            let Some(part) = job.parts.get_mut(part_id as usize) else {
                return;
            };
            let hint = ((part.remaining / 100.0) as u64).clamp(300, 3600);
            let Some(twin) = part.twin.as_mut() else {
                return;
            };
            twin.candidates.retain(|n| !other_twin_hosts.contains(n));
            if twin.candidates.is_empty() {
                None
            } else {
                let node = twin.candidates.remove(0);
                twin.state = TwinState::Reserving;
                twin.node = Some(node);
                Some((
                    node,
                    ReserveRequest {
                        request_id: 0, // assigned below, outside the borrow
                        job: job_id,
                        part: part_id,
                        ram_mb: ram,
                        min_cpu_fraction: 0.05,
                        duration_hint_s: hint,
                    },
                ))
            }
        };
        match send {
            Some((node, mut req)) => {
                req.request_id = self.rpc_id();
                self.send_to_lrm(
                    now,
                    node,
                    OP_RESERVE,
                    move |w| req.encode(w),
                    Pending::TwinReserve {
                        job: job_id,
                        part: part_id,
                        node,
                    },
                    queue,
                );
            }
            None => self.clear_twin(now, job_id, part_id, "candidates exhausted"),
        }
    }

    /// Processes an LRM's answer to a twin reservation. A grant launches
    /// the backup from the fetched resume point with a zero checkpoint
    /// interval — the twin never forks the primary's checkpoint lineage,
    /// so `banked_version` monotonicity is preserved no matter who wins. A
    /// refusal walks the twin's own candidate list. A grant that arrives
    /// after the race settled releases the orphaned lease.
    fn on_twin_reserve_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        node: NodeId,
        reply: ReserveReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        enum Next {
            Launch(LaunchRequest),
            Retry,
            Orphaned,
        }
        let next = {
            let tracked = self
                .jobs
                .get_mut(&job_id)
                .and_then(|j| j.parts.get_mut(part_id as usize))
                .filter(|p| {
                    p.twin
                        .as_ref()
                        .is_some_and(|t| t.state == TwinState::Reserving && t.node == Some(node))
                });
            match tracked {
                Some(part) => {
                    if reply.granted {
                        let twin = part.twin.as_mut().expect("twin exists");
                        twin.reservation = reply.reservation;
                        twin.state = TwinState::Launching;
                        let work = (part.remaining - twin.resume_work).max(1.0) as u64;
                        Next::Launch(LaunchRequest {
                            request_id: 0, // assigned below, outside the borrow
                            reservation: reply.reservation,
                            job: job_id,
                            part: part_id,
                            work_mips_s: work,
                            checkpoint_interval_mips_s: 0.0,
                            state_bytes: self.config.checkpoint_state_bytes,
                            resume_version: twin.resume_version,
                            replicas: Vec::new(),
                        })
                    } else {
                        let twin = part.twin.as_mut().expect("twin exists");
                        twin.node = None;
                        Next::Retry
                    }
                }
                None if reply.granted => Next::Orphaned,
                None => return,
            }
        };
        match next {
            Next::Launch(mut req) => {
                req.request_id = self.rpc_id();
                self.send_to_lrm(
                    now,
                    node,
                    OP_LAUNCH,
                    move |w| req.encode(w),
                    Pending::TwinLaunch {
                        job: job_id,
                        part: part_id,
                        node,
                    },
                    queue,
                );
            }
            Next::Retry => {
                self.log.record(
                    now,
                    "spec.refused",
                    format!("{job_id} part {part_id} by {node}"),
                );
                self.twin_reserve_next(now, job_id, part_id, queue);
            }
            Next::Orphaned => {
                // The race settled while the reserve was in flight: release
                // the lease instead of letting it expire on the LRM.
                let reservation = reply.reservation;
                self.send_oneway_to_lrm(
                    now,
                    node,
                    crate::protocol::OP_CANCEL,
                    move |w| reservation.encode(w),
                    queue,
                );
            }
        }
    }

    /// Processes an LRM's answer to a twin launch. Acceptance puts the
    /// backup in the race; a refusal stands the speculation down (the
    /// detector re-escalates if the part stays slow). An acceptance that
    /// arrives after the race settled tears the orphan back down — an
    /// untracked copy must never be left computing.
    fn on_twin_launch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        node: NodeId,
        reply: LaunchReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        enum Outcome {
            Racing,
            StoodDown,
            Orphaned,
        }
        let outcome = {
            let tracked = self
                .jobs
                .get_mut(&job_id)
                .and_then(|j| j.parts.get_mut(part_id as usize))
                .and_then(|p| p.twin.as_mut())
                .filter(|t| t.state == TwinState::Launching && t.node == Some(node));
            match tracked {
                Some(twin) => {
                    if reply.accepted {
                        twin.state = TwinState::Running;
                        Outcome::Racing
                    } else {
                        Outcome::StoodDown
                    }
                }
                None if reply.accepted => Outcome::Orphaned,
                None => return,
            }
        };
        match outcome {
            Outcome::Racing => {
                self.obs.spec_launched.inc();
                self.log.record(
                    now,
                    "spec.launched",
                    format!("{job_id} part {part_id} on {node}"),
                );
            }
            Outcome::StoodDown => {
                self.clear_twin(now, job_id, part_id, "launch refused");
            }
            Outcome::Orphaned => {
                let request_id = self.rpc_id();
                self.send_to_lrm(
                    now,
                    node,
                    OP_CANCEL_PART,
                    move |w| {
                        CancelPartRequest {
                            request_id,
                            job: job_id,
                            part: part_id,
                        }
                        .encode(w)
                    },
                    Pending::TwinCancel {
                        job: job_id,
                        part: part_id,
                        node,
                        credit: 0,
                    },
                    queue,
                );
            }
        }
    }

    /// Processes the loser's cancel reply after a settled speculation
    /// race, charging the progress the winner's lineage did not cover as
    /// wasted speculative work. A `found: false` reply means the loser
    /// already stopped on its own (crash, eviction, or it finished and
    /// lost the `PartDone` dedup) — nothing further to account.
    fn on_twin_cancel_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        node: NodeId,
        credit: u64,
        reply: CancelPartReply,
    ) {
        if !reply.found {
            return;
        }
        let wasted = reply.done_work_mips_s.saturating_sub(credit);
        self.obs.spec_wasted_mips_s.add(wasted);
        self.overhead.spec_wasted_mips_s += wasted as f64;
        if let Some(job) = self.jobs.get_mut(&job_id) {
            job.record.wasted_work_mips_s += wasted;
        }
        self.log.record(
            now,
            "spec.wasted",
            format!("{job_id} part {part_id}: {wasted} MIPS-s at {node}"),
        );
    }

    /// Stands a speculation down without any wire traffic — used when the
    /// twin never reached a node (no candidates, refusals) or its target
    /// died first. In-flight twin replies detect the missing runtime and
    /// clean up after themselves.
    fn clear_twin(&mut self, now: SimTime, job_id: JobId, part_id: u32, why: &str) {
        if let Some(part) = self
            .jobs
            .get_mut(&job_id)
            .and_then(|j| j.parts.get_mut(part_id as usize))
        {
            if part.twin.take().is_some() {
                self.log.record(
                    now,
                    "spec.standdown",
                    format!("{job_id} part {part_id}: {why}"),
                );
            }
        }
    }

    /// Runs one round of the scheduling pipeline for a job.
    fn schedule_job(&mut self, now: SimTime, job_id: JobId, queue: &mut EventQueue<GridEvent>) {
        let Some(job) = self.jobs.get(&job_id) else {
            return;
        };
        if matches!(job.record.state, JobState::Completed | JobState::Failed) {
            return;
        }
        if job.pending_cancels > 0 || job.pending_reservations > 0 {
            return; // still negotiating / tearing down
        }
        let unplaced: Vec<u32> = job
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state == PartState::Unplaced)
            .map(|(i, _)| i as u32)
            .collect();
        if unplaced.is_empty() {
            return;
        }
        let constraint = job.spec.requirements.to_constraint();
        let preference = job.spec.preference.to_trader_preference();
        let is_bsp = job.spec.kind.is_parallel();
        let topology_request = job.spec.topology.clone();
        let strategy = self.config.strategy;
        let spec_pref = job.spec.preference;

        // 1. Trader query (the GRM's stale hint).
        let predictions = self.predictions_for_scheduling(now);
        let candidates = self.grm.candidates(
            &constraint,
            preference,
            self.config.max_candidates,
            &predictions,
        );
        let candidates = match candidates {
            Ok(c) => c,
            Err(e) => {
                self.log.record(now, "grm.query_error", e.to_string());
                Vec::new()
            }
        };
        self.obs.trader_depth.observe(candidates.len() as f64);
        // 2. Strategy ranking.
        let ranked = rank(&candidates, strategy, spec_pref, &mut self.rng);
        // 3. Topology-aware group placement when requested.
        let ranked = if let Some(request) = &topology_request {
            match place_groups(self.net.topology_mut(), &ranked, request) {
                Ok(placement) => placement.groups.into_iter().flatten().collect(),
                Err(e) => {
                    self.log.record(now, "grm.topology_unsat", e.to_string());
                    Vec::new()
                }
            }
        } else {
            ranked
        };

        let job = self.jobs.get_mut(&job_id).expect("job exists");
        if ranked.len() < if is_bsp { job.parts.len() } else { 1 } {
            job.attempts += 1;
            let attempts = job.attempts;
            if attempts >= self.config.max_attempts {
                job.record.state = JobState::Failed;
                self.log
                    .record(now, "job.failed", format!("{job_id}: no candidates"));
            } else {
                job.record.state = JobState::Queued;
                let backoff = self.reschedule_backoff(attempts);
                queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
            }
            return;
        }
        job.candidates = ranked;
        job.granted.clear();
        job.record.state = JobState::Negotiating;

        // 4. Direct negotiation: BSP reserves the whole gang up front; other
        // kinds negotiate one node per unplaced part, round-robin over
        // candidates. The duration hint sizes the LRM-side reservation
        // lease, so derive it from the part's remaining work where known.
        let ram = job.spec.requirements.min_ram_mb.max(16);
        let mut sends: Vec<(u32, NodeId, u64)> = Vec::new();
        if is_bsp {
            for (i, part) in unplaced.iter().enumerate() {
                let candidate = &job.candidates[i];
                sends.push((*part, candidate.node, 600));
            }
        } else {
            for (i, part) in unplaced.iter().enumerate() {
                // Certification: nodes that already voted on this part must
                // not execute it again — a saboteur agreeing with itself is
                // not independent evidence. Walk the ranking from the
                // round-robin position until a non-voter appears; a part
                // with no eligible candidate waits for a later round.
                let voters = self.cert_votes.get(&(job_id, *part));
                let len = job.candidates.len();
                let Some(candidate) = (0..len)
                    .map(|k| &job.candidates[(i + k) % len])
                    .find(|c| voters.is_none_or(|v| v.iter().all(|(voter, _)| *voter != c.node)))
                else {
                    continue;
                };
                let hint = ((job.parts[*part as usize].remaining / 100.0) as u64).clamp(300, 3600);
                sends.push((*part, candidate.node, hint));
            }
            if sends.is_empty() {
                // Every candidate has already voted on every unplaced part:
                // back off and retry when the trader can offer fresh nodes.
                job.attempts += 1;
                let attempts = job.attempts;
                if attempts >= self.config.max_attempts {
                    job.record.state = JobState::Failed;
                    self.log.record(
                        now,
                        "job.failed",
                        format!("{job_id}: no unvoted candidates"),
                    );
                } else {
                    job.record.state = JobState::Queued;
                    let backoff = self.reschedule_backoff(attempts);
                    queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
                }
                return;
            }
        }
        job.pending_reservations = sends.len() as u32;
        job.next_candidate = sends.len().min(job.candidates.len());
        for (part, node, _) in &sends {
            let p = &mut job.parts[*part as usize];
            p.state = PartState::Reserving;
            p.node = Some(*node);
        }
        let sends_owned = sends;
        for (part, node, duration_hint_s) in sends_owned {
            let request_id = self.rpc_id();
            let req = ReserveRequest {
                request_id,
                job: job_id,
                part,
                ram_mb: ram,
                min_cpu_fraction: 0.05,
                duration_hint_s,
            };
            self.send_to_lrm(
                now,
                node,
                OP_RESERVE,
                move |w| req.encode(w),
                Pending::Reserve {
                    job: job_id,
                    part,
                    node,
                },
                queue,
            );
        }
    }

    /// GUPA predictions for every node, used by the pattern-aware ranking.
    fn predictions_for_scheduling(&mut self, now: SimTime) -> BTreeMap<NodeId, f64> {
        if self.config.strategy != Strategy::PatternAware {
            return BTreeMap::new();
        }
        // Predictions read each LRM's partial-day window and the GUPA's
        // uploaded periods — state the lazy walk defers for idle
        // nodes — so flush everyone before ranking.
        self.flush_catch_up();
        let (_, weekday, minute) = wall_at(now);
        let slots_per_day = SamplingConfig::default().slots_per_day();
        let mut out = BTreeMap::new();
        let mut loads = Vec::new();
        for (i, local) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            if let Some(p) = self.gupa.predict_idle(
                node,
                weekday,
                minute,
                local.lrm.lupa_window().partial_day(),
                slots_per_day,
                self.config.prediction_horizon_mins,
                &mut loads,
            ) {
                out.insert(node, p);
            }
        }
        out
    }

    fn on_reserve_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part: u32,
        node: NodeId,
        reply: ReserveReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        // Phase 1: bookkeeping under the job borrow; collect any launch or
        // failover reserve to send afterwards (sending needs `&mut self`).
        let mut launch: Option<(LaunchRequest, NodeId)> = None;
        let mut failover: Option<(ReserveRequest, NodeId)> = None;
        let round_done = {
            let Some(job) = self.jobs.get_mut(&job_id) else {
                return;
            };
            job.pending_reservations = job.pending_reservations.saturating_sub(1);
            let is_bsp = job.spec.kind.is_parallel();
            if reply.granted {
                job.granted.push((part, node, reply.reservation));
                if !is_bsp {
                    // Launch immediately: independent parts need no gang.
                    let work = job.parts[part as usize].remaining.max(1.0) as u64;
                    job.parts[part as usize].state = PartState::Launching;
                    job.parts[part as usize].reservation = reply.reservation;
                    let interval = self.config.sequential_checkpoint_mips_s;
                    let replicas = if interval > 0.0 {
                        self.grm
                            .choose_replicas(node, self.config.replication_factor)
                    } else {
                        Vec::new()
                    };
                    launch = Some((
                        LaunchRequest {
                            request_id: 0, // assigned below, outside the borrow
                            reservation: reply.reservation,
                            job: job_id,
                            part,
                            work_mips_s: work,
                            checkpoint_interval_mips_s: interval,
                            state_bytes: self.config.checkpoint_state_bytes,
                            resume_version: job.parts[part as usize].banked_version,
                            replicas,
                        },
                        node,
                    ));
                }
            } else {
                job.record.negotiation_refusals += 1;
                job.parts[part as usize].state = PartState::Unplaced;
                job.parts[part as usize].node = None;
                self.log.record(
                    now,
                    "grm.refused",
                    format!("{job_id} part {part} by {node}: {}", reply.reason),
                );
                // The paper's failover: try the next candidate from this
                // round's ranked list before giving up (BSP gangs instead
                // retry as a unit in finish_reservation_round).
                if self.config.candidate_failover
                    && !is_bsp
                    && job.next_candidate < job.candidates.len()
                {
                    let next = job.candidates[job.next_candidate].node;
                    job.next_candidate += 1;
                    job.pending_reservations += 1;
                    job.parts[part as usize].state = PartState::Reserving;
                    job.parts[part as usize].node = Some(next);
                    failover = Some((
                        ReserveRequest {
                            request_id: 0, // assigned below, outside the borrow
                            job: job_id,
                            part,
                            ram_mb: job.spec.requirements.min_ram_mb.max(16),
                            min_cpu_fraction: 0.05,
                            duration_hint_s: ((job.parts[part as usize].remaining / 100.0) as u64)
                                .clamp(300, 3600),
                        },
                        next,
                    ));
                }
            }
            job.pending_reservations == 0
        };
        if let Some((mut req, target)) = failover {
            req.request_id = self.rpc_id();
            let failover_part = req.part;
            self.send_to_lrm(
                now,
                target,
                OP_RESERVE,
                move |w| req.encode(w),
                Pending::Reserve {
                    job: job_id,
                    part: failover_part,
                    node: target,
                },
                queue,
            );
        }
        if let Some((mut req, target)) = launch {
            req.request_id = self.rpc_id();
            let launch_part = req.part;
            self.send_to_lrm(
                now,
                target,
                OP_LAUNCH,
                move |w| req.encode(w),
                Pending::Launch {
                    job: job_id,
                    part: launch_part,
                    node: target,
                },
                queue,
            );
        }
        if round_done {
            self.finish_reservation_round(now, job_id, queue);
        }
    }

    /// Completes one reservation round: launches a full BSP gang, or retries
    /// refused parts.
    fn finish_reservation_round(
        &mut self,
        now: SimTime,
        job_id: JobId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        enum Outcome {
            LaunchGang,
            /// Release granted reservations; retry after backoff when the
            /// attempt count is `Some`.
            ReleaseAndMaybeRetry(Vec<(u32, NodeId, u64)>, Option<u32>),
            RetryStragglers(u32),
            Nothing,
        }
        let outcome = {
            let Some(job) = self.jobs.get_mut(&job_id) else {
                return;
            };
            let is_bsp = job.spec.kind.is_parallel();
            if is_bsp {
                if job.granted.len() == job.parts.len() {
                    Outcome::LaunchGang
                } else {
                    // Release what we got and retry the whole gang.
                    let granted = std::mem::take(&mut job.granted);
                    for (part, _, _) in &granted {
                        job.parts[*part as usize].state = PartState::Unplaced;
                        job.parts[*part as usize].node = None;
                    }
                    job.attempts += 1;
                    if job.attempts >= self.config.max_attempts {
                        job.record.state = JobState::Failed;
                        self.log
                            .record(now, "job.failed", format!("{job_id}: gang refused"));
                        Outcome::ReleaseAndMaybeRetry(granted, None)
                    } else {
                        job.record.state = JobState::Queued;
                        Outcome::ReleaseAndMaybeRetry(granted, Some(job.attempts))
                    }
                }
            } else if job.parts.iter().any(|p| p.state == PartState::Unplaced) {
                job.attempts += 1;
                if job.attempts >= self.config.max_attempts
                    && job.parts.iter().all(|p| p.state == PartState::Unplaced)
                {
                    job.record.state = JobState::Failed;
                    self.log
                        .record(now, "job.failed", format!("{job_id}: refusals"));
                    Outcome::Nothing
                } else {
                    Outcome::RetryStragglers(job.attempts)
                }
            } else {
                Outcome::Nothing
            }
        };
        match outcome {
            Outcome::LaunchGang => self.launch_bsp_gang(now, job_id, queue),
            Outcome::ReleaseAndMaybeRetry(granted, retry) => {
                for (_, node, reservation) in granted {
                    self.send_oneway_to_lrm(
                        now,
                        node,
                        crate::protocol::OP_CANCEL,
                        |w| reservation.encode(w),
                        queue,
                    );
                }
                if let Some(attempts) = retry {
                    let backoff = self.reschedule_backoff(attempts);
                    queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
                }
            }
            Outcome::RetryStragglers(attempts) => {
                let backoff = self.reschedule_backoff(attempts);
                queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
            }
            Outcome::Nothing => {}
        }
    }

    fn launch_bsp_gang(&mut self, now: SimTime, job_id: JobId, queue: &mut EventQueue<GridEvent>) {
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        let JobKind::Bsp {
            work_per_superstep_mips_s,
            bytes_per_superstep,
            checkpoint_every,
            state_bytes,
            ..
        } = job.spec.kind
        else {
            return;
        };
        // Superstep surcharge from the placement's worst path (BSP cost
        // model: w + g·h + l converted into MIPS-s at the slowest node).
        let granted = std::mem::take(&mut job.granted);
        let min_mips = granted
            .iter()
            .map(|(_, node, _)| self.nodes[node.0 as usize].lrm.resources.cpu_mips)
            .min()
            .unwrap_or(500);
        let hosts: Vec<CandidateNode> = granted
            .iter()
            .filter_map(|(_, node, _)| job.candidates.iter().find(|c| c.node == *node).cloned())
            .collect();
        let worst = crate::scheduler::worst_path(self.net.topology_mut(), &hosts)
            .unwrap_or_else(integrade_simnet::topology::PathQuality::loopback);
        let comm_seconds = worst.transfer_time(bytes_per_superstep).as_secs_f64()
            + 2.0 * worst.latency.as_secs_f64();
        let comm_mips_s = comm_seconds * min_mips as f64;
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        job.bsp_step_work = work_per_superstep_mips_s as f64 + comm_mips_s;
        let work = (job.bsp_remaining_supersteps * job.bsp_step_work).max(1.0) as u64;
        let ckpt_interval = if checkpoint_every == 0 {
            0.0
        } else {
            checkpoint_every as f64 * job.bsp_step_work
        };
        let launches: Vec<(u32, NodeId, u64)> = granted;
        for (part, _, reservation) in &launches {
            job.parts[*part as usize].state = PartState::Launching;
            job.parts[*part as usize].reservation = *reservation;
        }
        self.log.record(
            now,
            "job.gang_launch",
            format!(
                "{job_id} on {} nodes, step work {:.0}",
                launches.len(),
                job.bsp_step_work
            ),
        );
        // A relaunch after eviction ships the migrated checkpoint state to
        // each new node — the machine-independent snapshot the §3 model
        // exists to make movable, costed as bulk payload on the wire.
        let migration_bytes = if job.record.evictions > 0 {
            state_bytes
        } else {
            0
        };
        let launch_meta: Vec<(u32, NodeId, u64, u64)> = launches
            .iter()
            .map(|(part, node, reservation)| {
                (
                    *part,
                    *node,
                    *reservation,
                    job.parts[*part as usize].banked_version,
                )
            })
            .collect();
        for (part, node, reservation, resume_version) in launch_meta {
            let replicas = if ckpt_interval > 0.0 {
                self.grm
                    .choose_replicas(node, self.config.replication_factor)
            } else {
                Vec::new()
            };
            let req = LaunchRequest {
                request_id: self.rpc_id(),
                reservation,
                job: job_id,
                part,
                work_mips_s: work,
                checkpoint_interval_mips_s: ckpt_interval,
                state_bytes,
                resume_version,
                replicas,
            };
            self.send_to_lrm_with_payload(
                now,
                node,
                OP_LAUNCH,
                move |w| req.encode(w),
                Pending::Launch {
                    job: job_id,
                    part,
                    node,
                },
                migration_bytes,
                queue,
            );
        }
    }

    fn on_launch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part: u32,
        node: NodeId,
        reply: LaunchReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        if reply.accepted {
            job.parts[part as usize].state = PartState::Running;
            job.attempts = 0;
            if job.record.started_at.is_none() {
                job.record.started_at = Some(now);
            }
            if job.record.state != JobState::Running {
                job.record.state = JobState::Running;
            }
            self.log.record(
                now,
                "job.part_started",
                format!("{job_id} part {part} on {node}"),
            );
        } else {
            job.record.negotiation_refusals += 1;
            job.parts[part as usize].state = PartState::Unplaced;
            job.parts[part as usize].node = None;
            let attempt = job.attempts.max(1);
            let backoff = self.reschedule_backoff(attempt);
            queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
        }
    }

    fn slot_tick(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        // Clone shares the accumulators; the local keeps the timing guard's
        // borrow off `self` so the walk below can take `&mut self`.
        let profiler = self.obs.profiler.clone();
        let _walk = profiler.enter(Phase::SlotWalk);
        self.obs.queue_depth.observe(queue.len() as f64);
        self.obs.active_nodes.set(self.active.len() as f64);
        self.slots_elapsed += 1;
        match self.config.tick_mode {
            TickMode::Reference => {
                for i in 0..self.nodes.len() {
                    let effects = tick_node_local(
                        &self.config,
                        &mut self.nodes[i],
                        &mut self.shard_rngs[0],
                        i,
                        now,
                        self.slots_elapsed,
                    );
                    self.apply_node_effects(now, effects, queue);
                }
            }
            TickMode::Sharded { .. } => self.lazy_slot_walk(now, queue),
        }
        self.detect_crashed_nodes(now, queue);
        if self.config.speculation {
            self.detect_stragglers(now, queue);
        }
        self.rereplicate(now, queue);
        queue.schedule_after(self.config.tick, GridEvent::SlotTick);
    }

    /// Applies one node's queued slot-tick effects to the shared world:
    /// metrics, log records, outcome stash+send, checkpoint stores, GUPA
    /// uploads and the activity refresh. The lazy walk calls this at the
    /// frame boundary in ascending node order; called with the effects
    /// `tick_node_local` just produced (the reference walk) it is the eager
    /// per-node body.
    fn apply_node_effects(
        &mut self,
        now: SimTime,
        effects: NodeTickEffects,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let i = effects.node;
        self.obs.lease_expired.add(effects.expired as u64);
        for _ in 0..effects.expired {
            self.log
                .record_indexed(now, "lease.expired", "node ", i as u64);
        }
        // Outcomes go out as best-effort oneways, but are also stashed
        // until the GRM acknowledges an update that piggybacked them —
        // at-least-once delivery even when the oneway is lost or the
        // GRM crashes with the notice in flight.
        for done in effects.completed {
            let digest = self.nodes[i].lrm.result_digest(now, done.job, done.part);
            let msg = PartDone {
                job: done.job,
                part: done.part,
                node: NodeId(i as u32),
                digest,
            };
            self.nodes[i].lrm.stash_done(msg);
            self.send_to_grm(now, i, OP_PART_DONE, move |w| msg.encode(w), queue);
        }
        for evicted in effects.evictions {
            self.nodes[i].lrm.stash_evicted(evicted);
            self.send_to_grm(now, i, OP_PART_EVICTED, move |w| evicted.encode(w), queue);
        }
        // Interval boundary crossed: write the checkpoint's real bytes
        // to every replica the launch designated.
        for due in effects.dues {
            self.store_checkpoint(now, NodeId(i as u32), due, queue);
        }
        // LUPA uploads (completed day periods go to the GUPA). The lazy
        // walk's effects arrive with this empty — the shard digested it.
        if !effects.tick_upload.is_empty() {
            let profiler = self.obs.profiler.clone();
            let _digest = profiler.enter(Phase::GupaDigest);
            self.gupa.upload(NodeId(i as u32), effects.tick_upload);
        }
        self.refresh_activity(i);
    }

    /// One slot frame of the lazy walk ([`TickMode::Sharded`]). Only engaged
    /// nodes can complete work, hit checkpoint boundaries, expire leases or
    /// evict parts, so only the active set is visited; every other node's
    /// slot work is deferred to catch-up replay. The population is cut into
    /// contiguous node-id ranges balanced by active-set occupancy
    /// ([`occupancy_ranges`]); each shard runs its members' catch-up + slot
    /// bodies — including the LUPA measurement jitter from the shard's own
    /// stream and the GUPA digestion of every upload its members produced —
    /// against its own slices of the node and GUPA cell tables
    /// (`for_each_shard`: shard 0 inline, the rest on scoped threads); then
    /// the queued effects are merged in (shard-id, seq) order — which,
    /// because shards are contiguous ranges, is exactly the ascending node
    /// order the reference walk uses. Only the per-shard upload counts and
    /// the effect outboxes cross the merge; the expensive work (replay,
    /// retrain) stays on the shards.
    fn lazy_slot_walk(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let members: Vec<usize> = self.active.iter().copied().collect();
        let slot = self.slots_elapsed;
        let n = self.nodes.len();
        let profiler = self.obs.profiler.clone();
        // Frame-boundary rebalance: place the range cuts so each shard
        // carries a near-equal share of this frame's active members.
        let ranges = {
            let _rebalance = profiler.enter(Phase::ShardRebalance);
            occupancy_ranges(n, self.shard_rngs.len(), &members)
        };
        // Ascending member list → per-shard sublists at range bounds.
        let mut groups: Vec<&[usize]> = Vec::with_capacity(ranges.len());
        let mut rest: &[usize] = &members;
        for range in &ranges {
            let (group, tail) = rest.split_at(rest.partition_point(|&i| i < range.end));
            groups.push(group);
            rest = tail;
        }
        let occ_max = groups.iter().map(|g| g.len()).max().unwrap_or(0);
        self.obs.shard_occ_max.set(occ_max as f64);
        self.obs
            .shard_occ_mean
            .set(members.len() as f64 / ranges.len().max(1) as f64);
        let frames = {
            let _shard = profiler.enter(Phase::ShardWalk);
            let (config, gupa_config) = (&self.config, self.gupa.config());
            // One stream per configured worker; `occupancy_ranges` may
            // produce fewer shards than that (tiny populations), never more.
            for_each_shard(
                &ranges,
                &mut self.nodes,
                self.gupa.cells_mut(n),
                &mut self.shard_rngs,
                |shard| {
                    let members = groups[shard.index];
                    shard.tick(config, gupa_config, members, now, slot)
                },
            )
        };
        let merge_started = std::time::Instant::now();
        let _merge = profiler.enter(Phase::ShardMerge);
        let mut effect_count = 0;
        for (effects, digested) in frames {
            // Fold the shards' partial upload counts in ascending shard order.
            self.gupa.add_uploads(digested);
            effect_count += effects.len() as u64;
            for node_effects in effects {
                self.apply_node_effects(now, node_effects, queue);
            }
        }
        self.obs.shard_frames.inc();
        self.obs.shard_effects.add(effect_count);
        self.obs
            .shard_stall_ns
            .add(merge_started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Serializes and ships one due checkpoint from its executing node to
    /// every designated replica LRM as a digest-carrying [`CheckpointBlob`].
    fn store_checkpoint(
        &mut self,
        now: SimTime,
        origin: NodeId,
        due: DueCheckpoint,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let payload = checkpoint_payload(
            due.job,
            due.part,
            due.version,
            due.work_mips_s,
            due.state_bytes,
        );
        let blob = CheckpointBlob {
            job: due.job,
            part: due.part,
            version: due.version,
            work_mips_s: due.work_mips_s,
            digest: crc32(&payload),
            payload: payload.into(),
        };
        let from = self.node_hosts[origin.0 as usize];
        for replica in due.replicas {
            if replica.0 as usize >= self.node_hosts.len() {
                continue; // replica list arrived damaged in the launch frame
            }
            let req = StoreCheckpoint {
                request_id: self.rpc_id(),
                origin,
                blob: blob.clone(),
            };
            let pending_blob = blob.clone();
            self.send_request_from(
                now,
                from,
                replica,
                OP_STORE_CKPT,
                move |w| req.encode(w),
                Pending::StoreCkpt {
                    origin,
                    blob: pending_blob,
                    replica,
                    resends: 0,
                    rerepl: false,
                },
                0,
                queue,
            );
        }
    }

    /// Background re-replication: when a running part's live replica count
    /// has fallen below the configured factor (a holder died), the GRM
    /// relays the newest intact copy from a surviving holder to a fresh
    /// node, restoring the replication factor without touching the
    /// executor.
    fn rereplicate(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let k = self.config.replication_factor;
        if k == 0 {
            return;
        }
        let mut relays: Vec<(JobId, u32, NodeId, NodeId)> = Vec::new();
        {
            let grm = &self.grm;
            for (job_id, job) in &self.jobs {
                for (index, part) in job.parts.iter().enumerate() {
                    if part.state != PartState::Running {
                        continue;
                    }
                    let Some(exec) = part.node else { continue };
                    if self.rerepl_inflight.contains(&(*job_id, index as u32)) {
                        continue; // one relay per part at a time
                    }
                    let holders = grm.replicas().holders(*job_id, index as u32);
                    let live: Vec<NodeId> = holders
                        .iter()
                        .map(|(n, _)| *n)
                        .filter(|n| {
                            (n.0 as usize) < self.node_hosts.len()
                                && self.net.topology().is_up(self.node_hosts[n.0 as usize])
                        })
                        .collect();
                    // No live copy at all: nothing to relay from — the next
                    // interval's store from the executor repopulates.
                    if live.is_empty() || live.len() >= k {
                        continue;
                    }
                    let holder_set: BTreeSet<NodeId> = live.iter().copied().collect();
                    let Some(target) = grm
                        .choose_replicas(exec, self.nodes.len())
                        .into_iter()
                        .find(|n| {
                            !holder_set.contains(n)
                                && self.net.topology().is_up(self.node_hosts[n.0 as usize])
                        })
                    else {
                        continue;
                    };
                    // holders() is newest-first: relay the freshest copy.
                    relays.push((*job_id, index as u32, live[0], target));
                }
            }
        }
        for (job, part, source, target) in relays {
            self.rerepl_inflight.insert((job, part));
            self.log.record(
                now,
                "repo.rerepl_start",
                format!("{job} part {part}: {source} -> {target}"),
            );
            let req = FetchCheckpoint {
                request_id: self.rpc_id(),
                job,
                part,
            };
            self.send_to_lrm(
                now,
                source,
                OP_FETCH_CKPT,
                move |w| req.encode(w),
                Pending::RereplFetch {
                    job,
                    part,
                    source,
                    target,
                },
                queue,
            );
        }
    }

    /// GRM-side crash detection: a node silent past `crash_silence` is
    /// declared dead; parts it hosted are recovered from the checkpoint
    /// repository as synthetic evictions ("resume the application in case
    /// of crashes", §3).
    fn detect_crashed_nodes(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        if now.as_micros() < self.config.crash_silence.as_micros() {
            return; // grace period at start-up
        }
        let silent = self.grm.silent_nodes(now, self.config.crash_silence);
        for node in silent {
            self.grm.mark_unavailable(node);
            self.log.record(now, "grm.node_dead", format!("{node}"));
            // A dead node's pending certification votes are discarded: like
            // the update-seq gate reset in `mark_unavailable`, every claim
            // the node made dies with it — a restarted incarnation must
            // re-earn its say by executing the part again.
            for votes in self.cert_votes.values_mut() {
                votes.retain(|(voter, _)| *voter != node);
            }
            // Speculative twins on the dead node die quietly — the primary
            // is still running, so no recovery is needed; the backup's lost
            // progress is wasted speculative work.
            let mut dead_twins: Vec<(JobId, u32)> = Vec::new();
            // A dead *primary* whose twin is already racing promotes the
            // twin instead of recovering: the backup held the newest
            // verified state when it launched and has been running since.
            let mut promotions: Vec<(JobId, u32)> = Vec::new();
            // Everything else on the dead node switches to Recovering
            // while a digest-verified replica fetch is in flight; the
            // fetch's outcome feeds the common eviction path.
            let mut to_recover: Vec<(JobId, u32)> = Vec::new();
            for (job_id, job) in &mut self.jobs {
                for (index, part) in job.parts.iter_mut().enumerate() {
                    if part.node != Some(node)
                        && part.twin.as_ref().is_some_and(|t| t.node == Some(node))
                    {
                        part.twin = None;
                        dead_twins.push((*job_id, index as u32));
                    } else if part.node == Some(node)
                        && matches!(part.state, PartState::Running | PartState::Launching)
                    {
                        if part
                            .twin
                            .as_ref()
                            .is_some_and(|t| t.state == TwinState::Running && t.node.is_some())
                        {
                            promotions.push((*job_id, index as u32));
                        } else {
                            part.state = PartState::Recovering;
                            to_recover.push((*job_id, index as u32));
                        }
                    }
                }
            }
            for (job_id, part_id) in dead_twins {
                let lost = self.crash_progress.remove(&(job_id, part_id)).unwrap_or(0);
                self.obs.spec_wasted_mips_s.add(lost);
                self.overhead.spec_wasted_mips_s += lost as f64;
                if let Some(job) = self.jobs.get_mut(&job_id) {
                    job.record.wasted_work_mips_s += lost;
                }
                self.log.record(
                    now,
                    "spec.standdown",
                    format!("{job_id} part {part_id}: backup {node} died"),
                );
            }
            for (job_id, part_id) in promotions {
                let job = self.jobs.get_mut(&job_id).expect("job exists");
                let part = &mut job.parts[part_id as usize];
                let twin = part.twin.take().expect("twin exists");
                part.node = twin.node;
                part.reservation = twin.reservation;
                part.state = PartState::Running;
                job.record.evictions += 1;
                // The dead primary's progress beyond the checkpoint the
                // twin resumed from is lost work.
                let lost = self
                    .crash_progress
                    .remove(&(job_id, part_id))
                    .unwrap_or(0)
                    .saturating_sub(twin.resume_work as u64);
                job.record.wasted_work_mips_s += lost;
                self.log.record(
                    now,
                    "spec.promoted",
                    format!(
                        "{job_id} part {part_id} continues on {}",
                        twin.node.expect("checked above")
                    ),
                );
            }
            for (job_id, part_id) in to_recover {
                self.begin_recovery(now, job_id, part_id, node, queue);
            }
        }
    }

    fn update_tick(&mut self, now: SimTime, node: usize, queue: &mut EventQueue<GridEvent>) {
        // The reported status derives from the owner observations the lazy
        // walk defers — replay them before asking for an update.
        self.catch_up_node(node, self.slots_elapsed);
        let config = self.config.lrm;
        let lrm = &mut self.nodes[node].lrm;
        let update = lrm.next_update(&config);
        let sent = update.is_some();
        if let Some((seq, status)) = update {
            // The update travels as a request so the GRM's ack (carrying
            // its epoch) can retire piggybacked outcomes and reveal
            // restarts. It is never retransmitted: the next periodic
            // update supersedes it.
            let (pending_done, pending_evicted) = lrm.piggyback_for(seq);
            let msg = StatusUpdate {
                node: NodeId(node as u32),
                seq,
                status,
                replicas: lrm.replica_reports(),
                pending_done,
                pending_evicted,
                progress: lrm.progress_reports(),
            };
            let from = self.node_hosts[node];
            let mut out = self.pooled_buf();
            let target = &self.grm_ior;
            let orb = self.orbs.get_mut(from).expect("lrm orb");
            let request_id =
                orb.make_request_into(target, OP_UPDATE_STATUS, move |w| msg.encode(w), &mut out);
            let bytes = self.protect(out);
            // No timer guards the ack: one that arrives `request_timeout`
            // or more after its update is ignored (`handle_reply`), and the
            // entries such acks leave behind are swept here, by the same
            // node's next send, so `pending` stays bounded whatever the
            // ratio of update period to timeout.
            let request_timeout = self.config.request_timeout;
            let expired: Vec<(HostId, u64)> = self
                .pending
                .range((from, 0)..(from, request_id))
                .filter(|(_, e)| {
                    matches!(e.what, Pending::UpdateAck { .. })
                        && now >= e.sent_at + request_timeout
                })
                .map(|(key, _)| *key)
                .collect();
            for key in expired {
                self.pending.remove(&key);
            }
            let grm_host = self.grm_host;
            if self.transmit(now, from, grm_host, bytes, 0, queue) {
                self.pending.insert(
                    (from, request_id),
                    PendingEntry {
                        what: Pending::UpdateAck { node, seq },
                        dest: grm_host,
                        wire: Vec::new(), // never retransmitted
                        extra_bytes: 0,
                        attempt: 0,
                        sent_at: now,
                        span: 0, // status updates are not traced
                    },
                );
            } else {
                // Nothing left the host, so no ack can come back.
                self.log
                    .record_indexed(now, "drops", "update from ", node as u64);
            }
        }
        if self.config.tick_mode != TickMode::Reference
            && !sent
            && self.static_status[node]
            && !self.nodes[node].lrm.is_engaged()
        {
            // Traceless node on an always-available schedule, nothing
            // running, reserved or stored, and the update was just
            // suppressed: until a frame next reaches this node every future
            // timer firing would suppress too. Park the timer instead of
            // rescheduling it; `handle_wire` resumes it at the next grid
            // point when a delivery could change the node's status.
            self.update_parked[node] = true;
        } else {
            queue.schedule_after(config.update_period, GridEvent::UpdateTick { node });
        }
    }
}

/// Builds the serialized state a checkpoint replica stores: a real
/// [`GlobalCheckpoint`] whose single process state records the part's
/// identity and progress and is zero-padded to `state_bytes`, so the blob
/// has the configured on-disk size and recovery can decode and
/// digest-verify actual bytes end to end.
fn checkpoint_payload(
    job: JobId,
    part: u32,
    version: u64,
    work_mips_s: u64,
    state_bytes: u64,
) -> Vec<u8> {
    let mut w = CdrWriter::new();
    w.write_u64(job.0);
    w.write_u32(part);
    w.write_u64(version);
    w.write_u64(work_mips_s);
    let mut state = w.into_bytes();
    if (state.len() as u64) < state_bytes {
        state.resize(state_bytes as usize, 0);
    }
    GlobalCheckpoint {
        superstep: version,
        halted: false,
        proc_states: vec![state],
        inboxes: vec![Vec::new()],
    }
    .to_cdr_bytes()
}

impl World for GridWorld {
    type Event = GridEvent;

    fn handle(&mut self, now: SimTime, event: GridEvent, queue: &mut EventQueue<GridEvent>) {
        match event {
            GridEvent::Wire { from, to, bytes } => self.handle_wire(now, from, to, bytes, queue),
            GridEvent::SlotTick => self.slot_tick(now, queue),
            GridEvent::UpdateTick { node } => self.update_tick(now, node, queue),
            GridEvent::Schedule { job } => self.schedule_job(now, job, queue),
            GridEvent::Submit { spec } => {
                self.admit_job(*spec, now, queue);
            }
            GridEvent::SubmitAs { id, spec } => {
                self.admit_job_as(id, *spec, now, queue);
            }
            GridEvent::RequestTimeout { from, request_id } => {
                self.on_request_timeout(now, from, request_id, queue);
            }
            GridEvent::HostFault { host, up } => {
                if up {
                    self.restore_host(now, host, queue);
                } else {
                    self.crash_host(now, host);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid(strategy: Strategy) -> Grid {
        let config = GridConfig {
            strategy,
            gupa_warmup_days: 0,
            ..Default::default()
        };
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..4).map(|_| NodeSetup::idle_desktop()).collect());
        builder.build()
    }

    #[test]
    fn sequential_job_completes() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        // 1500 MIPS-s on a 500 MIPS node at 30% cap = 10 s of CPU... but
        // progress advances per 5-min tick, so it completes on the first
        // tick after launch.
        let job = grid.submit(JobSpec::sequential("hello", 1500));
        grid.run_until(SimTime::from_secs(3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "{record:?}");
        assert!(record.makespan().unwrap() <= SimDuration::from_mins(10));
        assert_eq!(record.parts_done, 1);
    }

    #[test]
    fn protocol_messages_flow_through_the_network() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        grid.submit(JobSpec::sequential("hello", 1500));
        grid.run_until(SimTime::from_secs(600));
        let report = grid.report();
        // Info updates + reserve + launch + done at minimum.
        assert!(report.net.messages > 10, "messages={}", report.net.messages);
        assert!(report.updates.accepted > 0);
        assert!(report.trader_queries >= 1);
    }

    #[test]
    fn bag_of_tasks_distributes_across_nodes() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        let job = grid.submit(JobSpec::bag_of_tasks("bag", 8, 90_000));
        grid.run_until(SimTime::from_secs(4 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "{record:?}");
        assert_eq!(record.parts_done, 8);
    }

    #[test]
    fn bsp_job_completes_on_gang() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        let job = grid.submit(JobSpec::bsp("bsp", 3, 20, 3000, 10_000));
        grid.run_until(SimTime::from_secs(8 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "{record:?}");
        assert_eq!(record.parts_done, 3);
    }

    #[test]
    fn oversized_bsp_job_fails_cleanly() {
        let config = GridConfig {
            gupa_warmup_days: 0,
            max_attempts: 4,
            ..Default::default()
        };
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..4).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        let job = grid.submit(JobSpec::bsp("too-big", 10, 5, 100, 100)); // only 4 nodes
        grid.run_until(SimTime::from_secs(4 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Failed);
    }

    /// A trace where the owner is busy 09:00–18:00 every weekday.
    fn office_trace() -> Vec<UsageSample> {
        let slots_per_day = 288;
        let mut trace = Vec::with_capacity(slots_per_day * 7);
        for day in 0..7u64 {
            let weekday = Weekday::from_day_number(day);
            for slot in 0..slots_per_day {
                let hour = slot as f64 * 24.0 / slots_per_day as f64;
                let busy = !weekday.is_weekend() && (9.0..18.0).contains(&hour);
                trace.push(if busy {
                    UsageSample::new(0.8, 0.5, 0.1, 0.05)
                } else {
                    UsageSample::new(0.02, 0.05, 0.0, 0.0)
                });
            }
        }
        trace
    }

    #[test]
    fn owner_return_evicts_and_reschedules() {
        let config = GridConfig {
            gupa_warmup_days: 0,
            ..Default::default()
        };
        let mut builder = GridBuilder::new(config);
        // One office-hours node plus one always-idle node.
        let office = NodeSetup {
            trace: office_trace(),
            ..NodeSetup::idle_desktop()
        };
        builder.add_cluster(vec![office, NodeSetup::idle_desktop()]);
        let mut grid = builder.build();
        // Start the run at Monday 08:30: the office node is idle but the
        // owner arrives at 09:00. The preference (fastest CPU) ties, so the
        // first-ranked node may be the office node; a long job submitted now
        // gets evicted there and must migrate.
        let job = grid.submit(JobSpec::sequential("long", 3_000_000)); // ~5.5h at 150 MIPS
        grid.run_until(SimTime::from_secs(26 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "{record:?}");
        let report = grid.report();
        // The QoS invariant: the grid never exceeded the NCC caps.
        assert_eq!(report.qos.cap_violations, 0);
        assert_eq!(report.qos.mean_slowdown(), 1.0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut grid = small_grid(Strategy::Random);
            grid.submit(JobSpec::bag_of_tasks("bag", 6, 200_000));
            grid.run_until(SimTime::from_secs(6 * 3600));
            let report = grid.report();
            (
                report.net.messages,
                report.records[0].state,
                report.records[0].completed_at,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gupa_trains_during_long_runs() {
        let config = GridConfig {
            gupa_warmup_days: 0,
            ..Default::default()
        };
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(vec![NodeSetup {
            trace: office_trace(),
            ..NodeSetup::idle_desktop()
        }]);
        let mut grid = builder.build();
        grid.run_until(SimTime::from_secs(8 * 86_400));
        let report = grid.report();
        assert_eq!(report.gupa_models, 1, "a week of history trains the model");
    }

    #[test]
    fn warmup_gives_models_at_start() {
        let config = GridConfig {
            gupa_warmup_days: 14,
            strategy: Strategy::PatternAware,
            ..Default::default()
        };
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(vec![
            NodeSetup {
                trace: office_trace(),
                ..NodeSetup::idle_desktop()
            },
            NodeSetup {
                trace: office_trace(),
                ..NodeSetup::idle_desktop()
            },
        ]);
        let mut grid = builder.build();
        let report = grid.report();
        assert_eq!(report.gupa_models, 2);
        // And scheduling still works under the pattern-aware strategy.
        let job = grid.submit(JobSpec::sequential("s", 1500));
        grid.run_until(SimTime::from_secs(3600));
        assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
    }

    #[test]
    fn monitoring_log_orders_lifecycle() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        grid.submit(JobSpec::sequential("hello", 1500));
        grid.run_until(SimTime::from_secs(3600));
        let log = grid.log();
        assert!(log.happens_before("asct.submit", "job.part_started"));
        assert!(log.happens_before("job.part_started", "job.completed"));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_grid_panics() {
        GridBuilder::new(GridConfig::default()).build();
    }

    /// [`small_grid`] with another update period.
    fn small_grid_updating_every(period: SimDuration) -> Grid {
        let mut config = GridConfig {
            gupa_warmup_days: 0,
            ..Default::default()
        };
        config.lrm.update_period = period;
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..4).map(|_| NodeSetup::idle_desktop()).collect());
        builder.build()
    }

    /// A four-node grid whose node↔manager links each add `one_way` of
    /// latency from t = 100 s on: after the first updates were acknowledged
    /// and a job submitted at zero was placed, before its part finishes at
    /// the 300 s slot tick. Updates go out every 60 s, longer than either
    /// round trip below, so a late ack still finds its entry: only the ack
    /// window can turn it away, not the next send's sweep.
    fn limping_grid(one_way: SimDuration) -> Grid {
        use integrade_simnet::faults::LinkLimp;
        let mut grid = small_grid_updating_every(SimDuration::from_secs(60));
        let mut plan = FaultPlan::new(1);
        for node in 0..grid.node_count() as u32 {
            plan = plan.with_limp(LinkLimp {
                a: grid.host_of(NodeId(node)),
                b: grid.manager_host(),
                added_latency: one_way,
                start: SimTime::from_secs(100),
                end: SimTime::MAX,
            });
        }
        grid.set_fault_plan(plan);
        grid
    }

    /// Round trips of 40 s and 20 s against the default 30 s timeout.
    const LATE: SimDuration = SimDuration::from_secs(20);
    const IN_TIME: SimDuration = SimDuration::from_secs(10);

    #[test]
    fn acks_later_than_the_request_timeout_retire_nothing() {
        let unacked_after_a_job = |one_way| {
            let mut grid = limping_grid(one_way);
            let job = grid.submit(JobSpec::sequential("s", 1500));
            grid.run_until(SimTime::from_secs(900));
            assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
            (0..grid.node_count() as u32)
                .map(|n| grid.lrm(NodeId(n)).unwrap().unacked_outcomes())
                .sum::<usize>()
        };
        assert_eq!(unacked_after_a_job(IN_TIME), 0, "a slow ack still counts");
        assert_eq!(
            unacked_after_a_job(LATE),
            1,
            "the completion notice rides on every update, never retired"
        );
    }

    #[test]
    fn acks_later_than_the_request_timeout_leave_the_epoch_unobserved() {
        let observations = |one_way| {
            let mut grid = limping_grid(one_way);
            grid.run_until(SimTime::from_secs(200));
            grid.crash_grm();
            grid.run_until(SimTime::from_secs(260));
            grid.restart_grm();
            grid.run_until(SimTime::from_secs(600));
            assert_eq!(grid.grm_epoch(), 2);
            grid.log()
                .records()
                .iter()
                .filter(|r| r.category == "grm.epoch" && r.detail.contains("observed"))
                .count()
        };
        assert_eq!(observations(IN_TIME), 4, "every node sees the restart");
        assert_eq!(observations(LATE), 0);
    }

    #[test]
    fn the_ack_window_closes_exactly_at_the_request_timeout() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        let timeout = grid.world.config.request_timeout;
        let host = grid.host_of(NodeId(0));
        let sent_at = SimTime::from_secs(5);
        grid.world.nodes[0].lrm.observe_grm_epoch(1);
        // Delivers an ack announcing a new `epoch` for an update sent at
        // `sent_at`; returns how many epoch changes node 0 has logged.
        let mut ack_at = |request_id: u64, epoch: u64, at: SimTime| {
            grid.world.pending.insert(
                (host, request_id),
                PendingEntry {
                    what: Pending::UpdateAck { node: 0, seq: 1 },
                    dest: grid.world.grm_host,
                    wire: Vec::new(),
                    extra_bytes: 0,
                    attempt: 0,
                    sent_at,
                    span: 0,
                },
            );
            let ack = UpdateAck { epoch, seq: 1 }.to_cdr_bytes();
            grid.world
                .handle_reply(at, host, request_id, Ok(ack), &mut grid.queue);
            assert!(
                !grid.world.pending.contains_key(&(host, request_id)),
                "an ack consumes its entry, late or not"
            );
            grid.log().count("grm.epoch")
        };
        let closes = sent_at + timeout;
        let just_inside = SimTime::from_micros(closes.as_micros() - 1);
        assert_eq!(ack_at(900, 2, just_inside), 1);
        // At the closing instant the per-update timer used to fire first
        // (it was scheduled before the ack's frame) and drop the entry.
        assert_eq!(ack_at(901, 3, closes), 1, "the window is half-open");
        assert_eq!(ack_at(902, 3, closes + SimDuration::from_secs(9)), 1);
    }

    #[test]
    fn an_update_that_never_left_its_host_leaves_no_pending_entry() {
        let mut grid = small_grid(Strategy::AvailabilityOnly);
        grid.set_fault_plan(FaultPlan::new(5).with_drop_probability(1.0));
        grid.run_until(SimTime::from_secs(100));
        assert!(grid.log().count("drops") >= 12, "4 nodes, 3+ rounds");
        assert!(grid.world.pending.is_empty());
        assert_eq!(grid.report().updates.accepted, 0);
    }

    #[test]
    fn pending_acks_stay_bounded_for_periods_below_and_above_the_timeout() {
        for period_s in [10, 75] {
            let build = || small_grid_updating_every(SimDuration::from_secs(period_s));
            // Fault-free, every ack is back within a millisecond: between
            // rounds nothing is pending.
            let mut grid = build();
            grid.run_until(SimTime::from_secs(399));
            assert!(grid.world.pending.is_empty(), "period {period_s} s");
            assert!(grid.report().updates.accepted >= 4 * (399 / period_s));
            // With acks being lost, an entry waits for its node's next send
            // to sweep it: never more than one timeout's worth per node.
            let mut grid = build();
            grid.set_fault_plan(FaultPlan::new(9).with_drop_probability(0.4));
            let per_node = grid
                .world
                .config
                .request_timeout
                .as_micros()
                .div_ceil(SimDuration::from_secs(period_s).as_micros());
            let mut most = 0;
            for t in (50..=1500).step_by(50) {
                grid.run_until(SimTime::from_secs(t));
                most = most.max(grid.world.pending.len());
                assert!(
                    grid.world.pending.len() as u64 <= 4 * per_node,
                    "period {period_s} s at {t} s: {} pending",
                    grid.world.pending.len()
                );
            }
            assert!(most > 0, "no ack was lost: the bound was never tested");
        }
    }
}
