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
//!
//! The `impl GridWorld` is cut along the protocol's seams, one child module
//! each (children see every private field, and share this file's imports
//! through `use super::*`): `wire` is the request / reply / timeout
//! plumbing, `negotiate` the trader query → reserve → launch → gang path,
//! `outcome` what a `PartDone` / `PartEvicted` means (certification
//! included), `repo_flow` checkpoint stores, the single verified-fetch
//! walk, recovery and re-replication, `speculate` the straggler detector
//! and the twin's decisions, `faults` host crashes and GRM restart
//! reconciliation, `ticking` the slot walk, lazy catch-up and the update
//! timer.

mod faults;
mod negotiate;
mod outcome;
mod repo_flow;
mod speculate;
#[cfg(test)]
mod tests;
mod ticking;
mod wire;

use crate::asct::{JobRecord, JobSpec, JobState};
use crate::grm::{GrmState, NodeRegistration, UpdateStats};
use crate::gupa::GupaState;
use crate::lrm::{LrmConfig, LrmState};
use crate::ncc::{SharingPolicy, WeeklySchedule};
use crate::observe::GridObs;
use crate::protocol::{GRM_OBJECT_KEY, LRM_OBJECT_KEY};
use crate::qos::{OverheadLedger, QosLedger};
use crate::scheduler::{CandidateNode, Strategy};
use crate::tick::{NodeLocal, TraceInterner};
use crate::types::{JobId, NodeId, NodeRoles, Platform, ResourceVector};
use integrade_obs::metrics::MetricsSnapshot;
use integrade_obs::profile::ProfileReport;
use integrade_obs::span::{Span, SpanTree};
use integrade_orb::cdr::CdrEncode;
use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
use integrade_orb::orb::Orb;
use integrade_simnet::event::{run_until_profiled, EventQueue, RunOutcome, World};
use integrade_simnet::faults::{scheduled_draw, FaultPlan};
use integrade_simnet::idmap::IdMap;
use integrade_simnet::net::{NetStats, Network};
use integrade_simnet::rng::{streams, DetRng};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::{ClusterTag, HostId, LinkSpec, Topology};
use integrade_simnet::trace::TraceLog;
use integrade_usage::patterns::LupaConfig;
use integrade_usage::sample::UsageSample;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use wire::{AwaitedAck, FetchWhy, Pending, PendingEntry, Role, Waste};

/// How `slot_tick` walks the node population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// The original O(all nodes)-per-tick loop, kept as the oracle the lazy
    /// walk is checked against (see `tests/tick_parity.rs`).
    Reference,
    /// The lazy walk — the engine. Per-slot work runs only for nodes in the
    /// *active set*: nodes running grid parts, holding reservations or
    /// checkpoint replicas, or with outcome notices awaiting
    /// acknowledgement. Idle nodes' owner sampling, QoS accounting and LUPA
    /// accumulation are replayed lazily (bulk-advanced) the moment their
    /// state is next needed, and the information-update timers of
    /// disengaged always-idle nodes are parked until a frame next reaches
    /// them. A frame runs its members' node-local bodies in ascending node
    /// order, then applies their effects — messages, event-queue inserts,
    /// log records — in that order. The report flush replays every deferred
    /// node on every core the host has (`tick::Flush`).
    ///
    /// # Determinism contract
    ///
    /// A run is bit-for-bit reproducible from its seed, whatever the host's
    /// core count, and observably identical to [`Self::Reference`]:
    /// messages, event logs, reports and the learned patterns. That holds
    /// with [`GridConfig::lupa_noise`] on too: a sample's jitter is keyed by
    /// the seed, the node and the slot, not drawn from a stream, so the lazy
    /// walk (node by node) and the reference walk (slot by slot) measure
    /// every sample alike.
    Lazy,
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
    /// Maximum candidates fetched per trader query.
    pub max_candidates: usize,
    /// Scheduling attempts before a job fails.
    pub max_attempts: u32,
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
    /// How the per-slot node loop is driven (the lazy walk, or the
    /// exhaustive reference walk).
    pub tick_mode: TickMode,
    /// Enables the straggler detector and speculative re-execution of
    /// lagging parts (gray-failure mitigation). Off by default: every
    /// existing scenario replays bit-for-bit unchanged.
    pub speculation: bool,
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
    /// default) perturbs nothing: every pre-existing scenario replays
    /// bit-for-bit. When positive, every slot observation perturbs the
    /// *measured* CPU and memory components by a jitter each, a pure hash of
    /// the seed, the node, the slot and the component salted with
    /// [`streams::LUPA_JITTER`], before the sample enters the LUPA window —
    /// modelling real sensor noise. The true owner sample still drives
    /// eviction, QoS accounting and status updates, so only the learned
    /// patterns move; see [`TickMode::Lazy`] for the full contract.
    pub lupa_noise: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            seed: 0x1A7E_67AD,
            tick: SimDuration::from_mins(5),
            lrm: LrmConfig::default(),
            strategy: Strategy::AvailabilityOnly,
            max_candidates: 64,
            max_attempts: 200,
            sequential_checkpoint_mips_s: 0.0,
            gupa_warmup_days: 14,
            candidate_failover: true,
            crash_silence: SimDuration::from_secs(120),
            cluster_key: None,
            max_retransmits: 4,
            replication_factor: 2,
            tick_mode: TickMode::Lazy,
            speculation: false,
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
    /// Per-node state the slot walk owns and the report flush splits into
    /// chunks: LRM, QoS ledger, tick cursor, owner trace (index =
    /// `NodeId.0`).
    nodes: Vec<NodeLocal>,
    lrm_iors: Vec<Ior>,
    node_hosts: Vec<HostId>,
    grm: GrmState,
    grm_host: HostId,
    /// Every up/down transition of `grm_host`, in the order they happened,
    /// stamped with the event time: one entry per manager crash or restart.
    /// [`Grid::grm_up_at`] answers from it for instants already run past.
    grm_transitions: Vec<(SimTime, bool)>,
    grm_ior: Ior,
    gupa: GupaState,
    jobs: BTreeMap<JobId, JobExec>,
    /// In-flight requests keyed by (issuing host, orb request id) — orb ids
    /// are only unique per orb, and both the GRM and the LRMs issue
    /// requests now.
    pending: BTreeMap<(HostId, u64), PendingEntry>,
    /// Per node, its status updates still inside their ack window, oldest
    /// first: the update path's replies, kept out of `pending`.
    update_acks: Vec<Vec<AwaitedAck>>,
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
    /// Threads the report flush may run on: the host's available
    /// parallelism, read once at build. It decides how fast a flush runs,
    /// never what it computes (`flush_catch_up`).
    flush_workers: usize,
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
    /// ([`TickMode::Lazy`]), only for statically idle disengaged nodes
    /// whose updates are suppressed; cleared (and the timer resumed) when a
    /// frame next reaches the node.
    update_parked: Vec<bool>,
    /// Precomputed per node: the node has no owner trace and an
    /// always-available sharing schedule, so its status can only change
    /// through message delivery — the precondition for parking its timer.
    static_status: Vec<bool>,
    /// Scratch buffers recycled between encode→frame→transmit cycles so a
    /// request frame allocates nothing in the steady state (a reply frame
    /// is the ORB's own `Vec`; delivered, it joins the pool too).
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

// A federation advances its member grids on worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Grid>();
};

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
        // Experiments hand many nodes copies of a few traces; interning makes
        // each distinct history one buffer and one warm-up digest.
        let mut traces = TraceInterner::default();

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
                nodes.push(NodeLocal::new(lrm, traces.intern(setup.trace)));
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
        let mut world = GridWorld {
            rng: DetRng::with_stream(config.seed, streams::GRID_WORLD),
            retry_rng: DetRng::with_stream(config.seed, streams::RETRY),
            flush_workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            gupa: GupaState::new(LupaConfig::default()),
            net: Network::new(topo),
            orbs,
            nodes,
            lrm_iors,
            node_hosts,
            grm,
            grm_host,
            grm_transitions: Vec::new(),
            grm_ior,
            jobs: BTreeMap::new(),
            pending: BTreeMap::new(),
            update_acks: vec![Vec::new(); n_nodes],
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

    /// What [`Grid::grm_up`] said when every event at or before `at` had
    /// fired and none after it, for a grid that has since run past `at`:
    /// the manager host's state after its last transition at or before
    /// `at`. A federation reads this when a status message arrives at a
    /// member it has already advanced beyond the arrival.
    pub(crate) fn grm_up_at(&self, at: SimTime) -> bool {
        self.world
            .grm_transitions
            .iter()
            .rev()
            .find(|&&(t, _)| t <= at)
            .is_none_or(|&(_, up)| up)
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
        let mut histogram = crate::hierarchy::AvailabilityHistogram::default();
        for p in self.world.idle_predictions(self.queue.now()).into_values() {
            histogram.observe(p);
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
    /// history, upload counter. The parity tests use this to pin the
    /// jittered histories and to show that jitter moves nothing else.
    pub fn gupa(&self) -> &GupaState {
        &self.world.gupa
    }
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
