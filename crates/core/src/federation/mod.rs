//! Federation: multiple InteGrade clusters under one wide-area hierarchy.
//!
//! The paper's wide-area story (\[MK02\], §4): each cluster runs its own GRM;
//! clusters arrange "in a hierarchy, allowing a single InteGrade grid to
//! encompass millions of machines", with GRMs exchanging aggregated
//! information and forwarding requests they cannot satisfy locally.
//!
//! A [`Federation`] owns one [`Grid`] per member cluster plus a
//! [`ClusterHierarchy`], built through the validating [`Federation::builder`]
//! fluent API. Three wide-area concerns are modelled as real protocol
//! traffic on a shared virtual timeline:
//!
//! - **Linked traders** ([`RoutingPolicy::LinkedTraders`], the default):
//!   every hierarchy edge is mirrored as a pair of CORBA trading-service
//!   federation links. A submission the origin's live offer set cannot
//!   satisfy spills over the links breadth-first — each probed cluster is
//!   asked for its *current* trader matches via a
//!   [`FedQuery`](crate::protocol::FedQuery) /
//!   [`FedQueryReply`](crate::protocol::FedQueryReply) exchange that pays
//!   per-link WAN latency and counts against a hop budget.
//! - **Hierarchical GUPA aggregation**: on the update-period cadence each
//!   cluster distils its GUPA usage-pattern models into a
//!   [`UsageSummary`](crate::hierarchy::UsageSummary) (exporting counts plus
//!   a predicted-availability histogram) and, under
//!   [`RoutingPolicy::HierarchySummaries`], reports it one edge up the tree
//!   as a [`FedSummary`] message. Inner nodes keep staleness-bounded soft
//!   state and forward merged subtree views on their own cadence; requests
//!   route over that soft state.
//! - **Inter-cluster forwarding**: a routed job crosses the WAN as a
//!   marshalled [`FedForward`](crate::protocol::FedForward) (spec bytes pay
//!   the per-link serialisation delay) and runs remotely under a
//!   [`GlobalJobId`]. The executing cluster pushes [`FedStatus`] reports
//!   back to the origin every period until the origin's GRM acknowledges
//!   completion — so an origin-GRM crash loses nothing: statuses sent while
//!   it is down are dropped and simply resent after the restart (the
//!   GRM's epoch machinery brings it back with a bumped epoch).
//!
//! All WAN messages traverse the federation's [`FaultPlan`]: drops trigger
//! bounded retransmission with jittered backoff, partitions make clusters
//! unreachable, and every attempt is charged to [`WanStats`].
//!
//! Member grids share nothing, so [`Federation::run_until`] runs them side
//! by side on worker threads between the moments the federation reads
//! them, with results identical to running each only as far as the event
//! in hand. `builder` validates and assembles, `wan` routes, forwards and
//! charges the WAN, `ticks` is the federation's own timeline.

use std::collections::BTreeMap;
use std::fmt;

use integrade_obs::metrics::{MetricsSnapshot, Registry};
use integrade_orb::cdr::CdrEncode;
use integrade_orb::trading::TraderLink;
use integrade_simnet::event::EventQueue;
use integrade_simnet::faults::FaultPlan;
use integrade_simnet::rng::DetRng;
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::LinkSpec;
use serde::{Deserialize, Serialize};

use crate::asct::{JobSpec, JobState};
use crate::grid::{Grid, GridReport};
use crate::hierarchy::{ClusterHierarchy, HierarchyError, SoftReports};
use crate::par::scoped_map;
use crate::protocol::{FedStatus, FedSummary};
use crate::types::{ClusterId, JobId};

mod builder;
#[cfg(test)]
mod tests;
mod ticks;
mod wan;

pub use builder::FederationBuilder;

/// Framing overhead charged per WAN message on top of the CDR payload
/// (GIOP-style header, operation name, request id).
const FRAME_OVERHEAD: u64 = 32;

/// CDR payload plus framing — the bytes a message costs on the wire.
fn wire_size<T: CdrEncode>(msg: &T) -> u64 {
    msg.to_cdr_bytes().len() as u64 + FRAME_OVERHEAD
}

/// Globally unique job identity: the executing cluster plus the job's id
/// within that cluster's grid. Replaces the old `(cluster, job)` tuple
/// buried in `FederatedJob`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalJobId {
    /// Cluster actually executing the job.
    pub cluster: ClusterId,
    /// The job id within that cluster's grid.
    pub job: JobId,
}

impl fmt::Display for GlobalJobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.cluster, self.job)
    }
}

/// Where a federated submission ended up and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederatedPlacement {
    /// Global identity of the placed job.
    pub id: GlobalJobId,
    /// Cluster the job was submitted from.
    pub origin: ClusterId,
    /// Tree edges between origin and executing cluster (0 = stayed local).
    pub hops: u32,
    /// WAN bytes this submission put on the wire (queries, replies, the
    /// forwarded spec, and the ack — including retransmissions).
    pub wan_bytes: u64,
}

/// How a submission that overflows its origin cluster finds a home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Spill over trader federation links breadth-first, probing each
    /// candidate cluster's live offer set (the InteGrade default).
    #[default]
    LinkedTraders,
    /// Every cluster reports its summary to the root, which answers
    /// queries from one flat directory — the centralised baseline.
    FlatDirectory,
    /// Route over the hierarchy's staleness-bounded soft state built from
    /// periodic `FedSummary` aggregation.
    HierarchySummaries,
}

/// Wide-area traffic accounting, aggregated over the federation's life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WanStats {
    /// Per-edge message transmissions (each retransmission counts).
    pub messages: u64,
    /// Bytes put on the wire across all transmissions.
    pub bytes: u64,
    /// Messages lost to random drops.
    pub drops: u64,
    /// Retransmissions triggered by drops.
    pub retransmits: u64,
    /// Sends abandoned because a partition severed the path.
    pub partitioned: u64,
    /// Usage-summary updates produced (one per cluster per period).
    pub summary_updates: u64,
    /// Spillover/directory queries issued on behalf of submissions.
    pub spillover_queries: u64,
    /// Jobs forwarded to a remote cluster.
    pub forwards: u64,
    /// Status reports sent by executing clusters to origins.
    pub status_messages: u64,
}

/// Errors from federation construction and submission. Mirrors the typed
/// per-mistake style of `grid::ConfigError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// `build()` was called without a root cluster.
    NoRoot,
    /// The summary update period must be non-zero.
    ZeroUpdatePeriod,
    /// The soft-state staleness bound must be non-zero.
    ZeroStaleness,
    /// The spillover hop budget must be non-zero.
    ZeroHopBudget,
    /// A cluster id was added twice.
    DuplicateCluster(ClusterId),
    /// A child named a parent that is not (yet) a member.
    UnknownParent(ClusterId),
    /// The origin cluster is not a member.
    UnknownCluster(ClusterId),
    /// No cluster in the federation admits the request.
    Unsatisfiable,
    /// Every WAN path to the chosen cluster is partitioned or lossy
    /// beyond the retransmission budget.
    Unreachable(ClusterId),
    /// Jobs with a virtual-topology request are pinned to their origin
    /// cluster: inter-group bandwidth promises do not survive the WAN.
    Unforwardable,
    /// The hierarchy rejected the routing operation.
    Hierarchy(HierarchyError),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::NoRoot => write!(f, "federation has no root cluster"),
            FederationError::ZeroUpdatePeriod => write!(f, "update period must be non-zero"),
            FederationError::ZeroStaleness => write!(f, "staleness bound must be non-zero"),
            FederationError::ZeroHopBudget => write!(f, "hop budget must be non-zero"),
            FederationError::DuplicateCluster(c) => write!(f, "duplicate federation member {c}"),
            FederationError::UnknownParent(c) => write!(f, "parent {c} is not a member"),
            FederationError::UnknownCluster(c) => write!(f, "unknown federation member {c}"),
            FederationError::Unsatisfiable => write!(f, "no cluster admits the request"),
            FederationError::Unreachable(c) => write!(f, "cluster {c} is unreachable"),
            FederationError::Unforwardable => {
                write!(f, "jobs with topology requests cannot be forwarded")
            }
            FederationError::Hierarchy(e) => write!(f, "hierarchy error: {e}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<HierarchyError> for FederationError {
    fn from(e: HierarchyError) -> Self {
        FederationError::Hierarchy(e)
    }
}

/// What the federation remembers about one placed job.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRecord {
    /// Cluster the job was submitted from.
    pub origin: ClusterId,
    /// True when the job executes away from its origin.
    pub forwarded: bool,
    /// Federation time of submission.
    pub submitted_at: SimTime,
    /// Tree edges between origin and executing cluster.
    pub hops: u32,
    /// Last status report the origin received (forwarded jobs only).
    pub last_status: Option<FedStatus>,
    /// When the origin's GRM learned of completion, if it has.
    pub origin_completed_at: Option<SimTime>,
}

/// One entry on the federation's deterministic event timeline.
#[derive(Debug, Clone)]
enum FedEvent {
    /// A cluster distils and (policy permitting) reports its usage.
    SummaryTick { cluster: ClusterId },
    /// A cluster pushes status for the forwarded jobs it executes.
    StatusTick { cluster: ClusterId },
    /// A WAN message arrives at `to`.
    Deliver { to: ClusterId, msg: FedMsg },
}

impl FedEvent {
    /// The member whose state handling the event reads. A summary delivery
    /// reads only the hierarchy's soft state.
    fn member(&self) -> Option<ClusterId> {
        match self {
            FedEvent::SummaryTick { cluster } | FedEvent::StatusTick { cluster } => Some(*cluster),
            FedEvent::Deliver {
                to,
                msg: FedMsg::Status(_),
            } => Some(*to),
            FedEvent::Deliver {
                msg: FedMsg::Summary(_),
                ..
            } => None,
        }
    }
}

/// WAN message payloads that travel through the event queue.
#[derive(Debug, Clone)]
enum FedMsg {
    Summary(FedSummary),
    Status(FedStatus),
}

fn edge_key(a: ClusterId, b: ClusterId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// A member grid and how far the federation has run it.
struct Member {
    grid: Grid,
    /// Every event of `grid` at or before this instant has fired, and none
    /// after it (the grid's own clock stops at its last event).
    reached: SimTime,
    /// When the member's pending `SummaryTick` and `StatusTick` fire. Each
    /// tick schedules its successor, so both are always pending.
    next_summary: SimTime,
    next_status: SimTime,
}

impl Member {
    fn new(grid: Grid, next_summary: SimTime, next_status: SimTime) -> Self {
        Member {
            grid,
            reached: SimTime::ZERO,
            next_summary,
            next_status,
        }
    }

    /// Runs the grid to `t` — even when `t` is not ahead of `reached`, so a
    /// job submitted since the last run is admitted exactly as a fresh
    /// `Grid::run_until` call would. The only place a member's clock moves.
    fn advance(&mut self, t: SimTime) {
        self.grid.run_until(t);
        self.reached = self.reached.max(t);
    }

    /// How far a round may run this member: its next tick, which reads its
    /// state, or the horizon, whichever comes first. Until then the
    /// federation reads only whether its GRM was up when a status arrived,
    /// which the grid's liveness log answers for instants it has passed.
    fn round_target(&self, horizon: SimTime) -> SimTime {
        self.next_summary.min(self.next_status).min(horizon)
    }
}

/// A multi-cluster InteGrade deployment.
///
/// # Examples
///
/// ```
/// use integrade_core::asct::JobSpec;
/// use integrade_core::federation::Federation;
/// use integrade_core::grid::{GridBuilder, GridConfig, NodeSetup};
/// use integrade_core::types::ClusterId;
/// use integrade_simnet::time::SimTime;
///
/// let make_grid = |n: usize| {
///     let mut b = GridBuilder::new(GridConfig { gupa_warmup_days: 0, ..Default::default() });
///     b.add_cluster((0..n).map(|_| NodeSetup::idle_desktop()).collect());
///     b.build()
/// };
/// let mut fed = Federation::builder()
///     .root(ClusterId(0), make_grid(2))
///     .child(ClusterId(1), ClusterId(0), make_grid(8))
///     .build()
///     .unwrap();
/// fed.run_until(SimTime::from_secs(120)); // let update protocols populate views
///
/// // A 4-node request from cluster 0 (2 nodes) spills over to cluster 1.
/// let mut spec = JobSpec::bag_of_tasks("wide", 4, 50_000);
/// spec.requirements.min_ram_mb = 16;
/// let placed = fed.submit(ClusterId(0), spec).unwrap();
/// assert_eq!(placed.id.cluster, ClusterId(1));
/// assert!(placed.hops > 0 && placed.wan_bytes > 0);
/// ```
pub struct Federation {
    members: BTreeMap<ClusterId, Member>,
    hierarchy: ClusterHierarchy,
    root_id: ClusterId,
    links: BTreeMap<(u32, u32), LinkSpec>,
    routing: RoutingPolicy,
    update_period: SimDuration,
    staleness: SimDuration,
    hop_budget: u32,
    max_retransmits: u32,
    wan: FaultPlan,
    rng: DetRng,
    now: SimTime,
    next_request: u64,
    queue: EventQueue<FedEvent>,
    /// Flat-directory soft state kept at the root (FlatDirectory mode).
    flat: SoftReports,
    placements: BTreeMap<GlobalJobId, PlacementRecord>,
    stats: WanStats,
    /// Member reports cached by [`Federation::refresh`] so aggregate
    /// queries are `&self`.
    reports: BTreeMap<ClusterId, GridReport>,
    registry: Registry,
    /// Threads a round advances members on: the host's parallelism.
    workers: usize,
}

impl Federation {
    /// Starts the fluent construction of a federation.
    pub fn builder() -> FederationBuilder {
        FederationBuilder::new()
    }

    /// Number of member clusters.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the federation has no members (never, post-`build`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current federation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A member's grid.
    pub fn member(&self, id: ClusterId) -> Option<&Grid> {
        self.members.get(&id).map(|m| &m.grid)
    }

    /// Member cluster ids, ascending.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.members.keys().copied()
    }

    /// The wide-area hierarchy.
    pub fn hierarchy(&self) -> &ClusterHierarchy {
        &self.hierarchy
    }

    /// Wide-area traffic accounting so far.
    pub fn wan_stats(&self) -> WanStats {
        self.stats
    }

    /// The record for one placement, if known.
    pub fn placement(&self, id: GlobalJobId) -> Option<&PlacementRecord> {
        self.placements.get(&id)
    }

    /// The executing cluster's view of a job's state.
    pub fn job_state(&self, id: GlobalJobId) -> Option<JobState> {
        self.members
            .get(&id.cluster)?
            .grid
            .job_record(id.job)
            .map(|r| r.state)
    }

    /// Whether the *origin* cluster's GRM knows the job completed. Local
    /// jobs consult the grid directly; forwarded jobs require a
    /// [`FedStatus`] with `completed` to have been delivered while the
    /// origin GRM was up.
    pub fn origin_knows_complete(&self, id: GlobalJobId) -> bool {
        match self.placements.get(&id) {
            Some(rec) if rec.forwarded => rec.origin_completed_at.is_some(),
            Some(_) => self.job_state(id) == Some(JobState::Completed),
            None => false,
        }
    }

    /// Crashes a member's GRM (epoch machinery takes over on restart).
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownCluster`] for non-members.
    pub fn crash_grm(&mut self, cluster: ClusterId) -> Result<(), FederationError> {
        self.known(cluster)?;
        self.member_now(cluster).crash_grm();
        Ok(())
    }

    /// Restarts a member's GRM with a bumped epoch.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownCluster`] for non-members.
    pub fn restart_grm(&mut self, cluster: ClusterId) -> Result<(), FederationError> {
        self.known(cluster)?;
        self.member_now(cluster).restart_grm();
        Ok(())
    }

    /// Refreshes the cached per-member [`GridReport`]s (flushing each
    /// grid's catch-up work, members side by side). Call before reading
    /// [`Federation::reports`] or [`Federation::total_completed`].
    pub fn refresh(&mut self) {
        let members: Vec<_> = self.members.iter_mut().collect();
        self.reports = scoped_map(members, self.workers, |(&c, m)| (c, m.grid.report()))
            .into_iter()
            .collect();
    }

    /// Per-member reports as of the last [`Federation::refresh`].
    pub fn reports(&self) -> &BTreeMap<ClusterId, GridReport> {
        &self.reports
    }

    /// Total completed jobs across members as of the last
    /// [`Federation::refresh`] — a read-only view, unlike the old
    /// `total_completed(&mut self)`.
    pub fn total_completed(&self) -> usize {
        self.reports.values().map(|r| r.completed()).sum()
    }

    /// Federation-level metrics (WAN traffic counters), mirrored into an
    /// obs registry snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mirror = [
            ("fed_wan_messages", self.stats.messages),
            ("fed_wan_bytes", self.stats.bytes),
            ("fed_wan_drops", self.stats.drops),
            ("fed_wan_retransmits", self.stats.retransmits),
            ("fed_wan_partitioned", self.stats.partitioned),
            ("fed_summary_updates", self.stats.summary_updates),
            ("fed_spillover_queries", self.stats.spillover_queries),
            ("fed_forwards", self.stats.forwards),
            ("fed_status_messages", self.stats.status_messages),
        ];
        for (name, total) in mirror {
            self.registry.counter(name).set_total(total);
        }
        self.registry.snapshot()
    }

    /// Advances the shared timeline to `horizon`: handles due federation
    /// events in deterministic `(time, seq)` order and brings every member
    /// grid up to the horizon.
    ///
    /// Members run side by side between the moments the federation reads
    /// them. A round runs every member that is behind up to its next tick
    /// (or the horizon), on as many threads as the host runs; then due
    /// events are handled in order for as long as the member each one
    /// reads has reached the event's time, and the first that finds its
    /// member behind starts the next round. Members affect one another only
    /// through the events handled here, so every member sees the same
    /// inputs at the same instants as when each is run only as far as the
    /// event in hand, whatever the worker count. A last round brings every
    /// member to the horizon.
    pub fn run_until(&mut self, horizon: SimTime) {
        loop {
            while let Some((t, event)) = self.queue.peek() {
                if t > horizon || event.member().is_some_and(|c| self.members[&c].reached < t) {
                    break;
                }
                let (t, event) = self.queue.pop_at_or_before(horizon).expect("peeked");
                self.now = self.now.max(t);
                self.handle(event);
            }
            if self.queue.peek_time().is_none_or(|t| t > horizon) {
                break;
            }
            let behind: Vec<_> = self
                .members
                .values_mut()
                .filter_map(|m| {
                    let target = m.round_target(horizon);
                    (m.reached < target).then_some((m, target))
                })
                .collect();
            // The blocked event's member is behind, and its next tick is no
            // earlier than the event: the round always makes progress.
            assert!(!behind.is_empty(), "a blocked event has a member to run");
            scoped_map(behind, self.workers, |(m, target)| m.advance(target));
        }
        self.now = self.now.max(horizon);
        let all: Vec<_> = self.members.values_mut().collect();
        scoped_map(all, self.workers, |m| m.advance(horizon));
    }

    /// Submits a job at `origin`. The origin's live trader offer set is
    /// consulted first; only when it cannot satisfy the request does the
    /// submission spill over the WAN under the configured
    /// [`RoutingPolicy`].
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownCluster`] for non-member origins,
    /// [`FederationError::Unforwardable`] for topology-bearing jobs that
    /// overflow their origin, [`FederationError::Unsatisfiable`] when no
    /// cluster admits the request, and
    /// [`FederationError::Unreachable`] when partitions or loss sever
    /// every path to the chosen cluster.
    pub fn submit(
        &mut self,
        origin: ClusterId,
        spec: JobSpec,
    ) -> Result<FederatedPlacement, FederationError> {
        self.known(origin)?;
        let bytes_before = self.stats.bytes;
        let parts = spec.kind.parts().min(u32::MAX as usize) as u32;
        {
            let now = self.now;
            let grid = self.member_now(origin);
            if grid.trader_matches(&spec.requirements) >= parts as usize {
                let job = grid.submit(spec);
                let id = GlobalJobId {
                    cluster: origin,
                    job,
                };
                self.placements.insert(
                    id,
                    PlacementRecord {
                        origin,
                        forwarded: false,
                        submitted_at: now,
                        hops: 0,
                        last_status: None,
                        origin_completed_at: None,
                    },
                );
                return Ok(FederatedPlacement {
                    id,
                    origin,
                    hops: 0,
                    wan_bytes: 0,
                });
            }
        }
        self.spill_over(origin, spec, parts, bytes_before)
    }

    /// A member grid, first run up to the federation's clock.
    fn member_now(&mut self, cluster: ClusterId) -> &mut Grid {
        let now = self.now;
        let member = self.members.get_mut(&cluster).expect("member");
        member.advance(now);
        &mut member.grid
    }

    fn known(&self, cluster: ClusterId) -> Result<(), FederationError> {
        if self.members.contains_key(&cluster) {
            Ok(())
        } else {
            Err(FederationError::UnknownCluster(cluster))
        }
    }

    /// The trader federation links installed on a member (test/diagnostic
    /// view).
    pub fn trader_links(&self, cluster: ClusterId) -> Vec<TraderLink> {
        self.members
            .get(&cluster)
            .map(|m| m.grid.trader_links())
            .unwrap_or_default()
    }
}

impl fmt::Debug for Federation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Federation")
            .field("members", &self.members.len())
            .field("root", &self.root_id)
            .field("routing", &self.routing)
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}
