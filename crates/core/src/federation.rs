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
//!   asked for its *current* trader matches via a [`FedQuery`] /
//!   [`FedQueryReply`] exchange that pays per-link WAN latency and counts
//!   against a hop budget.
//! - **Hierarchical GUPA aggregation**: on the update-period cadence each
//!   cluster distils its GUPA usage-pattern models into a
//!   [`UsageSummary`](crate::hierarchy::UsageSummary) (exporting counts plus
//!   a predicted-availability histogram) and, under [`RoutingPolicy::HierarchySummaries`], reports
//!   it one edge up the tree as a [`FedSummary`] message. Inner nodes keep
//!   staleness-bounded soft state and forward merged subtree views on
//!   their own cadence; requests route over that soft state.
//! - **Inter-cluster forwarding**: a routed job crosses the WAN as a
//!   marshalled [`FedForward`] (spec bytes pay the per-link serialisation
//!   delay) and runs remotely under a [`GlobalJobId`]. The executing
//!   cluster pushes [`FedStatus`] reports back to the origin every period
//!   until the origin's GRM acknowledges completion — so an origin-GRM
//!   crash loses nothing: statuses sent while it is down are dropped and
//!   simply resent after the restart (the PR-2 epoch machinery brings the
//!   GRM back with a bumped epoch).
//!
//! All WAN messages traverse the federation's [`FaultPlan`]: drops trigger
//! bounded retransmission with jittered backoff, partitions make clusters
//! unreachable, and every attempt is charged to [`WanStats`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use integrade_obs::metrics::{MetricsSnapshot, Registry};
use integrade_orb::cdr::CdrEncode;
use integrade_orb::trading::{LinkFollowPolicy, TraderLink};
use integrade_simnet::event::EventQueue;
use integrade_simnet::faults::{FaultDecision, FaultPlan};
use integrade_simnet::rng::{streams, DetRng};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::{HostId, LinkSpec};
use serde::{Deserialize, Serialize};

use crate::asct::{JobRequirements, JobSpec, JobState};
use crate::grid::{Grid, GridReport};
use crate::hierarchy::{ClusterHierarchy, HierarchyError, SoftReports, WideAreaRequest};
use crate::protocol::{FedForward, FedForwardAck, FedQuery, FedQueryReply, FedStatus, FedSummary};
use crate::types::{ClusterId, JobId};

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

/// WAN message payloads that travel through the event queue.
#[derive(Debug, Clone)]
enum FedMsg {
    Summary(FedSummary),
    Status(FedStatus),
}

fn edge_key(a: ClusterId, b: ClusterId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// Validating fluent constructor for [`Federation`] — see
/// [`Federation::builder`].
#[derive(Debug)]
pub struct FederationBuilder {
    seed: u64,
    update_period: SimDuration,
    staleness: Option<SimDuration>,
    hop_budget: u32,
    max_retransmits: u32,
    routing: RoutingPolicy,
    wan_faults: Option<FaultPlan>,
    root: Option<(ClusterId, Grid)>,
    children: Vec<(ClusterId, ClusterId, Grid, LinkSpec)>,
}

impl FederationBuilder {
    fn new() -> Self {
        FederationBuilder {
            seed: 0,
            update_period: SimDuration::from_secs(60),
            staleness: None,
            hop_budget: 4,
            max_retransmits: 5,
            routing: RoutingPolicy::default(),
            wan_faults: None,
            root: None,
            children: Vec::new(),
        }
    }

    /// Master seed for WAN retransmission backoff jitter (stream-split so
    /// it never perturbs member grids).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cadence of usage-summary aggregation and status reporting
    /// (default 60 s).
    pub fn update_period(mut self, period: SimDuration) -> Self {
        self.update_period = period;
        self
    }

    /// How old a soft-state report may be before routing ignores it
    /// (default 3 × update period).
    pub fn staleness(mut self, staleness: SimDuration) -> Self {
        self.staleness = Some(staleness);
        self
    }

    /// Maximum trader-link hops a spillover query may travel (default 4).
    pub fn hop_budget(mut self, hops: u32) -> Self {
        self.hop_budget = hops;
        self
    }

    /// Retransmissions before a lossy WAN path is declared unreachable
    /// (default 5).
    pub fn max_retransmits(mut self, n: u32) -> Self {
        self.max_retransmits = n;
        self
    }

    /// How overflow submissions find a remote cluster (default
    /// [`RoutingPolicy::LinkedTraders`]).
    pub fn routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Fault plan applied to every WAN message (default quiet). Cluster
    /// `c` maps to `HostId(c.0)` for partitions and outages.
    pub fn wan_faults(mut self, plan: FaultPlan) -> Self {
        self.wan_faults = Some(plan);
        self
    }

    /// Sets the hierarchy root.
    pub fn root(mut self, id: ClusterId, grid: Grid) -> Self {
        self.root = Some((id, grid));
        self
    }

    /// Adds `id` under `parent` over a [`LinkSpec::wan_metro`] link.
    pub fn child(self, id: ClusterId, parent: ClusterId, grid: Grid) -> Self {
        self.child_linked(id, parent, grid, LinkSpec::wan_metro())
    }

    /// Adds `id` under `parent` over an explicit WAN link (e.g.
    /// [`LinkSpec::wan_intercontinental`]).
    pub fn child_linked(
        mut self,
        id: ClusterId,
        parent: ClusterId,
        grid: Grid,
        link: LinkSpec,
    ) -> Self {
        self.children.push((id, parent, grid, link));
        self
    }

    /// Validates the topology spec and assembles the federation: builds
    /// the hierarchy, installs trader federation links along every edge,
    /// and seeds the staggered summary/status timelines.
    ///
    /// # Errors
    ///
    /// Returns the typed [`FederationError`] naming the first mistake:
    /// missing root, zero cadence/staleness/hop budget, duplicate member,
    /// or a child whose parent is not a member.
    pub fn build(self) -> Result<Federation, FederationError> {
        let (root_id, root_grid) = self.root.ok_or(FederationError::NoRoot)?;
        if self.update_period == SimDuration::ZERO {
            return Err(FederationError::ZeroUpdatePeriod);
        }
        if self.hop_budget == 0 {
            return Err(FederationError::ZeroHopBudget);
        }
        let staleness = self.staleness.unwrap_or(SimDuration::from_micros(
            self.update_period.as_micros().saturating_mul(3),
        ));
        if staleness == SimDuration::ZERO {
            return Err(FederationError::ZeroStaleness);
        }

        let mut members: BTreeMap<ClusterId, Grid> = BTreeMap::new();
        let mut hierarchy = ClusterHierarchy::new(root_id);
        members.insert(root_id, root_grid);
        let mut links = BTreeMap::new();
        for (id, parent, grid, link) in self.children {
            if members.contains_key(&id) {
                return Err(FederationError::DuplicateCluster(id));
            }
            if !members.contains_key(&parent) {
                return Err(FederationError::UnknownParent(parent));
            }
            hierarchy.add_cluster(id, parent)?;
            members.insert(id, grid);
            links.insert(edge_key(id, parent), link);
        }

        // Mirror every hierarchy edge as trader federation links: children
        // in insertion order first, then the uplink. Insertion order is
        // the deterministic breadth-first probe order for spillover.
        let ids: Vec<ClusterId> = members.keys().copied().collect();
        for &c in &ids {
            let mut edges: Vec<(String, ClusterId)> = hierarchy
                .children(c)
                .iter()
                .map(|&child| (format!("down:{}", child.0), child))
                .collect();
            if let Some(parent) = hierarchy.parent(c) {
                edges.push((format!("up:{}", parent.0), parent));
            }
            let grid = members.get_mut(&c).expect("member registered");
            for (name, target) in edges {
                grid.add_trader_link(&name, target, LinkFollowPolicy::IfNoLocal)
                    .expect("edge names are unique per trader");
            }
        }

        let registry = Registry::new();
        let mut fed = Federation {
            members,
            hierarchy,
            root_id,
            links,
            routing: self.routing,
            update_period: self.update_period,
            staleness,
            hop_budget: self.hop_budget,
            max_retransmits: self.max_retransmits,
            wan: self.wan_faults.unwrap_or_else(FaultPlan::quiet),
            rng: DetRng::with_stream(self.seed, streams::FED),
            now: SimTime::ZERO,
            next_request: 1,
            queue: EventQueue::new(),
            flat: SoftReports::default(),
            placements: BTreeMap::new(),
            stats: WanStats::default(),
            reports: BTreeMap::new(),
            registry,
        };

        // Stagger per-cluster ticks across the period so a large
        // federation doesn't synchronise its WAN bursts.
        let n = ids.len() as u64;
        let period_us = fed.update_period.as_micros();
        for (i, &c) in ids.iter().enumerate() {
            let offset = SimDuration::from_micros(period_us * i as u64 / n);
            let first = SimTime::ZERO + fed.update_period + offset;
            fed.schedule(first, FedEvent::SummaryTick { cluster: c });
            let status_first = first + SimDuration::from_micros(period_us / 2);
            fed.schedule(status_first, FedEvent::StatusTick { cluster: c });
        }
        Ok(fed)
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
    members: BTreeMap<ClusterId, Grid>,
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
        self.members.get(&id)
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
        let now = self.now;
        let grid = self
            .members
            .get_mut(&cluster)
            .ok_or(FederationError::UnknownCluster(cluster))?;
        grid.run_until(now);
        grid.crash_grm();
        Ok(())
    }

    /// Restarts a member's GRM with a bumped epoch.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownCluster`] for non-members.
    pub fn restart_grm(&mut self, cluster: ClusterId) -> Result<(), FederationError> {
        let now = self.now;
        let grid = self
            .members
            .get_mut(&cluster)
            .ok_or(FederationError::UnknownCluster(cluster))?;
        grid.run_until(now);
        grid.restart_grm();
        Ok(())
    }

    /// Refreshes the cached per-member [`GridReport`]s (flushing each
    /// grid's catch-up work). Call before reading [`Federation::reports`]
    /// or [`Federation::total_completed`].
    pub fn refresh(&mut self) {
        let snapshot: Vec<(ClusterId, GridReport)> = self
            .members
            .iter_mut()
            .map(|(&c, g)| (c, g.report()))
            .collect();
        self.reports = snapshot.into_iter().collect();
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

    /// Advances the shared timeline to `horizon`: drains due federation
    /// events in deterministic `(time, seq)` order, then brings every
    /// member grid up to the horizon.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((t, event)) = self.queue.pop_at_or_before(horizon) {
            if t > self.now {
                self.now = t;
            }
            self.handle(event);
        }
        if horizon > self.now {
            self.now = horizon;
        }
        for grid in self.members.values_mut() {
            grid.run_until(horizon);
        }
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
        if !self.members.contains_key(&origin) {
            return Err(FederationError::UnknownCluster(origin));
        }
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
        if spec.topology.is_some() {
            return Err(FederationError::Unforwardable);
        }
        let request = WideAreaRequest {
            nodes: parts,
            min_cpu_mips: spec.requirements.min_cpu_mips,
            min_ram_mb: spec.requirements.min_ram_mb,
        };
        let (target, routing_delay) = match self.routing {
            RoutingPolicy::LinkedTraders => {
                self.route_linked(origin, &request, &spec.requirements)?
            }
            RoutingPolicy::FlatDirectory => self.route_flat(origin, &request)?,
            RoutingPolicy::HierarchySummaries => self.route_hierarchy(origin, &request)?,
        };
        self.forward(origin, target, spec, routing_delay, bytes_before)
    }

    // ------------------------------------------------------------------
    // Routing arms
    // ------------------------------------------------------------------

    /// Breadth-first spillover over trader federation links: probe each
    /// reachable cluster's live offer set, in link insertion order, until
    /// one has enough matching offers or the hop budget runs out.
    fn route_linked(
        &mut self,
        origin: ClusterId,
        request: &WideAreaRequest,
        requirements: &JobRequirements,
    ) -> Result<(ClusterId, SimDuration), FederationError> {
        let mut delay = SimDuration::ZERO;
        let mut visited: BTreeSet<ClusterId> = BTreeSet::new();
        visited.insert(origin);
        let mut frontier: VecDeque<(ClusterId, u32, ClusterId, String)> = VecDeque::new();
        self.push_links(origin, 1, &mut visited, &mut frontier);
        while let Some((cand, hops, via, link_name)) = frontier.pop_front() {
            if hops > self.hop_budget {
                continue;
            }
            self.stats.spillover_queries += 1;
            self.members
                .get_mut(&via)
                .expect("frontier holds members only")
                .record_trader_link_followed(&link_name)
                .expect("link installed at build time");
            let query = self.next_query(origin, request, self.hop_budget - hops);
            let path = self.path(origin, cand);
            let Some((qlat, _)) = self.wan_transfer(&path, wire_size(&query)) else {
                continue; // unreachable: do not expand its links
            };
            let matches = self.member_now(cand).trader_matches(requirements);
            let reply = FedQueryReply {
                request_id: query.request_id,
                cluster: cand,
                matches: matches.min(u32::MAX as usize) as u32,
            };
            let rpath: Vec<ClusterId> = path.iter().rev().copied().collect();
            let Some((rlat, _)) = self.wan_transfer(&rpath, wire_size(&reply)) else {
                continue; // reply lost: origin treats the probe as a miss
            };
            delay = delay + qlat + rlat;
            if reply.matches >= request.nodes {
                return Ok((cand, delay));
            }
            if hops < self.hop_budget {
                self.push_links(cand, hops + 1, &mut visited, &mut frontier);
            }
        }
        Err(FederationError::Unsatisfiable)
    }

    /// Enqueues `from`'s followable trader links onto the BFS frontier.
    fn push_links(
        &self,
        from: ClusterId,
        hops: u32,
        visited: &mut BTreeSet<ClusterId>,
        frontier: &mut VecDeque<(ClusterId, u32, ClusterId, String)>,
    ) {
        for link in self.members.get(&from).expect("member").trader_links() {
            if link.follow == LinkFollowPolicy::Never {
                continue;
            }
            let target = ClusterId(link.target as u32);
            if visited.insert(target) {
                frontier.push_back((target, hops, from, link.name));
            }
        }
    }

    /// Centralised baseline: ask the root's flat directory, which scans
    /// its freshest summaries in ascending cluster order.
    fn route_flat(
        &mut self,
        origin: ClusterId,
        request: &WideAreaRequest,
    ) -> Result<(ClusterId, SimDuration), FederationError> {
        let root = self.root_id;
        self.stats.spillover_queries += 1;
        let query = self.next_query(origin, request, 0);
        let path = self.path(origin, root);
        let (qlat, _) = self
            .wan_transfer(&path, wire_size(&query))
            .ok_or(FederationError::Unreachable(root))?;
        let (target, _) = self
            .flat
            .fresh(self.now, self.staleness)
            .find(|&(c, usage)| c != origin && usage.summary.admits(request))
            .ok_or(FederationError::Unsatisfiable)?;
        let reply = FedQueryReply {
            request_id: query.request_id,
            cluster: target,
            matches: request.nodes,
        };
        let rpath: Vec<ClusterId> = path.iter().rev().copied().collect();
        let (rlat, _) = self
            .wan_transfer(&rpath, wire_size(&reply))
            .ok_or(FederationError::Unreachable(origin))?;
        Ok((target, qlat + rlat))
    }

    /// Routes over the hierarchy's staleness-bounded soft state. The
    /// walk's per-edge messages are charged as query-sized traffic, and
    /// the final query must actually cross the WAN path (so drops and
    /// partitions apply).
    fn route_hierarchy(
        &mut self,
        origin: ClusterId,
        request: &WideAreaRequest,
    ) -> Result<(ClusterId, SimDuration), FederationError> {
        let route = self
            .hierarchy
            .route_soft(origin, request, self.now, self.staleness)?;
        let target = route.target.ok_or(FederationError::Unsatisfiable)?;
        self.stats.spillover_queries += 1;
        let query = self.next_query(origin, request, 0);
        let qbytes = wire_size(&query);
        let path = self.path(origin, target);
        // Edges walked beyond the direct path (failed descents while
        // climbing) still cost bytes even though the request ends up on
        // the direct path.
        let extra = u64::from(route.walked).saturating_sub((path.len() - 1) as u64);
        self.stats.messages += extra;
        self.stats.bytes += extra * qbytes;
        let (qlat, _) = self
            .wan_transfer(&path, qbytes)
            .ok_or(FederationError::Unreachable(target))?;
        Ok((target, qlat))
    }

    // ------------------------------------------------------------------
    // Forwarding and the WAN model
    // ------------------------------------------------------------------

    /// Ships the job spec to `target` as a marshalled [`FedForward`]; the
    /// job enters the remote grid when the bytes arrive.
    fn forward(
        &mut self,
        origin: ClusterId,
        target: ClusterId,
        spec: JobSpec,
        routing_delay: SimDuration,
        bytes_before: u64,
    ) -> Result<FederatedPlacement, FederationError> {
        let request_id = self.next_request;
        self.next_request += 1;
        let fwd = FedForward {
            request_id,
            origin,
            job: JobId(request_id),
            spec,
        };
        let bytes = wire_size(&fwd);
        let path = self.path(origin, target);
        let hops = (path.len() - 1) as u32;
        let Some((transfer, _)) = self.wan_transfer(&path, bytes) else {
            return Err(FederationError::Unreachable(target));
        };
        let arrival = self
            .now
            .saturating_add(routing_delay)
            .saturating_add(transfer);
        let FedForward { spec, .. } = fwd;
        let remote_job = self.member_now(target).submit_arriving(spec, arrival);
        self.stats.forwards += 1;
        let ack = FedForwardAck {
            request_id,
            accepted: true,
            remote_job,
        };
        let rpath: Vec<ClusterId> = path.iter().rev().copied().collect();
        let _ = self.wan_transfer(&rpath, wire_size(&ack));
        let id = GlobalJobId {
            cluster: target,
            job: remote_job,
        };
        self.placements.insert(
            id,
            PlacementRecord {
                origin,
                forwarded: true,
                submitted_at: self.now,
                hops,
                last_status: None,
                origin_completed_at: None,
            },
        );
        Ok(FederatedPlacement {
            id,
            origin,
            hops,
            wan_bytes: self.stats.bytes - bytes_before,
        })
    }

    /// The tree path between two members, inclusive of both ends.
    fn path(&self, from: ClusterId, to: ClusterId) -> Vec<ClusterId> {
        self.hierarchy
            .tree_path(from, to)
            .expect("both ends are members")
    }

    /// Pushes `bytes` across every edge of `path`, consulting the fault
    /// plan per transmission. Drops trigger bounded retransmission with
    /// jittered backoff; a partition (or exhausted retries) abandons the
    /// send. Returns accumulated latency and bytes spent, or `None` when
    /// the message never made it.
    fn wan_transfer(&mut self, path: &[ClusterId], bytes: u64) -> Option<(SimDuration, u64)> {
        let mut total = SimDuration::ZERO;
        let mut spent = 0u64;
        for pair in path.windows(2) {
            let link = self.links[&edge_key(pair[0], pair[1])]; // every tree edge has one
            let from = HostId(pair[0].0);
            let to = HostId(pair[1].0);
            let serialise = SimDuration::from_micros(
                bytes.saturating_mul(8_000_000) / link.bandwidth_bps.max(1),
            );
            let mut attempt = 0u32;
            loop {
                self.stats.messages += 1;
                self.stats.bytes += bytes;
                spent += bytes;
                match self.wan.decide(self.now, from, to) {
                    FaultDecision::Deliver { jitter, .. } => {
                        total = total + link.latency + serialise + jitter;
                        break;
                    }
                    FaultDecision::Drop => {
                        self.stats.drops += 1;
                        attempt += 1;
                        if attempt > self.max_retransmits {
                            return None;
                        }
                        self.stats.retransmits += 1;
                        // Timeout (one RTT) plus jittered backoff before
                        // the retransmission.
                        let backoff = self.rng.uniform_range(0, link.latency.as_micros() + 1);
                        total =
                            total + link.latency + link.latency + SimDuration::from_micros(backoff);
                    }
                    FaultDecision::Partitioned => {
                        self.stats.partitioned += 1;
                        return None;
                    }
                }
            }
        }
        Some((total, spent))
    }

    // ------------------------------------------------------------------
    // Periodic protocol ticks
    // ------------------------------------------------------------------

    fn schedule(&mut self, at: SimTime, event: FedEvent) {
        // Every schedule is at `self.now` plus a latency or a period, and
        // `self.now` never trails the queue's clock, so the queue's
        // no-past assert holds.
        debug_assert!(at >= self.now && self.now >= self.queue.now());
        self.queue.schedule_at(at, event);
    }

    /// A member grid, first brought up to the federation's clock.
    fn member_now(&mut self, cluster: ClusterId) -> &mut Grid {
        let grid = self.members.get_mut(&cluster).expect("member");
        grid.run_until(self.now);
        grid
    }

    /// The next spillover query `origin` sends for `request`.
    fn next_query(&mut self, origin: ClusterId, request: &WideAreaRequest, hops: u32) -> FedQuery {
        self.next_request += 1;
        FedQuery {
            request_id: self.next_request - 1,
            origin,
            nodes: request.nodes,
            min_cpu_mips: request.min_cpu_mips,
            min_ram_mb: request.min_ram_mb,
            hop_budget: hops,
        }
    }

    /// Carries `msg` along `path` to `to`. A transfer the WAN loses for good
    /// is not delivered: every sender here is a periodic tick that resends.
    fn send_wan(&mut self, path: &[ClusterId], bytes: u64, to: ClusterId, msg: FedMsg) {
        if let Some((lat, _)) = self.wan_transfer(path, bytes) {
            self.schedule(self.now.saturating_add(lat), FedEvent::Deliver { to, msg });
        }
    }

    fn handle(&mut self, event: FedEvent) {
        match event {
            FedEvent::SummaryTick { cluster } => self.summary_tick(cluster),
            FedEvent::StatusTick { cluster } => self.status_tick(cluster),
            FedEvent::Deliver { to, msg } => self.deliver(to, msg),
        }
    }

    /// Distils the cluster's GUPA models into a usage summary, stores it as
    /// local soft state, and reports it over the WAN as the routing policy
    /// demands.
    fn summary_tick(&mut self, cluster: ClusterId) {
        // The cluster's update round: one past the epoch it last stamped.
        let last = self.hierarchy.own_usage(cluster).expect("member");
        let epoch = last.epoch + 1;
        let usage = self.member_now(cluster).usage_summary(epoch);
        self.hierarchy
            .set_own_usage(cluster, usage)
            .expect("member registered in hierarchy");
        self.stats.summary_updates += 1;
        match self.routing {
            RoutingPolicy::FlatDirectory => {
                if cluster == self.root_id {
                    self.flat.offer(cluster, usage, self.now);
                } else {
                    let msg = FedSummary { cluster, usage };
                    let bytes = wire_size(&msg);
                    let path = self.path(cluster, self.root_id);
                    self.send_wan(&path, bytes, self.root_id, FedMsg::Summary(msg));
                }
            }
            RoutingPolicy::HierarchySummaries => self.send_subtree_report(cluster, epoch),
            RoutingPolicy::LinkedTraders => {} // probes live offers; no summaries travel
        }
        let next = self.now.saturating_add(self.update_period);
        self.schedule(next, FedEvent::SummaryTick { cluster });
    }

    /// Sends the cluster's merged subtree view one edge up the tree.
    fn send_subtree_report(&mut self, cluster: ClusterId, epoch: u64) {
        let Some(parent) = self.hierarchy.parent(cluster) else {
            return; // the root reports to nobody
        };
        let Some(mut report) = self
            .hierarchy
            .reported_subtree(cluster, self.now, self.staleness)
        else {
            return;
        };
        // Stamp the sender's own monotonic epoch (not the merged minimum)
        // so the parent's out-of-order guard keeps working.
        report.epoch = epoch;
        let msg = FedSummary {
            cluster,
            usage: report,
        };
        let bytes = wire_size(&msg);
        let path = vec![cluster, parent];
        self.send_wan(&path, bytes, parent, FedMsg::Summary(msg));
    }

    /// Pushes a [`FedStatus`] to the origin for every forwarded job this
    /// cluster executes whose completion the origin has not yet seen.
    /// Resending until acknowledged is what survives origin-GRM crashes.
    fn status_tick(&mut self, cluster: ClusterId) {
        self.member_now(cluster);
        let mut outgoing: Vec<(ClusterId, FedStatus)> = Vec::new();
        {
            let grid = self.members.get(&cluster).expect("member");
            for (id, rec) in &self.placements {
                if id.cluster != cluster || !rec.forwarded || rec.origin_completed_at.is_some() {
                    continue;
                }
                let Some(record) = grid.job_record(id.job) else {
                    continue; // forward still in flight
                };
                outgoing.push((
                    rec.origin,
                    FedStatus {
                        cluster,
                        job: id.job,
                        parts_done: record.parts_done.min(u32::MAX as usize) as u32,
                        parts_total: record.parts_total.min(u32::MAX as usize) as u32,
                        completed: record.state == JobState::Completed,
                    },
                ));
            }
        }
        for (origin, status) in outgoing {
            self.stats.status_messages += 1;
            let path = self.path(cluster, origin);
            self.send_wan(&path, wire_size(&status), origin, FedMsg::Status(status));
        }
        let next = self.now.saturating_add(self.update_period);
        self.schedule(next, FedEvent::StatusTick { cluster });
    }

    /// A WAN message arrives at `to`.
    fn deliver(&mut self, to: ClusterId, msg: FedMsg) {
        match msg {
            FedMsg::Summary(summary) => {
                if self.routing == RoutingPolicy::FlatDirectory && to == self.root_id {
                    self.flat.offer(summary.cluster, summary.usage, self.now);
                } else {
                    // `to` is the reporting cluster's parent by
                    // construction.
                    let _ = self.hierarchy.apply_child_report(
                        to,
                        summary.cluster,
                        summary.usage,
                        self.now,
                    );
                }
            }
            FedMsg::Status(status) => {
                let up = self.member_now(to).grm_up();
                if !up {
                    return; // origin GRM down: lost, resent next tick
                }
                let id = GlobalJobId {
                    cluster: status.cluster,
                    job: status.job,
                };
                if let Some(rec) = self.placements.get_mut(&id) {
                    if status.completed && rec.origin_completed_at.is_none() {
                        rec.origin_completed_at = Some(self.now);
                    }
                    rec.last_status = Some(status);
                }
            }
        }
    }

    /// The trader federation links installed on a member (test/diagnostic
    /// view).
    pub fn trader_links(&self, cluster: ClusterId) -> Vec<TraderLink> {
        self.members
            .get(&cluster)
            .map(|g| g.trader_links())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asct::{GroupRequest, TopologyRequest};
    use crate::grid::{GridBuilder, GridConfig, NodeSetup};
    use crate::hierarchy::UsageSummary;
    use crate::types::ResourceVector;

    fn grid_of(n: usize, mips: u64) -> Grid {
        let mut builder = GridBuilder::new(GridConfig {
            gupa_warmup_days: 0,
            ..Default::default()
        });
        builder.add_cluster(
            (0..n)
                .map(|_| NodeSetup {
                    resources: ResourceVector {
                        cpu_mips: mips,
                        ram_mb: 256,
                        disk_mb: 10_000,
                    },
                    ..NodeSetup::idle_desktop()
                })
                .collect(),
        );
        builder.build()
    }

    /// root(0): 2 slow nodes; child(1): 8 slow; child(2): 6 fast.
    fn builder_3() -> FederationBuilder {
        Federation::builder()
            .root(ClusterId(0), grid_of(2, 500))
            .child(ClusterId(1), ClusterId(0), grid_of(8, 500))
            .child(ClusterId(2), ClusterId(0), grid_of(6, 1500))
    }

    fn federation() -> Federation {
        let mut fed = builder_3().build().unwrap();
        // Let the intra-cluster update protocols populate the GRM views.
        fed.run_until(SimTime::from_secs(120));
        fed
    }

    #[test]
    fn builder_validates_configuration() {
        assert_eq!(
            Federation::builder().build().unwrap_err(),
            FederationError::NoRoot
        );
        assert_eq!(
            Federation::builder()
                .root(ClusterId(0), grid_of(1, 500))
                .update_period(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            FederationError::ZeroUpdatePeriod
        );
        assert_eq!(
            Federation::builder()
                .root(ClusterId(0), grid_of(1, 500))
                .hop_budget(0)
                .build()
                .unwrap_err(),
            FederationError::ZeroHopBudget
        );
        assert_eq!(
            Federation::builder()
                .root(ClusterId(0), grid_of(1, 500))
                .staleness(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            FederationError::ZeroStaleness
        );
        assert_eq!(
            Federation::builder()
                .root(ClusterId(0), grid_of(1, 500))
                .child(ClusterId(0), ClusterId(0), grid_of(1, 500))
                .build()
                .unwrap_err(),
            FederationError::DuplicateCluster(ClusterId(0))
        );
        assert_eq!(
            Federation::builder()
                .root(ClusterId(0), grid_of(1, 500))
                .child(ClusterId(1), ClusterId(9), grid_of(1, 500))
                .build()
                .unwrap_err(),
            FederationError::UnknownParent(ClusterId(9))
        );
    }

    #[test]
    fn builder_installs_trader_links_along_edges() {
        let fed = builder_3().build().unwrap();
        let root_links = fed.trader_links(ClusterId(0));
        let names: Vec<&str> = root_links.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["down:1", "down:2"]);
        let child_links = fed.trader_links(ClusterId(1));
        assert_eq!(child_links.len(), 1);
        assert_eq!(child_links[0].name, "up:0");
        assert_eq!(child_links[0].target, 0);
    }

    #[test]
    fn local_jobs_stay_local() {
        let mut fed = federation();
        let placed = fed
            .submit(ClusterId(0), JobSpec::sequential("small", 10_000))
            .unwrap();
        assert_eq!(placed.id.cluster, ClusterId(0));
        assert_eq!(placed.hops, 0);
        assert_eq!(placed.wan_bytes, 0, "local placements touch no WAN");
        fed.run_until(SimTime::from_secs(3600));
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
        assert!(fed.origin_knows_complete(placed.id));
    }

    #[test]
    fn oversized_jobs_spill_over_linked_traders() {
        let mut fed = federation();
        // 6 tasks: cluster 0 has only 2 nodes of live offers.
        let placed = fed
            .submit(ClusterId(0), JobSpec::bag_of_tasks("big", 6, 30_000))
            .unwrap();
        assert_eq!(placed.id.cluster, ClusterId(1), "first admitting child");
        assert_eq!(placed.hops, 1);
        assert!(placed.wan_bytes > 0, "queries and the forward cost bytes");
        assert!(fed.wan_stats().spillover_queries >= 1);
        assert!(fed.wan_stats().forwards == 1);
        let followed: u64 = fed
            .trader_links(ClusterId(0))
            .iter()
            .map(|l| l.followed)
            .sum();
        assert!(followed >= 1, "spillover is recorded on the trader link");
        fed.run_until(SimTime::from_secs(4 * 3600));
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
    }

    #[test]
    fn fast_cpu_requirements_route_to_the_fast_cluster() {
        let mut fed = federation();
        let mut spec = JobSpec::sequential("fast-only", 50_000);
        spec.requirements.min_cpu_mips = 1000;
        let placed = fed.submit(ClusterId(1), spec).unwrap();
        assert_eq!(
            placed.id.cluster,
            ClusterId(2),
            "only cluster 2 has 1500-MIPS nodes"
        );
        assert_eq!(placed.hops, 2, "1 -> 0 -> 2");
        fed.run_until(SimTime::from_secs(3600));
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
    }

    #[test]
    fn impossible_requests_are_unsatisfiable() {
        let mut fed = federation();
        let mut spec = JobSpec::sequential("impossible", 1000);
        spec.requirements.min_cpu_mips = 100_000;
        assert_eq!(
            fed.submit(ClusterId(0), spec).unwrap_err(),
            FederationError::Unsatisfiable
        );
    }

    #[test]
    fn unknown_origin_rejected() {
        let mut fed = federation();
        assert_eq!(
            fed.submit(ClusterId(9), JobSpec::sequential("x", 1))
                .unwrap_err(),
            FederationError::UnknownCluster(ClusterId(9))
        );
    }

    #[test]
    fn topology_jobs_do_not_forward() {
        let mut fed = federation();
        let mut spec = JobSpec::bsp("gang", 6, 10, 1_000, 1_000);
        spec.topology = Some(TopologyRequest {
            groups: vec![GroupRequest {
                nodes: 6,
                min_intra_bps: 1_000_000,
            }],
            min_inter_bps: 100_000,
        });
        assert_eq!(
            fed.submit(ClusterId(0), spec).unwrap_err(),
            FederationError::Unforwardable
        );
    }

    #[test]
    fn hierarchy_summaries_route_via_soft_state() {
        let mut fed = builder_3()
            .routing(RoutingPolicy::HierarchySummaries)
            .build()
            .unwrap();
        fed.run_until(SimTime::from_secs(300));
        assert!(
            fed.wan_stats().summary_updates >= 3,
            "each cluster ticked at least once"
        );
        assert!(
            fed.hierarchy().stats().update_messages >= 2,
            "children reported to the root: {:?}",
            fed.hierarchy().stats()
        );
        let mut spec = JobSpec::sequential("fast-only", 50_000);
        spec.requirements.min_cpu_mips = 1000;
        let placed = fed.submit(ClusterId(1), spec).unwrap();
        assert_eq!(placed.id.cluster, ClusterId(2));
        assert!(fed.hierarchy().stats().routing_messages > 0);
        fed.run_until(SimTime::from_secs(3600));
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
    }

    #[test]
    fn flat_directory_routes_via_root() {
        let mut fed = builder_3()
            .routing(RoutingPolicy::FlatDirectory)
            .build()
            .unwrap();
        fed.run_until(SimTime::from_secs(300));
        let mut spec = JobSpec::sequential("fast-only", 50_000);
        spec.requirements.min_cpu_mips = 1000;
        let placed = fed.submit(ClusterId(1), spec).unwrap();
        assert_eq!(placed.id.cluster, ClusterId(2));
        fed.run_until(SimTime::from_secs(3600));
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
    }

    #[test]
    fn reordered_summaries_keep_the_newer_report() {
        for routing in [
            RoutingPolicy::FlatDirectory,
            RoutingPolicy::HierarchySummaries,
        ] {
            let mut fed = builder_3().routing(routing).build().unwrap();
            let summary = |epoch| {
                FedMsg::Summary(FedSummary {
                    cluster: ClusterId(2),
                    usage: UsageSummary {
                        epoch,
                        ..Default::default()
                    },
                })
            };
            // Epoch 2 overtook epoch 1 on the WAN.
            fed.deliver(ClusterId(0), summary(2));
            fed.deliver(ClusterId(0), summary(1));
            let held = match routing {
                RoutingPolicy::FlatDirectory => fed.flat.held(ClusterId(2)),
                _ => fed.hierarchy.child_report(ClusterId(0), ClusterId(2)),
            };
            assert_eq!(held.map(|(usage, _)| usage.epoch), Some(2), "{routing:?}");
        }
    }

    #[test]
    fn forwarded_jobs_report_status_to_origin() {
        let mut fed = federation();
        let placed = fed
            .submit(ClusterId(0), JobSpec::bag_of_tasks("big", 6, 30_000))
            .unwrap();
        assert!(placed.id.cluster != ClusterId(0));
        fed.run_until(SimTime::from_secs(4 * 3600));
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
        assert!(fed.wan_stats().status_messages > 0);
        assert!(fed.origin_knows_complete(placed.id));
        let rec = fed.placement(placed.id).unwrap();
        assert!(rec.forwarded);
        assert_eq!(rec.origin, ClusterId(0));
        let status = rec.last_status.expect("origin received a status");
        assert!(status.completed);
    }

    #[test]
    fn origin_grm_crash_does_not_lose_completion() {
        let mut fed = federation();
        let mut spec = JobSpec::sequential("fast-only", 50_000);
        spec.requirements.min_cpu_mips = 1000;
        let placed = fed.submit(ClusterId(1), spec).unwrap();
        assert_eq!(placed.id.cluster, ClusterId(2));
        let epoch_before = fed.member(ClusterId(1)).unwrap().grm_epoch();
        // Crash the origin GRM while the job runs remotely; statuses sent
        // in the meantime are lost.
        fed.crash_grm(ClusterId(1)).unwrap();
        fed.run_until(SimTime::from_secs(1200));
        assert_eq!(
            fed.job_state(placed.id),
            Some(JobState::Completed),
            "the remote cluster is unaffected"
        );
        assert!(
            !fed.origin_knows_complete(placed.id),
            "origin GRM was down for every status so far"
        );
        // Restart: the next status tick re-delivers completion.
        fed.restart_grm(ClusterId(1)).unwrap();
        fed.run_until(SimTime::from_secs(2400));
        assert!(fed.origin_knows_complete(placed.id));
        assert!(fed.member(ClusterId(1)).unwrap().grm_epoch() > epoch_before);
    }

    #[test]
    fn lossy_wan_retransmits_and_still_delivers() {
        let mut fed = builder_3()
            .routing(RoutingPolicy::HierarchySummaries)
            .wan_faults(FaultPlan::new(7).with_drop_probability(0.3))
            .seed(7)
            .build()
            .unwrap();
        fed.run_until(SimTime::from_secs(1800));
        let stats = fed.wan_stats();
        assert!(stats.drops > 0, "a 30% loss rate must show up: {stats:?}");
        assert!(stats.retransmits > 0);
        assert!(
            fed.hierarchy().stats().update_messages > 0,
            "summaries still get through via retransmission"
        );
    }

    #[test]
    fn summaries_track_grid_state() {
        let fed = federation();
        let summary = fed.member(ClusterId(2)).unwrap().cluster_summary();
        assert_eq!(summary.nodes, 6);
        assert_eq!(summary.exporting_nodes, 6);
        assert_eq!(summary.max_cpu_mips, 1500);
        assert!(summary.max_free_ram_mb >= 64);
    }

    #[test]
    fn usage_summaries_carry_availability_histograms() {
        let mut fed = builder_3()
            .routing(RoutingPolicy::HierarchySummaries)
            .build()
            .unwrap();
        fed.run_until(SimTime::from_secs(300));
        let own = fed.hierarchy().own_usage(ClusterId(2)).unwrap();
        assert!(own.epoch > 0, "summary ticks bump the epoch");
        assert_eq!(own.summary.nodes, 6);
    }

    #[test]
    fn refresh_makes_totals_a_read_only_view() {
        let mut fed = federation();
        fed.submit(ClusterId(0), JobSpec::sequential("small", 10_000))
            .unwrap();
        fed.run_until(SimTime::from_secs(3600));
        fed.refresh();
        let fed = fed; // totals no longer need &mut
        assert_eq!(fed.total_completed(), 1);
        assert_eq!(fed.reports().len(), 3);
    }

    #[test]
    fn metrics_snapshot_mirrors_wan_stats() {
        let mut fed = federation();
        fed.submit(ClusterId(0), JobSpec::bag_of_tasks("big", 6, 30_000))
            .unwrap();
        let snap = fed.metrics_snapshot();
        assert_eq!(snap.counter_total("fed_forwards"), 1);
        assert_eq!(snap.counter_total("fed_wan_bytes"), fed.wan_stats().bytes);
    }

    #[test]
    fn lockstep_time_advances_all_members() {
        let mut fed = federation();
        fed.run_until(SimTime::from_secs(900));
        for id in [0u32, 1, 2] {
            let now = fed.member(ClusterId(id)).unwrap().now();
            assert!(now >= SimTime::from_secs(899), "{id}: {now}");
        }
    }
}
