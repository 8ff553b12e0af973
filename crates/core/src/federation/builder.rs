//! [`FederationBuilder`]: validation, trader links along every hierarchy
//! edge, and the staggered summary/status timelines.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use integrade_obs::metrics::Registry;
use integrade_orb::trading::LinkFollowPolicy;
use integrade_simnet::event::EventQueue;
use integrade_simnet::faults::FaultPlan;
use integrade_simnet::rng::{streams, DetRng};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::LinkSpec;

use super::{edge_key, FedEvent, Federation, FederationError, Member, RoutingPolicy, WanStats};
use crate::grid::Grid;
use crate::hierarchy::{ClusterHierarchy, SoftReports};
use crate::types::ClusterId;

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
    pub(super) fn new() -> Self {
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

        let mut grids: BTreeMap<ClusterId, Grid> = BTreeMap::new();
        let mut hierarchy = ClusterHierarchy::new(root_id);
        grids.insert(root_id, root_grid);
        let mut links = BTreeMap::new();
        for (id, parent, grid, link) in self.children {
            if grids.contains_key(&id) {
                return Err(FederationError::DuplicateCluster(id));
            }
            if !grids.contains_key(&parent) {
                return Err(FederationError::UnknownParent(parent));
            }
            hierarchy.add_cluster(id, parent)?;
            grids.insert(id, grid);
            links.insert(edge_key(id, parent), link);
        }

        // Mirror every hierarchy edge as trader federation links: children
        // in insertion order first, then the uplink. Insertion order is
        // the deterministic breadth-first probe order for spillover.
        let ids: Vec<ClusterId> = grids.keys().copied().collect();
        for &c in &ids {
            let mut edges: Vec<(String, ClusterId)> = hierarchy
                .children(c)
                .iter()
                .map(|&child| (format!("down:{}", child.0), child))
                .collect();
            if let Some(parent) = hierarchy.parent(c) {
                edges.push((format!("up:{}", parent.0), parent));
            }
            let grid = grids.get_mut(&c).expect("member registered");
            for (name, target) in edges {
                grid.add_trader_link(&name, target, LinkFollowPolicy::IfNoLocal)
                    .expect("edge names are unique per trader");
            }
        }

        // Stagger per-cluster ticks across the period so a large
        // federation doesn't synchronise its WAN bursts.
        let n = ids.len() as u64;
        let period_us = self.update_period.as_micros();
        let members = grids
            .into_iter()
            .enumerate()
            .map(|(i, (c, grid))| {
                let offset = SimDuration::from_micros(period_us * i as u64 / n);
                let summary = SimTime::ZERO + self.update_period + offset;
                let status = summary + SimDuration::from_micros(period_us / 2);
                (c, Member::new(grid, summary, status))
            })
            .collect();
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
            registry: Registry::new(),
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        };
        for c in ids {
            let member = &fed.members[&c];
            let (summary, status) = (member.next_summary, member.next_status);
            fed.schedule(summary, FedEvent::SummaryTick { cluster: c });
            fed.schedule(status, FedEvent::StatusTick { cluster: c });
        }
        Ok(fed)
    }
}
