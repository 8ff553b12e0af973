//! Inter-cluster hierarchy and wide-area request routing.
//!
//! "Clusters are then arranged in a hierarchy, allowing a single InteGrade
//! grid to encompass millions of machines. The hierarchy can be arranged in
//! any convenient manner" (§4), following the \[MK02\] extension in which the
//! GRM "engage\[s\] in information updates, resource negotiation, and
//! reservation across a collection of clusters organized in a wide-area
//! hierarchy".
//!
//! [`ClusterHierarchy`] is the tree plus message-fed soft state. Each
//! cluster sets its own [`UsageSummary`] locally; its parent learns of it
//! only when a report crosses the edge ([`ClusterHierarchy::apply_child_report`])
//! and forgets it once the report is older than the staleness bound, so every
//! inner cluster knows what its subtree *recently said* it can offer — never
//! a synchronously consistent aggregate. A request the local cluster cannot
//! satisfy climbs toward the root and descends into the first subtree whose
//! fresh report admits it ([`ClusterHierarchy::route_soft`]). The module
//! counts protocol messages per edge, which is what experiment E9 reads.

use crate::types::ClusterId;
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
use integrade_simnet::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated resource description of a cluster (or subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Nodes in the cluster/subtree.
    pub nodes: u32,
    /// Nodes currently exporting resources.
    pub exporting_nodes: u32,
    /// Fastest exporting node's speed, MIPS.
    pub max_cpu_mips: u64,
    /// Largest free RAM on any exporting node, MB.
    pub max_free_ram_mb: u64,
    /// Largest exporting-node count of any *single* cluster in the
    /// subtree. A request must fit in one cluster, so routing admits on
    /// this, not the sum (set by [`Self::merge`]; leave 0 when constructing
    /// a single cluster's summary by hand).
    pub max_cluster_exporting: u32,
}

impl ClusterSummary {
    /// Merges two summaries (subtree aggregation).
    pub fn merge(self, other: ClusterSummary) -> ClusterSummary {
        ClusterSummary {
            nodes: self.nodes + other.nodes,
            exporting_nodes: self.exporting_nodes + other.exporting_nodes,
            max_cpu_mips: self.max_cpu_mips.max(other.max_cpu_mips),
            max_free_ram_mb: self.max_free_ram_mb.max(other.max_free_ram_mb),
            max_cluster_exporting: self
                .single_cluster_exporting()
                .max(other.single_cluster_exporting()),
        }
    }

    /// Whether this summary can possibly satisfy a request (necessary, not
    /// sufficient — the target cluster re-checks locally).
    pub fn admits(&self, req: &WideAreaRequest) -> bool {
        self.single_cluster_exporting() >= req.nodes
            && self.max_cpu_mips >= req.min_cpu_mips
            && self.max_free_ram_mb >= req.min_ram_mb
    }

    /// The exporting capacity of the best single cluster this summary
    /// covers: `max_cluster_exporting` when set (aggregates), otherwise the
    /// summary's own `exporting_nodes` (a single cluster's summary).
    pub fn single_cluster_exporting(&self) -> u32 {
        if self.max_cluster_exporting > 0 {
            self.max_cluster_exporting
        } else {
            self.exporting_nodes
        }
    }
}

/// Buckets in an [`AvailabilityHistogram`].
pub const AVAIL_BUCKETS: usize = 8;

/// Histogram of predicted idle probabilities across a cluster's modelled
/// nodes: bucket `i` counts nodes whose GUPA-predicted probability of
/// staying idle over the scheduling horizon falls in `[i/8, (i+1)/8)`.
/// Aggregating these up the hierarchy gives inner clusters a usage-pattern
/// profile of each subtree, not just a node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AvailabilityHistogram(pub [u32; AVAIL_BUCKETS]);

impl AvailabilityHistogram {
    /// Records one node's predicted idle probability.
    pub fn observe(&mut self, p: f64) {
        let bucket = ((p.clamp(0.0, 1.0) * AVAIL_BUCKETS as f64) as usize).min(AVAIL_BUCKETS - 1);
        self.0[bucket] += 1;
    }

    /// Element-wise merge (subtree aggregation).
    pub fn merge(self, other: AvailabilityHistogram) -> AvailabilityHistogram {
        let mut out = self;
        for (a, b) in out.0.iter_mut().zip(other.0) {
            *a += b;
        }
        out
    }
}

/// A cluster's (or subtree's) usage-pattern summary: the resource aggregate
/// the admit check routes on, plus the predicted-availability histogram the
/// GUPA aggregation propagates. This is the payload of the inter-cluster
/// summary protocol message ([`crate::protocol::FedSummary`]); inner
/// clusters hold these as staleness-bounded soft state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UsageSummary {
    /// Resource aggregate (nodes, exporting, max MIPS/RAM).
    pub summary: ClusterSummary,
    /// Predicted-availability histogram over modelled nodes.
    pub histogram: AvailabilityHistogram,
    /// Sender's monotonically increasing update round; a report with an
    /// older epoch than the held soft state is discarded (out-of-order WAN
    /// delivery must never roll a view backwards).
    pub epoch: u64,
}

impl UsageSummary {
    /// Merges two summaries (subtree aggregation). The epoch becomes the
    /// *minimum* of the inputs: an aggregate is only as fresh as its
    /// stalest contributor.
    pub fn merge(self, other: UsageSummary) -> UsageSummary {
        UsageSummary {
            summary: self.summary.merge(other.summary),
            histogram: self.histogram.merge(other.histogram),
            epoch: self.epoch.min(other.epoch),
        }
    }
}

impl CdrEncode for ClusterSummary {
    fn encode(&self, w: &mut CdrWriter) {
        self.nodes.encode(w);
        self.exporting_nodes.encode(w);
        self.max_cpu_mips.encode(w);
        self.max_free_ram_mb.encode(w);
        self.max_cluster_exporting.encode(w);
    }
}
impl CdrDecode for ClusterSummary {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(ClusterSummary {
            nodes: u32::decode(r)?,
            exporting_nodes: u32::decode(r)?,
            max_cpu_mips: u64::decode(r)?,
            max_free_ram_mb: u64::decode(r)?,
            max_cluster_exporting: u32::decode(r)?,
        })
    }
}

impl CdrEncode for AvailabilityHistogram {
    fn encode(&self, w: &mut CdrWriter) {
        // Fixed-width array: no length prefix on the wire.
        for bucket in &self.0 {
            bucket.encode(w);
        }
    }
}
impl CdrDecode for AvailabilityHistogram {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let mut buckets = [0u32; AVAIL_BUCKETS];
        for bucket in &mut buckets {
            *bucket = u32::decode(r)?;
        }
        Ok(AvailabilityHistogram(buckets))
    }
}

impl CdrEncode for UsageSummary {
    fn encode(&self, w: &mut CdrWriter) {
        self.summary.encode(w);
        self.histogram.encode(w);
        self.epoch.encode(w);
    }
}
impl CdrDecode for UsageSummary {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(UsageSummary {
            summary: ClusterSummary::decode(r)?,
            histogram: AvailabilityHistogram::decode(r)?,
            epoch: u64::decode(r)?,
        })
    }
}

/// What a job asks of the cluster that will run it, as routing sees it (on
/// the wire it travels as a [`crate::protocol::FedQuery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WideAreaRequest {
    /// Exporting nodes needed.
    pub nodes: u32,
    /// Minimum node speed, MIPS.
    pub min_cpu_mips: u64,
    /// Minimum free RAM per node, MB.
    pub min_ram_mb: u64,
}

/// Message-count statistics (E9's dependent variable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Summary-update messages sent (one per edge traversed).
    pub update_messages: u64,
    /// Request-routing messages sent (one per edge traversed).
    pub routing_messages: u64,
}

/// Errors from hierarchy operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// Cluster id not in the hierarchy.
    UnknownCluster(ClusterId),
    /// Cluster id already present.
    DuplicateCluster(ClusterId),
    /// A soft-state report arrived at a cluster that is not the sender's
    /// parent (first field: the purported child; second: the receiver).
    NotAChild(ClusterId, ClusterId),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::UnknownCluster(c) => write!(f, "unknown {c}"),
            HierarchyError::DuplicateCluster(c) => write!(f, "{c} already exists"),
            HierarchyError::NotAChild(c, p) => write!(f, "{c} is not a child of {p}"),
        }
    }
}

impl std::error::Error for HierarchyError {}

/// Soft state about a set of reporting clusters: each sender's latest
/// [`UsageSummary`] and the virtual time it arrived. This is the one place
/// that knows when a report is accepted (its epoch is not older than the
/// held one) and when it is still usable (`now − arrived ≤ staleness`); the
/// tree's per-parent child reports and the federation's flat directory are
/// both one of these.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoftReports {
    held: BTreeMap<ClusterId, (UsageSummary, SimTime)>,
}

impl SoftReports {
    /// Offers a report from `sender` that arrived at `now`. A report with an
    /// older epoch than the held one is discarded, so out-of-order WAN
    /// delivery never rolls a view backwards; an equal epoch refreshes the
    /// arrival time.
    pub(crate) fn offer(&mut self, sender: ClusterId, report: UsageSummary, now: SimTime) {
        let older = |(held, _): &(UsageSummary, SimTime)| report.epoch < held.epoch;
        if !self.held.get(&sender).is_some_and(older) {
            self.held.insert(sender, (report, now));
        }
    }

    /// The report held for `sender` with its arrival time, fresh or not.
    pub(crate) fn held(&self, sender: ClusterId) -> Option<(UsageSummary, SimTime)> {
        self.held.get(&sender).copied()
    }

    /// Whether `sender`'s report is still usable at `now` and admits the
    /// request.
    pub(crate) fn admits(
        &self,
        sender: ClusterId,
        request: &WideAreaRequest,
        now: SimTime,
        staleness: SimDuration,
    ) -> bool {
        let fresh = self
            .held
            .get(&sender)
            .and_then(|held| usable(held, now, staleness));
        fresh.is_some_and(|report| report.summary.admits(request))
    }

    /// Every report still usable at `now`, in ascending sender order.
    pub(crate) fn fresh(
        &self,
        now: SimTime,
        staleness: SimDuration,
    ) -> impl Iterator<Item = (ClusterId, UsageSummary)> + '_ {
        self.held
            .iter()
            .filter_map(move |(&sender, held)| Some((sender, usable(held, now, staleness)?)))
    }
}

/// A held report drops out exactly when it is older than `staleness` — the
/// bound that keeps a partitioned sender from being advertised forever.
fn usable(
    &(report, arrived): &(UsageSummary, SimTime),
    now: SimTime,
    staleness: SimDuration,
) -> Option<UsageSummary> {
    (now.duration_since(arrived) <= staleness).then_some(report)
}

#[derive(Debug, Clone, Default)]
struct HierarchyEntry {
    parent: Option<ClusterId>,
    children: Vec<ClusterId>,
    /// The cluster's own usage summary, set locally at its update cadence.
    own_usage: UsageSummary,
    /// Each child's last *delivered* subtree report. Fed only by
    /// [`ClusterHierarchy::apply_child_report`] — i.e. by real protocol
    /// messages that survived the WAN — never synchronously, so a lost or
    /// partitioned update genuinely leaves the parent stale.
    child_reports: SoftReports,
}

/// What a [`ClusterHierarchy::route_soft`] walk found and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftRoute {
    /// The cluster whose own usage admits the request, if one was found.
    pub target: Option<ClusterId>,
    /// Edges the walk crossed: the tree path to `target`, plus every descent
    /// into a subtree whose report admitted the request but which no longer
    /// held a satisfying cluster.
    pub walked: u32,
}

/// A tree of clusters with message-fed soft state and request routing.
///
/// # Examples
///
/// ```
/// use integrade_core::hierarchy::{
///     ClusterHierarchy, ClusterSummary, UsageSummary, WideAreaRequest,
/// };
/// use integrade_core::types::ClusterId;
/// use integrade_simnet::time::{SimDuration, SimTime};
///
/// let mut h = ClusterHierarchy::new(ClusterId(0));
/// h.add_cluster(ClusterId(1), ClusterId(0)).unwrap();
/// h.add_cluster(ClusterId(2), ClusterId(0)).unwrap();
/// let summary = ClusterSummary {
///     nodes: 50, exporting_nodes: 40, max_cpu_mips: 1000, max_free_ram_mb: 256,
///     ..Default::default()
/// };
/// let (now, staleness) = (SimTime::from_secs(60), SimDuration::from_secs(180));
/// h.set_own_usage(ClusterId(2), UsageSummary { summary, ..Default::default() }).unwrap();
/// // Nothing propagates until the report crosses the edge to the root.
/// let report = h.reported_subtree(ClusterId(2), now, staleness).unwrap();
/// h.apply_child_report(ClusterId(0), ClusterId(2), report, now).unwrap();
///
/// let req = WideAreaRequest { nodes: 10, min_cpu_mips: 500, min_ram_mb: 64 };
/// let route = h.route_soft(ClusterId(1), &req, now, staleness).unwrap();
/// assert_eq!(route.target, Some(ClusterId(2)));
/// assert_eq!(route.walked, 2); // up to the root, down to the sibling
/// ```
#[derive(Debug, Clone)]
pub struct ClusterHierarchy {
    entries: BTreeMap<ClusterId, HierarchyEntry>,
    root: ClusterId,
    stats: HierarchyStats,
}

impl ClusterHierarchy {
    /// Creates a hierarchy with a root cluster.
    pub fn new(root: ClusterId) -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(root, HierarchyEntry::default());
        ClusterHierarchy {
            entries,
            root,
            stats: HierarchyStats::default(),
        }
    }

    /// Builds a uniform tree of the given fan-out and depth (root = depth 0)
    /// for scalability experiments. Returns the hierarchy and the leaves.
    pub fn uniform(fanout: usize, depth: usize) -> (ClusterHierarchy, Vec<ClusterId>) {
        let mut h = ClusterHierarchy::new(ClusterId(0));
        let mut next_id = 1u32;
        let mut level = vec![ClusterId(0)];
        let mut leaves = vec![ClusterId(0)];
        for _ in 0..depth {
            let mut next_level = Vec::new();
            for &parent in &level {
                for _ in 0..fanout {
                    let id = ClusterId(next_id);
                    next_id += 1;
                    h.add_cluster(id, parent).expect("fresh id");
                    next_level.push(id);
                }
            }
            leaves = next_level.clone();
            level = next_level;
        }
        (h, leaves)
    }

    /// The root cluster.
    pub fn root(&self) -> ClusterId {
        self.root
    }

    /// Total clusters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 1
    }

    /// Message statistics so far.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Adds a cluster under `parent`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids or unknown parents.
    pub fn add_cluster(&mut self, id: ClusterId, parent: ClusterId) -> Result<(), HierarchyError> {
        if self.entries.contains_key(&id) {
            return Err(HierarchyError::DuplicateCluster(id));
        }
        let parent_entry = self
            .entries
            .get_mut(&parent)
            .ok_or(HierarchyError::UnknownCluster(parent))?;
        parent_entry.children.push(id);
        let entry = self.entries.entry(id).or_default();
        entry.parent = Some(parent);
        Ok(())
    }

    /// A cluster's parent, or `None` for the root or an unknown cluster.
    pub fn parent(&self, cluster: ClusterId) -> Option<ClusterId> {
        self.entries.get(&cluster).and_then(|e| e.parent)
    }

    /// A cluster's children, in insertion order (empty for unknown ids).
    pub fn children(&self, cluster: ClusterId) -> &[ClusterId] {
        self.entries
            .get(&cluster)
            .map(|e| e.children.as_slice())
            .unwrap_or(&[])
    }

    /// All cluster ids, ascending.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.entries.keys().copied()
    }

    /// The unique tree path from `from` to `to`, inclusive of both ends
    /// (so `path.len() - 1` is the edge/hop count). `None` when either id
    /// is unknown.
    pub fn tree_path(&self, from: ClusterId, to: ClusterId) -> Option<Vec<ClusterId>> {
        if !self.entries.contains_key(&from) || !self.entries.contains_key(&to) {
            return None;
        }
        // Climb both ends to the root, then splice at the lowest common
        // ancestor.
        let ancestors = |mut id: ClusterId| {
            let mut path = vec![id];
            while let Some(p) = self.entries[&id].parent {
                path.push(p);
                id = p;
            }
            path
        };
        let up_from = ancestors(from);
        let up_to = ancestors(to);
        let in_from: std::collections::BTreeSet<ClusterId> = up_from.iter().copied().collect();
        let lca = *up_to.iter().find(|c| in_from.contains(c))?;
        let mut path: Vec<ClusterId> = up_from.iter().copied().take_while(|&c| c != lca).collect();
        path.push(lca);
        let mut down: Vec<ClusterId> = up_to.iter().copied().take_while(|&c| c != lca).collect();
        down.reverse();
        path.extend(down);
        Some(path)
    }

    /// Sets a cluster's *own* usage summary — a purely local operation (the
    /// cluster computing its summary at its update cadence). Nothing
    /// propagates: propagation happens only when the resulting
    /// [`Self::reported_subtree`] travels to the parent as a protocol
    /// message and lands via [`Self::apply_child_report`].
    ///
    /// # Errors
    ///
    /// Fails if the cluster is unknown.
    pub fn set_own_usage(
        &mut self,
        cluster: ClusterId,
        usage: UsageSummary,
    ) -> Result<(), HierarchyError> {
        let entry = self
            .entries
            .get_mut(&cluster)
            .ok_or(HierarchyError::UnknownCluster(cluster))?;
        entry.own_usage = usage;
        Ok(())
    }

    /// A cluster's own usage summary (as last set locally).
    pub fn own_usage(&self, cluster: ClusterId) -> Option<UsageSummary> {
        self.entries.get(&cluster).map(|e| e.own_usage)
    }

    /// Delivers a child's subtree report to its parent (the receive side of
    /// the inter-cluster summary message). Reports carry the child's send
    /// epoch; an older epoch than the held soft state is discarded, so
    /// out-of-order WAN delivery never rolls a view backwards. Counts one
    /// update message.
    ///
    /// # Errors
    ///
    /// Fails when either cluster is unknown or `child` is not a child of
    /// `parent`.
    pub fn apply_child_report(
        &mut self,
        parent: ClusterId,
        child: ClusterId,
        report: UsageSummary,
        now: SimTime,
    ) -> Result<(), HierarchyError> {
        if !self.entries.contains_key(&child) {
            return Err(HierarchyError::UnknownCluster(child));
        }
        let entry = self
            .entries
            .get_mut(&parent)
            .ok_or(HierarchyError::UnknownCluster(parent))?;
        if !entry.children.contains(&child) {
            return Err(HierarchyError::NotAChild(child, parent));
        }
        self.stats.update_messages += 1;
        entry.child_reports.offer(child, report, now);
        Ok(())
    }

    /// The child's report held at `parent`, with its arrival time.
    pub fn child_report(
        &self,
        parent: ClusterId,
        child: ClusterId,
    ) -> Option<(UsageSummary, SimTime)> {
        self.entries.get(&parent)?.child_reports.held(child)
    }

    /// A cluster's subtree summary as *reported soft state*: its own usage
    /// merged with every child report that arrived within `staleness` of
    /// `now`. Stale children silently drop out of the aggregate. This is
    /// exactly what the cluster sends its parent at its next update tick.
    pub fn reported_subtree(
        &self,
        cluster: ClusterId,
        now: SimTime,
        staleness: SimDuration,
    ) -> Option<UsageSummary> {
        let entry = self.entries.get(&cluster)?;
        Some(
            entry
                .child_reports
                .fresh(now, staleness)
                .fold(entry.own_usage, |aggregate, (_, report)| {
                    aggregate.merge(report)
                }),
        )
    }

    /// Routes a request on the staleness-bounded soft state. If the origin's
    /// own usage admits it the answer is local (nothing walked). Otherwise
    /// the request climbs toward the root; each cluster on the way consults
    /// only child reports that are fresh at `now`, offering the request to
    /// its other subtrees first and then to itself. Counts one routing
    /// message per edge walked.
    ///
    /// # Errors
    ///
    /// Fails if `origin` is unknown.
    pub fn route_soft(
        &mut self,
        origin: ClusterId,
        request: &WideAreaRequest,
        now: SimTime,
        staleness: SimDuration,
    ) -> Result<SoftRoute, HierarchyError> {
        let local = self
            .entries
            .get(&origin)
            .ok_or(HierarchyError::UnknownCluster(origin))?;
        if local.own_usage.summary.admits(request) {
            return Ok(SoftRoute {
                target: Some(origin),
                walked: 0,
            });
        }
        let mut walked = 0u32;
        let mut came_from: Option<ClusterId> = None;
        let mut current = origin;
        let target = loop {
            let entry = &self.entries[&current];
            let below = entry
                .children
                .iter()
                .filter(|&&c| {
                    Some(c) != came_from && entry.child_reports.admits(c, request, now, staleness)
                })
                .find_map(|&c| self.descend(c, request, now, staleness, &mut walked));
            if below.is_some() {
                break below;
            }
            // The origin's own usage was refused above, so this only ever
            // answers for an ancestor.
            if entry.own_usage.summary.admits(request) {
                break Some(current);
            }
            let Some(parent) = entry.parent else {
                break None;
            };
            walked += 1;
            came_from = Some(current);
            current = parent;
        };
        self.stats.routing_messages += u64::from(walked);
        Ok(SoftRoute { target, walked })
    }

    /// Descends into a subtree whose report admitted the request. An
    /// admitting report does not guarantee a satisfying cluster below it (a
    /// grandchild's report may have aged out since the child last
    /// aggregated), so this can come back empty-handed — the caller then
    /// keeps climbing.
    fn descend(
        &self,
        mut id: ClusterId,
        request: &WideAreaRequest,
        now: SimTime,
        staleness: SimDuration,
        walked: &mut u32,
    ) -> Option<ClusterId> {
        loop {
            *walked += 1; // the edge into `id`
            let entry = &self.entries[&id];
            if entry.own_usage.summary.admits(request) {
                return Some(id);
            }
            id = *entry
                .children
                .iter()
                .find(|&&c| entry.child_reports.admits(c, request, now, staleness))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STALENESS: SimDuration = SimDuration::from_secs(60);

    fn summary(exporting: u32, mips: u64, ram: u64) -> ClusterSummary {
        ClusterSummary {
            nodes: exporting + 5,
            exporting_nodes: exporting,
            max_cpu_mips: mips,
            max_free_ram_mb: ram,
            ..Default::default()
        }
    }

    fn usage(exporting: u32, mips: u64, ram: u64, epoch: u64) -> UsageSummary {
        UsageSummary {
            summary: summary(exporting, mips, ram),
            histogram: AvailabilityHistogram::default(),
            epoch,
        }
    }

    fn request(nodes: u32, mips: u64, ram: u64) -> WideAreaRequest {
        WideAreaRequest {
            nodes,
            min_cpu_mips: mips,
            min_ram_mb: ram,
        }
    }

    /// root(0) — c1, c2; c2 — c3, c4.
    fn small_tree() -> ClusterHierarchy {
        let mut h = ClusterHierarchy::new(ClusterId(0));
        h.add_cluster(ClusterId(1), ClusterId(0)).unwrap();
        h.add_cluster(ClusterId(2), ClusterId(0)).unwrap();
        h.add_cluster(ClusterId(3), ClusterId(2)).unwrap();
        h.add_cluster(ClusterId(4), ClusterId(2)).unwrap();
        h
    }

    /// Sends `cluster`'s reported subtree one edge up, as its update tick
    /// would with nothing lost on the way.
    fn report_up(h: &mut ClusterHierarchy, cluster: ClusterId, now: SimTime) {
        let parent = h.parent(cluster).unwrap();
        let report = h.reported_subtree(cluster, now, STALENESS).unwrap();
        h.apply_child_report(parent, cluster, report, now).unwrap();
    }

    /// One reporting period, children before parents (ids grow with depth
    /// in every tree these tests build).
    fn report_round(h: &mut ClusterHierarchy, now: SimTime) {
        let bottom_up: Vec<ClusterId> = h.clusters().filter(|&c| c != h.root()).collect();
        for &cluster in bottom_up.iter().rev() {
            report_up(h, cluster, now);
        }
    }

    fn exporting_below(h: &ClusterHierarchy, cluster: ClusterId, now: SimTime) -> u32 {
        let subtree = h.reported_subtree(cluster, now, STALENESS).unwrap();
        subtree.summary.exporting_nodes
    }

    #[test]
    fn aggregates_propagate_to_root() {
        let mut h = small_tree();
        let t0 = SimTime::ZERO;
        h.set_own_usage(ClusterId(3), usage(10, 800, 128, 1))
            .unwrap();
        h.set_own_usage(ClusterId(4), usage(20, 600, 256, 1))
            .unwrap();
        assert_eq!(exporting_below(&h, ClusterId(0), t0), 0, "nothing sent");
        report_round(&mut h, t0);
        let agg2 = h.reported_subtree(ClusterId(2), t0, STALENESS).unwrap();
        assert_eq!(agg2.summary.exporting_nodes, 30);
        assert_eq!(agg2.summary.max_cpu_mips, 800);
        assert_eq!(agg2.summary.max_free_ram_mb, 256);
        assert_eq!(agg2.summary.max_cluster_exporting, 20);
        assert_eq!(exporting_below(&h, ClusterId(0), t0), 30);
    }

    #[test]
    fn local_requests_stay_local() {
        let mut h = small_tree();
        h.set_own_usage(ClusterId(1), usage(10, 800, 128, 1))
            .unwrap();
        let route = h
            .route_soft(ClusterId(1), &request(5, 500, 64), SimTime::ZERO, STALENESS)
            .unwrap();
        assert_eq!((route.target, route.walked), (Some(ClusterId(1)), 0));
        assert_eq!(h.stats().routing_messages, 0);
    }

    #[test]
    fn requests_route_to_sibling_subtree() {
        let mut h = small_tree();
        let t0 = SimTime::ZERO;
        h.set_own_usage(ClusterId(3), usage(50, 1000, 512, 1))
            .unwrap();
        report_round(&mut h, t0);
        let route = h
            .route_soft(ClusterId(1), &request(40, 900, 256), t0, STALENESS)
            .unwrap();
        // c1 → root (1 hop) → c2 (1) → c3 (1).
        assert_eq!((route.target, route.walked), (Some(ClusterId(3)), 3));
        assert_eq!(h.stats().routing_messages, 3);
    }

    #[test]
    fn unsatisfiable_requests_return_none() {
        let mut h = small_tree();
        let t0 = SimTime::ZERO;
        h.set_own_usage(ClusterId(3), usage(10, 500, 128, 1))
            .unwrap();
        report_round(&mut h, t0);
        let route = h
            .route_soft(ClusterId(1), &request(1000, 500, 64), t0, STALENESS)
            .unwrap();
        assert_eq!(route.target, None);
    }

    #[test]
    fn unknown_origin_is_an_error() {
        let mut h = small_tree();
        assert_eq!(
            h.route_soft(ClusterId(99), &request(1, 1, 1), SimTime::ZERO, STALENESS)
                .unwrap_err(),
            HierarchyError::UnknownCluster(ClusterId(99))
        );
    }

    #[test]
    fn duplicate_and_orphan_clusters_rejected() {
        let mut h = small_tree();
        assert_eq!(
            h.add_cluster(ClusterId(1), ClusterId(0)).unwrap_err(),
            HierarchyError::DuplicateCluster(ClusterId(1))
        );
        assert_eq!(
            h.add_cluster(ClusterId(9), ClusterId(42)).unwrap_err(),
            HierarchyError::UnknownCluster(ClusterId(42))
        );
        // Reports only land along tree edges.
        let t0 = SimTime::ZERO;
        assert_eq!(
            h.apply_child_report(ClusterId(0), ClusterId(3), usage(1, 1, 1, 1), t0)
                .unwrap_err(),
            HierarchyError::NotAChild(ClusterId(3), ClusterId(0))
        );
    }

    #[test]
    fn update_messages_scale_with_depth() {
        let (mut h, leaves) = ClusterHierarchy::uniform(2, 3);
        assert_eq!(h.len(), 1 + 2 + 4 + 8);
        assert_eq!(leaves.len(), 8);
        let t0 = SimTime::ZERO;
        h.set_own_usage(leaves[0], usage(10, 500, 128, 1)).unwrap();
        // Leaf at depth 3: its usage is news at the root only after a
        // report has crossed each of the three edges in between.
        let mut cluster = leaves[0];
        while cluster != h.root() {
            assert_eq!(exporting_below(&h, ClusterId(0), t0), 0);
            report_up(&mut h, cluster, t0);
            cluster = h.parent(cluster).unwrap();
        }
        assert_eq!(h.stats().update_messages, 3);
        assert_eq!(exporting_below(&h, ClusterId(0), t0), 10);
    }

    #[test]
    fn admits_is_conservative() {
        let s = summary(10, 800, 128);
        assert!(s.admits(&request(10, 800, 128)));
        assert!(!s.admits(&request(11, 800, 128)));
        assert!(!s.admits(&request(10, 801, 128)));
        assert!(!s.admits(&request(10, 800, 129)));
    }

    #[test]
    fn flat_directory_counts_root_load() {
        // A flat directory is the depth-1 tree: every cluster reports
        // straight to the one global GRM, which answers every query.
        let (mut flat, clusters) = ClusterHierarchy::uniform(100, 1);
        let t0 = SimTime::ZERO;
        for &c in &clusters[1..] {
            flat.set_own_usage(c, usage(10, 500, 128, 1)).unwrap();
        }
        report_round(&mut flat, t0);
        assert_eq!(flat.stats().update_messages, 100, "all land on the root");
        let route = flat
            .route_soft(clusters[0], &request(5, 400, 64), t0, STALENESS)
            .unwrap();
        assert_eq!(route.target, Some(clusters[1]));
        assert_eq!(route.walked, 2, "up to the root and down");
    }

    #[test]
    fn tree_paths_cross_the_lca() {
        let h = small_tree();
        // c1 → root → c2 → c3.
        assert_eq!(
            h.tree_path(ClusterId(1), ClusterId(3)).unwrap(),
            [1, 0, 2, 3].map(ClusterId)
        );
        assert_eq!(h.tree_path(ClusterId(3), ClusterId(3)).unwrap().len(), 1);
        assert_eq!(h.tree_path(ClusterId(3), ClusterId(99)), None);
    }

    #[test]
    fn route_soft_survives_stale_subtree() {
        let mut h = small_tree();
        let t0 = SimTime::ZERO;
        // Root once heard c2's subtree could serve, but c2 holds nothing
        // below it that does; the only real capacity is c1's own.
        h.set_own_usage(ClusterId(1), usage(50, 1000, 512, 1))
            .unwrap();
        h.apply_child_report(ClusterId(0), ClusterId(2), usage(80, 1000, 512, 1), t0)
            .unwrap();
        h.apply_child_report(ClusterId(0), ClusterId(1), usage(50, 1000, 512, 2), t0)
            .unwrap();
        let later = t0 + SimDuration::from_secs(30);
        h.apply_child_report(ClusterId(0), ClusterId(1), usage(50, 1000, 512, 3), later)
            .unwrap();
        let route = |h: &mut ClusterHierarchy, origin, nodes, now| {
            let req = request(nodes, 900, 256);
            h.route_soft(ClusterId(origin), &req, now, STALENESS)
                .unwrap()
        };
        // While c2's promise is fresh, following it costs an edge and
        // comes back empty-handed: c1 → root → c2 → nobody.
        let hollow = SoftRoute {
            target: None,
            walked: 2,
        };
        assert_eq!(route(&mut h, 1, 60, later), hollow);
        // Once it has aged out, a request from c4 climbs past it and still
        // finds c1: c4 → c2 → root → c1.
        let now = t0 + SimDuration::from_secs(70); // c2's report stale, c1's fresh
        let found = route(&mut h, 4, 40, now);
        assert_eq!((found.target, found.walked), (Some(ClusterId(1)), 3));
        // And with every report stale, routing comes back empty.
        let much_later = now + SimDuration::from_secs(600);
        assert_eq!(route(&mut h, 4, 40, much_later).target, None);
    }

    #[test]
    fn histogram_buckets_and_merge_epochs() {
        let mut hist = AvailabilityHistogram::default();
        hist.observe(0.0);
        hist.observe(0.99);
        hist.observe(1.0); // clamps into the top bucket
        hist.observe(0.5);
        assert_eq!(hist.0[0], 1);
        assert_eq!(hist.0[AVAIL_BUCKETS - 1], 2);
        assert_eq!(hist.0[4], 1);
        assert_eq!(hist.0.iter().sum::<u32>(), 4);
        // Merge epochs take the minimum: an aggregate is only as fresh as
        // its stalest contributor.
        let merged = usage(1, 100, 16, 7).merge(usage(2, 200, 32, 3));
        assert_eq!(merged.epoch, 3);
        assert_eq!(merged.summary.exporting_nodes, 3);
    }

    #[test]
    fn hierarchy_spreads_update_load_vs_flat() {
        // E9's shape: per period every cluster sends one report up its own
        // edge, so a manager hears from its fan-out, not from the grid.
        let (mut h, leaves) = ClusterHierarchy::uniform(4, 3); // 64 leaves
        let t0 = SimTime::ZERO;
        for &leaf in &leaves {
            h.set_own_usage(leaf, usage(10, 500, 128, 1)).unwrap();
        }
        report_round(&mut h, t0);
        assert_eq!(h.stats().update_messages, 4 + 16 + 64, "one per edge");
        assert_eq!(exporting_below(&h, ClusterId(0), t0), 640);
        // The root took 4 of those 84 messages — its children's — where a
        // flat directory's root takes one from each of the 64 leaves.
        let root_heard = (0..h.len() as u32)
            .filter(|&c| h.child_report(ClusterId(0), ClusterId(c)).is_some())
            .count();
        assert_eq!(root_heard, 4);
    }

    proptest::proptest! {
        /// The soft-report table under random interleavings of epochs and
        /// arrival times, checked against the offers it was shown: the held
        /// report is the latest offer carrying the highest epoch so far (so
        /// an out-of-order epoch never rolls a view back and an equal one
        /// refreshes the arrival), and it drops out exactly when
        /// `now − arrived > staleness`. A parent's child reports are driven
        /// with the same offers and must read the same.
        #[test]
        fn soft_reports_keep_the_newest_epoch_until_stale(
            offers in proptest::collection::vec((1u32..4, 0u64..5, 0u64..40), 1..40),
            staleness_s in 1u64..60,
            probe_s in 0u64..120,
        ) {
            let staleness = SimDuration::from_secs(staleness_s);
            let mut table = SoftReports::default();
            let (mut tree, _) = ClusterHierarchy::uniform(3, 1);
            let mut shown: Vec<(ClusterId, UsageSummary, SimTime)> = Vec::new();
            let mut now = SimTime::ZERO;
            for (step, &(sender, epoch, wait_s)) in offers.iter().enumerate() {
                now += SimDuration::from_secs(wait_s);
                let report = usage(step as u32, 500, 128, epoch);
                table.offer(ClusterId(sender), report, now);
                tree.apply_child_report(ClusterId(0), ClusterId(sender), report, now).unwrap();
                shown.push((ClusterId(sender), report, now));
            }
            let probe = now + SimDuration::from_secs(probe_s);
            let mut fresh_exporting = 0;
            for sender in (1..4).map(ClusterId) {
                let from_sender = || shown.iter().filter(|o| o.0 == sender);
                let newest = from_sender().map(|o| o.1.epoch).max();
                let expected = from_sender()
                    .rfind(|o| Some(o.1.epoch) == newest)
                    .map(|&(_, report, arrived)| (report, arrived));
                proptest::prop_assert_eq!(table.held(sender), expected);
                proptest::prop_assert_eq!(tree.child_report(ClusterId(0), sender), expected);
                if let Some((report, arrived)) = expected {
                    let (edge, anything) = (arrived + staleness, request(0, 0, 0));
                    proptest::prop_assert!(table.admits(sender, &anything, edge, staleness));
                    let past = edge + SimDuration::from_micros(1);
                    proptest::prop_assert!(!table.admits(sender, &anything, past, staleness));
                    if probe <= edge {
                        fresh_exporting += report.summary.exporting_nodes;
                    }
                }
            }
            let listed: u32 = table.fresh(probe, staleness).map(|(_, r)| r.summary.exporting_nodes).sum();
            proptest::prop_assert_eq!(listed, fresh_exporting);
            let merged = tree.reported_subtree(ClusterId(0), probe, staleness).unwrap();
            proptest::prop_assert_eq!(merged.summary.exporting_nodes, fresh_exporting);
        }
    }
}
