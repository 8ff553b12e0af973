//! Global Resource Manager — the cluster manager.
//!
//! "LRMs send this information periodically to the GRM, which uses it for
//! scheduling within the cluster" (§4). True to the prototype ("The GRM
//! uses the JacORB Trader to store the information it receives from the
//! LRMs"), the GRM here stores node status as Trading-service offers and
//! compiles application requirements into trader constraint queries. The
//! candidate list that comes back is a *hint*: the Resource Reservation and
//! Execution Protocol then negotiates directly with each candidate node.

use crate::protocol::{
    node_props, PartDone, PartEvicted, ProgressReport, StatusUpdate, UpdateAck, NODE_SERVICE_TYPE,
};
use crate::repo::{ReplicaInfo, ReplicaMap};
use crate::scheduler::CandidateNode;
use crate::types::{JobId, NodeId, NodeStatus, Platform, ResourceVector};
use integrade_orb::any::AnyValue;
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrReader, CdrWriter};
use integrade_orb::constraint::SlotId;
use integrade_orb::ior::Ior;
use integrade_orb::servant::{Servant, ServerException};
use integrade_orb::trading::{OfferId, Trader, TraderError};
use integrade_simnet::idmap::IdMap;
use integrade_simnet::time::SimTime;
use integrade_simnet::topology::HostId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Static registration data for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRegistration {
    /// The node id.
    pub node: NodeId,
    /// The simnet host it lives on.
    pub host: HostId,
    /// Hardware capacity.
    pub resources: ResourceVector,
    /// Software platform.
    pub platform: Platform,
    /// Reference to the node's LRM servant.
    pub lrm: Ior,
}

/// Counters for the Information Update Protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Updates accepted.
    pub accepted: u64,
    /// Updates discarded as stale (older sequence number).
    pub stale_discarded: u64,
    /// Updates from unregistered nodes.
    pub unknown_node: u64,
}

/// Everything the GRM holds about one registered node.
#[derive(Debug)]
struct NodeEntry {
    /// Disk state: survives a GRM crash.
    registration: NodeRegistration,
    /// The node's offer in the trader.
    offer: OfferId,
    /// Highest update sequence number accepted in the node's current
    /// session; 0 before its first update and after it was declared dead.
    last_seq: u64,
    /// The status last accepted (unavailable until the first update).
    status: NodeStatus,
    /// When the node was last heard from. `Some` exactly while the node is
    /// on the recency list: never-heard and known-dead nodes are off it.
    heard: Option<SimTime>,
    /// Neighbours on the recency list, towards the oldest and the newest
    /// end; meaningful only while `heard` is `Some`.
    older: Option<NodeId>,
    newer: Option<NodeId>,
}

/// Cluster-manager state.
#[derive(Debug)]
pub struct GrmState {
    trader: Trader,
    /// One entry per registered node, indexed by node id.
    nodes: IdMap<NodeId, NodeEntry>,
    /// Ends of the recency list threaded through `nodes`: every node with a
    /// `heard` time, ordered by it. Receipt times arrive in clock order, so
    /// hearing from a node is an unlink and a push at the newest end, and
    /// the crash detector walks from the oldest end and stops at the first
    /// live node — O(k) for k silent nodes, never a scan of the population.
    oldest: Option<NodeId>,
    newest: Option<NodeId>,
    /// Soft-state replica placement map: which LRM claims to hold which
    /// version of which part's checkpoint. Wiped by a GRM crash and rebuilt
    /// from the replica reports piggybacked on periodic status updates.
    replicas: ReplicaMap,
    stats: UpdateStats,
    /// Incarnation number, bumped on every crash. Returned in update acks
    /// so LRMs detect a restart and re-announce full state.
    epoch: u64,
    /// Trader slots of the five dynamic status properties, resolved once.
    status_slots: Option<StatusSlots>,
    /// Completion notices awaiting the execution manager.
    pub pending_done: Vec<PartDone>,
    /// Eviction notices awaiting the execution manager.
    pub pending_evictions: Vec<PartEvicted>,
    /// Per-(part, executor) progress observations, differenced from the
    /// progress reports piggybacked on status updates. Soft state: wiped by
    /// a GRM crash and rebuilt from the next round of reports, exactly like
    /// the replica map. Keyed by executor node so a speculative twin's rate
    /// is tracked independently of the primary's.
    progress: BTreeMap<(JobId, u32, NodeId), ProgressTrack>,
    /// Sarmenta-style per-node credibility: earned one point per certified
    /// agreement or passed spot check, collapsed to zero by any mismatch.
    /// Soft state — wiped by a GRM crash and re-earned from scratch.
    cert_credibility: BTreeMap<NodeId, u32>,
    /// Executors caught returning a wrong result. Filtered out of every
    /// trader query until the GRM restarts (blacklists are evidence-based
    /// soft state, like the suspicion the straggler detector holds).
    cert_blacklist: BTreeSet<NodeId>,
}

/// Differenced progress observations of one part on one executor.
///
/// The rate is measured against a fixed baseline (the first report of the
/// current lineage) rather than between adjacent reports: simulated work
/// advances at slot-tick granularity while updates arrive more often, so
/// adjacent diffs alternate between zero and a burst. The cumulative
/// average is immune to that quantization, and a restart (work moving
/// backwards) re-anchors the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressTrack {
    /// Cumulative work at the baseline report, MIPS-s.
    pub base_done: u64,
    /// When the baseline report arrived.
    pub base_at: SimTime,
    /// Cumulative work last reported, MIPS-s.
    pub last_done: u64,
    /// When that report arrived.
    pub last_at: SimTime,
    /// Observed progress rate (MIPS-s per second) since the baseline;
    /// `None` until a second report has arrived.
    pub rate: Option<f64>,
}

/// Trader slot ids for the properties a status update rewrites. The other
/// five offer properties (id, capacities, platform) are fixed at
/// registration, so the periodic update path never touches them.
#[derive(Debug, Clone, Copy)]
struct StatusSlots {
    free_cpu: SlotId,
    free_ram_mb: SlotId,
    exporting: SlotId,
    owner_active: SlotId,
    running_parts: SlotId,
}

impl StatusSlots {
    /// The update batch for [`Trader::modify_values`]: a stack array, no
    /// heap allocation per update.
    fn updates(self, status: &NodeStatus) -> [(SlotId, AnyValue); 5] {
        [
            (self.free_cpu, AnyValue::Double(status.free_cpu_fraction)),
            (self.free_ram_mb, AnyValue::Long(status.free_ram_mb as i64)),
            (self.exporting, AnyValue::Bool(status.exporting)),
            (self.owner_active, AnyValue::Bool(status.owner_active)),
            (
                self.running_parts,
                AnyValue::Long(status.running_parts as i64),
            ),
        ]
    }
}

fn offer_properties(
    registration: &NodeRegistration,
    status: &NodeStatus,
) -> BTreeMap<String, AnyValue> {
    [
        (
            node_props::NODE_ID.to_owned(),
            AnyValue::Long(registration.node.0 as i64),
        ),
        (
            node_props::CPU_MIPS.to_owned(),
            AnyValue::Long(registration.resources.cpu_mips as i64),
        ),
        (
            node_props::RAM_MB.to_owned(),
            AnyValue::Long(registration.resources.ram_mb as i64),
        ),
        (
            node_props::OS.to_owned(),
            AnyValue::Str(registration.platform.os.clone()),
        ),
        (
            node_props::ARCH.to_owned(),
            AnyValue::Str(registration.platform.arch.clone()),
        ),
        (
            node_props::FREE_CPU.to_owned(),
            AnyValue::Double(status.free_cpu_fraction),
        ),
        (
            node_props::FREE_RAM_MB.to_owned(),
            AnyValue::Long(status.free_ram_mb as i64),
        ),
        (
            node_props::EXPORTING.to_owned(),
            AnyValue::Bool(status.exporting),
        ),
        (
            node_props::OWNER_ACTIVE.to_owned(),
            AnyValue::Bool(status.owner_active),
        ),
        (
            node_props::RUNNING_PARTS.to_owned(),
            AnyValue::Long(status.running_parts as i64),
        ),
    ]
    .into_iter()
    .collect()
}

/// The node an offer's `node_id` value names, unless it is blacklisted:
/// one caught lie costs an executor every future placement until GRM
/// restart.
fn schedulable(node_id: Option<&AnyValue>, blacklist: &BTreeSet<NodeId>) -> Option<NodeId> {
    let Some(AnyValue::Long(id)) = node_id else {
        return None;
    };
    let node = NodeId(*id as u32);
    (!blacklist.contains(&node)).then_some(node)
}

impl GrmState {
    /// Creates a GRM; `seed` drives the trader's `random` preference.
    pub fn new(seed: u64) -> Self {
        GrmState {
            trader: Trader::new(seed),
            nodes: IdMap::new(),
            oldest: None,
            newest: None,
            replicas: ReplicaMap::new(),
            stats: UpdateStats::default(),
            epoch: 1,
            status_slots: None,
            pending_done: Vec::new(),
            pending_evictions: Vec::new(),
            progress: BTreeMap::new(),
            cert_credibility: BTreeMap::new(),
            cert_blacklist: BTreeSet::new(),
        }
    }

    fn status_slots(&mut self) -> StatusSlots {
        if let Some(slots) = self.status_slots {
            return slots;
        }
        let slots = StatusSlots {
            free_cpu: self.trader.property_slot(node_props::FREE_CPU),
            free_ram_mb: self.trader.property_slot(node_props::FREE_RAM_MB),
            exporting: self.trader.property_slot(node_props::EXPORTING),
            owner_active: self.trader.property_slot(node_props::OWNER_ACTIVE),
            running_parts: self.trader.property_slot(node_props::RUNNING_PARTS),
        };
        self.status_slots = Some(slots);
        slots
    }

    /// Registers a node, exporting its initial (unavailable) offer.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register_node(&mut self, registration: NodeRegistration) {
        let node = registration.node;
        assert!(
            self.nodes.get(node).is_none(),
            "{node} is already registered"
        );
        let status = NodeStatus::unavailable();
        let properties = offer_properties(&registration, &status);
        let offer = self
            .trader
            .export(NODE_SERVICE_TYPE, &registration.lrm, properties)
            .expect("trader export is infallible");
        self.nodes.insert(
            node,
            NodeEntry {
                registration,
                offer,
                last_seq: 0,
                status,
                heard: None,
                older: None,
                newer: None,
            },
        );
    }

    /// Applies a status update (Information Update Protocol receiver side).
    /// Stale or unknown updates are counted and dropped.
    pub fn handle_update(&mut self, update: &StatusUpdate) {
        self.handle_update_at(update, SimTime::ZERO)
    }

    /// [`Self::handle_update`] with the receipt time recorded, enabling
    /// dead-node detection and the checkpoint repository.
    pub fn handle_update_at(&mut self, update: &StatusUpdate, now: SimTime) {
        if self.nodes.get(update.node).is_none() {
            self.stats.unknown_node += 1;
            return;
        }
        // Piggybacked outcomes are processed even when the status itself is
        // stale: they are at-least-once notices the execution layer handles
        // idempotently, and dropping them here could wedge a job whose
        // original oneway notification was lost.
        self.pending_done
            .extend(update.pending_done.iter().cloned());
        self.pending_evictions
            .extend(update.pending_evicted.iter().cloned());
        // Replica reports are likewise applied regardless of staleness:
        // `ReplicaMap::observe` never regresses a holder's version, so a
        // reordered update can only add information, and after a GRM restart
        // these re-announces are the *only* way the map gets rebuilt.
        for report in &update.replicas {
            self.replicas.observe(
                update.node,
                report.job,
                report.part,
                ReplicaInfo {
                    version: report.version,
                    work_mips_s: report.work_mips_s,
                },
            );
        }
        // Only the five dynamic properties change between updates; writing
        // them through pre-resolved slots keeps the periodic update path
        // free of per-node key allocation and property-map rebuilds.
        let slots = self.status_slots();
        let entry = self
            .nodes
            .get_mut(update.node)
            .expect("registered: checked above");
        if update.seq <= entry.last_seq {
            self.stats.stale_discarded += 1;
            return;
        }
        entry.last_seq = update.seq;
        // `entry.status` mirrors the offer's five dynamic values: this
        // method and `mark_unavailable` are their only writers and each
        // sets the two together (`trader_mut` serves federation links
        // only). An update repeating the held status therefore has nothing
        // to write, and most periodic updates repeat it.
        if update.status == entry.status {
            debug_assert!(self.offer_mirrors_status(update.node));
        } else {
            match self
                .trader
                .modify_values(entry.offer, slots.updates(&update.status))
            {
                Ok(()) => entry.status = update.status,
                Err(TraderError::UnknownOffer(_)) => {
                    self.stats.unknown_node += 1;
                    return;
                }
                Err(e) => panic!("trader modify failed unexpectedly: {e}"),
            }
        }
        self.stats.accepted += 1;
        self.set_heard(update.node, now);
        // Progress observations are seq-gated (unlike the piggyback outcomes
        // above): a reordered stale report would look like the part moving
        // backwards and poison the rate estimate.
        for report in &update.progress {
            self.observe_progress(update.node, report, now);
        }
    }

    /// Whether a registered node's trader offer holds exactly what
    /// exporting it with its accepted status would: the registration's
    /// fixed values and the five dynamic ones of `entry.status`.
    pub(crate) fn offer_mirrors_status(&self, node: NodeId) -> bool {
        let entry = &self.nodes[node];
        let expected = offer_properties(&entry.registration, &entry.status);
        self.trader
            .offer(entry.offer)
            .is_some_and(|offer| offer.properties == expected)
    }

    /// Folds one piggybacked progress report into the per-(part, executor)
    /// rate tracker.
    fn observe_progress(&mut self, node: NodeId, report: &ProgressReport, now: SimTime) {
        let key = (report.job, report.part, node);
        match self.progress.get_mut(&key) {
            Some(track) => {
                if report.done_mips_s < track.last_done {
                    // The part restarted on this node from an older resume
                    // point; start a fresh baseline.
                    track.base_done = report.done_mips_s;
                    track.base_at = now;
                    track.rate = None;
                } else {
                    let elapsed = now.duration_since(track.base_at).as_secs_f64();
                    if elapsed > 0.0 {
                        track.rate = Some((report.done_mips_s - track.base_done) as f64 / elapsed);
                    }
                }
                track.last_done = report.done_mips_s;
                track.last_at = now;
            }
            None => {
                self.progress.insert(
                    key,
                    ProgressTrack {
                        base_done: report.done_mips_s,
                        base_at: now,
                        last_done: report.done_mips_s,
                        last_at: now,
                        rate: None,
                    },
                );
            }
        }
    }

    /// The observed progress rate of `part` on `node` (MIPS-s per second),
    /// once two reports have been differenced.
    pub fn progress_rate(&self, job: JobId, part: u32, node: NodeId) -> Option<f64> {
        self.progress.get(&(job, part, node)).and_then(|t| t.rate)
    }

    /// Drops every executor's progress track for one part (it completed or
    /// was cancelled); stale tracks must not feed future median estimates.
    pub fn clear_progress(&mut self, job: JobId, part: u32) {
        let keys: Vec<_> = self
            .progress
            .range((job, part, NodeId(0))..=(job, part, NodeId(u32::MAX)))
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            self.progress.remove(&key);
        }
    }

    /// Takes `node` off the recency list (a no-op when it is not on it).
    fn clear_heard(&mut self, node: NodeId) {
        let Some(entry) = self.nodes.get_mut(node) else {
            return;
        };
        if entry.heard.take().is_none() {
            return;
        }
        let (older, newer) = (entry.older.take(), entry.newer.take());
        match older {
            Some(o) => self.nodes.get_mut(o).expect("listed").newer = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(n) => self.nodes.get_mut(n).expect("listed").older = older,
            None => self.newest = older,
        }
    }

    /// Records that the registered `node` was heard from at `now`, moving
    /// it to its place on the recency list. Receipt times arrive in clock
    /// order, so that place is the newest end; an earlier `now`
    /// ([`Self::handle_update`]'s `SimTime::ZERO`) walks back from there to
    /// keep the list sorted.
    fn set_heard(&mut self, node: NodeId, now: SimTime) {
        self.clear_heard(node);
        let mut older = self.newest;
        while let Some(entry) = older.map(|o| &self.nodes[o]) {
            if entry.heard <= Some(now) {
                break;
            }
            older = entry.older;
        }
        let newer = match older {
            Some(o) => self.nodes.get_mut(o).expect("listed").newer.replace(node),
            None => self.oldest.replace(node),
        };
        match newer {
            Some(n) => self.nodes.get_mut(n).expect("listed").older = Some(node),
            None => self.newest = Some(node),
        }
        let entry = self.nodes.get_mut(node).expect("registered");
        (entry.heard, entry.older, entry.newer) = (Some(now), older, newer);
    }

    /// The GRM's current (possibly stale) view of a node.
    pub fn node_view(&self, node: NodeId) -> Option<(&NodeRegistration, &NodeStatus)> {
        let entry = self.nodes.get(node)?;
        Some((&entry.registration, &entry.status))
    }

    /// Registered node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Update-protocol statistics.
    pub fn update_stats(&self) -> UpdateStats {
        self.stats
    }

    /// Trader query statistics (scheduling load).
    pub fn trader_queries(&self) -> u64 {
        self.trader.query_count()
    }

    /// Read access to the trader (federation-link inspection).
    pub fn trader(&self) -> &Trader {
        &self.trader
    }

    /// The trader, mutably — the federation layer installs its
    /// inter-cluster links on it and records link-follow statistics.
    pub fn trader_mut(&mut self) -> &mut Trader {
        &mut self.trader
    }

    /// Live match count for a spillover probe: how many currently
    /// exporting, non-blacklisted, registered nodes satisfy `constraint`
    /// right now. This consults the *offer set*, not a summary — the point
    /// of a linked-trader query ([`crate::protocol::FedQuery`]).
    pub fn matching_nodes(&mut self, constraint: &str) -> usize {
        let (nodes, blacklist) = (&self.nodes, &self.cert_blacklist);
        self.trader
            .count_matching(NODE_SERVICE_TYPE, constraint, |offer| {
                schedulable(offer.property(node_props::NODE_ID), blacklist)
                    .is_some_and(|node| nodes.get(node).is_some())
            })
            .unwrap_or(0)
    }

    /// Runs the trader query for a job: `constraint` from
    /// [`crate::asct::JobRequirements::to_constraint`], `preference` from
    /// [`crate::asct::SchedulingPreference::to_trader_preference`].
    /// `predictions` maps nodes to GUPA idle forecasts, attached to the
    /// returned candidates for the pattern-aware ranking stage.
    ///
    /// # Errors
    ///
    /// Propagates constraint/preference parse failures.
    pub fn candidates(
        &mut self,
        constraint: &str,
        preference: &str,
        max: usize,
        predictions: &BTreeMap<NodeId, f64>,
    ) -> Result<Vec<CandidateNode>, TraderError> {
        let hits = self
            .trader
            .query_ids(NODE_SERVICE_TYPE, constraint, preference, max)?;
        let mut out = Vec::with_capacity(hits.len());
        for id in hits {
            let node_id = self
                .trader
                .offer_ref(id)
                .and_then(|offer| offer.property(node_props::NODE_ID));
            let Some(node) = schedulable(node_id, &self.cert_blacklist) else {
                continue;
            };
            let Some(entry) = self.nodes.get(node) else {
                continue;
            };
            out.push(CandidateNode {
                node,
                host: entry.registration.host,
                status: entry.status,
                resources: entry.registration.resources,
                predicted_idle_prob: predictions.get(&node).copied(),
            });
        }
        Ok(out)
    }

    /// The LRM reference for a node (negotiation target).
    pub fn lrm_of(&self, node: NodeId) -> Option<&Ior> {
        self.nodes.get(node).map(|e| &e.registration.lrm)
    }

    /// The soft-state replica placement map (read side).
    pub fn replicas(&self) -> &ReplicaMap {
        &self.replicas
    }

    /// The replica map, mutably — the execution layer observes stores and
    /// forgets completed parts through this.
    pub fn replicas_mut(&mut self) -> &mut ReplicaMap {
        &mut self.replicas
    }

    /// Picks up to `k` distinct replica hosts for a part running on
    /// `executor`. Deterministic: currently-exporting nodes first (they are
    /// alive by definition of the last update), then the rest, each group in
    /// node-id order; the executor itself is excluded so an executor crash
    /// can never take the only replica with it.
    ///
    /// The walk stops once `k` exporting nodes are found, and keeps at most
    /// `k` of the rest in case fewer than `k` export.
    pub fn choose_replicas(&self, executor: NodeId, k: usize) -> Vec<NodeId> {
        let mut exporting = Vec::new();
        let mut rest = Vec::new();
        for entry in self.nodes.values() {
            if exporting.len() == k {
                return exporting;
            }
            let node = entry.registration.node;
            if node == executor {
                continue;
            }
            if entry.status.exporting {
                exporting.push(node);
            } else if rest.len() < k {
                rest.push(node);
            }
        }
        exporting.extend(rest);
        exporting.truncate(k);
        exporting
    }

    /// Nodes that have gone silent: exporting at last word but not heard
    /// from since `now - silence`. The GRM treats them as crashed.
    ///
    /// Walks the recency list oldest-first and stops at the first node
    /// inside the silence window, so a quiet tick costs O(1) and a tick that
    /// detects k crashes costs O(k) — the detector never rescans the full
    /// population. Results are returned in node-id order.
    pub fn silent_nodes(
        &self,
        now: SimTime,
        silence: integrade_simnet::time::SimDuration,
    ) -> Vec<NodeId> {
        let mut silent: Vec<NodeId> = Vec::new();
        let mut next = self.oldest;
        while let Some(entry) = next.map(|n| &self.nodes[n]) {
            let heard = entry.heard.expect("listed nodes have a heard time");
            if now.duration_since(heard) <= silence {
                break;
            }
            if entry.status.exporting || entry.status.running_parts > 0 {
                silent.push(entry.registration.node);
            }
            next = entry.newer;
        }
        silent.sort_unstable();
        silent
    }

    /// Marks a node as known-dead: its offer becomes unavailable so the
    /// scheduler stops considering it until it reports again.
    pub fn mark_unavailable(&mut self, node: NodeId) {
        if self.nodes.get(node).is_none() {
            return;
        }
        let status = NodeStatus::unavailable();
        let slots = self.status_slots();
        let entry = self.nodes.get_mut(node).expect("checked above");
        let _ = self
            .trader
            .modify_values(entry.offer, slots.updates(&status));
        entry.status = status;
        // Declaring the node dead ends its update session: the next
        // update it sends re-admits it regardless of sequence number.
        // Without this, a corrupted frame that decoded to a plausible
        // node id with a huge seq would poison the staleness gate and
        // deafen the GRM to that node permanently — a gray failure the
        // node itself can never observe or repair.
        entry.last_seq = 0;
        self.clear_heard(node);
    }

    /// A node's current credibility score (0 when never credited).
    pub fn cert_credibility(&self, node: NodeId) -> u32 {
        self.cert_credibility.get(&node).copied().unwrap_or(0)
    }

    /// Credits a node for a certified agreement or a passed spot check.
    /// Blacklisted nodes earn nothing — a caught liar cannot claw its way
    /// back inside one GRM incarnation.
    pub fn record_cert_agreement(&mut self, node: NodeId) {
        if self.cert_blacklist.contains(&node) {
            return;
        }
        *self.cert_credibility.entry(node).or_insert(0) += 1;
    }

    /// Punishes a digest mismatch: credibility collapses to zero and the
    /// node is blacklisted. Returns `true` when this newly blacklisted the
    /// node (callers log/count first offenses only).
    pub fn record_cert_mismatch(&mut self, node: NodeId) -> bool {
        self.cert_credibility.remove(&node);
        self.cert_blacklist.insert(node)
    }

    /// The GRM's current incarnation number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Simulates a GRM crash: everything learned through the protocols —
    /// status, sequence numbers, liveness, the replica placement map and
    /// undrained notices — is volatile and vanishes; the node registry
    /// (disk state) survives. The epoch bumps so LRMs can detect the
    /// restart from the next update ack. The checkpoints themselves live on
    /// LRM disks and are unaffected; their placement is re-learned from the
    /// replica reports on post-restart status updates.
    pub fn crash(&mut self) {
        self.epoch += 1;
        self.replicas.clear();
        self.pending_done.clear();
        self.pending_evictions.clear();
        self.progress.clear();
        // Credibility and blacklists are judgments built from protocol
        // evidence the crash just destroyed; they restart from scratch.
        self.cert_credibility.clear();
        self.cert_blacklist.clear();
        for node in self.registered() {
            self.mark_unavailable(node);
        }
    }

    /// Completes a reboot at `now`: every registered node gets a fresh
    /// liveness grace period so the crash detector doesn't declare the
    /// whole cluster dead before the first post-restart updates arrive.
    pub fn restart(&mut self, now: SimTime) {
        for node in self.registered() {
            self.set_heard(node, now);
        }
    }

    /// Every registered node id, ascending.
    fn registered(&self) -> Vec<NodeId> {
        self.nodes.values().map(|e| e.registration.node).collect()
    }

    /// Aggregates this cluster's current view into the summary the
    /// inter-cluster hierarchy propagates (\[MK02\]).
    pub fn cluster_summary(&self) -> crate::hierarchy::ClusterSummary {
        let mut summary = crate::hierarchy::ClusterSummary {
            nodes: self.nodes.len() as u32,
            ..Default::default()
        };
        for entry in self.nodes.values() {
            if !entry.status.exporting {
                continue;
            }
            summary.exporting_nodes += 1;
            summary.max_cpu_mips = summary
                .max_cpu_mips
                .max(entry.registration.resources.cpu_mips);
            summary.max_free_ram_mb = summary.max_free_ram_mb.max(entry.status.free_ram_mb);
        }
        summary
    }
}

impl GrmState {
    /// Repository id of the GRM's remote interface.
    pub const TYPE_ID: &'static str = "IDL:integrade/Grm:1.0";

    /// The GRM's inbound remote interface as one dispatch body: status
    /// updates (acknowledged with the current epoch) and the completion /
    /// eviction notifications (oneway in spirit, queued for the execution
    /// manager). `now` is the receipt time liveness tracking records; the
    /// result is encoded into `out`, the reply frame's body when the ORB
    /// dispatches.
    ///
    /// # Errors
    ///
    /// [`ServerException::BadOperation`] for any other operation name,
    /// [`ServerException::Marshal`] when the arguments do not decode.
    pub fn dispatch_into(
        &mut self,
        now: SimTime,
        operation: &str,
        args: &mut CdrReader<'_>,
        out: &mut CdrWriter,
    ) -> Result<(), ServerException> {
        use crate::protocol::{OP_PART_DONE, OP_PART_EVICTED, OP_UPDATE_STATUS};
        match operation {
            OP_UPDATE_STATUS => {
                let update = StatusUpdate::decode(args)?;
                self.handle_update_at(&update, now);
                UpdateAck {
                    epoch: self.epoch(),
                    seq: update.seq,
                }
                .encode(out);
            }
            OP_PART_DONE => self.pending_done.push(PartDone::decode(args)?),
            OP_PART_EVICTED => self.pending_evictions.push(PartEvicted::decode(args)?),
            other => return Err(ServerException::BadOperation(other.to_owned())),
        }
        Ok(())
    }

    /// This GRM as a remote object for one call arriving at `now` — what the
    /// manager host's ORB dispatches to
    /// ([`integrade_orb::orb::Orb::handle_wire_with`]).
    pub fn servant(&mut self, now: SimTime) -> GrmServant<'_> {
        GrmServant { state: self, now }
    }
}

/// A [`GrmState`] borrowed as a [`Servant`] for the duration of one call;
/// see [`GrmState::servant`].
#[derive(Debug)]
pub struct GrmServant<'a> {
    state: &'a mut GrmState,
    now: SimTime,
}

impl Servant for GrmServant<'_> {
    fn type_id(&self) -> &'static str {
        GrmState::TYPE_ID
    }

    fn dispatch(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException> {
        let mut out = CdrWriter::new();
        self.dispatch_into(operation, args, &mut out)?;
        Ok(out.into_bytes())
    }

    fn dispatch_into(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
        out: &mut CdrWriter,
    ) -> Result<(), ServerException> {
        self.state.dispatch_into(self.now, operation, args, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asct::JobRequirements;
    use integrade_orb::ior::{Endpoint, ObjectKey};
    use integrade_simnet::time::SimDuration;

    fn registration(node: u32, mips: u64) -> NodeRegistration {
        NodeRegistration {
            node: NodeId(node),
            host: HostId(node),
            resources: ResourceVector {
                cpu_mips: mips,
                ram_mb: 256,
                disk_mb: 10_000,
            },
            platform: Platform::linux_x86(),
            lrm: Ior::new(
                "IDL:integrade/Lrm:1.0",
                Endpoint::new(node, 0),
                ObjectKey::new(format!("lrm{node}")),
            ),
        }
    }

    fn exporting_status(free_cpu: f64, free_ram: u64) -> NodeStatus {
        NodeStatus {
            free_cpu_fraction: free_cpu,
            free_ram_mb: free_ram,
            owner_active: false,
            exporting: true,
            running_parts: 0,
        }
    }

    fn grm_with_nodes() -> GrmState {
        let mut grm = GrmState::new(7);
        for (node, mips) in [(1u32, 400u64), (2, 800), (3, 1200)] {
            grm.register_node(registration(node, mips));
        }
        grm
    }

    #[test]
    fn fresh_nodes_are_unavailable_until_first_update() {
        let mut grm = grm_with_nodes();
        let constraint = JobRequirements::default().to_constraint();
        let cands = grm
            .candidates(&constraint, "first", 10, &BTreeMap::new())
            .unwrap();
        assert!(cands.is_empty(), "no update yet → nothing exporting");
    }

    #[test]
    fn updates_make_nodes_schedulable() {
        let mut grm = grm_with_nodes();
        grm.handle_update(&StatusUpdate {
            node: NodeId(2),
            seq: 1,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        let constraint = JobRequirements {
            min_cpu_mips: 500,
            min_ram_mb: 64,
            ..Default::default()
        }
        .to_constraint();
        let cands = grm
            .candidates(&constraint, "max cpu_mips", 10, &BTreeMap::new())
            .unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].node, NodeId(2));
        assert_eq!(cands[0].host, HostId(2));
        assert_eq!(grm.update_stats().accepted, 1);
    }

    #[test]
    fn stale_updates_discarded() {
        let mut grm = grm_with_nodes();
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 5,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        // Older sequence arrives late (network reordering): must not regress.
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 3,
            status: NodeStatus::unavailable(),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        assert_eq!(grm.update_stats().stale_discarded, 1);
        let (_, status) = grm.node_view(NodeId(1)).unwrap();
        assert!(status.exporting, "stale unavailable must not overwrite");
    }

    #[test]
    fn unknown_node_counted() {
        let mut grm = grm_with_nodes();
        grm.handle_update(&StatusUpdate {
            node: NodeId(99),
            seq: 1,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        assert_eq!(grm.update_stats().unknown_node, 1);
    }

    #[test]
    fn preference_orders_candidates() {
        let mut grm = grm_with_nodes();
        for node in 1..=3 {
            grm.handle_update(&StatusUpdate {
                node: NodeId(node),
                seq: 1,
                status: exporting_status(0.3, 128),
                replicas: vec![],
                pending_done: vec![],
                pending_evicted: vec![],
                progress: vec![],
            });
        }
        let constraint = JobRequirements::default().to_constraint();
        let cands = grm
            .candidates(&constraint, "max cpu_mips", 10, &BTreeMap::new())
            .unwrap();
        let mips: Vec<u64> = cands.iter().map(|c| c.resources.cpu_mips).collect();
        assert_eq!(mips, vec![1200, 800, 400]);
    }

    #[test]
    fn predictions_attach_to_candidates() {
        let mut grm = grm_with_nodes();
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 1,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        let mut predictions = BTreeMap::new();
        predictions.insert(NodeId(1), 0.87);
        let constraint = JobRequirements::default().to_constraint();
        let cands = grm
            .candidates(&constraint, "first", 10, &predictions)
            .unwrap();
        assert_eq!(cands[0].predicted_idle_prob, Some(0.87));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_registration_panics() {
        let mut grm = GrmState::new(1);
        grm.register_node(registration(1, 500));
        grm.register_node(registration(1, 500));
    }

    #[test]
    fn servant_routes_operations() {
        use crate::protocol::{OP_PART_DONE, OP_PART_EVICTED, OP_UPDATE_STATUS};
        use crate::types::JobId;
        use integrade_orb::cdr::CdrEncode;

        let mut state = grm_with_nodes();
        let mut servant = state.servant(SimTime::from_secs(3));

        let update = StatusUpdate {
            node: NodeId(1),
            seq: 1,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        }
        .to_cdr_bytes();
        servant
            .dispatch(OP_UPDATE_STATUS, &mut CdrReader::new(&update))
            .unwrap();

        let done = PartDone {
            job: JobId(1),
            part: 0,
            node: NodeId(1),
            digest: 0,
        }
        .to_cdr_bytes();
        servant
            .dispatch(OP_PART_DONE, &mut CdrReader::new(&done))
            .unwrap();

        let evicted = PartEvicted {
            job: JobId(1),
            part: 0,
            node: NodeId(1),
            checkpointed_work_mips_s: 10,
            checkpoint_version: 1,
            lost_work_mips_s: 5,
        }
        .to_cdr_bytes();
        servant
            .dispatch(OP_PART_EVICTED, &mut CdrReader::new(&evicted))
            .unwrap();
        assert!(matches!(
            servant.dispatch("nope", &mut CdrReader::new(&[])),
            Err(ServerException::BadOperation(_))
        ));
        assert_eq!(state.update_stats().accepted, 1);
        assert_eq!(state.pending_done.len(), 1);
        assert_eq!(state.pending_evictions.len(), 1);
        // The receipt time is the caller's `now`, not a silent zero: past it
        // by more than the silence bound, the node counts as silent.
        use integrade_simnet::time::SimDuration;
        let bound = SimDuration::from_secs(10);
        assert!(state.silent_nodes(SimTime::from_secs(12), bound).is_empty());
        assert_eq!(
            state.silent_nodes(SimTime::from_secs(14), bound),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn lrm_reference_lookup() {
        let grm = grm_with_nodes();
        assert!(grm.lrm_of(NodeId(2)).is_some());
        assert!(grm.lrm_of(NodeId(42)).is_none());
        assert_eq!(grm.node_count(), 3);
    }

    #[test]
    fn update_ack_carries_epoch_and_seq() {
        use crate::protocol::OP_UPDATE_STATUS;
        use integrade_orb::cdr::CdrEncode;
        let mut state = grm_with_nodes();
        let update = StatusUpdate {
            node: NodeId(1),
            seq: 9,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        }
        .to_cdr_bytes();
        let mut servant = state.servant(SimTime::ZERO);
        let out = servant
            .dispatch(OP_UPDATE_STATUS, &mut CdrReader::new(&update))
            .unwrap();
        let ack = UpdateAck::from_cdr_bytes(&out).unwrap();
        assert_eq!(ack, UpdateAck { epoch: 1, seq: 9 });
        // In place, behind a prefix: the same bytes after it.
        let mut in_place = CdrWriter::append_to(vec![0xEE; 3]);
        servant
            .dispatch_into(
                OP_UPDATE_STATUS,
                &mut CdrReader::new(&update),
                &mut in_place,
            )
            .unwrap();
        assert_eq!(in_place.into_bytes()[3..], out);
    }

    #[test]
    fn crash_wipes_soft_state_and_bumps_epoch() {
        use crate::types::JobId;
        let mut grm = grm_with_nodes();
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 5,
            status: exporting_status(0.3, 128),
            replicas: vec![crate::protocol::ReplicaReport {
                job: JobId(1),
                part: 0,
                version: 4,
                work_mips_s: 400,
            }],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        assert_eq!(grm.replicas().holders(JobId(1), 0).len(), 1);
        grm.crash();
        assert_eq!(grm.epoch(), 2);
        assert!(
            grm.replicas().holders(JobId(1), 0).is_empty(),
            "placement map is volatile"
        );
        let (_, status) = grm.node_view(NodeId(1)).unwrap();
        assert!(!status.exporting, "all nodes unavailable after restart");
        // Sequence tracking was wiped: the LRM's next update (seq 6, or even
        // a full re-announce at any seq) is accepted, not discarded as stale.
        // Its piggybacked replica report rebuilds the placement map — the
        // whole of the GRM-restart repository recovery protocol.
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 1,
            status: exporting_status(0.3, 128),
            replicas: vec![crate::protocol::ReplicaReport {
                job: JobId(1),
                part: 0,
                version: 4,
                work_mips_s: 400,
            }],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        let (_, status) = grm.node_view(NodeId(1)).unwrap();
        assert!(status.exporting, "post-restart re-announce accepted");
        let holders = grm.replicas().holders(JobId(1), 0);
        assert_eq!(
            holders,
            vec![(
                NodeId(1),
                ReplicaInfo {
                    version: 4,
                    work_mips_s: 400
                }
            )]
        );
    }

    #[test]
    fn restart_grants_fresh_liveness_grace() {
        use integrade_simnet::time::SimDuration;
        let mut grm = grm_with_nodes();
        grm.handle_update_at(
            &StatusUpdate {
                node: NodeId(1),
                seq: 1,
                status: exporting_status(0.3, 128),
                replicas: vec![],
                pending_done: vec![],
                pending_evicted: vec![],
                progress: vec![],
            },
            SimTime::from_secs(10),
        );
        grm.crash();
        let now = SimTime::from_secs(5000);
        grm.restart(now);
        assert!(
            grm.silent_nodes(
                now + SimDuration::from_secs(30),
                SimDuration::from_secs(120)
            )
            .is_empty(),
            "grace period after restart"
        );
    }

    #[test]
    fn choose_replicas_prefers_exporting_nodes_and_skips_executor() {
        let mut grm = grm_with_nodes();
        // Only node 3 is exporting; nodes 1 and 2 are still unavailable.
        grm.handle_update(&StatusUpdate {
            node: NodeId(3),
            seq: 1,
            status: exporting_status(0.5, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        assert_eq!(
            grm.choose_replicas(NodeId(3), 2),
            vec![NodeId(1), NodeId(2)],
            "executor excluded even when exporting"
        );
        assert_eq!(
            grm.choose_replicas(NodeId(1), 2),
            vec![NodeId(3), NodeId(2)],
            "exporting nodes come first"
        );
        assert_eq!(grm.choose_replicas(NodeId(1), 10).len(), 2);
    }

    #[test]
    fn choose_replicas_equals_the_full_scan() {
        // The order the early-stopping walk must reproduce: every exporting
        // node in id order, then the rest, executor excluded, cut at k.
        let full_scan = |grm: &GrmState, executor: NodeId, k: usize| {
            let (mut exporting, rest): (Vec<_>, Vec<_>) = grm
                .nodes
                .values()
                .filter(|e| e.registration.node != executor)
                .partition(|e| e.status.exporting);
            exporting.extend(rest);
            let mut order: Vec<NodeId> = exporting.iter().map(|e| e.registration.node).collect();
            order.truncate(k);
            order
        };
        // Ten registered ids with holes at 3 and 9.
        let ids: Vec<u32> = (0..12).filter(|n| *n != 3 && *n != 9).collect();
        let exporting_sets: [&[u32]; 5] =
            [&[], &[7], &[0, 1, 2], &[0, 1, 2, 4, 5, 6], &[2, 5, 8, 11]];
        for exporting in exporting_sets {
            let mut grm = GrmState::new(7);
            for &n in &ids {
                grm.register_node(registration(n, 500));
            }
            for &n in exporting {
                grm.handle_update(&StatusUpdate {
                    node: NodeId(n),
                    seq: 1,
                    status: exporting_status(0.5, 128),
                    replicas: vec![],
                    pending_done: vec![],
                    pending_evicted: vec![],
                    progress: vec![],
                });
            }
            for executor in (0..13).map(NodeId) {
                for k in [0, 1, 2, 3, ids.len()] {
                    assert_eq!(
                        grm.choose_replicas(executor, k),
                        full_scan(&grm, executor, k),
                        "exporting {exporting:?}, executor {executor}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn piggybacked_outcomes_processed_even_when_stale() {
        use crate::types::JobId;
        let mut grm = grm_with_nodes();
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 5,
            status: exporting_status(0.3, 128),
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        });
        // A reordered (stale) update still delivers its piggybacked notice.
        grm.handle_update(&StatusUpdate {
            node: NodeId(1),
            seq: 3,
            status: NodeStatus::unavailable(),
            replicas: vec![],
            pending_done: vec![PartDone {
                job: JobId(7),
                part: 1,
                node: NodeId(1),
                digest: 0,
            }],
            pending_evicted: vec![],
            progress: vec![],
        });
        assert_eq!(grm.update_stats().stale_discarded, 1);
        assert_eq!(grm.pending_done.len(), 1);
        assert_eq!(grm.pending_done[0].job, JobId(7));
    }

    #[test]
    fn update_from_a_bit_flipped_node_id_is_counted_and_stores_nothing() {
        // `NodeId(u32::MAX)` is what a corrupted frame can decode to: the
        // lookup must miss without the table growing towards that index.
        let mut grm = grm_with_nodes();
        for node in [NodeId(u32::MAX), NodeId(4), NodeId(0)] {
            grm.handle_update_at(
                &StatusUpdate {
                    node,
                    seq: 1,
                    status: exporting_status(0.3, 128),
                    replicas: vec![],
                    pending_done: vec![],
                    pending_evicted: vec![],
                    progress: vec![],
                },
                SimTime::from_secs(1),
            );
            assert!(grm.node_view(node).is_none());
            assert!(grm.lrm_of(node).is_none());
            grm.mark_unavailable(node);
        }
        assert_eq!(grm.update_stats().unknown_node, 3);
        assert_eq!(grm.update_stats().accepted, 0);
        assert_eq!(grm.node_count(), 3);
        assert_eq!(grm.nodes.values().count(), 3);
        assert!(grm
            .silent_nodes(SimTime::from_secs(1_000), SimDuration::ZERO)
            .is_empty());
    }

    /// The recency list is well formed: sorted by heard time, the same
    /// walked from either end, and holding exactly the nodes with a heard
    /// time.
    fn assert_recency_list_is_sound(grm: &GrmState) {
        let mut forward = Vec::new();
        let mut next = grm.oldest;
        while let Some(node) = next {
            assert!(forward.len() < grm.node_count(), "cycle in the list");
            forward.push(node);
            next = grm.nodes[node].newer;
        }
        let mut backward = Vec::new();
        let mut next = grm.newest;
        while let Some(node) = next {
            assert!(backward.len() < grm.node_count(), "cycle in the list");
            backward.push(node);
            next = grm.nodes[node].older;
        }
        backward.reverse();
        assert_eq!(forward, backward);
        let times: Vec<SimTime> = forward
            .iter()
            .map(|n| grm.nodes[*n].heard.expect("listed"))
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        let mut listed = forward;
        listed.sort_unstable();
        let heard: Vec<NodeId> = grm
            .nodes
            .values()
            .filter(|e| e.heard.is_some())
            .map(|e| e.registration.node)
            .collect();
        assert_eq!(listed, heard);
    }

    /// What the model remembers about one node.
    #[derive(Debug, Clone, Copy, Default)]
    struct ModelNode {
        heard: Option<SimTime>,
        last_seq: u64,
        watched: bool,
    }

    proptest::proptest! {
        /// `silent_nodes` off the recency list equals a full scan of a
        /// per-node model, whatever the interleaving of updates (in clock
        /// order, out of order, stale), death notices, crashes and restarts.
        #[test]
        fn silent_nodes_matches_a_full_scan(ops in proptest::collection::vec(
            (0u8..10, 0u32..6, 0u64..40_000_000, 0u8..4, 0u8..5),
            1..120,
        )) {
            use proptest::prelude::*;
            const NODES: u32 = 6;
            let mut grm = GrmState::new(3);
            for node in 0..NODES {
                grm.register_node(registration(node, 500));
            }
            let mut model = [ModelNode::default(); NODES as usize];
            let mut clock = SimTime::ZERO;
            let (mut accepted, mut stale) = (0u64, 0u64);
            for (kind, node, micros, seq_step, shape) in ops {
                clock += SimDuration::from_micros(micros);
                let m = &mut model[node as usize];
                match kind {
                    // Updates: mostly at the clock, some from the past (a
                    // delayed frame, or `handle_update`'s time zero), some
                    // with a sequence number already seen.
                    0..=6 => {
                        let at = match kind {
                            0..=3 => clock,
                            4 => SimTime::from_micros(clock.as_micros().saturating_sub(micros * 3)),
                            5 => SimTime::from_micros(clock.as_micros() / 2),
                            _ => SimTime::ZERO,
                        };
                        let seq = (m.last_seq + u64::from(seq_step)).max(1) - u64::from(seq_step == 0);
                        let status = NodeStatus {
                            exporting: shape != 0,
                            running_parts: u32::from(shape == 4),
                            ..exporting_status(0.3, 128)
                        };
                        let update = StatusUpdate {
                            node: NodeId(node),
                            seq,
                            status,
                            replicas: vec![],
                            pending_done: vec![],
                            pending_evicted: vec![],
                            progress: vec![],
                        };
                        if kind == 6 {
                            grm.handle_update(&update);
                        } else {
                            grm.handle_update_at(&update, at);
                        }
                        if seq > m.last_seq {
                            *m = ModelNode {
                                heard: Some(at),
                                last_seq: seq,
                                watched: status.exporting || status.running_parts > 0,
                            };
                            accepted += 1;
                        } else {
                            stale += 1;
                        }
                    }
                    7 => {
                        grm.mark_unavailable(NodeId(node));
                        *m = ModelNode::default();
                    }
                    8 => {
                        grm.crash();
                        model = [ModelNode::default(); NODES as usize];
                    }
                    _ => {
                        grm.restart(clock);
                        for m in &mut model {
                            m.heard = Some(clock);
                        }
                    }
                }
                assert_recency_list_is_sound(&grm);
                prop_assert_eq!(grm.update_stats().accepted, accepted);
                prop_assert_eq!(grm.update_stats().stale_discarded, stale);
                for ahead in [0u64, 45, 600] {
                    for silence in [0u64, 30, 120] {
                        let now = clock + SimDuration::from_secs(ahead);
                        let silence = SimDuration::from_secs(silence);
                        let scan: Vec<NodeId> = (0..NODES)
                            .filter(|n| {
                                let m = model[*n as usize];
                                m.watched
                                    && m.heard.is_some_and(|t| now.duration_since(t) > silence)
                            })
                            .map(NodeId)
                            .collect();
                        prop_assert_eq!(grm.silent_nodes(now, silence), scan);
                    }
                }
            }
        }

        /// Every node's offer holds its accepted status after every step,
        /// whatever the interleaving of fresh, stale and unchanged updates,
        /// death notices, crashes and restarts: the invariant that lets
        /// `handle_update_at` skip the trader write of an unchanged status.
        /// The accepted status is the model's: the last fresh update's,
        /// unavailable after a death notice or a crash.
        #[test]
        fn offers_mirror_the_accepted_status(ops in proptest::collection::vec(
            (0u8..8, 0u32..4, 0usize..4, 0u64..3),
            1..150,
        )) {
            use proptest::prelude::*;
            const NODES: u32 = 4;
            let shapes = [
                exporting_status(0.3, 128),
                exporting_status(0.7, 64),
                NodeStatus {
                    running_parts: 2,
                    ..exporting_status(0.3, 128)
                },
                NodeStatus::unavailable(),
            ];
            let mut grm = GrmState::new(5);
            for node in 0..NODES {
                grm.register_node(registration(node, 500));
            }
            let mut sent = [0u64; NODES as usize];
            let mut held = [NodeStatus::unavailable(); NODES as usize];
            let mut clock = SimTime::ZERO;
            for (kind, node, shape, step) in ops {
                clock += SimDuration::from_secs(7);
                let id = NodeId(node);
                let (seq, status) = match kind {
                    // Fresh, with one of the shapes (often the held one).
                    0..=2 => (sent[node as usize] + 1 + step, shapes[shape]),
                    // Fresh, repeating the held status exactly.
                    3 => (sent[node as usize] + 1, grm.nodes[id].status),
                    // Stale or repeated sequence number, any shape.
                    4 => (sent[node as usize].saturating_sub(step), shapes[shape]),
                    5 => {
                        grm.mark_unavailable(id);
                        sent[node as usize] = 0;
                        held[node as usize] = NodeStatus::unavailable();
                        (0, shapes[0])
                    }
                    6 => {
                        grm.crash();
                        sent = [0; NODES as usize];
                        held = [NodeStatus::unavailable(); NODES as usize];
                        (0, shapes[0])
                    }
                    _ => {
                        grm.restart(clock);
                        (0, shapes[0])
                    }
                };
                if kind <= 3 {
                    held[node as usize] = status;
                }
                if kind <= 4 {
                    sent[node as usize] = sent[node as usize].max(seq);
                    grm.handle_update_at(
                        &StatusUpdate {
                            node: id,
                            seq,
                            status,
                            replicas: vec![],
                            pending_done: vec![],
                            pending_evicted: vec![],
                            progress: vec![],
                        },
                        clock,
                    );
                }
                for n in 0..NODES {
                    prop_assert_eq!(grm.nodes[NodeId(n)].status, held[n as usize]);
                    prop_assert!(grm.offer_mirrors_status(NodeId(n)), "node {n} after {kind}");
                }
            }
        }
    }
}
