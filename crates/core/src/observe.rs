//! Grid-side observability wiring: one [`GridObs`] bundle per grid.
//!
//! The bundle owns the metrics [`Registry`], the causal-trace
//! [`SpanRecorder`] and the hot-loop [`Profiler`], plus a pre-resolved
//! handle for every metric the grid updates. Handles are resolved once at
//! grid assembly, so the hot path never hashes a metric name.
//!
//! Two kinds of metrics live here:
//!
//! * **Live counters/histograms** are updated at the instant the event
//!   happens (a retransmit, a reserve round-trip completing). These are
//!   the only metrics the simulation loop touches.
//! * **Mirror counters** shadow statistics that components already keep
//!   internally ([`NetStats`], [`QueueStats`], GRM update stats, ORB
//!   traffic). They are synced wholesale via [`GridObs::sync_mirrors`]
//!   when a snapshot is taken, costing nothing in between.
//!
//! Everything here is passive: no RNG draws, no event scheduling, no
//! protocol ids are consumed. Disabling metrics cannot change a run.

use integrade_obs::metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use integrade_obs::profile::Profiler;
use integrade_obs::span::SpanRecorder;
use integrade_orb::OrbStats;
use integrade_simnet::event::QueueStats;
use integrade_simnet::net::NetStats;

use crate::grm::UpdateStats;

/// Observability bundle threaded through the grid world.
#[derive(Debug)]
pub struct GridObs {
    /// The metric registry backing every handle below.
    pub registry: Registry,
    /// Causal trace spans keyed on protocol request ids.
    pub spans: SpanRecorder,
    /// Hot-loop phase timers (no-ops unless the `profile` feature is on).
    pub profiler: Profiler,

    // --- live counters, bumped as events happen -------------------------
    /// Request frames retransmitted after a timeout.
    pub retransmits: Counter,
    /// Frames dropped before transmission (destination down or faulted).
    pub drops: Counter,
    /// Requests abandoned after exhausting every retransmit attempt.
    pub timeouts: Counter,
    /// Frames delivered with an injected payload corruption.
    pub net_corrupt: Counter,
    /// Checkpoint-store writes answered from the dedup index.
    pub dedup_hits: Counter,
    /// Checkpoint blobs that failed integrity verification on read.
    pub corrupt_detected: Counter,
    /// Checkpoint blobs evicted by repository garbage collection.
    pub repo_gc: Counter,
    /// Reservations that expired before a launch arrived.
    pub lease_expired: Counter,
    /// Node crash events (injected or scripted).
    pub node_crashes: Counter,
    /// GRM crash events.
    pub grm_crashes: Counter,
    /// Parts whose observed progress rate tripped the straggler detector
    /// (past hysteresis).
    pub straggler_detected: Counter,
    /// Speculative twin executions launched for straggling parts.
    pub spec_launched: Counter,
    /// Speculations where the twin finished before the straggling primary.
    pub spec_won: Counter,
    /// Speculative executions (twin or overtaken primary) torn down after
    /// the race resolved.
    pub spec_cancelled: Counter,
    /// Work executed by speculation losers and then discarded, MIPS-s.
    pub spec_wasted_mips_s: Counter,
    /// Result-digest votes recorded by the certification engine.
    pub cert_votes: Counter,
    /// Parts whose result digest was certified (quorum, trusted executor,
    /// or passed spot check).
    pub cert_certified: Counter,
    /// Certification re-executions launched (votes beyond each part's
    /// first execution).
    pub cert_reexecutions: Counter,
    /// Digest mismatches detected (losing voters and failed spot checks).
    pub cert_mismatches: Counter,
    /// Known-answer spot-check probes evaluated.
    pub cert_spot_checks: Counter,
    /// Executors newly blacklisted for a wrong result.
    pub cert_blacklisted: Counter,
    /// Work executed by certification re-runs, MIPS-s (redundancy paid for
    /// integrity).
    pub cert_redundant_mips_s: Counter,
    /// Parts delivered with a digest that differs from the canonical result
    /// — the omniscient ground-truth error counter (counts in every mode,
    /// certification on or off).
    pub cert_wrong_delivered: Counter,

    // --- live histograms ------------------------------------------------
    /// Reserve/launch round-trip latency, in sim seconds.
    pub negotiation_latency_s: Histogram,
    /// Checkpoint-store round-trip latency, in sim seconds.
    pub store_rtt_s: Histogram,
    /// Candidates returned per trader query during scheduling.
    pub trader_depth: Histogram,
    /// Event-queue occupancy sampled at every slot tick.
    pub queue_depth: Histogram,

    // --- live gauges ----------------------------------------------------
    /// Nodes currently in the active scheduling set.
    pub active_nodes: Gauge,

    // --- mirrors of component-internal stats (synced on snapshot) -------
    net_messages: Counter,
    net_bytes: Counter,
    net_failures: Counter,
    net_drops: Counter,
    net_corrupted: Counter,
    updates_accepted: Counter,
    updates_stale: Counter,
    updates_unknown: Counter,
    trader_queries: Counter,
    orb_requests_sent: Counter,
    orb_oneways_sent: Counter,
    orb_replies_received: Counter,
    orb_requests_dispatched: Counter,
    queue_peak_heap_depth: Gauge,
    queue_wheel_scheduled: Counter,
    queue_heap_scheduled: Counter,
}

/// Round-trip latency buckets, in sim seconds. The request timeout is 30 s
/// by default, so the top explicit bucket sits there; anything above is a
/// retransmitted straggler landing in +Inf.
const RTT_BOUNDS_S: &[f64] = &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0];

/// Trader candidate-list depth buckets (the default cap is 64).
const DEPTH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Event-queue occupancy buckets, wide enough for 50k-node cells.
const QUEUE_BOUNDS: &[f64] = &[
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
];

impl GridObs {
    /// Builds the bundle and registers every metric exactly once.
    pub fn new() -> Self {
        let registry = Registry::new();
        GridObs {
            retransmits: registry.counter("grid_retransmits"),
            drops: registry.counter("grid_drops"),
            timeouts: registry.counter("grid_timeouts"),
            net_corrupt: registry.counter("grid_corrupt_injected"),
            dedup_hits: registry.counter("repo_dedup_hits"),
            corrupt_detected: registry.counter("repo_corrupt_detected"),
            repo_gc: registry.counter("repo_gc_evictions"),
            lease_expired: registry.counter("grid_lease_expired"),
            node_crashes: registry.counter_with("grid_crashes", &[("kind", "node")]),
            grm_crashes: registry.counter_with("grid_crashes", &[("kind", "grm")]),
            straggler_detected: registry.counter("grid_straggler_detected"),
            spec_launched: registry.counter("grid_spec_launched"),
            spec_won: registry.counter("grid_spec_won"),
            spec_cancelled: registry.counter("grid_spec_cancelled"),
            spec_wasted_mips_s: registry.counter("grid_spec_wasted_mips_s"),
            cert_votes: registry.counter("grid_cert_votes"),
            cert_certified: registry.counter("grid_cert_certified"),
            cert_reexecutions: registry.counter("grid_cert_reexecutions"),
            cert_mismatches: registry.counter("grid_cert_mismatches"),
            cert_spot_checks: registry.counter("grid_cert_spot_checks"),
            cert_blacklisted: registry.counter("grid_cert_blacklisted"),
            cert_redundant_mips_s: registry.counter("grid_cert_redundant_mips_s"),
            cert_wrong_delivered: registry.counter("grid_cert_wrong_delivered"),
            negotiation_latency_s: registry
                .histogram("grid_negotiation_latency_seconds", RTT_BOUNDS_S),
            store_rtt_s: registry.histogram("grid_checkpoint_store_rtt_seconds", RTT_BOUNDS_S),
            trader_depth: registry.histogram("grid_trader_query_depth", DEPTH_BOUNDS),
            queue_depth: registry.histogram("grid_event_queue_depth", QUEUE_BOUNDS),
            active_nodes: registry.gauge("grid_active_nodes"),
            net_messages: registry.counter("net_messages"),
            net_bytes: registry.counter("net_bytes"),
            net_failures: registry.counter("net_failures"),
            net_drops: registry.counter("net_fault_drops"),
            net_corrupted: registry.counter("net_fault_corrupted"),
            updates_accepted: registry.counter_with("grm_updates", &[("verdict", "accepted")]),
            updates_stale: registry.counter_with("grm_updates", &[("verdict", "stale")]),
            updates_unknown: registry.counter_with("grm_updates", &[("verdict", "unknown_node")]),
            trader_queries: registry.counter("grm_trader_queries"),
            orb_requests_sent: registry.counter("orb_requests_sent"),
            orb_oneways_sent: registry.counter("orb_oneways_sent"),
            orb_replies_received: registry.counter("orb_replies_received"),
            orb_requests_dispatched: registry.counter("orb_requests_dispatched"),
            queue_peak_heap_depth: registry.gauge("event_queue_peak_heap_depth"),
            queue_wheel_scheduled: registry.counter("event_queue_wheel_scheduled"),
            queue_heap_scheduled: registry.counter("event_queue_heap_scheduled"),
            spans: SpanRecorder::new(),
            profiler: Profiler::new(),
            registry,
        }
    }

    /// Enables or disables metric updates and span recording together.
    ///
    /// Mirror counters keep syncing regardless (they shadow stats the
    /// components maintain anyway), so snapshots stay meaningful.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.registry.set_enabled(enabled);
        self.spans.set_enabled(enabled);
    }

    /// Whether live metric updates are currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Copies component-internal statistics onto their mirror metrics.
    ///
    /// Called by the grid just before a snapshot; each mirror is set to
    /// the component's absolute total (`set_total`, not an increment).
    pub fn sync_mirrors(
        &self,
        net: &NetStats,
        updates: UpdateStats,
        trader_queries: u64,
        queue: &QueueStats,
        orb: OrbStats,
    ) {
        self.net_messages.set_total(net.messages);
        self.net_bytes.set_total(net.bytes);
        self.net_failures.set_total(net.failures);
        self.net_drops.set_total(net.drops);
        self.net_corrupted.set_total(net.corrupted);
        self.updates_accepted.set_total(updates.accepted);
        self.updates_stale.set_total(updates.stale_discarded);
        self.updates_unknown.set_total(updates.unknown_node);
        self.trader_queries.set_total(trader_queries);
        self.orb_requests_sent.set_total(orb.requests_sent);
        self.orb_oneways_sent.set_total(orb.oneways_sent);
        self.orb_replies_received.set_total(orb.replies_received);
        self.orb_requests_dispatched
            .set_total(orb.requests_dispatched);
        self.queue_peak_heap_depth.set(queue.peak_heap_depth as f64);
        self.queue_wheel_scheduled.set_total(queue.wheel_scheduled);
        self.queue_heap_scheduled.set_total(queue.heap_scheduled);
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Default for GridObs {
    fn default() -> Self {
        GridObs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_register_once_and_update() {
        let obs = GridObs::new();
        obs.retransmits.inc();
        obs.retransmits.inc();
        obs.negotiation_latency_s.observe(0.3);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("grid_retransmits"), Some(2));
        let hist = snap.histogram("grid_negotiation_latency_seconds").unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn mirrors_track_component_totals() {
        let obs = GridObs::new();
        let net = NetStats {
            messages: 10,
            bytes: 1024,
            failures: 1,
            drops: 2,
            corrupted: 0,
        };
        let updates = UpdateStats {
            accepted: 7,
            stale_discarded: 1,
            unknown_node: 0,
        };
        let queue = QueueStats::default();
        let orb = OrbStats {
            requests_sent: 5,
            oneways_sent: 2,
            replies_received: 3,
            requests_dispatched: 4,
        };
        obs.sync_mirrors(&net, updates, 9, &queue, orb);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("net_messages"), Some(10));
        assert_eq!(
            snap.counter_total("grm_updates"),
            8,
            "labeled family sums across verdicts"
        );
        assert_eq!(snap.counter("grm_trader_queries"), Some(9));
        assert_eq!(snap.counter("orb_oneways_sent"), Some(2));
    }

    #[test]
    fn disabling_stops_live_updates_but_not_mirrors() {
        let mut obs = GridObs::new();
        obs.set_enabled(false);
        obs.drops.inc();
        obs.sync_mirrors(
            &NetStats {
                messages: 3,
                ..NetStats::default()
            },
            UpdateStats::default(),
            0,
            &QueueStats::default(),
            OrbStats::default(),
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("grid_drops"), Some(0));
        assert_eq!(snap.counter("net_messages"), Some(3));
    }
}
