//! Message-level network model on top of a [`Topology`].
//!
//! [`Network`] computes when a message sent now would arrive, accounting for
//! path latency, serialisation at the bottleneck link, and per-host NIC
//! egress queueing (a host transmits one message at a time). The caller — a
//! discrete-event [`World`](crate::event::World) — schedules its own
//! delivery event after the returned delay, which keeps the network model
//! independent of the event payload type.

use crate::faults::{FaultDecision, FaultPlan};
use crate::idmap::IdMap;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, PathQuality, Topology, TopologyError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors when sending a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Routing failed (unknown host, switch endpoint or partition).
    Route(TopologyError),
    /// Destination host is down.
    HostDown(HostId),
    /// The message was lost to injected random loss (see [`FaultPlan`]).
    Dropped {
        /// Sending host.
        from: HostId,
        /// Intended destination.
        to: HostId,
    },
    /// An active scheduled partition severs the path (see [`FaultPlan`]).
    Partitioned {
        /// Sending host.
        from: HostId,
        /// Intended destination.
        to: HostId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Route(e) => write!(f, "routing failed: {e}"),
            NetError::HostDown(h) => write!(f, "destination host {h} is down"),
            NetError::Dropped { from, to } => write!(f, "message {from} -> {to} dropped"),
            NetError::Partitioned { from, to } => {
                write!(f, "partition severs {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Route(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for NetError {
    fn from(e: TopologyError) -> Self {
        NetError::Route(e)
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages successfully scheduled for delivery.
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Messages that failed to route.
    pub failures: u64,
    /// Messages lost to injected faults (random loss or partitions).
    pub drops: u64,
    /// Messages delivered with an injected payload corruption.
    pub corrupted: u64,
}

/// A successfully scheduled delivery: when it lands and whether the fault
/// layer corrupted it in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Delay until arrival; the caller schedules delivery at `now + delay`.
    pub delay: SimDuration,
    /// When `Some(r)`, the caller must flip bit `r % (len * 8)` of the frame
    /// before delivering it (see [`FaultDecision::Deliver`]).
    pub corrupt: Option<u64>,
}

/// The network model: topology + per-host egress serialisation + statistics.
///
/// # Examples
///
/// ```
/// use integrade_simnet::net::Network;
/// use integrade_simnet::topology::{Topology, LinkSpec};
/// use integrade_simnet::time::SimTime;
///
/// let (topo, _, hosts) = Topology::star_cluster(2, LinkSpec::lan_100mbps());
/// let mut net = Network::new(topo);
/// let delay = net.send(SimTime::ZERO, hosts[0], hosts[1], 1_000).unwrap();
/// assert!(delay.as_micros() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    /// Per sending host: when its NIC is next free, and its message count.
    egress: IdMap<HostId, Egress>,
    stats: NetStats,
    faults: FaultPlan,
}

#[derive(Debug, Clone, Copy, Default)]
struct Egress {
    /// Instant at which the host's NIC becomes free to transmit.
    free_at: SimTime,
    /// Messages the host has sent.
    sent: u64,
}

impl Network {
    /// Wraps a topology in the message model with no fault injection.
    pub fn new(topology: Topology) -> Self {
        Network {
            topology,
            egress: IdMap::new(),
            stats: NetStats::default(),
            faults: FaultPlan::quiet(),
        }
    }

    /// Shared access to the underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the underlying topology (e.g. to fail hosts).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Installs a fault plan; subsequent sends are subject to it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The currently installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Computes the delivery delay for a message of `bytes` payload sent at
    /// `now` from `from` to `to`, updating the sender's egress queue.
    ///
    /// The caller should schedule delivery at `now + returned delay`.
    ///
    /// # Errors
    ///
    /// Fails if the destination is a known host that is down
    /// ([`NetError::HostDown`]), if routing fails ([`NetError::Route`]), or
    /// if the installed [`FaultPlan`] severs or drops the message. Routing
    /// and liveness failures count in [`NetStats::failures`]; injected
    /// losses count in [`NetStats::drops`]. Failed sends do not occupy the
    /// NIC.
    pub fn send(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Result<SimDuration, NetError> {
        self.send_checked(now, from, to, bytes).map(|d| d.delay)
    }

    /// Like [`Network::send`], but also surfaces an injected in-flight
    /// payload corruption so the caller can flip the drawn bit in the frame
    /// it delivers. Callers that ignore corruption (abstract traffic whose
    /// bytes never materialise) can keep using `send`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::send`].
    pub fn send_checked(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Result<Delivery, NetError> {
        // Liveness before routing: `path_quality` also fails for a down
        // endpoint, which used to shadow the more precise `HostDown` error.
        // Guard on `name_of` so unknown ids still surface as routing errors
        // (`is_up` reports false for hosts the topology has never seen).
        if self.topology.name_of(to).is_some() && !self.topology.is_up(to) {
            self.stats.failures += 1;
            return Err(NetError::HostDown(to));
        }
        let quality = match self.topology.path_quality(from, to) {
            Ok(q) => q,
            Err(e) => {
                self.stats.failures += 1;
                return Err(e.into());
            }
        };
        let (jitter, corrupt) = match self.faults.decide(now, from, to) {
            FaultDecision::Deliver { jitter, corrupt } => (jitter, corrupt),
            FaultDecision::Drop => {
                self.stats.drops += 1;
                return Err(NetError::Dropped { from, to });
            }
            FaultDecision::Partitioned => {
                self.stats.drops += 1;
                return Err(NetError::Partitioned { from, to });
            }
        };
        let delay = self.enqueue(now, from, bytes, quality) + jitter;
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if corrupt.is_some() {
            self.stats.corrupted += 1;
        }
        Ok(Delivery { delay, corrupt })
    }

    /// Books a send that will be delivered on the sender's NIC — it queues
    /// behind the host's earlier transmissions and counts towards
    /// [`Network::sent_by`] — and returns its total delay.
    fn enqueue(&mut self, now: SimTime, from: HostId, bytes: u64, q: PathQuality) -> SimDuration {
        let egress = self.egress.get_or_insert_with(from, Egress::default);
        let start = egress.free_at.max(now);
        let tx_us =
            (bytes.saturating_mul(8) as u128 * 1_000_000 / q.bottleneck_bps.max(1) as u128) as u64;
        let tx = SimDuration::from_micros(tx_us);
        egress.free_at = start + tx;
        egress.sent += 1;
        (start - now) + tx + q.latency
    }

    /// Path quality between two hosts (routing only, no queueing).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::path_quality`].
    pub fn path_quality(&mut self, from: HostId, to: HostId) -> Result<PathQuality, NetError> {
        Ok(self.topology.path_quality(from, to)?)
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Messages sent by one host.
    pub fn sent_by(&self, host: HostId) -> u64 {
        self.egress.get(host).map_or(0, |e| e.sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn pair() -> (Network, HostId, HostId) {
        let (topo, _, hosts) = Topology::star_cluster(2, LinkSpec::lan_100mbps());
        (Network::new(topo), hosts[0], hosts[1])
    }

    #[test]
    fn delay_is_latency_plus_serialisation() {
        let (mut net, a, b) = pair();
        // 100 Mbps, two hops of 200 µs latency; 12_500 bytes = 100_000 bits
        // = 1000 µs at 100 Mbps.
        let d = net.send(SimTime::ZERO, a, b, 12_500).unwrap();
        assert_eq!(d, SimDuration::from_micros(400 + 1000));
    }

    #[test]
    fn egress_serialises_back_to_back_sends() {
        let (mut net, a, b) = pair();
        let d1 = net.send(SimTime::ZERO, a, b, 12_500).unwrap();
        let d2 = net.send(SimTime::ZERO, a, b, 12_500).unwrap();
        // Second message waits for the first transmission (1000 µs).
        assert_eq!(d2, d1 + SimDuration::from_micros(1000));
    }

    #[test]
    fn egress_frees_up_over_time() {
        let (mut net, a, b) = pair();
        net.send(SimTime::ZERO, a, b, 12_500).unwrap();
        // Sending after the NIC is free incurs no queueing.
        let later = SimTime::from_micros(10_000);
        let d = net.send(later, a, b, 12_500).unwrap();
        assert_eq!(d, SimDuration::from_micros(1400));
    }

    #[test]
    fn distinct_senders_do_not_queue_on_each_other() {
        let (mut net, a, b) = pair();
        net.send(SimTime::ZERO, a, b, 1_000_000).unwrap();
        let d = net.send(SimTime::ZERO, b, a, 12_500).unwrap();
        assert_eq!(d, SimDuration::from_micros(1400));
    }

    #[test]
    fn send_to_down_host_fails_and_counts() {
        let (mut net, a, b) = pair();
        net.topology_mut().set_up(b, false).unwrap();
        let err = net.send(SimTime::ZERO, a, b, 100).unwrap_err();
        assert_eq!(err, NetError::HostDown(b));
        assert_eq!(net.stats().failures, 1);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn send_to_unknown_host_is_a_routing_error() {
        let (mut net, a, _) = pair();
        let bogus = HostId(u32::MAX);
        let err = net.send(SimTime::ZERO, a, bogus, 100).unwrap_err();
        assert!(matches!(err, NetError::Route(_)));
    }

    #[test]
    fn fault_plan_drops_count_separately_from_failures() {
        use crate::faults::FaultPlan;
        let (mut net, a, b) = pair();
        net.set_fault_plan(FaultPlan::new(11).with_drop_probability(1.0));
        let err = net.send(SimTime::ZERO, a, b, 100).unwrap_err();
        assert_eq!(err, NetError::Dropped { from: a, to: b });
        assert_eq!(net.stats().drops, 1);
        assert_eq!(net.stats().failures, 0);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn partition_severs_then_heals() {
        use crate::faults::{FaultPlan, Partition};
        let (mut net, a, b) = pair();
        net.set_fault_plan(FaultPlan::new(2).with_partition(Partition {
            island: vec![b],
            start: SimTime::ZERO,
            heal: SimTime::from_secs(10),
        }));
        let err = net.send(SimTime::ZERO, a, b, 100).unwrap_err();
        assert_eq!(err, NetError::Partitioned { from: a, to: b });
        assert_eq!(net.stats().drops, 1);
        assert!(net.send(SimTime::from_secs(10), a, b, 100).is_ok());
    }

    #[test]
    fn jitter_inflates_delivery_delay() {
        use crate::faults::FaultPlan;
        let (mut clean, a, b) = pair();
        let baseline = clean.send(SimTime::ZERO, a, b, 12_500).unwrap();
        let (mut net, a, b) = pair();
        net.set_fault_plan(FaultPlan::new(4).with_jitter(SimDuration::from_millis(50)));
        let mut saw_extra = false;
        for i in 0..50u64 {
            let at = SimTime::from_secs(i * 60);
            let d = net.send(at, a, b, 12_500).unwrap();
            assert!(d >= baseline);
            assert!(d <= baseline + SimDuration::from_millis(50));
            saw_extra |= d > baseline;
        }
        assert!(saw_extra);
    }

    #[test]
    fn send_checked_surfaces_corruption_and_counts_it() {
        use crate::faults::FaultPlan;
        let (mut net, a, b) = pair();
        net.set_fault_plan(FaultPlan::new(9).with_corrupt_probability(1.0));
        let delivery = net.send_checked(SimTime::ZERO, a, b, 100).unwrap();
        assert!(delivery.corrupt.is_some());
        assert_eq!(net.stats().corrupted, 1);
        assert_eq!(net.stats().messages, 1, "corrupted frames still deliver");
    }

    #[test]
    fn plain_send_never_corrupts_silently_visible_state() {
        let (mut net, a, b) = pair();
        let d1 = net.send(SimTime::ZERO, a, b, 100).unwrap();
        let d2 = net.send_checked(SimTime::ZERO, b, a, 100).unwrap();
        assert_eq!(d1, d2.delay);
        assert_eq!(d2.corrupt, None);
        assert_eq!(net.stats().corrupted, 0);
    }

    #[test]
    fn stats_accumulate() {
        let (mut net, a, b) = pair();
        net.send(SimTime::ZERO, a, b, 100).unwrap();
        net.send(SimTime::ZERO, a, b, 200).unwrap();
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().bytes, 300);
        assert_eq!(net.sent_by(a), 2);
        assert_eq!(net.sent_by(b), 0);
    }

    #[test]
    fn zero_byte_message_still_has_latency() {
        let (mut net, a, b) = pair();
        let d = net.send(SimTime::ZERO, a, b, 0).unwrap();
        assert_eq!(d, SimDuration::from_micros(400));
    }
}
