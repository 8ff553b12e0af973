//! The federation's own timeline: periodic summary and status ticks, and
//! the WAN messages they put in flight.

use integrade_simnet::time::SimTime;

use super::{wire_size, FedEvent, FedMsg, Federation, GlobalJobId, RoutingPolicy};
use crate::asct::JobState;
use crate::protocol::{FedStatus, FedSummary};
use crate::types::ClusterId;

impl Federation {
    pub(super) fn schedule(&mut self, at: SimTime, event: FedEvent) {
        // Every schedule is at `self.now` plus a latency or a period, and
        // `self.now` never trails the queue's clock, so the queue's
        // no-past assert holds.
        debug_assert!(at >= self.now && self.now >= self.queue.now());
        self.queue.schedule_at(at, event);
    }

    pub(super) fn handle(&mut self, event: FedEvent) {
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
        self.members.get_mut(&cluster).expect("member").next_summary = next;
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
            let grid = &self.members[&cluster].grid;
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
        self.members.get_mut(&cluster).expect("member").next_status = next;
    }

    /// A WAN message arrives at `to`.
    pub(super) fn deliver(&mut self, to: ClusterId, msg: FedMsg) {
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
                let now = self.now;
                let member = self.members.get_mut(&to).expect("member");
                // A member the round loop has already run past the arrival
                // answers from its liveness log; any other is brought up to
                // the arrival and asked directly.
                let up = if member.reached > now {
                    member.grid.grm_up_at(now)
                } else {
                    member.advance(now);
                    debug_assert_eq!(member.grid.grm_up_at(now), member.grid.grm_up());
                    member.grid.grm_up()
                };
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
}
