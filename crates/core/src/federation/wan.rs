//! The wide-area half of a submission: the three routing arms, the
//! forward itself, and the WAN transfer model every message pays.

use std::collections::{BTreeSet, VecDeque};

use integrade_orb::trading::LinkFollowPolicy;
use integrade_simnet::faults::FaultDecision;
use integrade_simnet::time::SimDuration;
use integrade_simnet::topology::HostId;

use super::{
    edge_key, wire_size, FedEvent, FedMsg, FederatedPlacement, Federation, FederationError,
    GlobalJobId, PlacementRecord, RoutingPolicy,
};
use crate::asct::{JobRequirements, JobSpec};
use crate::hierarchy::WideAreaRequest;
use crate::protocol::{FedForward, FedForwardAck, FedQuery, FedQueryReply};
use crate::types::{ClusterId, JobId};

impl Federation {
    /// The rest of [`Federation::submit`] once the origin's own offers
    /// fall short: route under the configured [`RoutingPolicy`], then
    /// forward.
    pub(super) fn spill_over(
        &mut self,
        origin: ClusterId,
        spec: JobSpec,
        parts: u32,
        bytes_before: u64,
    ) -> Result<FederatedPlacement, FederationError> {
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
                .grid
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
        for link in self.members[&from].grid.trader_links() {
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
    pub(super) fn path(&self, from: ClusterId, to: ClusterId) -> Vec<ClusterId> {
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
    pub(super) fn send_wan(&mut self, path: &[ClusterId], bytes: u64, to: ClusterId, msg: FedMsg) {
        if let Some((lat, _)) = self.wan_transfer(path, bytes) {
            self.schedule(self.now.saturating_add(lat), FedEvent::Deliver { to, msg });
        }
    }
}
