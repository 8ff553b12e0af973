//! Request/reply/timeout plumbing: every in-flight request is described
//! once ([`Pending`]), sent through one path ([`GridWorld::send_request_from`]),
//! retransmitted by one timer ([`GridWorld::on_request_timeout`]) and
//! answered through one dispatcher ([`GridWorld::handle_reply`]) that names
//! the continuation of each kind. Status updates, never retransmitted, wait
//! for their acks per node ([`AwaitedAck`]) instead.

use super::*;
use crate::protocol::{
    CancelPartReply, CancelPartRequest, CheckpointBlob, FetchCheckpointReply, LaunchReply,
    ReserveReply, StoreCheckpointReply, UpdateAck, OP_CANCEL_PART,
};
use integrade_obs::profile::Phase;
use integrade_obs::span::{SpanKind, SpanOutcome};
use integrade_orb::cdr::{CdrDecode, CdrWriter};
use integrade_orb::orb::{Incoming, RemoteError};

/// How long a sender waits for a reply before treating the request as
/// unanswered: the negotiation retransmit timer's base delay and the width
/// of the status update's ack window.
pub(super) const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Which copy of a part a reserve or launch request places: the scheduler's
/// own placement, or the speculative backup racing it. The wire traffic is
/// the same; only the decision taken on the reply differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Role {
    Primary,
    Twin,
}

/// Why a checkpoint replica is being read — the two things that differ
/// between the users of the verified-fetch walk: what an intact blob means
/// and what running out of holders means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FetchWhy {
    /// Recovery of a part that was running on `dead_node`: an intact blob
    /// is banked through a synthetic eviction; exhaustion restarts the part
    /// from its already-banked level.
    Recover { dead_node: NodeId },
    /// A speculative twin's resume point: an intact blob newer than the
    /// banked level is where the backup starts; exhaustion starts it from
    /// the banked level. Either way the trader query follows.
    Twin,
    /// Background re-replication: an intact blob is relayed to `target` as
    /// a [`Pending::StoreCkpt`] with `rerepl` set; anything else abandons
    /// this round (the next slot tick retries).
    Rerepl { target: NodeId },
}

/// How the progress of one cancelled copy of a part is charged once its
/// cancel reply reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Waste {
    /// Work already covered by the surviving copy's lineage (the checkpoint
    /// the winner resumed from): only progress beyond this is wasted.
    pub credit: u64,
    /// The copy lost a speculation race, so its waste is also speculation
    /// overhead; false for a launch the scheduler had stopped tracking.
    pub speculative: bool,
}

/// What an in-flight request is waiting for.
#[derive(Debug)]
pub(super) enum Pending {
    /// A reservation. A primary's refusal walks the job's candidate round;
    /// a twin's walks the twin's own list and never touches that round.
    Reserve {
        job: JobId,
        part: u32,
        node: NodeId,
        role: Role,
    },
    Launch {
        job: JobId,
        part: u32,
        node: NodeId,
        role: Role,
    },
    /// A `CancelPart`. With no `loser` it is one member of a BSP gang
    /// teardown and its reply folds into the job's rollback; with one it
    /// stops a single copy (that part's, on that node) whose progress is
    /// charged as wasted work.
    Cancel {
        job: JobId,
        loser: Option<(u32, NodeId, Waste)>,
    },
    /// A checkpoint read from the holder the request was sent to: verify
    /// the reply's digest, fall back across `rest` on corruption or
    /// silence, take `why`'s exhaustion path when none remain.
    Fetch {
        job: JobId,
        part: u32,
        rest: Vec<NodeId>,
        why: FetchWhy,
    },
    /// A checkpoint replica write: issued by the executing LRM at each
    /// interval boundary, or by the GRM when relaying during
    /// re-replication (`rerepl`). The blob is kept so a corrupt nack can
    /// re-send the payload under a fresh request id.
    StoreCkpt {
        origin: NodeId,
        blob: CheckpointBlob,
        replica: NodeId,
        /// Fresh-id re-sends after corrupt nacks (the in-flight bit flip
        /// path; plain retransmits of a lost frame are counted separately).
        resends: u32,
        rerepl: bool,
    },
}

impl Pending {
    /// The `(kind, job, part, node)` the request's trace span is keyed on,
    /// `dest` being the node it is sent to — the node a reserve, launch or
    /// single cancel names, the replica of a store, the holder a fetch
    /// asks. Twin traffic shares the primary's span kinds: the twin always
    /// targets a different node than the primary's in-flight requests.
    pub(super) fn span_key(&self, dest: NodeId) -> (SpanKind, u64, u32, u64) {
        let (kind, job, part) = match self {
            Pending::Reserve { job, part, .. } => (SpanKind::Reserve, job, *part),
            Pending::Launch { job, part, .. } => (SpanKind::Launch, job, *part),
            // Job-wide: gang cancels are addressed per node, not per part.
            Pending::Cancel { job, loser: None } => (SpanKind::CancelPart, job, u32::MAX),
            Pending::Cancel {
                job,
                loser: Some((part, ..)),
            } => (SpanKind::CancelPart, job, *part),
            Pending::StoreCkpt { blob, .. } => (SpanKind::StoreCkpt, &blob.job, blob.part),
            Pending::Fetch { job, part, why, .. } => match why {
                FetchWhy::Rerepl { .. } => (SpanKind::RereplFetch, job, *part),
                FetchWhy::Recover { .. } | FetchWhy::Twin => (SpanKind::FetchCkpt, job, *part),
            },
        };
        (kind, job.0, part, u64::from(dest.0))
    }
}

/// An LRM status update awaiting the GRM's [`UpdateAck`]. Never
/// retransmitted: the seq/piggyback machinery is the retry layer, so no
/// timer guards it either. An ack arriving `REQUEST_TIMEOUT` or more after
/// its update counts as lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct AwaitedAck {
    /// The update's ORB request id at its node's host.
    pub request_id: u64,
    pub seq: u64,
    pub sent_at: SimTime,
}

/// An in-flight request: its continuation plus everything needed to put the
/// identical frame back on the wire when the reply timer expires.
#[derive(Debug)]
pub(super) struct PendingEntry {
    pub what: Pending,
    /// Destination host of the original send.
    pub dest: HostId,
    /// The protected frame, byte-identical on every retransmission so the
    /// receiver's dedup cache can recognise it.
    pub wire: Vec<u8>,
    /// Bulk payload bytes costed alongside the frame (checkpoint images).
    pub extra_bytes: u64,
    /// Retransmissions performed so far.
    pub attempt: u32,
    /// When the original frame was first put on the wire (for RTT
    /// histograms; retransmissions do not reset it).
    pub sent_at: SimTime,
    /// Trace-span id covering this request.
    pub span: u64,
}

/// The reply body, or `None` for a transport error or an undecodable one.
fn decode<R: CdrDecode>(result: Result<&[u8], RemoteError>) -> Option<R> {
    result.ok().and_then(|b| R::from_cdr_bytes(b).ok())
}

impl GridWorld {
    /// Takes a recycled scratch buffer (always empty) for an encode→frame→
    /// transmit cycle, or a fresh one when the pool is dry.
    pub(super) fn pooled_buf(&mut self) -> Vec<u8> {
        self.buffer_pool.pop().unwrap_or_default()
    }

    /// Returns a spent wire buffer to the scratch pool. Bounded so a burst
    /// of in-flight frames cannot pin memory forever.
    fn reclaim_buf(&mut self, mut buf: Vec<u8>) {
        if self.buffer_pool.len() < 256 {
            buf.clear();
            self.buffer_pool.push(buf);
        }
    }

    /// Seals a frame under the cluster key when authentication is enabled.
    pub(super) fn protect(&mut self, frame: Vec<u8>) -> Vec<u8> {
        match self.config.cluster_key {
            Some(key) => {
                let sealed = integrade_orb::security::seal(key, &frame);
                self.reclaim_buf(frame);
                sealed
            }
            None => frame,
        }
    }

    /// Verifies and strips the security envelope; `None` means the frame
    /// must be dropped (and has been logged). Borrows from the wire bytes
    /// in every success case — authentication no longer copies the frame.
    fn unprotect<'a>(&mut self, now: SimTime, bytes: &'a [u8]) -> Option<&'a [u8]> {
        match self.config.cluster_key {
            None => Some(bytes),
            Some(key) => match integrade_orb::security::open(key, bytes) {
                Ok(frame) => Some(frame),
                Err(e) => {
                    self.log.record(now, "auth.reject", e);
                    None
                }
            },
        }
    }

    /// Fresh protocol-level request id (never 0 — 0 disables dedup).
    pub(super) fn rpc_id(&mut self) -> u64 {
        self.next_rpc += 1;
        self.next_rpc
    }

    /// Delay before retransmission `attempt` (1-based): the request timeout
    /// doubled per attempt, capped at 8x, with ±25% seeded jitter.
    fn retransmit_backoff(&mut self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(3);
        let base = REQUEST_TIMEOUT * (1u64 << shift);
        let micros = base.as_micros();
        let jittered = self
            .retry_rng
            .uniform_range(micros * 3 / 4, micros * 5 / 4 + 1);
        SimDuration::from_micros(jittered.max(1))
    }

    /// Sends a framed request from the GRM to a node's LRM, registering the
    /// pending continuation.
    pub(super) fn send_to_lrm(
        &mut self,
        now: SimTime,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut CdrWriter),
        pending: Pending,
        queue: &mut EventQueue<GridEvent>,
    ) {
        self.send_request_from(now, self.grm_host, node, operation, body, pending, 0, queue)
    }

    /// Asks `node` to stop its copy of a part: one member of a gang
    /// teardown (`waste` is `None`) or a single copy the scheduler no
    /// longer wants, whose progress the reply charges as `waste` says.
    pub(super) fn send_cancel_part(
        &mut self,
        now: SimTime,
        job: JobId,
        part: u32,
        node: NodeId,
        waste: Option<Waste>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let request_id = self.rpc_id();
        self.send_to_lrm(
            now,
            node,
            OP_CANCEL_PART,
            move |w| {
                CancelPartRequest {
                    request_id,
                    job,
                    part,
                }
                .encode(w)
            },
            Pending::Cancel {
                job,
                loser: waste.map(|waste| (part, node, waste)),
            },
            queue,
        );
    }

    /// Sends a framed request from `from` (the GRM host or an executing
    /// node's host) to a node's LRM, registering the pending continuation
    /// under the issuing host so the reply routes back to it. The transfer
    /// is costed as the frame plus `extra_bytes` of bulk payload (e.g. a
    /// migrated checkpoint).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn send_request_from(
        &mut self,
        now: SimTime,
        from: HostId,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut CdrWriter),
        pending: Pending,
        extra_bytes: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let mut out = self.pooled_buf();
        let target = &self.lrm_iors[node.0 as usize];
        let orb = self.orbs.get_mut(from).expect("issuing orb");
        let request_id = {
            let _enc = self.obs.profiler.enter(Phase::GiopEncode);
            orb.make_request_into(target, operation, body, &mut out)
        };
        // Trace-span id: every caller draws the protocol request id with
        // `rpc_id()` immediately before building the frame it hands us, so
        // `next_rpc` still holds that id. Using it as the span id keys the
        // trace on the same grid-unique id the receiver deduplicates on,
        // without consuming ids of its own.
        let span = self.next_rpc;
        let (kind, job, part, on_node) = pending.span_key(node);
        self.obs
            .spans
            .start_rpc(span, kind, job, part, on_node, now.as_micros());
        let bytes = self.protect(out);
        let to = self.node_hosts[node.0 as usize];
        self.pending.insert(
            (from, request_id),
            PendingEntry {
                what: pending,
                dest: to,
                wire: bytes.clone(),
                extra_bytes,
                attempt: 0,
                sent_at: now,
                span,
            },
        );
        if self.transmit(now, from, to, bytes, extra_bytes, queue) {
            // Crashed nodes never answer: a timeout converts silence
            // into retransmission and, eventually, the failure path.
            queue.schedule_after(
                REQUEST_TIMEOUT,
                GridEvent::RequestTimeout { from, request_id },
            );
        } else {
            // Unreachable node or injected loss: fast-path straight to
            // the timeout handler, which retransmits with backoff.
            self.obs.drops.inc();
            self.log
                .record(now, "drops", format_args!("request to {node}"));
            queue.schedule_after(
                SimDuration::from_micros(1),
                GridEvent::RequestTimeout { from, request_id },
            );
        }
    }

    /// Puts a frame on the wire, applying any fault-injected in-flight
    /// corruption (a single bit flip chosen by the fault plan's draw) so the
    /// receiver's integrity checks — frame seal or checkpoint digest — see
    /// genuinely damaged bytes. Returns false when the send failed outright.
    pub(super) fn transmit(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        mut bytes: Vec<u8>,
        extra_bytes: u64,
        queue: &mut EventQueue<GridEvent>,
    ) -> bool {
        match self
            .net
            .send_checked(now, from, to, bytes.len() as u64 + extra_bytes)
        {
            Ok(delivery) => {
                if let Some(draw) = delivery.corrupt {
                    if !bytes.is_empty() {
                        let bit = (draw % (bytes.len() as u64 * 8)) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        self.obs.net_corrupt.inc();
                        self.log.record(
                            now,
                            "net.corrupt",
                            format_args!("bit {bit} of {} -> {}", from.0, to.0),
                        );
                    }
                }
                queue.schedule_after(delivery.delay, GridEvent::Wire { from, to, bytes });
                true
            }
            Err(_) => false,
        }
    }

    /// Handles an expired reply timer: retransmit the identical frame with
    /// capped exponential backoff while attempts remain, then fall through
    /// to the transport-error continuation.
    pub(super) fn on_request_timeout(
        &mut self,
        now: SimTime,
        from: HostId,
        request_id: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let key = (from, request_id);
        let Some(entry) = self.pending.get(&key) else {
            return; // answered in the meantime
        };
        if entry.attempt >= self.config.max_retransmits {
            self.obs.timeouts.inc();
            self.obs
                .spans
                .finish(entry.span, SpanOutcome::TimedOut, now.as_micros());
            self.log
                .record(now, "grm.timeout", format_args!("request {request_id}"));
            self.handle_reply(
                now,
                from,
                request_id,
                Err(RemoteError::Unreachable(integrade_orb::ior::Endpoint::new(
                    u32::MAX,
                    0,
                ))),
                queue,
            );
            return;
        }
        let entry = self.pending.get_mut(&key).expect("entry exists");
        entry.attempt += 1;
        let attempt = entry.attempt;
        let dest = entry.dest;
        let wire = entry.wire.clone();
        let extra = entry.extra_bytes;
        let span = entry.span;
        self.obs.retransmits.inc();
        self.obs.spans.add_attempt(span);
        self.log.record(
            now,
            "retransmits",
            format_args!("request {request_id} attempt {attempt}"),
        );
        let next_timeout = self.retransmit_backoff(attempt);
        if !self.transmit(now, from, dest, wire, extra, queue) {
            self.obs.drops.inc();
            self.log
                .record(now, "drops", format_args!("retransmit {request_id}"));
        }
        queue.schedule_after(next_timeout, GridEvent::RequestTimeout { from, request_id });
    }

    /// Sends a oneway notification from a node's LRM to the GRM.
    pub(super) fn send_to_grm(
        &mut self,
        now: SimTime,
        node: usize,
        operation: &str,
        body: impl FnOnce(&mut CdrWriter),
        queue: &mut EventQueue<GridEvent>,
    ) {
        let from = self.node_hosts[node];
        let mut out = self.pooled_buf();
        let target = &self.grm_ior;
        let orb = self.orbs.get_mut(from).expect("lrm orb");
        orb.make_oneway_into(target, operation, body, &mut out);
        let bytes = self.protect(out);
        let grm_host = self.grm_host;
        self.transmit(now, from, grm_host, bytes, 0, queue);
    }

    /// Sends an unacknowledged oneway from the GRM to a node's LRM (e.g. a
    /// checkpoint purge — best effort, a lost purge only delays GC until the
    /// holder next garbage-collects on a newer store).
    pub(super) fn send_oneway_to_lrm(
        &mut self,
        now: SimTime,
        node: NodeId,
        operation: &str,
        body: impl FnOnce(&mut CdrWriter),
        queue: &mut EventQueue<GridEvent>,
    ) {
        let mut out = self.pooled_buf();
        let target = &self.lrm_iors[node.0 as usize];
        let grm_host = self.grm_host;
        let orb = self.orbs.get_mut(grm_host).expect("grm orb");
        orb.make_oneway_into(target, operation, body, &mut out);
        let bytes = self.protect(out);
        let to = self.node_hosts[node.0 as usize];
        self.transmit(now, grm_host, to, bytes, 0, queue);
    }

    pub(super) fn handle_wire(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: Vec<u8>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if !self.net.topology().is_up(to) {
            // The destination crashed while the frame was in flight.
            self.obs.drops.inc();
            self.log
                .record(now, "drops", format_args!("host {} down", to.0));
            return;
        }
        let node_at_dest = self.host_to_node.get(to).copied();
        if let Some(node) = node_at_dest {
            // A delivered frame is the only way a lazily ticked node's
            // engagement can change: apply its deferred bookkeeping and
            // resume a parked update timer first, so the servant sees
            // exactly the state the eager reference walk would have built.
            self.catch_up_node(node, self.slots_elapsed);
            if self.update_parked[node] {
                self.update_parked[node] = false;
                let at = self.next_update_instant(node, now);
                queue.schedule_at(at, GridEvent::UpdateTick { node });
            }
        }
        let Some(frame) = self.unprotect(now, &bytes) else {
            return;
        };
        let Some(orb) = self.orbs.get_mut(to) else {
            return;
        };
        // Lend the host's implementation object — its LRM, or the GRM on
        // the manager host — to the ORB for this one dispatch.
        let incoming = {
            let _dec = self.obs.profiler.enter(Phase::GiopDecode);
            match node_at_dest {
                Some(node) => orb.handle_wire_with(
                    frame,
                    &self.lrm_iors[node].object_key,
                    &mut self.nodes[node].lrm.servant(now),
                ),
                None => orb.handle_wire_with(
                    frame,
                    &self.grm_ior.object_key,
                    &mut self.grm.servant(now),
                ),
            }
        };
        match incoming {
            Ok(Incoming::ReplyToSend(reply)) => {
                let reply = self.protect(reply);
                self.transmit(now, to, from, reply, 0, queue);
            }
            Ok(Incoming::OnewayHandled) => {}
            Ok(Incoming::ReplyReceived { request_id, result }) => {
                self.handle_reply(now, to, request_id, result, queue);
            }
            Err(e) => {
                self.log.record(now, "orb.error", e);
            }
        }
        // Surface any dedup hits and repository counters the LRM servant
        // just recorded as trace events, and re-derive the node's
        // active-set membership from whatever the dispatch changed.
        if let Some(node) = node_at_dest {
            let lrm = &mut self.nodes[node].lrm;
            let hits = lrm.take_dedup_hits();
            let corrupt = lrm.take_corrupt_detected();
            let gc = lrm.take_repo_gc();
            self.obs.dedup_hits.add(hits);
            self.obs.corrupt_detected.add(corrupt);
            self.obs.repo_gc.add(gc);
            for (count, category) in [
                (hits, "dedup_hits"),
                (corrupt, "corrupt_detected"),
                (gc, "repo.gc"),
            ] {
                for _ in 0..count {
                    self.log.record_indexed(now, category, "node ", node as u64);
                }
            }
            self.refresh_activity(node);
        }
        // The GRM servant may have queued notifications; drain them.
        if to == self.grm_host {
            self.drain_grm_notifications(now, queue);
        }
        // The frame's backing buffer has served its purpose; recycle it for
        // a future encode instead of freeing it.
        self.reclaim_buf(bytes);
    }

    fn drain_grm_notifications(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let done = std::mem::take(&mut self.grm.pending_done);
        let evicted = std::mem::take(&mut self.grm.pending_evictions);
        for d in done {
            self.on_part_done(now, &d, queue);
        }
        for e in evicted {
            self.on_part_evicted(now, &e, queue);
        }
    }

    /// Decodes a reply and closes its request span: `Ok` when the reply
    /// type's own verdict (`ok`) says so, `Refused` otherwise — a transport
    /// error or an undecodable body included.
    fn settle<R: CdrDecode>(
        &mut self,
        now: SimTime,
        span: u64,
        result: Result<&[u8], RemoteError>,
        ok: impl Fn(&R) -> bool,
    ) -> Option<R> {
        let reply = decode::<R>(result);
        let outcome = match &reply {
            Some(r) if ok(r) => SpanOutcome::Ok,
            _ => SpanOutcome::Refused,
        };
        self.obs.spans.finish(span, outcome, now.as_micros());
        reply
    }

    /// Routes a reply (or, after the last retransmission, a transport
    /// error) to the continuation of the request it answers.
    pub(super) fn handle_reply(
        &mut self,
        now: SimTime,
        at: HostId,
        request_id: u64,
        result: Result<&[u8], RemoteError>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if let Some((node, ack)) = self.take_awaited_ack(at, request_id) {
            // The ack window: an ack `REQUEST_TIMEOUT` or more late counts
            // as lost, and its record (just taken) with it.
            if now < ack.sent_at + REQUEST_TIMEOUT {
                self.on_update_ack(now, node, ack.seq, decode(result));
            }
            return;
        }
        let Some(entry) = self.pending.remove(&(at, request_id)) else {
            return;
        };
        let span = entry.span;
        let rtt_s = (now.as_micros().saturating_sub(entry.sent_at.as_micros())) as f64 / 1e6;
        match entry.what {
            Pending::Reserve {
                job,
                part,
                node,
                role,
            } => {
                self.obs.negotiation_latency_s.observe(rtt_s);
                let reply = self
                    .settle(now, span, result, |r: &ReserveReply| r.granted)
                    .unwrap_or_else(|| ReserveReply::refused("transport error"));
                // Two decision bodies behind the one request: the job's
                // negotiation round and the twin's own candidate walk must
                // not be able to double-launch a part.
                match role {
                    Role::Primary => self.on_reserve_reply(now, job, part, node, reply, queue),
                    Role::Twin => self.on_twin_reserve_reply(now, job, part, node, reply, queue),
                }
            }
            Pending::Launch {
                job,
                part,
                node,
                role,
            } => {
                self.obs.negotiation_latency_s.observe(rtt_s);
                let reply = self
                    .settle(now, span, result, |r: &LaunchReply| r.accepted)
                    .unwrap_or(LaunchReply {
                        accepted: false,
                        reason: "transport error".into(),
                    });
                self.on_launch_reply(now, job, part, node, role, reply, queue);
            }
            Pending::Cancel { job, loser } => {
                // A copy that was not found stopped on its own (crash,
                // eviction, never launched): a lost reply reads the same.
                let stopped = self
                    .settle(now, span, result, |r: &CancelPartReply| r.found)
                    .filter(|r| r.found);
                self.on_cancel_reply(now, job, loser, stopped, queue);
            }
            Pending::Fetch {
                job,
                part,
                rest,
                why,
            } => {
                let reply = self.settle(now, span, result, |r: &FetchCheckpointReply| r.found);
                let holder = NodeId(self.host_to_node[entry.dest] as u32);
                self.on_fetch_reply(now, job, part, holder, rest, why, reply, queue);
            }
            Pending::StoreCkpt {
                origin,
                blob,
                replica,
                resends,
                rerepl,
            } => {
                self.obs.store_rtt_s.observe(rtt_s);
                let reply = self.settle(now, span, result, |r: &StoreCheckpointReply| r.accepted);
                self.on_store_reply(
                    now, at, origin, blob, replica, resends, rerepl, reply, queue,
                );
            }
        }
    }

    /// Records a status update `node` just put on the wire as awaiting its
    /// ack. Records whose window has closed go first: their acks would be
    /// ignored anyway, so a node holds at most one timeout's worth of them
    /// whatever the ratio of update period to timeout.
    pub(super) fn await_update_ack(&mut self, now: SimTime, node: usize, ack: AwaitedAck) {
        let acks = &mut self.update_acks[node];
        acks.retain(|a| now < a.sent_at + REQUEST_TIMEOUT);
        acks.push(ack);
    }

    /// Takes the awaited-ack record `request_id` names at `at`, if that is
    /// a node's host and the id one of its status updates.
    fn take_awaited_ack(&mut self, at: HostId, request_id: u64) -> Option<(usize, AwaitedAck)> {
        let node = *self.host_to_node.get(at)?;
        let acks = &mut self.update_acks[node];
        let i = acks.iter().position(|a| a.request_id == request_id)?;
        Some((node, acks.remove(i)))
    }

    /// Processes the GRM's acknowledgement of a status update: retire the
    /// outcomes it piggybacked and watch the epoch for GRM restarts.
    fn on_update_ack(&mut self, now: SimTime, node: usize, seq: u64, ack: Option<UpdateAck>) {
        let Some(ack) = ack else {
            return; // lost ack: the next update re-piggybacks everything
        };
        let lrm = &mut self.nodes[node].lrm;
        lrm.acknowledge(ack.seq.min(seq));
        if lrm.observe_grm_epoch(ack.epoch) {
            self.log.record(
                now,
                "grm.epoch",
                format_args!("node {node} observed epoch {}", ack.epoch),
            );
        }
    }
}
