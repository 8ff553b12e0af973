//! Time-driven work: the per-slot node walk (reference or lazy), lazy
//! catch-up replay and the report flush, active-set upkeep and the
//! Information Update Protocol timer.

use super::*;
use crate::protocol::{PartDone, StatusUpdate, OP_PART_DONE, OP_PART_EVICTED, OP_UPDATE_STATUS};
use crate::tick::{
    digest, replay_node_local, tick_members, tick_node_local, trace_sample_at, Flush,
    NodeTickEffects, FLUSH_CHUNK_SLOTS,
};
use integrade_obs::profile::Phase;
use integrade_usage::sample::{DayPeriod, Weekday};
use std::sync::Arc;

impl GridWorld {
    /// Replays the deferred slot-tick bookkeeping of one node up to tick
    /// count `target` (the `slots_elapsed` value whose ticks should all be
    /// applied).
    ///
    /// A node outside the active set has no running parts, reservations,
    /// unacknowledged outcomes or stored replicas, so its reference
    /// per-slot body collapses to owner-trace sampling, LUPA accumulation
    /// and owner-QoS accounting — deterministic functions of the trace, the
    /// tick index and (with [`GridConfig::lupa_noise`] on) the jitter keyed
    /// by the seed, the node and the slot, sending no messages and writing
    /// no logs.
    /// Replaying them here in bulk is therefore bit-for-bit identical to
    /// having run them eagerly every tick of the same mode.
    pub(super) fn catch_up_node(&mut self, node: usize, target: u64) {
        if self.nodes[node].ticks_applied >= target {
            return;
        }
        let profiler = self.obs.profiler.clone();
        let _replay = profiler.enter(Phase::CatchUpReplay);
        let days = replay_node_local(&self.config, &mut self.nodes[node], node, target);
        drop(_replay);
        if !days.is_empty() {
            let _digest = profiler.enter(Phase::GupaDigest);
            let config = self.gupa.config();
            let n = self.nodes.len();
            let uploads = digest(&mut self.gupa.cells_mut(n)[node], config, days);
            self.gupa.add_uploads(uploads);
        }
    }

    /// Catches every node up to the current tick count — the full-population
    /// flush `report()` and pattern-aware prediction ranking need. Both the
    /// per-node replay work *and* the GUPA digestion of the uploads it
    /// produces (curve reduction + retrain — the O(n) terms that dominate
    /// the flush at 50k nodes) run in chunks of contiguous nodes on up to
    /// `flush_workers` threads ([`Flush`]), each chunk against its own
    /// slices of the node and GUPA cell tables. A node's replay reads only
    /// its own state, so the result is the serial walk's at every host core
    /// count; only the per-chunk upload counts cross the merge. A flush
    /// below one chunk of work (a small grid, or one whose update timers
    /// keep every node caught up) runs on the calling thread.
    /// (Under the reference walk nothing is ever deferred and every replay
    /// returns at once.)
    pub(super) fn flush_catch_up(&mut self) {
        let target = self.slots_elapsed;
        let profiler = self.obs.profiler.clone();
        let _replay = profiler.enter(Phase::CatchUpReplay);
        let digested: u64 = {
            let _shard = profiler.enter(Phase::ShardWalk);
            let (config, gupa_config) = (&self.config, self.gupa.config());
            let n = self.nodes.len();
            Flush::cut(
                &mut self.nodes,
                self.gupa.cells_mut(n),
                target,
                FLUSH_CHUNK_SLOTS,
            )
            .run(self.flush_workers, |chunk| {
                chunk.replay(config, gupa_config, target)
            })
            .into_iter()
            .sum()
        };
        let _merge = profiler.enter(Phase::ShardMerge);
        self.gupa.add_uploads(digested);
    }

    /// Re-derives a node's active-set membership from its LRM engagement.
    /// Called after anything that can change engagement: wire dispatch,
    /// slot processing, crash.
    pub(super) fn refresh_activity(&mut self, node: usize) {
        if self.nodes[node].lrm.is_engaged() {
            self.active.insert(node);
        } else {
            self.active.remove(&node);
        }
    }

    /// The first instant strictly after `now` on a node's information-update
    /// grid (offset + k * period) — where a parked update timer resumes.
    pub(super) fn next_update_instant(&self, node: usize, now: SimTime) -> SimTime {
        let period = self.config.lrm.update_period.as_micros();
        let n = self.nodes.len() as u64;
        let offset = period * node as u64 / n.max(1);
        let now_us = now.as_micros();
        if now_us < offset {
            return SimTime::from_micros(offset);
        }
        let k = (now_us - offset) / period + 1;
        SimTime::from_micros(offset + k * period)
    }

    /// Replays warmup days of each node's trace into the GUPA, sampled at
    /// the configured interval, so pattern-aware scheduling starts with
    /// trained models. Nodes share interned traces, and a digest depends on
    /// nothing but the periods: each distinct trace is digested once, by
    /// its first node, and every later node with it gets a copy of that
    /// cell (one upload each, as before).
    pub(super) fn warmup_gupa(&mut self) {
        let days = self.config.gupa_warmup_days as u64;
        if days == 0 {
            return;
        }
        let sampling = self.config.lrm.sampling;
        let slots_per_day = sampling.slots_per_day() as u64;
        let interval = SimDuration::from_mins(u64::from(sampling.interval_mins)).as_micros();
        let mut digested: BTreeMap<*const Vec<UsageSample>, NodeId> = BTreeMap::new();
        for (i, local) in self.nodes.iter().enumerate() {
            let (node, trace) = (NodeId(i as u32), &local.trace);
            if trace.is_empty() {
                continue;
            }
            if let Some(&first) = digested.get(&Arc::as_ptr(trace)) {
                self.gupa.upload_same_as(node, first);
                continue;
            }
            digested.insert(Arc::as_ptr(trace), node);
            let periods: Vec<DayPeriod> = (0..days)
                .map(|day| DayPeriod {
                    day,
                    weekday: Weekday::from_day_number(day),
                    samples: (day * slots_per_day..(day + 1) * slots_per_day)
                        .map(|k| trace_sample_at(trace, SimTime::from_micros(k * interval)))
                        .collect(),
                })
                .collect();
            self.gupa.upload(node, periods);
        }
    }

    pub(super) fn slot_tick(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        // Clone shares the accumulators; the local keeps the timing guard's
        // borrow off `self` so the walk below can take `&mut self`.
        let profiler = self.obs.profiler.clone();
        let _walk = profiler.enter(Phase::SlotWalk);
        self.obs.queue_depth.observe(queue.len() as f64);
        self.obs.active_nodes.set(self.active.len() as f64);
        self.slots_elapsed += 1;
        match self.config.tick_mode {
            TickMode::Reference => {
                for i in 0..self.nodes.len() {
                    let effects = tick_node_local(
                        &self.config,
                        &mut self.nodes[i],
                        i,
                        now,
                        self.slots_elapsed,
                    );
                    self.apply_node_effects(now, effects, queue);
                }
            }
            TickMode::Lazy => self.lazy_slot_walk(now, queue),
        }
        self.detect_crashed_nodes(now, queue);
        if self.config.speculation {
            self.detect_stragglers(now, queue);
        }
        self.rereplicate(now, queue);
        queue.schedule_after(self.config.tick, GridEvent::SlotTick);
    }

    /// Applies one node's queued slot-tick effects to the shared world:
    /// metrics, log records, outcome stash+send, checkpoint stores, GUPA
    /// uploads and the activity refresh. The lazy walk calls this at the
    /// frame boundary in ascending node order; called with the effects
    /// `tick_node_local` just produced (the reference walk) it is the eager
    /// per-node body.
    fn apply_node_effects(
        &mut self,
        now: SimTime,
        effects: NodeTickEffects,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let i = effects.node;
        self.obs.lease_expired.add(effects.expired as u64);
        for _ in 0..effects.expired {
            self.log
                .record_indexed(now, "lease.expired", "node ", i as u64);
        }
        // Outcomes go out as best-effort oneways, but are also stashed
        // until the GRM acknowledges an update that piggybacked them —
        // at-least-once delivery even when the oneway is lost or the
        // GRM crashes with the notice in flight.
        for done in effects.completed {
            let digest = self.nodes[i].lrm.result_digest(now, done.job, done.part);
            let msg = PartDone {
                job: done.job,
                part: done.part,
                node: NodeId(i as u32),
                digest,
            };
            self.nodes[i].lrm.stash_done(msg);
            self.send_to_grm(now, i, OP_PART_DONE, move |w| msg.encode(w), queue);
        }
        for evicted in effects.evictions {
            self.nodes[i].lrm.stash_evicted(evicted);
            self.send_to_grm(now, i, OP_PART_EVICTED, move |w| evicted.encode(w), queue);
        }
        // Interval boundary crossed: write the checkpoint's real bytes
        // to every replica the launch designated.
        for due in effects.dues {
            self.store_checkpoint(now, NodeId(i as u32), due, queue);
        }
        // LUPA uploads (completed day periods go to the GUPA). The lazy
        // walk's effects arrive with this empty — `tick_members` digested it.
        if !effects.tick_upload.is_empty() {
            let profiler = self.obs.profiler.clone();
            let _digest = profiler.enter(Phase::GupaDigest);
            self.gupa.upload(NodeId(i as u32), effects.tick_upload);
        }
        self.refresh_activity(i);
    }

    /// One slot frame of the lazy walk ([`TickMode::Lazy`]). Only engaged
    /// nodes can complete work, hit checkpoint boundaries, expire leases or
    /// evict parts, so only the active set is visited; every other node's
    /// slot work is deferred to catch-up replay. The members' node-local
    /// bodies run first ([`tick_members`]: catch-up, slot body, LUPA jitter,
    /// GUPA digestion), then their effects are applied in ascending node
    /// order — the order the reference walk uses.
    fn lazy_slot_walk(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let members: Vec<usize> = self.active.iter().copied().collect();
        let profiler = self.obs.profiler.clone();
        let (effects, digested) = {
            let _walk = profiler.enter(Phase::ShardWalk);
            let n = self.nodes.len();
            tick_members(
                &self.config,
                self.gupa.config(),
                &mut self.nodes,
                self.gupa.cells_mut(n),
                &members,
                now,
                self.slots_elapsed,
            )
        };
        let _merge = profiler.enter(Phase::ShardMerge);
        self.gupa.add_uploads(digested);
        for node_effects in effects {
            self.apply_node_effects(now, node_effects, queue);
        }
    }

    pub(super) fn update_tick(
        &mut self,
        now: SimTime,
        node: usize,
        queue: &mut EventQueue<GridEvent>,
    ) {
        // The reported status derives from the owner observations the lazy
        // walk defers — replay them before asking for an update.
        self.catch_up_node(node, self.slots_elapsed);
        let config = self.config.lrm;
        let lrm = &mut self.nodes[node].lrm;
        let update = lrm.next_update(&config);
        let sent = update.is_some();
        if let Some((seq, status)) = update {
            // The update travels as a request so the GRM's ack (carrying
            // its epoch) can retire piggybacked outcomes and reveal
            // restarts. It is never retransmitted: the next periodic
            // update supersedes it.
            let (pending_done, pending_evicted) = lrm.piggyback_for(seq);
            let msg = StatusUpdate {
                node: NodeId(node as u32),
                seq,
                status,
                replicas: lrm.replica_reports(),
                pending_done,
                pending_evicted,
                progress: lrm.progress_reports(),
            };
            let from = self.node_hosts[node];
            let mut out = self.pooled_buf();
            let target = &self.grm_ior;
            let orb = self.orbs.get_mut(from).expect("lrm orb");
            let request_id =
                orb.make_request_into(target, OP_UPDATE_STATUS, move |w| msg.encode(w), &mut out);
            let bytes = self.protect(out);
            let grm_host = self.grm_host;
            if self.transmit(now, from, grm_host, bytes, 0, queue) {
                let ack = AwaitedAck {
                    request_id,
                    seq,
                    sent_at: now,
                };
                self.await_update_ack(now, node, ack);
            } else {
                // Nothing left the host, so no ack can come back.
                self.log
                    .record_indexed(now, "drops", "update from ", node as u64);
            }
        }
        if self.config.tick_mode == TickMode::Lazy
            && !sent
            && self.static_status[node]
            && !self.nodes[node].lrm.is_engaged()
        {
            // Traceless node on an always-available schedule, nothing
            // running, reserved or stored, and the update was just
            // suppressed: until a frame next reaches this node every future
            // timer firing would suppress too. Park the timer instead of
            // rescheduling it; `handle_wire` resumes it at the next grid
            // point when a delivery could change the node's status.
            self.update_parked[node] = true;
        } else {
            queue.schedule_after(config.update_period, GridEvent::UpdateTick { node });
        }
    }
}
