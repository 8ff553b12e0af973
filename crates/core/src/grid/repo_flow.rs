//! The checkpoint repository's traffic: replica stores from executing
//! nodes, the single verified-fetch walk (recovery, twin resume points and
//! re-replication all read replicas through it), crash recovery and
//! background re-replication.

use super::*;
use crate::lrm::DueCheckpoint;
use crate::protocol::{
    CheckpointBlob, FetchCheckpoint, FetchCheckpointReply, PartEvicted, SharedBytes,
    StoreCheckpoint, StoreCheckpointReply, OP_FETCH_CKPT, OP_STORE_CKPT,
};
use crate::repo::crc32;
use integrade_bsp::checkpoint::GlobalCheckpoint;
use integrade_obs::span::SpanKind;
use integrade_orb::cdr::CdrDecode;
use std::sync::Arc;

/// The blob of a fetch reply, if the holder had one and it is intact end
/// to end: its digest matches its payload and the payload decodes as a real
/// [`GlobalCheckpoint`]. A copy that rotted on the holder's disk or was
/// damaged in flight is as good as none.
pub(super) fn verified(reply: Option<FetchCheckpointReply>) -> Option<CheckpointBlob> {
    let blob = reply.filter(|r| r.found)?.blob;
    (crc32(&blob.payload) == blob.digest && GlobalCheckpoint::from_cdr_bytes(&blob.payload).is_ok())
        .then_some(blob)
}

impl GridWorld {
    /// Serializes and ships one due checkpoint from its executing node to
    /// every designated replica LRM as a digest-carrying [`CheckpointBlob`].
    pub(super) fn store_checkpoint(
        &mut self,
        now: SimTime,
        origin: NodeId,
        due: DueCheckpoint,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let payload = checkpoint_payload(
            due.job,
            due.part,
            due.version,
            due.work_mips_s,
            due.state_bytes,
        );
        let blob = CheckpointBlob {
            job: due.job,
            part: due.part,
            version: due.version,
            work_mips_s: due.work_mips_s,
            digest: crc32(&payload),
            payload,
        };
        let from = self.node_hosts[origin.0 as usize];
        for replica in due.replicas {
            if replica.0 as usize >= self.node_hosts.len() {
                continue; // replica list arrived damaged in the launch frame
            }
            self.send_store(now, from, origin, blob.clone(), replica, 0, false, queue);
        }
    }

    /// Writes `blob` to `replica` in `origin`'s name, from host `from`: the
    /// executing node's own host, or the manager's when the GRM relays a
    /// copy during re-replication (`rerepl`).
    #[allow(clippy::too_many_arguments)]
    fn send_store(
        &mut self,
        now: SimTime,
        from: HostId,
        origin: NodeId,
        blob: CheckpointBlob,
        replica: NodeId,
        resends: u32,
        rerepl: bool,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let req = StoreCheckpoint {
            request_id: self.rpc_id(),
            origin,
            blob: blob.clone(),
        };
        self.send_request_from(
            now,
            from,
            replica,
            OP_STORE_CKPT,
            move |w| req.encode(w),
            Pending::StoreCkpt {
                origin,
                blob,
                replica,
                resends,
                rerepl,
            },
            0,
            queue,
        );
    }

    /// Background re-replication: when a running part's live replica count
    /// has fallen below the configured factor (a holder died), the GRM
    /// relays the newest intact copy from a surviving holder to a fresh
    /// node, restoring the replication factor without touching the
    /// executor.
    pub(super) fn rereplicate(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let k = self.config.replication_factor;
        if k == 0 {
            return;
        }
        let mut relays: Vec<(JobId, u32, NodeId, NodeId)> = Vec::new();
        {
            let grm = &self.grm;
            for (job_id, job) in &self.jobs {
                for (index, part) in job.parts.iter().enumerate() {
                    if part.state != PartState::Running {
                        continue;
                    }
                    let Some(exec) = part.node else { continue };
                    if self.rerepl_inflight.contains(&(*job_id, index as u32)) {
                        continue; // one relay per part at a time
                    }
                    let live = self.live_holders(*job_id, index as u32, None);
                    // No live copy at all: nothing to relay from — the next
                    // interval's store from the executor repopulates.
                    if live.is_empty() || live.len() >= k {
                        continue;
                    }
                    let holder_set: BTreeSet<NodeId> = live.iter().copied().collect();
                    let Some(target) = grm
                        .choose_replicas(exec, self.nodes.len())
                        .into_iter()
                        .find(|n| {
                            !holder_set.contains(n)
                                && self.net.topology().is_up(self.node_hosts[n.0 as usize])
                        })
                    else {
                        continue;
                    };
                    // holders() is newest-first: relay the freshest copy.
                    relays.push((*job_id, index as u32, live[0], target));
                }
            }
        }
        for (job, part, source, target) in relays {
            self.rerepl_inflight.insert((job, part));
            self.log.record(
                now,
                "repo.rerepl_start",
                format_args!("{job} part {part}: {source} -> {target}"),
            );
            let why = FetchWhy::Rerepl { target };
            self.fetch_next(now, job, part, vec![source], why, queue);
        }
    }

    /// Processes a replica's answer to a checkpoint store. A corrupt nack
    /// (the frame or payload was damaged in flight) re-sends the same blob
    /// under a fresh request id — the retransmission layer only replays
    /// identical bytes, which would replay the damage's detection, not the
    /// data. Stale nacks and transport failures are dropped: the next
    /// interval's store supersedes this one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_store_reply(
        &mut self,
        now: SimTime,
        at: HostId,
        origin: NodeId,
        blob: CheckpointBlob,
        replica: NodeId,
        resends: u32,
        rerepl: bool,
        reply: Option<StoreCheckpointReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if rerepl {
            self.rerepl_inflight.remove(&(blob.job, blob.part));
        }
        let Some(reply) = reply else {
            return; // replica unreachable; the next interval retries placement
        };
        if reply.accepted {
            self.log.record(
                now,
                if rerepl {
                    "repo.rereplicated"
                } else {
                    "repo.store"
                },
                format_args!(
                    "{} part {} v{} at {replica}",
                    blob.job, blob.part, blob.version
                ),
            );
            if rerepl {
                // The GRM performed this relay itself, so it can credit the
                // new holder immediately instead of waiting for the
                // replica's next status update to re-announce it.
                self.grm.replicas_mut().observe(
                    replica,
                    blob.job,
                    blob.part,
                    crate::repo::ReplicaInfo {
                        version: blob.version,
                        work_mips_s: blob.work_mips_s,
                    },
                );
            }
            return;
        }
        if reply.corrupt && resends < self.config.max_retransmits {
            self.log.record(
                now,
                "repo.resend",
                format_args!(
                    "{} part {} v{} to {replica}",
                    blob.job, blob.part, blob.version
                ),
            );
            if rerepl {
                self.rerepl_inflight.insert((blob.job, blob.part));
            }
            self.send_store(now, at, origin, blob, replica, resends + 1, rerepl, queue);
        }
        // A stale nack needs no action: the replica already holds a newer
        // version than the one we tried to write.
    }

    /// The nodes the GRM believes hold a replica of `(job, part)` and that
    /// are up, newest version first, leaving out `except` (the part's own
    /// executor, dead or straggling). The placement map is rebuilt from
    /// wire data, so ids are bound-checked before indexing: a damaged
    /// re-announce must not panic here.
    pub(super) fn live_holders(
        &self,
        job: JobId,
        part: u32,
        except: Option<NodeId>,
    ) -> Vec<NodeId> {
        let holders = self.grm.replicas().holders(job, part);
        holders
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| {
                Some(*n) != except
                    && (n.0 as usize) < self.node_hosts.len()
                    && self.net.topology().is_up(self.node_hosts[n.0 as usize])
            })
            .collect()
    }

    /// Starts replica-based recovery for a part whose executor went silent:
    /// fetch the newest copy from the placement map's live holders, falling
    /// back across them on corruption or silence.
    pub(super) fn begin_recovery(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        dead_node: NodeId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let candidates = self.live_holders(job_id, part_id, Some(dead_node));
        self.obs.spans.event(
            SpanKind::Recovery,
            job_id.0,
            part_id,
            dead_node.0 as u64,
            now.as_micros(),
        );
        self.log.record(
            now,
            "repo.recover",
            format_args!(
                "{job_id} part {part_id}: {} candidate replicas",
                candidates.len()
            ),
        );
        let why = FetchWhy::Recover { dead_node };
        self.fetch_next(now, job_id, part_id, candidates, why, queue);
    }

    /// The one verified-fetch walk: asks the next holder in `rest` for the
    /// part's checkpoint, or — none left — takes `why`'s exhaustion path:
    /// recovery concedes and restarts the part from its banked level, a
    /// twin moves on to its trader query at the banked level, a
    /// re-replication round is abandoned until the next slot tick.
    pub(super) fn fetch_next(
        &mut self,
        now: SimTime,
        job: JobId,
        part: u32,
        mut rest: Vec<NodeId>,
        why: FetchWhy,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if rest.is_empty() {
            match why {
                FetchWhy::Recover { dead_node } => {
                    self.finish_recovery(now, job, part, dead_node, None, queue)
                }
                FetchWhy::Twin => self.twin_query_trader(now, job, part, queue),
                FetchWhy::Rerepl { .. } => {
                    self.rerepl_inflight.remove(&(job, part));
                }
            }
            return;
        }
        let holder = rest.remove(0);
        let req = FetchCheckpoint {
            request_id: self.rpc_id(),
            job,
            part,
        };
        self.send_to_lrm(
            now,
            holder,
            OP_FETCH_CKPT,
            move |w| req.encode(w),
            Pending::Fetch {
                job,
                part,
                rest,
                why,
            },
            queue,
        );
    }

    /// Processes `holder`'s answer to a checkpoint fetch. Only a
    /// [`verified`] blob counts, and what it means is `why`'s: recovery
    /// banks it, a twin newer than the banked level resumes from it,
    /// re-replication relays it to the chosen target. Anything else walks
    /// on to the next holder.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_fetch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        holder: NodeId,
        rest: Vec<NodeId>,
        why: FetchWhy,
        reply: Option<FetchCheckpointReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        if why == FetchWhy::Twin {
            let fetching = self
                .jobs
                .get(&job_id)
                .and_then(|j| j.parts.get(part_id as usize))
                .and_then(|p| p.twin.as_ref())
                .is_some_and(|t| t.state == TwinState::Fetching);
            if !fetching {
                return; // the race settled while the fetch was in flight
            }
        }
        let found = reply.as_ref().is_some_and(|r| r.found);
        let Some(blob) = verified(reply) else {
            if found {
                // End-to-end integrity: the copy rotted on the holder's
                // disk or was damaged in flight. Try the next one.
                let whose = match why {
                    FetchWhy::Recover { .. } => "recovery",
                    FetchWhy::Twin => "twin",
                    FetchWhy::Rerepl { .. } => "re-replication",
                };
                self.log.record(
                    now,
                    "corrupt_detected",
                    format_args!("{job_id} part {part_id} {whose} fetch"),
                );
            }
            self.fetch_next(now, job_id, part_id, rest, why, queue);
            return;
        };
        match why {
            FetchWhy::Recover { dead_node } => {
                self.log.record(
                    now,
                    "repo.fetch",
                    format_args!("{job_id} part {part_id} v{}", blob.version),
                );
                let recovered = Some((blob.version, blob.work_mips_s));
                self.finish_recovery(now, job_id, part_id, dead_node, recovered, queue);
            }
            FetchWhy::Twin => {
                let job = self.jobs.get_mut(&job_id).expect("job exists");
                let part = &mut job.parts[part_id as usize];
                if blob.version > part.banked_version {
                    let twin = part.twin.as_mut().expect("twin exists");
                    twin.resume_work = blob.work_mips_s as f64;
                    twin.resume_version = blob.version;
                }
                self.log.record(
                    now,
                    "spec.fetch",
                    format_args!("{job_id} part {part_id} v{}", blob.version),
                );
                self.twin_query_trader(now, job_id, part_id, queue);
            }
            FetchWhy::Rerepl { target } => {
                self.send_store(now, self.grm_host, holder, blob, target, 0, true, queue);
            }
        }
    }

    /// Concludes recovery by synthesizing an eviction that carries the
    /// recovered checkpoint (or the already-banked level when every replica
    /// failed); the common eviction path banks it version-gated and
    /// reschedules or tears down the gang as appropriate.
    fn finish_recovery(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        dead_node: NodeId,
        recovered: Option<(u64, u64)>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let banked = {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            let part = &job.parts[part_id as usize];
            if part.state != PartState::Recovering || part.node != Some(dead_node) {
                return; // abandoned by a gang teardown or GRM restart
            }
            part.banked_version
        };
        let (work, version) = match recovered {
            Some((v, w)) if v > banked => (w, v),
            _ => (0, banked),
        };
        if recovered.is_none() {
            self.log.record(
                now,
                "repo.recover_failed",
                format_args!("{job_id} part {part_id}"),
            );
        }
        // The GRM cannot know the dead executor's progress, but the
        // simulator recorded it at crash time: the wasted-work metric is
        // whatever ran past the recovered checkpoint.
        let lost = self
            .crash_progress
            .remove(&(job_id, part_id))
            .unwrap_or(0)
            .saturating_sub(work);
        let evicted = PartEvicted {
            job: job_id,
            part: part_id,
            node: dead_node,
            checkpointed_work_mips_s: work,
            checkpoint_version: version,
            lost_work_mips_s: lost,
        };
        self.on_part_evicted(now, &evicted, queue);
    }
}

/// Builds the serialized state a checkpoint replica stores: a real
/// [`GlobalCheckpoint`] whose single process state records the part's
/// identity and progress and is zero-padded to `state_bytes`, so the blob
/// has the configured on-disk size and recovery can decode and
/// digest-verify actual bytes end to end.
///
/// The blob is the CDR encoding of `GlobalCheckpoint { superstep: version,
/// halted: false, proc_states: vec![state], inboxes: vec![vec![]] }`, written
/// straight into one zero-filled shared allocation: every byte past the
/// 52-byte header is zero (the state's padding, the CDR alignment before
/// the empty inbox and that inbox's zero length).
pub(super) fn checkpoint_payload(
    job: JobId,
    part: u32,
    version: u64,
    work_mips_s: u64,
    state_bytes: u64,
) -> SharedBytes {
    // The process state's own CDR struct — job u64, part u32, version u64
    // (aligned to 8 from the state's start), work u64 — is 32 bytes.
    let state_len = state_bytes.max(32) as usize;
    let len = (20 + state_len).next_multiple_of(4) + 4;
    let mut payload: SharedBytes = std::iter::repeat_n(0, len).collect();
    let bytes = Arc::get_mut(&mut payload).expect("a fresh allocation is unshared");
    let header: [(usize, &[u8]); 7] = [
        (0, &version.to_be_bytes()), // superstep; halted = 0 at 8
        (12, &1u32.to_be_bytes()),   // one process state
        (16, &(state_len as u32).to_be_bytes()),
        (20, &job.0.to_be_bytes()), // the state starts here
        (28, &part.to_be_bytes()),
        (36, &version.to_be_bytes()),
        (44, &work_mips_s.to_be_bytes()),
    ];
    for (at, field) in header {
        bytes[at..at + field.len()].copy_from_slice(field);
    }
    payload
}
