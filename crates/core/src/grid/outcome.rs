//! What the GRM does with a part's outcome: a `PartDone` (speculation race
//! settlement, result certification, replica purge), a `PartEvicted`
//! (checkpoint banking, twin promotion, BSP gang teardown) and the cancel
//! replies a teardown or a settled race collects.

use super::*;
use crate::asct::JobKind;
use crate::protocol::{
    canonical_result_digest, CancelPartReply, PartDone, PartEvicted, PurgeCheckpoint, OP_PURGE_CKPT,
};

/// Salt distinguishing spot-check-probe designation draws from every other
/// scheduled-hash stream ("CERT" in ASCII).
const CERT_PROBE_KEY: u64 = 0x4345_5254;

/// Nominal work of one part, MIPS-s — what a certification re-execution of
/// that part costs the grid in redundant cycles.
fn part_nominal_work(kind: &JobKind, part: u32) -> f64 {
    match kind {
        JobKind::Sequential { work_mips_s } => *work_mips_s as f64,
        JobKind::BagOfTasks { task_work_mips_s } => {
            task_work_mips_s.get(part as usize).copied().unwrap_or(0) as f64
        }
        // Certification never applies to gang-scheduled parallel jobs.
        JobKind::Bsp { .. } => 0.0,
    }
}

impl GridWorld {
    pub(super) fn on_part_done(
        &mut self,
        now: SimTime,
        done: &PartDone,
        queue: &mut EventQueue<GridEvent>,
    ) {
        // Speculation race settlement: whichever copy reported first wins;
        // the loser is torn down and its uncovered progress charged as
        // wasted speculative work via the cancel reply.
        let mut spec_cancel: Option<(NodeId, u64)> = None;
        let mut twin_won = false;
        // Certification outcome of this report: either the part's result is
        // accepted (quorum met, probe passed, or certification off), or the
        // part goes back to the scheduler for another independent vote.
        let mut reexecute = false;
        let mut certified = false;
        let mut cert_agree: Vec<NodeId> = Vec::new();
        let mut cert_punish: Vec<NodeId> = Vec::new();
        {
            let Some(job) = self.jobs.get_mut(&done.job) else {
                return;
            };
            let certify = self.config.certification && !job.spec.kind.is_parallel();
            let nominal = part_nominal_work(&job.spec.kind, done.part);
            // Field values can arrive damaged when corruption faults are
            // active: an out-of-range part index must not panic.
            let Some(part) = job.parts.get_mut(done.part as usize) else {
                return;
            };
            if part.state == PartState::Done {
                return;
            }
            let canonical = canonical_result_digest(done.job, done.part);
            if certify {
                let votes = self.cert_votes.entry((done.job, done.part)).or_default();
                // Outcomes arrive at-least-once (oneway plus the update
                // piggyback): a node re-reporting its result is the same
                // vote, not fresh evidence — and it must not re-settle the
                // speculation race below.
                if votes.iter().any(|(n, _)| *n == done.node) {
                    return;
                }
                if !votes.is_empty() {
                    // Every execution beyond the part's first is redundancy
                    // bought for integrity; charge the unified ledger.
                    self.obs.cert_reexecutions.inc();
                    self.obs.cert_redundant_mips_s.add(nominal as u64);
                    self.overhead.cert_redundant_mips_s += nominal;
                }
                votes.push((done.node, done.digest));
                self.obs.cert_votes.inc();
                // Spot-check probes are designated by a pure seeded hash of
                // the part's identity, so every vote on a probe part — in
                // any tick mode, any arrival order — sees the same
                // designation. The GRM knows the answer and verdicts alone.
                let is_probe = self.config.cert_spot_check_rate > 0.0
                    && scheduled_draw(
                        self.config.seed,
                        [CERT_PROBE_KEY, done.job.0, u64::from(done.part)],
                    ) < self.config.cert_spot_check_rate;
                if is_probe {
                    self.obs.cert_spot_checks.inc();
                    if done.digest == canonical {
                        certified = true;
                        cert_agree.push(done.node);
                    } else {
                        cert_punish.push(done.node);
                        reexecute = true;
                    }
                } else {
                    // Credibility-adaptive replication: a trusted executor's
                    // word certifies alone; unknowns pay the full quorum.
                    let trusted = self.config.cert_adaptive
                        && self.grm.cert_credibility(done.node) >= self.config.cert_trust_threshold;
                    let needed = if trusted {
                        1
                    } else {
                        self.config.cert_replication.max(1)
                    };
                    match certification_verdict(votes, needed) {
                        Some(accepted) => {
                            certified = true;
                            for (voter, digest) in votes.iter() {
                                if *digest == accepted {
                                    cert_agree.push(*voter);
                                } else {
                                    cert_punish.push(*voter);
                                }
                            }
                            if accepted != canonical {
                                // Omniscient ground-truth accounting: the
                                // quorum certified a lie (e.g. colluders
                                // outvoted the honest minority).
                                self.obs.cert_wrong_delivered.inc();
                            }
                        }
                        None => reexecute = true,
                    }
                }
            } else if done.digest != canonical && done.digest != 0 {
                // Certification off: whatever the executor reported is
                // delivered as-is. The omniscient wrong-result counter
                // still observes it — that is the no-cert arm's error rate.
                self.obs.cert_wrong_delivered.inc();
            }
            if let Some(twin) = part.twin.take() {
                match twin.state {
                    TwinState::Running if twin.node == Some(done.node) => {
                        // The backup finished first: cancel the straggling
                        // primary, crediting the checkpoint the twin
                        // resumed from (that much was not wasted).
                        twin_won = true;
                        if let Some(primary) = part.node {
                            spec_cancel = Some((primary, twin.resume_work as u64));
                        }
                    }
                    TwinState::Running => {
                        // The primary finished first: cancel the backup.
                        // All of the twin's progress duplicated work.
                        if let Some(backup) = twin.node {
                            spec_cancel = Some((backup, 0));
                        }
                    }
                    // The twin never launched; its in-flight replies stand
                    // down via the missing-runtime guards.
                    _ => {}
                }
            }
            if reexecute {
                // Uncertified: the part returns to the scheduler for an
                // independent re-execution (its remaining work is untouched,
                // so the relaunch runs the full honest workload again).
                part.state = PartState::Unplaced;
                part.node = None;
                job.record.state = JobState::Rescheduling;
                self.log.record(
                    now,
                    "cert.reexecute",
                    format_args!(
                        "{} part {} after vote from {}",
                        done.job, done.part, done.node
                    ),
                );
                queue.schedule_after(
                    SimDuration::from_secs(1),
                    GridEvent::Schedule { job: done.job },
                );
            } else {
                part.state = PartState::Done;
                part.node = None;
                job.record.parts_done += 1;
                self.log.record(
                    now,
                    "job.part_done",
                    format_args!("{} part {}", done.job, done.part),
                );
                if job.record.parts_done == job.record.parts_total {
                    job.record.state = JobState::Completed;
                    job.record.completed_at = Some(now);
                    self.log.record(now, "job.completed", done.job);
                } else if !job.spec.kind.is_parallel() {
                    // More bag-of-tasks parts may be waiting for a node.
                    if job.parts.iter().any(|p| p.state == PartState::Unplaced) {
                        queue.schedule_after(
                            SimDuration::from_secs(1),
                            GridEvent::Schedule { job: done.job },
                        );
                    }
                }
            }
        }
        if twin_won {
            self.obs.spec_won.inc();
            self.log.record(
                now,
                "spec.won",
                format_args!("{} part {} on {}", done.job, done.part, done.node),
            );
        }
        if let Some((loser, credit)) = spec_cancel {
            self.obs.spec_cancelled.inc();
            self.log.record(
                now,
                "spec.cancelled",
                format_args!("{} part {} at {loser}", done.job, done.part),
            );
            let waste = Waste {
                credit,
                speculative: true,
            };
            self.send_cancel_part(now, done.job, done.part, loser, Some(waste), queue);
        }
        // Certification verdicts feed the credibility ledger whether or not
        // the part finished this round: agreement earns trust slowly, any
        // mismatch collapses it and blacklists the node from the trader.
        for node in cert_punish {
            let newly = self.grm.record_cert_mismatch(node);
            self.obs.cert_mismatches.inc();
            self.log.record(
                now,
                "cert.mismatch",
                format_args!("{} part {} by {node}", done.job, done.part),
            );
            if newly {
                self.obs.cert_blacklisted.inc();
                self.log.record(now, "cert.blacklist", node);
            }
        }
        if certified {
            for node in &cert_agree {
                self.grm.record_cert_agreement(*node);
            }
            self.cert_votes.remove(&(done.job, done.part));
            self.obs.cert_certified.inc();
            self.log.record(
                now,
                "cert.certified",
                format_args!("{} part {}", done.job, done.part),
            );
        }
        if reexecute {
            // The part is still live: keep its rate estimates and replicas
            // for the re-execution that is about to be scheduled.
            return;
        }
        // The part is finished: its rate estimates can never matter again.
        self.grm.clear_progress(done.job, done.part);
        // The part's replicas are superseded: drop them from the placement
        // map and ask each holder to garbage-collect its copy. Purges are
        // best-effort oneways — a holder that misses one merely keeps a dead
        // blob until its disk is next reused.
        self.rerepl_inflight.remove(&(done.job, done.part));
        let holders = self.grm.replicas_mut().remove_part(done.job, done.part);
        for holder in holders {
            self.log.record(
                now,
                "repo.purge",
                format_args!("{} part {} at {holder}", done.job, done.part),
            );
            let purge = PurgeCheckpoint {
                job: done.job,
                part: done.part,
            };
            self.send_oneway_to_lrm(now, holder, OP_PURGE_CKPT, |w| purge.encode(w), queue);
        }
    }

    pub(super) fn on_part_evicted(
        &mut self,
        now: SimTime,
        evicted: &PartEvicted,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&evicted.job) else {
            return;
        };
        if job.record.state == JobState::Completed || job.record.state == JobState::Failed {
            return;
        }
        if evicted.part as usize >= job.parts.len() {
            return; // damaged frame under corruption faults
        }
        let is_bsp = job.spec.kind.is_parallel();
        let part = &mut job.parts[evicted.part as usize];
        // A speculative twin evicted from its backup node stands the
        // speculation down without touching the primary: the eviction
        // names the twin's node, not the part's.
        if !is_bsp
            && part.node != Some(evicted.node)
            && part
                .twin
                .as_ref()
                .is_some_and(|t| t.node == Some(evicted.node))
        {
            part.twin = None;
            self.charge_spec_waste(evicted.job, evicted.lost_work_mips_s);
            self.log.record(
                now,
                "spec.standdown",
                format_args!(
                    "{} part {} evicted from {}",
                    evicted.job, evicted.part, evicted.node
                ),
            );
            return;
        }
        // A further eviction while a gang teardown is collecting its cancel
        // replies folds in unguarded (min-fold is idempotent under
        // duplicate delivery).
        let mid_teardown =
            is_bsp && job.record.state == JobState::Rescheduling && job.pending_cancels > 0;
        // Outcomes arrive at-least-once (oneway plus the update piggyback):
        // an eviction for a part no longer running on that node is a stale
        // duplicate and must not evict twice — for a gang, the cancel
        // replies of the finished teardown accounted for it.
        if !mid_teardown
            && (!matches!(
                part.state,
                PartState::Running | PartState::Launching | PartState::Recovering
            ) || part.node != Some(evicted.node))
        {
            return;
        }
        job.record.evictions += 1;
        job.record.wasted_work_mips_s += evicted.lost_work_mips_s;
        if !is_bsp {
            // Bank the checkpoint only if it is newer than what has already
            // been credited: a stale blob from an earlier launch reports a
            // version at or below `banked_version` and must not subtract
            // its work a second time.
            if evicted.checkpoint_version > part.banked_version {
                part.banked_version = evicted.checkpoint_version;
                part.remaining =
                    (part.remaining - evicted.checkpointed_work_mips_s as f64).max(0.0);
            }
            let finished = part.remaining <= 0.0;
            // An evicted primary with a racing backup promotes the twin
            // instead of rescheduling — the part never goes Unplaced, so
            // the speculation converts an eviction into continued progress.
            if !finished && part.twin_racing() {
                self.promote_twin(now, evicted.job, evicted.part);
                return;
            }
            // A twin that never reached Running cannot take over; stand it
            // down (its in-flight replies clean up after themselves). A
            // Running twin stays: when the eviction finished the part, the
            // synthesized `PartDone` below settles the race and cancels it.
            if part
                .twin
                .as_ref()
                .is_some_and(|t| t.state != TwinState::Running)
            {
                part.twin = None;
                self.log.record(
                    now,
                    "spec.standdown",
                    format_args!("{} part {} primary evicted", evicted.job, evicted.part),
                );
            }
            part.state = PartState::Unplaced;
            part.node = None;
            let attempt = job.attempts.max(1);
            if !finished {
                job.record.state = JobState::Rescheduling;
            }
            self.log.record(
                now,
                "job.evicted",
                format_args!(
                    "{} part {} from {}",
                    evicted.job, evicted.part, evicted.node
                ),
            );
            if finished {
                // Evicted exactly at a 100% checkpoint: nothing is left to
                // re-run, so complete the part instead of relaunching it
                // for a phantom sliver of residual work.
                let digest = self.nodes[evicted.node.0 as usize].lrm.result_digest(
                    now,
                    evicted.job,
                    evicted.part,
                );
                let done = PartDone {
                    job: evicted.job,
                    part: evicted.part,
                    node: evicted.node,
                    digest,
                };
                self.on_part_done(now, &done, queue);
            } else {
                let backoff = self.reschedule_backoff(attempt);
                queue.schedule_after(backoff, GridEvent::Schedule { job: evicted.job });
            }
            return;
        }
        // BSP gang teardown: cancel every other live part and collect
        // checkpoints; the evicted part contributes its own.
        part.state = PartState::Unplaced;
        part.node = None;
        job.max_checkpoint_version = job.max_checkpoint_version.max(evicted.checkpoint_version);
        let checkpointed = evicted.checkpointed_work_mips_s as f64;
        if mid_teardown {
            job.min_checkpoint = job.min_checkpoint.min(checkpointed);
            return;
        }
        job.min_checkpoint = checkpointed;
        job.record.state = JobState::Rescheduling;
        self.log.record(
            now,
            "job.evicted",
            format_args!(
                "{} part {} from {}",
                evicted.job, evicted.part, evicted.node
            ),
        );
        let job_id = evicted.job;
        let mut cancels = Vec::new();
        for (index, part) in job.parts.iter_mut().enumerate() {
            let live = matches!(part.state, PartState::Running | PartState::Launching);
            if let (true, Some(node)) = (live, part.node) {
                cancels.push((index as u32, node));
            }
            // Gang teardown abandons any in-flight replica fetch too: the
            // rollback re-banks from the version high-water mark anyway.
            if live || part.state == PartState::Recovering {
                part.state = PartState::Unplaced;
                part.node = None;
            }
        }
        job.pending_cancels = cancels.len() as u32;
        let none_pending = cancels.is_empty();
        for (part, node) in cancels {
            self.send_cancel_part(now, job_id, part, node, None, queue);
        }
        if none_pending {
            self.finish_bsp_rollback(now, job_id, queue);
        }
    }

    pub(super) fn finish_bsp_rollback(
        &mut self,
        now: SimTime,
        job_id: JobId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let step = job.bsp_step_work.max(1.0);
        let ckpt = if job.min_checkpoint.is_finite() {
            job.min_checkpoint
        } else {
            0.0
        };
        let steps_banked = (ckpt / step).floor();
        job.bsp_remaining_supersteps = (job.bsp_remaining_supersteps - steps_banked).max(0.0);
        job.min_checkpoint = f64::INFINITY;
        // Raise every part's banked version to the gang-wide high-water mark
        // so the relaunch's checkpoints supersede every replica on disk and
        // stale blobs can never be re-banked.
        let max_v = job.max_checkpoint_version;
        for part in &mut job.parts {
            part.banked_version = part.banked_version.max(max_v);
        }
        let attempt = job.attempts.max(1);
        self.log.record(
            now,
            "job.rollback",
            format_args!("{job_id} banked {steps_banked} supersteps"),
        );
        let backoff = self.reschedule_backoff(attempt);
        queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
    }

    /// Processes a cancel reply; `stopped` is the reply when the copy was
    /// found running, `None` when it had already stopped on its own (crash,
    /// eviction, never launched, or it finished and lost the `PartDone`
    /// dedup) or no reply ever came. A gang member's checkpoint folds into
    /// the job's rollback, which runs once the last member has answered; a
    /// single loser's progress the surviving lineage did not cover is
    /// charged as wasted work.
    pub(super) fn on_cancel_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        loser: Option<(u32, NodeId, Waste)>,
        stopped: Option<CancelPartReply>,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some((part, node, waste)) = loser else {
            let Some(job) = self.jobs.get_mut(&job_id) else {
                return;
            };
            if let Some(reply) = stopped {
                job.min_checkpoint = job
                    .min_checkpoint
                    .min(reply.checkpointed_work_mips_s as f64);
                job.max_checkpoint_version =
                    job.max_checkpoint_version.max(reply.checkpoint_version);
                job.record.wasted_work_mips_s += reply
                    .done_work_mips_s
                    .saturating_sub(reply.checkpointed_work_mips_s);
            }
            job.pending_cancels = job.pending_cancels.saturating_sub(1);
            if job.pending_cancels == 0 {
                self.finish_bsp_rollback(now, job_id, queue);
            }
            return;
        };
        let Some(reply) = stopped else {
            return;
        };
        let wasted = reply.done_work_mips_s.saturating_sub(waste.credit);
        if waste.speculative {
            self.charge_spec_waste(job_id, wasted);
            self.log.record(
                now,
                "spec.wasted",
                format_args!("{job_id} part {part}: {wasted} MIPS-s at {node}"),
            );
        } else {
            if let Some(job) = self.jobs.get_mut(&job_id) {
                job.record.wasted_work_mips_s += wasted;
            }
            self.log.record(
                now,
                "grm.orphan_stopped",
                format_args!("{job_id} part {part}: {wasted} MIPS-s at {node}"),
            );
        }
    }
}
