//! Host and manager failures: crash and reboot of a host, the restarted
//! GRM's reconciliation of negotiations its old incarnation left behind,
//! and silence-based detection of crashed nodes.

use super::*;
use integrade_obs::span::SpanKind;

impl GridWorld {
    /// Takes a host off the network and wipes the volatile state of the
    /// component living on it (an LRM, or the GRM itself).
    pub(super) fn crash_host(&mut self, now: SimTime, host: HostId) {
        self.net
            .topology_mut()
            .set_up(host, false)
            .expect("known host");
        // Requests issued by the crashed host's orb die with it; their
        // timeout events find no entry and fall through harmlessly.
        self.pending.retain(|(from, _), _| *from != host);
        if host == self.grm_host {
            self.grm_transitions.push((now, false));
            self.grm.crash();
            let epoch = self.grm.epoch();
            // Relays in flight died with the GRM's orb; the placement map
            // is rebuilt from replica re-announces after restart.
            self.rerepl_inflight.clear();
            self.obs.grm_crashes.inc();
            self.log
                .record(now, "grm.crash", format_args!("next epoch {epoch}"));
        } else if let Some(&node) = self.host_to_node.get(host) {
            self.update_acks[node].clear();
            {
                let lrm = &mut self.nodes[node].lrm;
                for part in lrm.running() {
                    self.crash_progress
                        .insert((part.job, part.part), part.done as u64);
                    self.obs.spans.event(
                        SpanKind::Crash,
                        part.job.0,
                        part.part,
                        node as u64,
                        now.as_micros(),
                    );
                }
                lrm.crash();
            }
            self.obs.node_crashes.inc();
            // Volatile engagement (running parts, reservations, unacked
            // outcomes) died with the node; only surviving replicas keep it
            // in the active set.
            self.refresh_activity(node);
            self.log.record(now, "node.crash", NodeId(node as u32));
        }
    }

    /// Brings a crashed host back (reboot semantics: volatile state stays
    /// empty; the GRM additionally reconciles orphaned negotiation state).
    pub(super) fn restore_host(
        &mut self,
        now: SimTime,
        host: HostId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        self.net
            .topology_mut()
            .set_up(host, true)
            .expect("known host");
        if host == self.grm_host {
            self.grm_transitions.push((now, true));
            self.grm.restart(now);
            let epoch = self.grm.epoch();
            self.log
                .record(now, "grm.epoch", format_args!("restarted as epoch {epoch}"));
            self.reconcile_after_grm_restart(now, queue);
        } else if let Some(&node) = self.host_to_node.get(host) {
            self.log.record(now, "node.restore", NodeId(node as u32));
        }
    }

    /// After a GRM restart, no in-flight negotiation of the old incarnation
    /// can ever complete: zero the in-flight counters, unwind parts stuck
    /// mid-handshake (their LRM-side reservations expire via leases) and
    /// re-run the pipeline, so jobs are rescheduled instead of wedging.
    fn reconcile_after_grm_restart(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        // The restarted GRM lost every progress track; the suspicion built
        // on them must not outlive its evidence.
        self.suspect_nodes.clear();
        // The ballot box was GRM soft state too: the restarted manager
        // re-collects votes from scratch (parts awaiting certification go
        // back through the at-least-once outcome redelivery).
        self.cert_votes.clear();
        let mut rollbacks: Vec<JobId> = Vec::new();
        let mut reschedules: Vec<(JobId, u32)> = Vec::new();
        let mut twin_cancels: Vec<(JobId, u32, NodeId)> = Vec::new();
        for (id, job) in self.jobs.iter_mut() {
            if matches!(job.record.state, JobState::Completed | JobState::Failed) {
                continue;
            }
            let mid_teardown = job.pending_cancels > 0;
            job.pending_cancels = 0;
            job.pending_reservations = 0;
            job.granted.clear();
            for (index, part) in job.parts.iter_mut().enumerate() {
                // Speculative twins do not survive a GRM restart: their
                // continuations died with the old incarnation's orb. A twin
                // that reached Running is cancelled on its node so an
                // untracked copy is never left computing; the rest just
                // evaporate.
                if let Some(twin) = part.twin.take() {
                    if twin.state == TwinState::Running {
                        if let Some(node) = twin.node {
                            twin_cancels.push((*id, index as u32, node));
                        }
                    }
                }
                // Recovering parts unwind too: the fetch continuation died
                // with the old incarnation's orb, so restart them from the
                // banked level rather than wedging in Recovering forever.
                if matches!(
                    part.state,
                    PartState::Reserving | PartState::Launching | PartState::Recovering
                ) {
                    part.state = PartState::Unplaced;
                    part.node = None;
                    part.reservation = 0;
                }
            }
            if job.record.state == JobState::Negotiating {
                job.record.state = JobState::Queued;
            }
            if mid_teardown {
                // The gang teardown loses its cancel replies: bank whatever
                // checkpoint level was already folded in and move on.
                rollbacks.push(*id);
            } else if job.parts.iter().any(|p| p.state == PartState::Unplaced) {
                reschedules.push((*id, job.attempts.max(1)));
            }
            // Parts still Running keep running: their LRMs re-announce via
            // the epoch-forced full update and report outcomes at-least-once.
        }
        for id in rollbacks {
            self.log
                .record(now, "grm.reconcile", format_args!("{id} rollback"));
            self.finish_bsp_rollback(now, id, queue);
        }
        for (id, attempt) in reschedules {
            self.log
                .record(now, "grm.reconcile", format_args!("{id} reschedule"));
            let backoff = self.reschedule_backoff(attempt);
            queue.schedule_after(backoff, GridEvent::Schedule { job: id });
        }
        for (job_id, part_id, node) in twin_cancels {
            self.obs.spec_cancelled.inc();
            self.log.record(
                now,
                "spec.cancelled",
                format_args!("{job_id} part {part_id} at {node}: grm restart"),
            );
            let waste = Waste {
                credit: 0,
                speculative: true,
            };
            self.send_cancel_part(now, job_id, part_id, node, Some(waste), queue);
        }
    }

    /// GRM-side crash detection: a node silent past `crash_silence` is
    /// declared dead; parts it hosted are recovered from the checkpoint
    /// repository as synthetic evictions ("resume the application in case
    /// of crashes", §3).
    pub(super) fn detect_crashed_nodes(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        if now.as_micros() < self.config.crash_silence.as_micros() {
            return; // grace period at start-up
        }
        let silent = self.grm.silent_nodes(now, self.config.crash_silence);
        for node in silent {
            self.grm.mark_unavailable(node);
            self.log.record(now, "grm.node_dead", node);
            // A dead node's pending certification votes are discarded: like
            // the update-seq gate reset in `mark_unavailable`, every claim
            // the node made dies with it — a restarted incarnation must
            // re-earn its say by executing the part again.
            for votes in self.cert_votes.values_mut() {
                votes.retain(|(voter, _)| *voter != node);
            }
            // Speculative twins on the dead node die quietly — the primary
            // is still running, so no recovery is needed; the backup's lost
            // progress is wasted speculative work.
            let mut dead_twins: Vec<(JobId, u32)> = Vec::new();
            // A dead *primary* whose twin is already racing promotes the
            // twin instead of recovering: the backup held the newest
            // verified state when it launched and has been running since.
            let mut promotions: Vec<(JobId, u32)> = Vec::new();
            // Everything else on the dead node switches to Recovering
            // while a digest-verified replica fetch is in flight; the
            // fetch's outcome feeds the common eviction path.
            let mut to_recover: Vec<(JobId, u32)> = Vec::new();
            for (job_id, job) in &mut self.jobs {
                for (index, part) in job.parts.iter_mut().enumerate() {
                    if part.node != Some(node)
                        && part.twin.as_ref().is_some_and(|t| t.node == Some(node))
                    {
                        part.twin = None;
                        dead_twins.push((*job_id, index as u32));
                    } else if part.node == Some(node)
                        && matches!(part.state, PartState::Running | PartState::Launching)
                    {
                        if part.twin_racing() {
                            promotions.push((*job_id, index as u32));
                        } else {
                            part.state = PartState::Recovering;
                            to_recover.push((*job_id, index as u32));
                        }
                    }
                }
            }
            for (job_id, part_id) in dead_twins {
                let lost = self.crash_progress.remove(&(job_id, part_id)).unwrap_or(0);
                self.charge_spec_waste(job_id, lost);
                self.log.record(
                    now,
                    "spec.standdown",
                    format_args!("{job_id} part {part_id}: backup {node} died"),
                );
            }
            for (job_id, part_id) in promotions {
                let twin = self.promote_twin(now, job_id, part_id);
                // The dead primary's progress beyond the checkpoint the
                // twin resumed from is lost work.
                let lost = self
                    .crash_progress
                    .remove(&(job_id, part_id))
                    .unwrap_or(0)
                    .saturating_sub(twin.resume_work as u64);
                let job = self.jobs.get_mut(&job_id).expect("job exists");
                job.record.evictions += 1;
                job.record.wasted_work_mips_s += lost;
            }
            for (job_id, part_id) in to_recover {
                self.begin_recovery(now, job_id, part_id, node, queue);
            }
        }
    }
}
