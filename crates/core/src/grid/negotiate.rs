//! The Resource Reservation and Execution Protocol: trader query → strategy
//! ranking → direct negotiation with the candidate LRMs, next-candidate
//! failover on refusal, BSP gang launch, and the retry/backoff policy.

use super::*;
use crate::asct::JobKind;
use crate::protocol::{
    LaunchReply, LaunchRequest, ReserveReply, ReserveRequest, OP_CANCEL, OP_LAUNCH, OP_RESERVE,
};
use crate::scheduler::{place_groups, rank, worst_path};
use crate::tick::wall_at;
use integrade_simnet::topology::PathQuality;

/// Base delay before the scheduling pipeline re-runs after a failed round
/// or an eviction; [`GridWorld::reschedule_backoff`] scales it.
const RESCHEDULE_BASE: SimDuration = SimDuration::from_secs(60);

/// Horizon for GUPA idle predictions, minutes.
pub(super) const PREDICTION_HORIZON_MINS: u32 = 120;

/// Marshalled execution-state size of sequential/bag-of-tasks parts,
/// bytes — the payload each replicated checkpoint carries. BSP parts use
/// their spec's `state_bytes` instead.
pub(super) const CHECKPOINT_STATE_BYTES: u64 = 4096;

impl GridWorld {
    pub(super) fn admit_job(
        &mut self,
        spec: JobSpec,
        now: SimTime,
        queue: &mut EventQueue<GridEvent>,
    ) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.admit_job_as(id, spec, now, queue);
        id
    }

    /// Admits a job under a caller-allocated id (the id was reserved by
    /// [`Grid::submit_arriving`] when the forward left its origin cluster).
    pub(super) fn admit_job_as(
        &mut self,
        id: JobId,
        spec: JobSpec,
        now: SimTime,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let parts_total = spec.kind.parts();
        let bsp_supersteps = match &spec.kind {
            JobKind::Bsp { supersteps, .. } => *supersteps as f64,
            _ => 0.0,
        };
        let parts = (0..parts_total)
            .map(|i| PartRuntime {
                state: PartState::Unplaced,
                node: None,
                reservation: 0,
                banked_version: 0,
                slow_strikes: 0,
                twin: None,
                remaining: match &spec.kind {
                    JobKind::Sequential { work_mips_s } => *work_mips_s as f64,
                    JobKind::BagOfTasks { task_work_mips_s } => task_work_mips_s[i] as f64,
                    JobKind::Bsp { .. } => 0.0,
                },
            })
            .collect();
        self.jobs.insert(
            id,
            JobExec {
                record: JobRecord {
                    id,
                    name: spec.name.clone(),
                    state: JobState::Queued,
                    submitted_at: now,
                    started_at: None,
                    completed_at: None,
                    parts_done: 0,
                    parts_total,
                    evictions: 0,
                    negotiation_refusals: 0,
                    wasted_work_mips_s: 0,
                },
                spec,
                parts,
                candidates: Vec::new(),
                attempts: 0,
                bsp_remaining_supersteps: bsp_supersteps,
                bsp_step_work: 0.0,
                pending_cancels: 0,
                min_checkpoint: f64::INFINITY,
                max_checkpoint_version: 0,
                pending_reservations: 0,
                next_candidate: 0,
                granted: Vec::new(),
            },
        );
        self.log.record(now, "asct.submit", id);
        queue.schedule_at(now, GridEvent::Schedule { job: id });
    }

    /// Delay before scheduling attempt `attempt` (1-based) re-runs the
    /// pipeline: the base reschedule delay doubled per attempt, capped at
    /// 32x, with ±50% seeded jitter to decorrelate retry storms.
    pub(super) fn reschedule_backoff(&mut self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(5);
        let base = RESCHEDULE_BASE * (1u64 << shift);
        let micros = base.as_micros();
        let jittered = self.retry_rng.uniform_range(micros / 2, micros * 3 / 2 + 1);
        SimDuration::from_micros(jittered.max(1))
    }

    /// Runs one round of the scheduling pipeline for a job.
    pub(super) fn schedule_job(
        &mut self,
        now: SimTime,
        job_id: JobId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get(&job_id) else {
            return;
        };
        if matches!(job.record.state, JobState::Completed | JobState::Failed) {
            return;
        }
        if job.pending_cancels > 0 || job.pending_reservations > 0 {
            return; // still negotiating / tearing down
        }
        let unplaced: Vec<u32> = job
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state == PartState::Unplaced)
            .map(|(i, _)| i as u32)
            .collect();
        if unplaced.is_empty() {
            return;
        }
        let constraint = job.spec.requirements.to_constraint();
        let preference = job.spec.preference.to_trader_preference();
        let is_bsp = job.spec.kind.is_parallel();
        let topology_request = job.spec.topology.clone();
        let strategy = self.config.strategy;
        let spec_pref = job.spec.preference;

        // 1. Trader query (the GRM's stale hint).
        let predictions = self.predictions_for_scheduling(now);
        let candidates = self.grm.candidates(
            &constraint,
            preference,
            self.config.max_candidates,
            &predictions,
        );
        let candidates = match candidates {
            Ok(c) => c,
            Err(e) => {
                self.log.record(now, "grm.query_error", e);
                Vec::new()
            }
        };
        self.obs.trader_depth.observe(candidates.len() as f64);
        // 2. Strategy ranking.
        let ranked = rank(&candidates, strategy, spec_pref, &mut self.rng);
        // 3. Topology-aware group placement when requested.
        let ranked = if let Some(request) = &topology_request {
            match place_groups(self.net.topology_mut(), &ranked, request) {
                Ok(placement) => placement.groups.into_iter().flatten().collect(),
                Err(e) => {
                    self.log.record(now, "grm.topology_unsat", e);
                    Vec::new()
                }
            }
        } else {
            ranked
        };

        let job = self.jobs.get_mut(&job_id).expect("job exists");
        if ranked.len() < if is_bsp { job.parts.len() } else { 1 } {
            self.requeue_or_fail(now, job_id, "no candidates", false, queue);
            return;
        }
        job.candidates = ranked;
        job.granted.clear();
        job.record.state = JobState::Negotiating;

        // 4. Direct negotiation: BSP reserves the whole gang up front; other
        // kinds negotiate one node per unplaced part, round-robin over
        // candidates.
        let mut sends: Vec<(u32, NodeId)> = Vec::new();
        if is_bsp {
            for (i, part) in unplaced.iter().enumerate() {
                sends.push((*part, job.candidates[i].node));
            }
        } else {
            for (i, part) in unplaced.iter().enumerate() {
                // Certification: nodes that already voted on this part must
                // not execute it again — a saboteur agreeing with itself is
                // not independent evidence. Walk the ranking from the
                // round-robin position until a non-voter appears; a part
                // with no eligible candidate waits for a later round.
                let voters = self.cert_votes.get(&(job_id, *part));
                let len = job.candidates.len();
                let Some(candidate) = (0..len)
                    .map(|k| &job.candidates[(i + k) % len])
                    .find(|c| voters.is_none_or(|v| v.iter().all(|(voter, _)| *voter != c.node)))
                else {
                    continue;
                };
                sends.push((*part, candidate.node));
            }
            if sends.is_empty() {
                // Every candidate has already voted on every unplaced part:
                // back off and retry when the trader can offer fresh nodes.
                self.requeue_or_fail(now, job_id, "no unvoted candidates", false, queue);
                return;
            }
        }
        job.pending_reservations = sends.len() as u32;
        job.next_candidate = sends.len().min(job.candidates.len());
        for (part, node) in &sends {
            let p = &mut job.parts[*part as usize];
            p.state = PartState::Reserving;
            p.node = Some(*node);
        }
        for (part, node) in sends {
            self.send_reserve(now, job_id, part, node, Role::Primary, queue);
        }
    }

    /// Counts one more scheduling round that placed nothing new and either
    /// fails the job for good — `max_attempts` rounds are spent — or
    /// re-runs the pipeline after backoff. `stragglers` marks a round that
    /// did place some of the job's parts: the job then keeps its state, and
    /// fails only once none of its parts is placed any more.
    fn requeue_or_fail(
        &mut self,
        now: SimTime,
        job_id: JobId,
        why: &str,
        stragglers: bool,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        job.attempts += 1;
        let attempts = job.attempts;
        let spent = attempts >= self.config.max_attempts
            && (!stragglers || job.parts.iter().all(|p| p.state == PartState::Unplaced));
        if spent {
            job.record.state = JobState::Failed;
            self.log
                .record(now, "job.failed", format_args!("{job_id}: {why}"));
            return;
        }
        if !stragglers {
            job.record.state = JobState::Queued;
        }
        let backoff = self.reschedule_backoff(attempts);
        queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
    }

    /// The reservation a part asks a candidate node for. The duration hint
    /// sizes the LRM-side lease: a gang member's is fixed, an independent
    /// part's derives from its remaining work.
    fn reserve_request(&mut self, job_id: JobId, part: u32) -> ReserveRequest {
        let request_id = self.rpc_id();
        let job = &self.jobs[&job_id];
        let duration_hint_s = if job.spec.kind.is_parallel() {
            600
        } else {
            ((job.parts[part as usize].remaining / 100.0) as u64).clamp(300, 3600)
        };
        ReserveRequest {
            request_id,
            job: job_id,
            part,
            ram_mb: job.spec.requirements.min_ram_mb.max(16),
            min_cpu_fraction: 0.05,
            duration_hint_s,
        }
    }

    /// Asks `node` to reserve resources for one copy (`role`) of a part.
    pub(super) fn send_reserve(
        &mut self,
        now: SimTime,
        job: JobId,
        part: u32,
        node: NodeId,
        role: Role,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let req = self.reserve_request(job, part);
        self.send_to_lrm(
            now,
            node,
            OP_RESERVE,
            move |w| req.encode(w),
            Pending::Reserve {
                job,
                part,
                node,
                role,
            },
            queue,
        );
    }

    /// Hands a reserved part to `node` for execution, costing
    /// `extra_bytes` of migrated state alongside the frame.
    pub(super) fn send_launch(
        &mut self,
        now: SimTime,
        node: NodeId,
        mut req: LaunchRequest,
        role: Role,
        extra_bytes: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        req.request_id = self.rpc_id();
        let (job, part) = (req.job, req.part);
        self.send_request_from(
            now,
            self.grm_host,
            node,
            OP_LAUNCH,
            move |w| req.encode(w),
            Pending::Launch {
                job,
                part,
                node,
                role,
            },
            extra_bytes,
            queue,
        );
    }

    /// Gives a granted reservation back instead of letting its lease run
    /// out on the LRM (best effort: a lost release only costs the lease).
    pub(super) fn release_reservation(
        &mut self,
        now: SimTime,
        node: NodeId,
        reservation: u64,
        queue: &mut EventQueue<GridEvent>,
    ) {
        self.send_oneway_to_lrm(now, node, OP_CANCEL, |w| reservation.encode(w), queue);
    }

    /// GUPA predictions for the pattern-aware ranking (none under any other
    /// strategy).
    pub(super) fn predictions_for_scheduling(&mut self, now: SimTime) -> BTreeMap<NodeId, f64> {
        if self.config.strategy != Strategy::PatternAware {
            return BTreeMap::new();
        }
        self.idle_predictions(now)
    }

    /// P(idle through the prediction horizon) for every node the GUPA holds
    /// a trained model of.
    pub(super) fn idle_predictions(&mut self, now: SimTime) -> BTreeMap<NodeId, f64> {
        // Predictions read each LRM's partial-day window and the GUPA's
        // uploaded periods — state the lazy walk defers for idle
        // nodes — so flush everyone first (mode-invariant, same contract
        // as `report`).
        self.flush_catch_up();
        let (_, weekday, minute) = wall_at(now);
        let slots_per_day = self.config.lrm.sampling.slots_per_day();
        let mut out = BTreeMap::new();
        let mut loads = Vec::new();
        for (i, local) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            if let Some(p) = self.gupa.predict_idle(
                node,
                weekday,
                minute,
                local.lrm.lupa_window().partial_day(),
                slots_per_day,
                PREDICTION_HORIZON_MINS,
                &mut loads,
            ) {
                out.insert(node, p);
            }
        }
        out
    }

    /// Processes an LRM's answer to a primary's reservation, which moves
    /// the job's negotiation round on (a twin's moves its own candidate
    /// walk: [`GridWorld::on_twin_reserve_reply`]).
    pub(super) fn on_reserve_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part: u32,
        node: NodeId,
        reply: ReserveReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        // Phase 1: bookkeeping under the job borrow; collect any launch or
        // failover reserve to send afterwards (sending needs `&mut self`).
        let mut launch: Option<LaunchRequest> = None;
        let mut failover: Option<NodeId> = None;
        let round_done = {
            let Some(job) = self.jobs.get_mut(&job_id) else {
                return;
            };
            job.pending_reservations = job.pending_reservations.saturating_sub(1);
            let is_bsp = job.spec.kind.is_parallel();
            if reply.granted {
                job.granted.push((part, node, reply.reservation));
                if !is_bsp {
                    // Launch immediately: independent parts need no gang.
                    let work = job.parts[part as usize].remaining.max(1.0) as u64;
                    job.parts[part as usize].state = PartState::Launching;
                    job.parts[part as usize].reservation = reply.reservation;
                    let interval = self.config.sequential_checkpoint_mips_s;
                    let replicas = if interval > 0.0 {
                        self.grm
                            .choose_replicas(node, self.config.replication_factor)
                    } else {
                        Vec::new()
                    };
                    launch = Some(LaunchRequest {
                        request_id: 0, // assigned by `send_launch`
                        reservation: reply.reservation,
                        job: job_id,
                        part,
                        work_mips_s: work,
                        checkpoint_interval_mips_s: interval,
                        state_bytes: CHECKPOINT_STATE_BYTES,
                        resume_version: job.parts[part as usize].banked_version,
                        replicas,
                    });
                }
            } else {
                job.record.negotiation_refusals += 1;
                job.parts[part as usize].state = PartState::Unplaced;
                job.parts[part as usize].node = None;
                self.log.record(
                    now,
                    "grm.refused",
                    format_args!("{job_id} part {part} by {node}: {}", reply.reason),
                );
                // The paper's failover: try the next candidate from this
                // round's ranked list before giving up (BSP gangs instead
                // retry as a unit in finish_reservation_round).
                if self.config.candidate_failover
                    && !is_bsp
                    && job.next_candidate < job.candidates.len()
                {
                    let next = job.candidates[job.next_candidate].node;
                    job.next_candidate += 1;
                    job.pending_reservations += 1;
                    job.parts[part as usize].state = PartState::Reserving;
                    job.parts[part as usize].node = Some(next);
                    failover = Some(next);
                }
            }
            job.pending_reservations == 0
        };
        if let Some(next) = failover {
            self.send_reserve(now, job_id, part, next, Role::Primary, queue);
        }
        if let Some(req) = launch {
            self.send_launch(now, node, req, Role::Primary, 0, queue);
        }
        if round_done {
            self.finish_reservation_round(now, job_id, queue);
        }
    }

    /// Completes one reservation round: launches a full BSP gang, or retries
    /// refused parts.
    fn finish_reservation_round(
        &mut self,
        now: SimTime,
        job_id: JobId,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        if job.spec.kind.is_parallel() {
            if job.granted.len() == job.parts.len() {
                self.launch_bsp_gang(now, job_id, queue);
                return;
            }
            // Release what we got and retry the whole gang.
            let granted = std::mem::take(&mut job.granted);
            for (part, _, _) in &granted {
                job.parts[*part as usize].state = PartState::Unplaced;
                job.parts[*part as usize].node = None;
            }
            for (_, node, reservation) in granted {
                self.release_reservation(now, node, reservation, queue);
            }
            self.requeue_or_fail(now, job_id, "gang refused", false, queue);
        } else if job.parts.iter().any(|p| p.state == PartState::Unplaced) {
            self.requeue_or_fail(now, job_id, "refusals", true, queue);
        }
    }

    fn launch_bsp_gang(&mut self, now: SimTime, job_id: JobId, queue: &mut EventQueue<GridEvent>) {
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        let JobKind::Bsp {
            work_per_superstep_mips_s,
            bytes_per_superstep,
            checkpoint_every,
            state_bytes,
            ..
        } = job.spec.kind
        else {
            return;
        };
        // Superstep surcharge from the placement's worst path (BSP cost
        // model: w + g·h + l converted into MIPS-s at the slowest node).
        let granted = std::mem::take(&mut job.granted);
        let min_mips = granted
            .iter()
            .map(|(_, node, _)| self.nodes[node.0 as usize].lrm.resources.cpu_mips)
            .min()
            .unwrap_or(500);
        let hosts: Vec<CandidateNode> = granted
            .iter()
            .filter_map(|(_, node, _)| job.candidates.iter().find(|c| c.node == *node).cloned())
            .collect();
        let worst =
            worst_path(self.net.topology_mut(), &hosts).unwrap_or_else(PathQuality::loopback);
        let comm_seconds = worst.transfer_time(bytes_per_superstep).as_secs_f64()
            + 2.0 * worst.latency.as_secs_f64();
        let comm_mips_s = comm_seconds * min_mips as f64;
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        job.bsp_step_work = work_per_superstep_mips_s as f64 + comm_mips_s;
        let work = (job.bsp_remaining_supersteps * job.bsp_step_work).max(1.0) as u64;
        let ckpt_interval = if checkpoint_every == 0 {
            0.0
        } else {
            checkpoint_every as f64 * job.bsp_step_work
        };
        let mut launches: Vec<(NodeId, LaunchRequest)> = Vec::with_capacity(granted.len());
        for (part, node, reservation) in granted {
            let p = &mut job.parts[part as usize];
            p.state = PartState::Launching;
            p.reservation = reservation;
            let req = LaunchRequest {
                request_id: 0, // assigned by `send_launch`
                reservation,
                job: job_id,
                part,
                work_mips_s: work,
                checkpoint_interval_mips_s: ckpt_interval,
                state_bytes,
                resume_version: p.banked_version,
                replicas: Vec::new(), // chosen at send time
            };
            launches.push((node, req));
        }
        self.log.record(
            now,
            "job.gang_launch",
            format_args!(
                "{job_id} on {} nodes, step work {:.0}",
                launches.len(),
                job.bsp_step_work
            ),
        );
        // A relaunch after eviction ships the migrated checkpoint state to
        // each new node — the machine-independent snapshot the §3 model
        // exists to make movable, costed as bulk payload on the wire.
        let migration_bytes = if job.record.evictions > 0 {
            state_bytes
        } else {
            0
        };
        for (node, mut req) in launches {
            if ckpt_interval > 0.0 {
                req.replicas = self
                    .grm
                    .choose_replicas(node, self.config.replication_factor);
            }
            self.send_launch(now, node, req, Role::Primary, migration_bytes, queue);
        }
    }

    /// Processes an LRM's answer to a launch. The reply counts only while
    /// the scheduler still tracks that launch — the copy is `Launching` on
    /// the node that answers. A gang teardown, a crash verdict or a settled
    /// speculation race may have given up on it while the frame (or its
    /// retransmission) was in flight: a refusal is then moot, and an
    /// acceptance is torn back down — an untracked copy must never be left
    /// computing.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_launch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part: u32,
        node: NodeId,
        role: Role,
        reply: LaunchReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let tracked = self
            .jobs
            .get(&job_id)
            .and_then(|j| j.parts.get(part as usize))
            .is_some_and(|p| match role {
                Role::Primary => p.state == PartState::Launching && p.node == Some(node),
                Role::Twin => p
                    .twin
                    .as_ref()
                    .is_some_and(|t| t.state == TwinState::Launching && t.node == Some(node)),
            });
        if !tracked {
            if reply.accepted {
                if role == Role::Primary {
                    self.log.record(
                        now,
                        "grm.launch_orphan",
                        format_args!("{job_id} part {part} on {node}"),
                    );
                }
                let waste = Waste {
                    credit: 0,
                    speculative: role == Role::Twin,
                };
                self.send_cancel_part(now, job_id, part, node, Some(waste), queue);
            }
            return;
        }
        match role {
            Role::Primary => self.on_primary_launch_reply(now, job_id, part, node, reply, queue),
            Role::Twin => self.on_twin_launch_reply(now, job_id, part, node, reply),
        }
    }

    fn on_primary_launch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part: u32,
        node: NodeId,
        reply: LaunchReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let job = self.jobs.get_mut(&job_id).expect("tracked launch");
        if reply.accepted {
            job.parts[part as usize].state = PartState::Running;
            job.attempts = 0;
            if job.record.started_at.is_none() {
                job.record.started_at = Some(now);
            }
            if job.record.state != JobState::Running {
                job.record.state = JobState::Running;
            }
            self.log.record(
                now,
                "job.part_started",
                format_args!("{job_id} part {part} on {node}"),
            );
        } else {
            job.record.negotiation_refusals += 1;
            job.parts[part as usize].state = PartState::Unplaced;
            job.parts[part as usize].node = None;
            let attempt = job.attempts.max(1);
            let backoff = self.reschedule_backoff(attempt);
            queue.schedule_after(backoff, GridEvent::Schedule { job: job_id });
        }
    }
}
