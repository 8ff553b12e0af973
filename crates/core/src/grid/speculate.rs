//! Gray-failure mitigation: the progress-based straggler detector and the
//! decisions of a speculative twin — where to resume from, where to run,
//! what a refusal or a lost race means. The requests themselves are the
//! shared [`Pending::Reserve`] / [`Pending::Launch`] / [`Pending::Fetch`]
//! with the twin's role.

use super::negotiate::CHECKPOINT_STATE_BYTES;
use super::*;
use crate::protocol::{LaunchReply, LaunchRequest, ReserveReply};
use crate::scheduler::rank;

/// A part is a straggler candidate when its observed progress rate falls
/// below this fraction of its job's median running-part rate.
const STRAGGLER_THRESHOLD: f64 = 0.5;
/// Consecutive below-threshold observations (slot ticks) before a
/// speculative twin launches — the hysteresis that keeps transient owner
/// activity from tripping the detector.
const STRAGGLER_STRIKES: u32 = 3;

impl PartRuntime {
    /// A speculative twin is executing this part — the only kind that can
    /// take over when the primary is evicted or dies.
    pub(super) fn twin_racing(&self) -> bool {
        self.twin
            .as_ref()
            .is_some_and(|t| t.state == TwinState::Running && t.node.is_some())
    }
}

impl GridWorld {
    /// Progress-based straggler scan (the gray-failure detector). For each
    /// non-parallel job with at least three rated running parts, each
    /// part's observed rate (from the piggybacked progress reports) is
    /// compared against the job median: a part below
    /// [`STRAGGLER_THRESHOLD`]` × median` accumulates a strike, a part at or
    /// above it resets to zero. Only [`STRAGGLER_STRIKES`] *consecutive*
    /// slow rounds escalate to a speculative twin — the hysteresis that
    /// keeps one-off jitter (a lost update, a momentary owner burst) from
    /// triggering wasteful speculation, while a sustained gray failure
    /// (a derated CPU, a limping link) cannot hide.
    pub(super) fn detect_stragglers(&mut self, now: SimTime, queue: &mut EventQueue<GridEvent>) {
        let mut escalate: Vec<(JobId, u32)> = Vec::new();
        let mut mark_suspect: Vec<NodeId> = Vec::new();
        let mut clear_suspect: Vec<NodeId> = Vec::new();
        {
            let grm = &self.grm;
            for (job_id, job) in self.jobs.iter_mut() {
                if job.spec.kind.is_parallel() {
                    continue; // BSP gangs already rollback as a unit
                }
                if matches!(job.record.state, JobState::Completed | JobState::Failed) {
                    continue;
                }
                let mut rates: Vec<(usize, f64)> = Vec::new();
                for (i, part) in job.parts.iter().enumerate() {
                    if part.state != PartState::Running {
                        continue;
                    }
                    let Some(node) = part.node else { continue };
                    if let Some(rate) = grm.progress_rate(*job_id, i as u32, node) {
                        rates.push((i, rate));
                    }
                }
                if rates.len() < 3 {
                    continue; // a median of fewer parts is noise
                }
                let mut sorted: Vec<f64> = rates.iter().map(|(_, r)| *r).collect();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let median = sorted[sorted.len() / 2];
                if median <= 0.0 {
                    continue;
                }
                for (i, rate) in rates {
                    let part = &mut job.parts[i];
                    if rate < STRAGGLER_THRESHOLD * median {
                        part.slow_strikes += 1;
                        if let Some(node) = part.node {
                            mark_suspect.push(node);
                        }
                        if part.slow_strikes >= STRAGGLER_STRIKES && part.twin.is_none() {
                            part.slow_strikes = 0;
                            escalate.push((*job_id, i as u32));
                        }
                    } else {
                        part.slow_strikes = 0;
                        if let Some(node) = part.node {
                            clear_suspect.push(node);
                        }
                    }
                }
            }
        }
        for node in mark_suspect {
            self.suspect_nodes.insert(node);
        }
        for node in clear_suspect {
            self.suspect_nodes.remove(&node);
        }
        for (job_id, part_id) in escalate {
            self.obs.straggler_detected.inc();
            self.log.record(
                now,
                "straggler.detected",
                format_args!("{job_id} part {part_id}"),
            );
            self.begin_speculation(now, job_id, part_id, queue);
        }
    }

    /// Escalates a straggling part to speculative execution: fetch the
    /// newest banked checkpoint from a live replica holder (so the backup
    /// resumes from verified progress instead of zero), then reserve and
    /// launch a twin on a fresh trader candidate. The primary keeps
    /// running throughout — first copy to report `PartDone` wins.
    pub(super) fn begin_speculation(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let primary = {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            let part = &job.parts[part_id as usize];
            if part.state != PartState::Running || part.twin.is_some() {
                return;
            }
            part.node
        };
        let Some(primary) = primary else { return };
        let replicas = self.live_holders(job_id, part_id, Some(primary));
        {
            let job = self.jobs.get_mut(&job_id).expect("job exists");
            let part = &mut job.parts[part_id as usize];
            part.twin = Some(TwinRuntime {
                state: TwinState::Fetching,
                node: None,
                reservation: 0,
                candidates: Vec::new(),
                resume_work: 0.0,
                resume_version: part.banked_version,
            });
        }
        self.fetch_next(now, job_id, part_id, replicas, FetchWhy::Twin, queue);
    }

    /// Re-queries the trader for the twin's placement, preferring nodes
    /// the usage-pattern predictor expects to stay idle, and excluding the
    /// straggling primary. The ranked list is stashed on the twin for
    /// refusal fallthrough — deliberately separate from the primary's
    /// negotiation round so the two candidate walks can never
    /// double-launch a part.
    pub(super) fn twin_query_trader(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let (constraint, preference, spec_pref, primary) = {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            let part = &job.parts[part_id as usize];
            if part.twin.is_none() || part.state != PartState::Running {
                return;
            }
            (
                job.spec.requirements.to_constraint(),
                job.spec.preference.to_trader_preference(),
                job.spec.preference,
                part.node,
            )
        };
        let predictions = self.predictions_for_scheduling(now);
        let candidates = self
            .grm
            .candidates(
                &constraint,
                preference,
                self.config.max_candidates,
                &predictions,
            )
            .unwrap_or_default();
        let ranked = rank(&candidates, self.config.strategy, spec_pref, &mut self.rng);
        // A gray-failed host advertises full static capacity, so the trader
        // cannot tell it from a healthy one — but the detector's strike
        // evidence can. Never place a twin on the primary or on any node
        // currently under suspicion, or the backup inherits the slowness
        // the speculation was meant to escape. Nodes already hosting a twin
        // are excluded too: the trader ranks from the same status snapshot
        // for every query in a slot, so two simultaneous escalations would
        // otherwise stack their backups on the one best-ranked node and
        // split its CPU between the very races both need to win.
        let twin_hosts = self.twin_hosts();
        let nodes: Vec<NodeId> = ranked
            .into_iter()
            .map(|c| c.node)
            .filter(|n| {
                Some(*n) != primary && !self.suspect_nodes.contains(n) && !twin_hosts.contains(n)
            })
            .collect();
        if nodes.is_empty() {
            self.clear_twin(now, job_id, part_id, "no candidates");
            return;
        }
        {
            let job = self.jobs.get_mut(&job_id).expect("job exists");
            let twin = job.parts[part_id as usize].twin.as_mut().expect("twin");
            twin.candidates = nodes;
        }
        self.twin_reserve_next(now, job_id, part_id, queue);
    }

    /// The nodes a speculative twin runs on or is being negotiated for.
    fn twin_hosts(&self) -> BTreeSet<NodeId> {
        self.jobs
            .values()
            .flat_map(|j| j.parts.iter())
            .filter_map(|p| p.twin.as_ref().and_then(|t| t.node))
            .collect()
    }

    /// Sends the twin's reservation to its next untried candidate, or
    /// stands the speculation down when the list is exhausted (the
    /// detector will re-escalate if the part is still slow).
    fn twin_reserve_next(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        queue: &mut EventQueue<GridEvent>,
    ) {
        // Other parts' twins may have claimed nodes since this part's
        // candidate list was ranked; skip those or a refusal walk would
        // stack two backups on one host after all. (This part's own twin
        // holds no node while it is choosing one.)
        let other_twin_hosts = self.twin_hosts();
        let next = {
            let Some(twin) = self
                .jobs
                .get_mut(&job_id)
                .and_then(|j| j.parts.get_mut(part_id as usize))
                .and_then(|p| p.twin.as_mut())
            else {
                return;
            };
            twin.candidates.retain(|n| !other_twin_hosts.contains(n));
            if twin.candidates.is_empty() {
                None
            } else {
                let node = twin.candidates.remove(0);
                twin.state = TwinState::Reserving;
                twin.node = Some(node);
                Some(node)
            }
        };
        match next {
            Some(node) => self.send_reserve(now, job_id, part_id, node, Role::Twin, queue),
            None => self.clear_twin(now, job_id, part_id, "candidates exhausted"),
        }
    }

    /// Processes an LRM's answer to a twin reservation. A grant launches
    /// the backup from the fetched resume point with a zero checkpoint
    /// interval — the twin never forks the primary's checkpoint lineage,
    /// so `banked_version` monotonicity is preserved no matter who wins. A
    /// refusal walks the twin's own candidate list. A grant that arrives
    /// after the race settled releases the orphaned lease.
    pub(super) fn on_twin_reserve_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        node: NodeId,
        reply: ReserveReply,
        queue: &mut EventQueue<GridEvent>,
    ) {
        let tracked = self
            .jobs
            .get_mut(&job_id)
            .and_then(|j| j.parts.get_mut(part_id as usize))
            .filter(|p| {
                p.twin
                    .as_ref()
                    .is_some_and(|t| t.state == TwinState::Reserving && t.node == Some(node))
            });
        let Some(part) = tracked else {
            if reply.granted {
                // The race settled while the reserve was in flight: release
                // the lease instead of letting it expire on the LRM.
                self.release_reservation(now, node, reply.reservation, queue);
            }
            return;
        };
        let twin = part.twin.as_mut().expect("twin exists");
        if !reply.granted {
            twin.node = None;
            self.log.record(
                now,
                "spec.refused",
                format_args!("{job_id} part {part_id} by {node}"),
            );
            self.twin_reserve_next(now, job_id, part_id, queue);
            return;
        }
        twin.reservation = reply.reservation;
        twin.state = TwinState::Launching;
        let req = LaunchRequest {
            request_id: 0, // assigned by `send_launch`
            reservation: reply.reservation,
            job: job_id,
            part: part_id,
            work_mips_s: (part.remaining - twin.resume_work).max(1.0) as u64,
            checkpoint_interval_mips_s: 0.0,
            state_bytes: CHECKPOINT_STATE_BYTES,
            resume_version: twin.resume_version,
            replicas: Vec::new(),
        };
        self.send_launch(now, node, req, Role::Twin, 0, queue);
    }

    /// The twin's half of a launch reply the scheduler still tracks
    /// ([`GridWorld::on_launch_reply`] has checked): acceptance puts the
    /// backup in the race; a refusal stands the speculation down (the
    /// detector re-escalates if the part stays slow).
    pub(super) fn on_twin_launch_reply(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
        node: NodeId,
        reply: LaunchReply,
    ) {
        if !reply.accepted {
            self.clear_twin(now, job_id, part_id, "launch refused");
            return;
        }
        let job = self.jobs.get_mut(&job_id).expect("tracked launch");
        let twin = job.parts[part_id as usize].twin.as_mut();
        twin.expect("tracked launch").state = TwinState::Running;
        self.obs.spec_launched.inc();
        self.log.record(
            now,
            "spec.launched",
            format_args!("{job_id} part {part_id} on {node}"),
        );
    }

    /// Stands a speculation down without any wire traffic — used when the
    /// twin never reached a node (no candidates, refusals) or its target
    /// died first. In-flight twin replies detect the missing runtime and
    /// clean up after themselves.
    pub(super) fn clear_twin(&mut self, now: SimTime, job_id: JobId, part_id: u32, why: &str) {
        if let Some(part) = self
            .jobs
            .get_mut(&job_id)
            .and_then(|j| j.parts.get_mut(part_id as usize))
        {
            if part.twin.take().is_some() {
                self.log.record(
                    now,
                    "spec.standdown",
                    format_args!("{job_id} part {part_id}: {why}"),
                );
            }
        }
    }

    /// Makes a racing twin the part's primary — an evicted or dead primary
    /// with a backup already executing continues there instead of going
    /// back to the scheduler. Returns the twin's runtime for the caller's
    /// lost-work accounting.
    pub(super) fn promote_twin(
        &mut self,
        now: SimTime,
        job_id: JobId,
        part_id: u32,
    ) -> TwinRuntime {
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        let part = &mut job.parts[part_id as usize];
        let twin = part.twin.take().expect("twin exists");
        let node = twin.node.expect("a racing twin has a node");
        part.node = Some(node);
        part.reservation = twin.reservation;
        part.state = PartState::Running;
        self.log.record(
            now,
            "spec.promoted",
            format_args!("{job_id} part {part_id} continues on {node}"),
        );
        twin
    }

    /// Charges `amount` MIPS-s of a speculative copy's progress nobody will
    /// use to the job and to both speculation-overhead ledgers.
    pub(super) fn charge_spec_waste(&mut self, job_id: JobId, amount: u64) {
        self.obs.spec_wasted_mips_s.add(amount);
        self.overhead.spec_wasted_mips_s += amount as f64;
        if let Some(job) = self.jobs.get_mut(&job_id) {
            job.record.wasted_work_mips_s += amount;
        }
    }
}
