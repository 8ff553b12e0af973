//! Local Resource Manager — the per-node agent.
//!
//! "The LRM is executed in each cluster node, collecting information about
//! the node status, such as memory, CPU, disk, and network usage. LRMs send
//! this information periodically to the GRM" (§4). The LRM also executes
//! grid applications under the owner's NCC policy: it is the "user-level
//! scheduler" that guarantees "the access to its hardware resources is
//! carefully controlled" (§1) — grid parts receive only the capped share,
//! always yielding to the owner, and are evicted when the policy stops
//! allowing export.

use crate::ncc::SharingPolicy;
use crate::protocol::{
    canonical_result_digest, FetchCheckpoint, FetchCheckpointReply, LaunchReply, LaunchRequest,
    PartDone, PartEvicted, ProgressReport, PurgeCheckpoint, ReplicaReport, ReserveReply,
    ReserveRequest, StoreCheckpoint, StoreCheckpointReply, OP_CANCEL, OP_FETCH_CKPT, OP_LAUNCH,
    OP_PURGE_CKPT, OP_RESERVE, OP_STORE_CKPT,
};
use crate::repo::{ReplicaStore, StoreOutcome, StoredCheckpoint};
use crate::types::{JobId, NodeId, NodeRoles, NodeStatus, Platform, ResourceVector};
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrReader, CdrWriter};
use integrade_orb::servant::{Servant, ServerException};
use integrade_simnet::faults::scheduled_draw;
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_usage::sample::{SampleWindow, SamplingConfig, UsageSample, Weekday};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bound on the idempotent-reply cache; old entries are evicted in id order
/// (lowest request id first — the ones least likely to be retransmitted).
const RPC_CACHE_CAPACITY: usize = 256;

/// LRM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrmConfig {
    /// Period of the Information Update Protocol.
    pub update_period: SimDuration,
    /// Suppress updates whose status barely changed (saves GRM load at the
    /// cost of staleness).
    pub delta_suppression: bool,
    /// Usage sampling configuration (feeds the LUPA).
    pub sampling: SamplingConfig,
}

impl Default for LrmConfig {
    fn default() -> Self {
        LrmConfig {
            update_period: SimDuration::from_secs(30),
            delta_suppression: false,
            sampling: SamplingConfig::default(),
        }
    }
}

/// A granted, not-yet-consumed resource reservation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    /// Handle returned to the GRM.
    pub id: u64,
    /// Job the reservation is for.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Reserved RAM.
    pub ram_mb: u64,
    /// Minimum CPU share promised.
    pub min_cpu_fraction: f64,
    /// Lease expiry: unused reservations release automatically.
    pub expires: SimTime,
}

/// A grid application part executing on this node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningPart {
    /// Job the part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Total work of this launch, MIPS-seconds.
    pub work_total: f64,
    /// Work completed so far, MIPS-seconds.
    pub done: f64,
    /// Work between checkpoints, MIPS-seconds (0 = no checkpointing).
    pub checkpoint_interval: f64,
    /// Reserved RAM held by this part.
    pub ram_mb: u64,
    /// Size of the part's marshalled execution state (checkpoint payload).
    pub state_bytes: u64,
    /// Checkpoint version already banked before this launch; versions
    /// produced here continue from it, staying monotonic across relaunches.
    pub resume_version: u64,
    /// Replica nodes each checkpoint must be written to (GRM-chosen).
    pub replicas: Vec<NodeId>,
    /// Checkpoint intervals already emitted to the replicas.
    emitted_intervals: u64,
}

impl RunningPart {
    /// Work preserved by the last checkpoint.
    pub fn checkpointed(&self) -> f64 {
        if self.checkpoint_interval <= 0.0 {
            0.0
        } else {
            (self.done / self.checkpoint_interval).floor() * self.checkpoint_interval
        }
    }

    /// Version of the last checkpoint (`resume_version` when none was taken
    /// this launch).
    pub fn checkpoint_version(&self) -> u64 {
        if self.checkpoint_interval <= 0.0 {
            self.resume_version
        } else {
            self.resume_version + (self.done / self.checkpoint_interval).floor() as u64
        }
    }
}

/// A checkpoint that became due after an [`LrmState::advance`]: the world
/// marshals the part's state into a `GlobalCheckpoint` blob and writes it to
/// each replica node over the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DueCheckpoint {
    /// Job the part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
    /// Version of this checkpoint (monotonic across relaunches).
    pub version: u64,
    /// Work it preserves, MIPS-s (this launch).
    pub work_mips_s: u64,
    /// Payload size the marshalled state should have.
    pub state_bytes: u64,
    /// Where to write it.
    pub replicas: Vec<NodeId>,
}

/// A completed part, reported by [`LrmState::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedPart {
    /// Job the part belongs to.
    pub job: JobId,
    /// Part index.
    pub part: u32,
}

/// The per-node agent state.
#[derive(Debug)]
pub struct LrmState {
    /// This node's id.
    pub node: NodeId,
    /// Hardware capacity.
    pub resources: ResourceVector,
    /// Software platform.
    pub platform: Platform,
    /// Owner's sharing policy (NCC).
    pub policy: SharingPolicy,
    /// Figure-1 roles of this node.
    pub roles: NodeRoles,
    owner: UsageSample,
    weekday: Weekday,
    minute_of_day: u32,
    seq: u64,
    next_reservation: u64,
    reservations: Vec<Reservation>,
    running: Vec<RunningPart>,
    lupa_window: SampleWindow,
    last_sent: Option<NodeStatus>,
    /// Replies to already-answered negotiation RPCs, keyed by request id.
    /// A retransmitted request replays the cached reply instead of
    /// re-executing (idempotent dedup).
    rpc_cache: BTreeMap<u64, Vec<u8>>,
    dedup_hits: u64,
    /// Completion notices whose delivery the GRM has not acknowledged yet,
    /// with the update seq they were last piggybacked on (0 = never sent).
    unacked_done: Vec<(PartDone, u64)>,
    /// Eviction notices awaiting acknowledgement, same scheme.
    unacked_evicted: Vec<(PartEvicted, u64)>,
    /// Last GRM epoch seen in an update ack; a change means the GRM
    /// restarted and lost its soft state.
    known_epoch: Option<u64>,
    force_full_update: bool,
    /// Checkpoint replicas held for *other* nodes' parts (and announced on
    /// every status update). Disk state: survives a crash.
    repo: ReplicaStore,
    /// Store requests whose payload failed digest verification.
    corrupt_detected: u64,
    /// Gray-failure CPU derating schedule: `(start, end, factor)` windows
    /// during which the node's effective MIPS is multiplied by `factor`.
    /// Injected hardware condition, not software state — survives a crash.
    derates: Vec<(SimTime, SimTime, f64)>,
    /// Byzantine sabotage schedule: `(start, end, probability, wrong_key)`
    /// windows during which a finished part's digest is wrong with the
    /// given probability. Like [`Self::derates`], an injected condition
    /// (the bad DIMM doesn't heal on reboot) — survives a crash.
    sabotage: Vec<(SimTime, SimTime, f64, u64)>,
    /// Salt for the pure sabotage decision hash (the grid's master seed).
    sabotage_salt: u64,
    /// Total grid work executed on this node, MIPS-s.
    pub grid_work_done: f64,
}

impl LrmState {
    /// Creates the agent for one node.
    pub fn new(
        node: NodeId,
        resources: ResourceVector,
        platform: Platform,
        policy: SharingPolicy,
        roles: NodeRoles,
        config: LrmConfig,
    ) -> Self {
        LrmState {
            node,
            resources,
            platform,
            policy,
            roles,
            owner: UsageSample::idle(),
            weekday: Weekday::new(0),
            minute_of_day: 0,
            seq: 0,
            next_reservation: 1,
            reservations: Vec::new(),
            running: Vec::new(),
            lupa_window: SampleWindow::new(config.sampling),
            last_sent: None,
            rpc_cache: BTreeMap::new(),
            dedup_hits: 0,
            unacked_done: Vec::new(),
            unacked_evicted: Vec::new(),
            known_epoch: None,
            force_full_update: false,
            repo: ReplicaStore::new(),
            corrupt_detected: 0,
            derates: Vec::new(),
            sabotage: Vec::new(),
            sabotage_salt: 0,
            grid_work_done: 0.0,
        }
    }

    /// Updates the owner's activity (driven from the desktop trace) and
    /// records it in the LUPA collection window.
    pub fn observe_owner(&mut self, sample: UsageSample, weekday: Weekday, minute_of_day: u32) {
        self.observe_owner_sampled(sample, sample, weekday, minute_of_day);
    }

    /// Like [`LrmState::observe_owner`], but records a *measured* sample in
    /// the LUPA collection window that may differ from the true owner state
    /// driving eviction, QoS and export decisions. This is the seam the
    /// stochastic sampling (`GridConfig::lupa_noise`) uses: jitter perturbs
    /// only what the pattern learner sees, never the execution-visible owner
    /// state — so completions, QoS totals and status updates are those of a
    /// noise-free run while the learned models legitimately differ.
    pub fn observe_owner_sampled(
        &mut self,
        owner: UsageSample,
        measured: UsageSample,
        weekday: Weekday,
        minute_of_day: u32,
    ) {
        self.owner = owner;
        self.weekday = weekday;
        self.minute_of_day = minute_of_day;
        self.lupa_window.push(measured);
    }

    /// Run form of [`LrmState::observe_owner_sampled`]: records a run of
    /// consecutive measured samples whose last slot saw owner state `owner`
    /// at (`weekday`, `minute_of_day`).
    ///
    /// Equivalent to one `observe_owner_sampled` call per slot with that
    /// slot's owner sample and clock — the intermediate owner and
    /// weekday/minute states are unobservable because nothing else runs
    /// between the calls during a catch-up replay, so only the final ones
    /// are stored.
    pub fn observe_owner_run(
        &mut self,
        owner: UsageSample,
        measured: impl IntoIterator<Item = UsageSample>,
        weekday: Weekday,
        minute_of_day: u32,
    ) {
        self.owner = owner;
        self.weekday = weekday;
        self.minute_of_day = minute_of_day;
        self.lupa_window.extend_run(measured);
    }

    /// The owner's current load.
    pub fn owner_load(&self) -> UsageSample {
        self.owner
    }

    /// The LUPA sample window (for training the node's pattern model).
    pub fn lupa_window(&self) -> &SampleWindow {
        &self.lupa_window
    }

    /// Drains completed LUPA periods (upload to GUPA).
    pub fn take_lupa_periods(&mut self) -> Vec<integrade_usage::sample::DayPeriod> {
        self.lupa_window.take_completed()
    }

    /// CPU share currently available to the grid as a whole.
    pub fn grid_share(&self) -> f64 {
        if !self
            .policy
            .allows_export(self.weekday, self.minute_of_day, &self.owner)
        {
            return 0.0;
        }
        self.policy.grid_cpu_share(&self.owner)
    }

    /// RAM currently free for new grid parts, MB.
    pub fn free_grid_ram(&self) -> u64 {
        let granted: u64 = self
            .reservations
            .iter()
            .map(|r| r.ram_mb)
            .chain(self.running.iter().map(|p| p.ram_mb))
            .sum();
        self.policy
            .grid_ram_mb(self.resources.ram_mb, &self.owner)
            .saturating_sub(granted)
    }

    /// Builds the current status for the Information Update Protocol.
    pub fn current_status(&self) -> NodeStatus {
        let exporting = self
            .policy
            .allows_export(self.weekday, self.minute_of_day, &self.owner);
        NodeStatus {
            free_cpu_fraction: if exporting { self.grid_share() } else { 0.0 },
            free_ram_mb: self.free_grid_ram(),
            owner_active: !self.policy.is_idle(&self.owner),
            exporting,
            running_parts: self.running.len() as u32,
        }
    }

    /// The checkpoint replicas this node holds, as status-update piggyback
    /// re-announces. These rebuild the GRM's soft-state replica map after a
    /// GRM restart and keep it fresh in steady state.
    pub fn replica_reports(&self) -> Vec<ReplicaReport> {
        self.repo
            .entries()
            .map(|(job, part, c)| ReplicaReport {
                job,
                part,
                version: c.version,
                work_mips_s: c.work_mips_s,
            })
            .collect()
    }

    /// Observed progress of every part running here, as status-update
    /// piggybacks. The GRM differences consecutive reports to estimate each
    /// part's progress rate — the straggler detector's only input, so a
    /// gray-failed node indicts itself through its own truthful reports.
    pub fn progress_reports(&self) -> Vec<ProgressReport> {
        self.running
            .iter()
            .map(|p| ProgressReport {
                job: p.job,
                part: p.part,
                done_mips_s: p.done as u64,
            })
            .collect()
    }

    /// The node's replica storage (tests and diagnostics).
    pub fn repo(&self) -> &ReplicaStore {
        &self.repo
    }

    /// Handles a checkpoint-store request: digest verification, then
    /// newest-version-wins storage. A corrupt payload is refused (the
    /// writer re-sends); a stale version is refused without being counted
    /// as corruption.
    pub fn handle_store(&mut self, req: &StoreCheckpoint) -> StoreCheckpointReply {
        let blob = &req.blob;
        let outcome = self.repo.store(
            blob.job,
            blob.part,
            StoredCheckpoint {
                version: blob.version,
                work_mips_s: blob.work_mips_s,
                digest: blob.digest,
                payload: blob.payload.clone(),
            },
        );
        match outcome {
            StoreOutcome::Accepted { .. } => StoreCheckpointReply {
                accepted: true,
                corrupt: false,
                held_version: blob.version,
            },
            StoreOutcome::Stale { held } => StoreCheckpointReply {
                accepted: false,
                corrupt: false,
                held_version: held,
            },
            StoreOutcome::Corrupt => {
                self.corrupt_detected += 1;
                StoreCheckpointReply {
                    accepted: false,
                    corrupt: true,
                    held_version: 0,
                }
            }
        }
    }

    /// Handles a checkpoint-fetch request (recovery / re-replication read).
    pub fn handle_fetch(&self, req: &FetchCheckpoint) -> FetchCheckpointReply {
        match self.repo.get(req.job, req.part) {
            Some(held) => FetchCheckpointReply {
                found: true,
                blob: crate::protocol::CheckpointBlob {
                    job: req.job,
                    part: req.part,
                    version: held.version,
                    work_mips_s: held.work_mips_s,
                    digest: held.digest,
                    payload: held.payload.clone(),
                },
            },
            None => FetchCheckpointReply {
                found: false,
                blob: crate::protocol::CheckpointBlob::empty(req.job, req.part),
            },
        }
    }

    /// Handles a purge notice: the part completed, its replica is dropped.
    pub fn handle_purge(&mut self, req: &PurgeCheckpoint) -> bool {
        self.repo.purge(req.job, req.part)
    }

    /// Drains the digest-failure counter (the world logs `corrupt_detected`
    /// trace events from it).
    pub fn take_corrupt_detected(&mut self) -> u64 {
        std::mem::take(&mut self.corrupt_detected)
    }

    /// Drains the superseded-checkpoint GC counter (`repo.gc` events).
    pub fn take_repo_gc(&mut self) -> u64 {
        self.repo.take_gc()
    }

    /// Simulates a crash/reboot: all running parts and reservations vanish
    /// (volatile state); the LUPA history, policy and the checkpoint
    /// replica store survive (disk state).
    pub fn crash(&mut self) {
        self.running.clear();
        self.reservations.clear();
        self.rpc_cache.clear();
        self.unacked_done.clear();
        self.unacked_evicted.clear();
        self.known_epoch = None;
        self.force_full_update = false;
    }

    /// Looks up the cached reply for an already-answered request id,
    /// counting a dedup hit. Id `0` is never cached (dedup disabled).
    pub fn cached_reply(&mut self, request_id: u64) -> Option<Vec<u8>> {
        if request_id == 0 {
            return None;
        }
        let hit = self.rpc_cache.get(&request_id).cloned();
        if hit.is_some() {
            self.dedup_hits += 1;
        }
        hit
    }

    /// Records the reply for a request id so retransmissions replay it.
    pub fn cache_reply(&mut self, request_id: u64, reply: Vec<u8>) {
        if request_id == 0 {
            return;
        }
        self.rpc_cache.insert(request_id, reply);
        while self.rpc_cache.len() > RPC_CACHE_CAPACITY {
            self.rpc_cache.pop_first();
        }
    }

    /// Drains the dedup-hit counter (the world turns it into trace events).
    pub fn take_dedup_hits(&mut self) -> u64 {
        std::mem::take(&mut self.dedup_hits)
    }

    /// Remembers a completion notice until the GRM acknowledges it.
    pub fn stash_done(&mut self, done: PartDone) {
        self.unacked_done.push((done, 0));
    }

    /// Remembers an eviction notice until the GRM acknowledges it.
    pub fn stash_evicted(&mut self, evicted: PartEvicted) {
        self.unacked_evicted.push((evicted, 0));
    }

    /// The outcomes to piggyback on the update with sequence `seq`; marks
    /// them as sent under that seq so [`LrmState::acknowledge`] can retire
    /// them once the matching ack arrives.
    pub fn piggyback_for(&mut self, seq: u64) -> (Vec<PartDone>, Vec<PartEvicted>) {
        let done = self
            .unacked_done
            .iter_mut()
            .map(|(d, sent)| {
                *sent = seq;
                *d
            })
            .collect();
        let evicted = self
            .unacked_evicted
            .iter_mut()
            .map(|(e, sent)| {
                *sent = seq;
                *e
            })
            .collect();
        (done, evicted)
    }

    /// Retires outcomes that were piggybacked on update `seq` or earlier —
    /// the GRM has acknowledged receiving them.
    pub fn acknowledge(&mut self, seq: u64) {
        self.unacked_done
            .retain(|(_, sent)| *sent == 0 || *sent > seq);
        self.unacked_evicted
            .retain(|(_, sent)| *sent == 0 || *sent > seq);
    }

    /// Outcomes still awaiting GRM acknowledgement (tests and debugging).
    pub fn unacked_outcomes(&self) -> usize {
        self.unacked_done.len() + self.unacked_evicted.len()
    }

    /// Records the GRM epoch from an update ack. Returns `true` when the
    /// epoch changed — the GRM restarted — in which case the next update is
    /// forced through delta suppression to re-announce full state.
    pub fn observe_grm_epoch(&mut self, epoch: u64) -> bool {
        let changed = match self.known_epoch {
            Some(known) => known != epoch,
            None => false,
        };
        self.known_epoch = Some(epoch);
        if changed {
            self.force_full_update = true;
        }
        changed
    }

    /// Returns the status to send, honouring delta suppression, and bumps
    /// the sequence number when a send is due.
    pub fn next_update(&mut self, config: &LrmConfig) -> Option<(u64, NodeStatus)> {
        let status = self.current_status();
        let forced = std::mem::take(&mut self.force_full_update) || self.unacked_outcomes() > 0;
        if forced {
            // A GRM restart was detected, or outcome notices are still
            // awaiting acknowledgement: send regardless of deltas so the
            // piggyback retry path keeps firing.
            self.seq += 1;
            self.last_sent = Some(status);
            return Some((self.seq, status));
        }
        if config.delta_suppression {
            if let Some(last) = &self.last_sent {
                let unchanged = last.exporting == status.exporting
                    && last.owner_active == status.owner_active
                    && last.running_parts == status.running_parts
                    && (last.free_cpu_fraction - status.free_cpu_fraction).abs() < 0.05
                    && last.free_ram_mb.abs_diff(status.free_ram_mb) < 16;
                if unchanged {
                    return None;
                }
            }
        }
        self.seq += 1;
        self.last_sent = Some(status);
        Some((self.seq, status))
    }

    /// Handles a reservation request — the direct-negotiation half of the
    /// Resource Reservation and Execution Protocol. The node re-checks its
    /// *actual* current resources; the GRM's view may be stale.
    pub fn handle_reserve(&mut self, req: &ReserveRequest, now: SimTime) -> ReserveReply {
        self.expire_reservations(now);
        if !self
            .policy
            .allows_export(self.weekday, self.minute_of_day, &self.owner)
        {
            return ReserveReply::refused("node not exporting (owner active or outside window)");
        }
        if self.grid_share() < req.min_cpu_fraction {
            return ReserveReply::refused("insufficient CPU share");
        }
        if self.free_grid_ram() < req.ram_mb {
            return ReserveReply::refused("insufficient free memory");
        }
        let id = self.next_reservation;
        self.next_reservation += 1;
        let lease = SimDuration::from_secs(req.duration_hint_s.clamp(60, 3600));
        self.reservations.push(Reservation {
            id,
            job: req.job,
            part: req.part,
            ram_mb: req.ram_mb,
            min_cpu_fraction: req.min_cpu_fraction,
            expires: now + lease,
        });
        ReserveReply {
            granted: true,
            reservation: id,
            reason: String::new(),
        }
    }

    /// Handles a launch under a reservation. The request carries the
    /// checkpoint interval, the state size and the GRM-chosen replica set.
    pub fn handle_launch(&mut self, req: &LaunchRequest, now: SimTime) -> LaunchReply {
        self.expire_reservations(now);
        let Some(pos) = self
            .reservations
            .iter()
            .position(|r| r.id == req.reservation)
        else {
            return LaunchReply {
                accepted: false,
                reason: "reservation unknown or expired".into(),
            };
        };
        // A checkpoint image cannot exceed the RAM the part reserved; a
        // request claiming otherwise is a damaged frame (wire corruption),
        // and accepting it would later materialize an absurd checkpoint
        // buffer. Reject before consuming the reservation so a retried
        // clean copy of the launch can still land.
        let ram_bytes = self.reservations[pos].ram_mb.saturating_mul(1024 * 1024);
        if req.state_bytes > ram_bytes {
            return LaunchReply {
                accepted: false,
                reason: "state image exceeds reserved ram".into(),
            };
        }
        let reservation = self.reservations.remove(pos);
        self.running.push(RunningPart {
            job: req.job,
            part: req.part,
            work_total: req.work_mips_s as f64,
            done: 0.0,
            checkpoint_interval: req.checkpoint_interval_mips_s,
            ram_mb: reservation.ram_mb,
            state_bytes: req.state_bytes,
            resume_version: req.resume_version,
            replicas: req.replicas.clone(),
            emitted_intervals: 0,
        });
        LaunchReply {
            accepted: true,
            reason: String::new(),
        }
    }

    /// Cancels a running part (BSP gang teardown), returning its progress.
    pub fn cancel_running(&mut self, job: JobId, part: u32) -> crate::protocol::CancelPartReply {
        use crate::protocol::CancelPartReply;
        let Some(pos) = self
            .running
            .iter()
            .position(|p| p.job == job && p.part == part)
        else {
            return CancelPartReply {
                found: false,
                checkpointed_work_mips_s: 0,
                checkpoint_version: 0,
                done_work_mips_s: 0,
            };
        };
        let running = self.running.remove(pos);
        CancelPartReply {
            found: true,
            checkpointed_work_mips_s: running.checkpointed() as u64,
            checkpoint_version: running.checkpoint_version(),
            done_work_mips_s: running.done as u64,
        }
    }

    /// Cancels a reservation or a running part's reservation handle.
    pub fn handle_cancel(&mut self, reservation: u64) -> bool {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.id != reservation);
        before != self.reservations.len()
    }

    /// Drops expired reservation leases, returning how many expired (the
    /// world logs each as a `lease.expired` trace event).
    pub fn expire_reservations(&mut self, now: SimTime) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.expires > now);
        before - self.reservations.len()
    }

    /// Installs the node's gray-failure CPU derating schedule (injected by
    /// the fault plan; see [`Self::derate_factor_at`]).
    pub fn set_derate_schedule(&mut self, schedule: Vec<(SimTime, SimTime, f64)>) {
        self.derates = schedule;
    }

    /// Installs the node's Byzantine sabotage schedule (injected by the
    /// fault plan): `(start, end, probability, wrong_key)` windows. `salt`
    /// seeds the pure per-part decision hash; `wrong_key` is XORed onto the
    /// canonical digest when the node lies, so colluders sharing a key
    /// produce *matching* wrong answers.
    pub fn set_sabotage_schedule(
        &mut self,
        salt: u64,
        schedule: Vec<(SimTime, SimTime, f64, u64)>,
    ) {
        self.sabotage_salt = salt;
        self.sabotage = schedule;
    }

    /// The digest this node reports for `(job, part)` finishing at `now`.
    ///
    /// Honest unless a sabotage window covers `now` *and* the pure decision
    /// hash of `(salt, job, part, node)` falls under the window's
    /// probability. The decision is a stateless hash, not an RNG draw, so
    /// it is identical under every tick engine — sabotage replays
    /// bit-for-bit.
    pub fn result_digest(&self, now: SimTime, job: JobId, part: u32) -> u64 {
        let canonical = canonical_result_digest(job, part);
        for &(start, end, probability, wrong_key) in &self.sabotage {
            if now >= start
                && now < end
                && scheduled_draw(
                    self.sabotage_salt,
                    [job.0, u64::from(part), u64::from(self.node.0)],
                ) < probability
            {
                // Never zero: zero is the "no digest" sentinel on PartDone.
                return (canonical ^ wrong_key).max(1);
            }
        }
        canonical
    }

    /// The effective-MIPS multiplier at `now`: the product of every derate
    /// window covering the instant (overlapping windows compound), `1.0`
    /// when none does. Plain scheduled data — no randomness, so derated
    /// execution replays bit-for-bit in every tick mode.
    pub fn derate_factor_at(&self, now: SimTime) -> f64 {
        self.derates
            .iter()
            .filter(|(start, end, _)| now >= *start && now < *end)
            .fold(1.0, |acc, (_, _, factor)| acc * factor)
    }

    /// Advances all running parts by `dt` at full hardware speed (tests and
    /// callers outside the simulation clock). See [`Self::advance_at`].
    pub fn advance(&mut self, dt: SimDuration) -> Vec<CompletedPart> {
        self.advance_derated(dt, 1.0)
    }

    /// Advances all running parts by the tick ending at `now`, applying the
    /// derate factor in force at `now`. Returns the parts that completed.
    pub fn advance_at(&mut self, now: SimTime, dt: SimDuration) -> Vec<CompletedPart> {
        let factor = self.derate_factor_at(now);
        self.advance_derated(dt, factor)
    }

    /// Advances all running parts by `dt`, splitting the grid CPU share
    /// evenly among them; `factor` scales the node's effective MIPS
    /// (gray-failure derating). Returns the parts that completed.
    fn advance_derated(&mut self, dt: SimDuration, factor: f64) -> Vec<CompletedPart> {
        let share = self.grid_share();
        if self.running.is_empty() || share <= 0.0 || factor <= 0.0 {
            return Vec::new();
        }
        let per_part = share / self.running.len() as f64;
        let rate = self.resources.cpu_mips as f64 * per_part * factor; // MIPS
        let delta = rate * dt.as_secs_f64();
        let mut completed = Vec::new();
        for part in &mut self.running {
            part.done = (part.done + delta).min(part.work_total);
        }
        self.grid_work_done += delta * self.running.len() as f64;
        self.running.retain(|p| {
            if p.done >= p.work_total {
                completed.push(CompletedPart {
                    job: p.job,
                    part: p.part,
                });
                false
            } else {
                true
            }
        });
        completed
    }

    /// Checkpoints that became due since the last call: a part crossing one
    /// or more interval boundaries emits one blob at its newest boundary
    /// (intermediate versions would be superseded on arrival anyway).
    pub fn due_checkpoints(&mut self) -> Vec<DueCheckpoint> {
        let mut due = Vec::new();
        for p in &mut self.running {
            if p.checkpoint_interval <= 0.0 || p.replicas.is_empty() {
                continue;
            }
            let intervals = (p.done / p.checkpoint_interval).floor() as u64;
            if intervals > p.emitted_intervals {
                p.emitted_intervals = intervals;
                due.push(DueCheckpoint {
                    job: p.job,
                    part: p.part,
                    version: p.resume_version + intervals,
                    work_mips_s: p.checkpointed() as u64,
                    state_bytes: p.state_bytes,
                    replicas: p.replicas.clone(),
                });
            }
        }
        due
    }

    /// Evicts every running part if the policy no longer allows export
    /// (the owner returned). Returns the eviction notices for the GRM.
    pub fn check_eviction(&mut self) -> Vec<PartEvicted> {
        if self
            .policy
            .allows_export(self.weekday, self.minute_of_day, &self.owner)
        {
            return Vec::new();
        }
        // Owner is back: reservations are released and parts evicted.
        self.reservations.clear();
        let node = self.node;
        self.running
            .drain(..)
            .map(|p| {
                let checkpointed = p.checkpointed();
                PartEvicted {
                    job: p.job,
                    part: p.part,
                    node,
                    checkpointed_work_mips_s: checkpointed as u64,
                    checkpoint_version: p.checkpoint_version(),
                    lost_work_mips_s: (p.done - checkpointed).max(0.0) as u64,
                }
            })
            .collect()
    }

    /// True when the node has grid state needing per-slot attention:
    /// running parts, live reservation leases, outcome notices awaiting a
    /// GRM acknowledgement, or checkpoint replicas held for other nodes.
    /// Nodes for which this is `false` can skip the per-slot work entirely
    /// (the lazy walk's active set) without observable effect.
    pub fn is_engaged(&self) -> bool {
        !self.running.is_empty()
            || !self.reservations.is_empty()
            || self.unacked_outcomes() > 0
            || !self.repo.is_empty()
    }

    /// Currently running parts.
    pub fn running(&self) -> &[RunningPart] {
        &self.running
    }

    /// Currently held (unconsumed) reservations.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }
}

impl LrmState {
    /// Repository id of the LRM's remote interface.
    pub const TYPE_ID: &'static str = "IDL:integrade/Lrm:1.0";

    /// The LRM's remote interface — the negotiation operations and the
    /// checkpoint-repository storage service — as one dispatch body:
    /// operation name → decode → handler → encode, at virtual time `now`.
    ///
    /// Operations: [`OP_RESERVE`], [`OP_LAUNCH`], [`OP_CANCEL`],
    /// [`crate::protocol::OP_CANCEL_PART`], [`OP_STORE_CKPT`],
    /// [`OP_FETCH_CKPT`], [`OP_PURGE_CKPT`]. The state-changing negotiation
    /// RPCs replay their cached reply when a request id repeats.
    ///
    /// # Errors
    ///
    /// [`ServerException::BadOperation`] for any other operation name,
    /// [`ServerException::Marshal`] when the arguments do not decode.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException> {
        let mut out = CdrWriter::new();
        self.dispatch_into(now, operation, args, &mut out)?;
        Ok(out.into_bytes())
    }

    /// [`Self::dispatch`] encoding the result into `out`: the reply frame's
    /// body when the ORB dispatches.
    ///
    /// # Errors
    ///
    /// As [`Self::dispatch`].
    pub fn dispatch_into(
        &mut self,
        now: SimTime,
        operation: &str,
        args: &mut CdrReader<'_>,
        out: &mut CdrWriter,
    ) -> Result<(), ServerException> {
        match operation {
            OP_RESERVE => {
                let req = ReserveRequest::decode(args)?;
                self.deduplicated(req.request_id, out, |lrm, out| {
                    lrm.handle_reserve(&req, now).encode(out);
                    true
                });
            }
            OP_LAUNCH => {
                let req = LaunchRequest::decode(args)?;
                self.deduplicated(req.request_id, out, |lrm, out| {
                    lrm.handle_launch(&req, now).encode(out);
                    true
                });
            }
            OP_STORE_CKPT => {
                let req = StoreCheckpoint::decode(args)?;
                self.deduplicated(req.request_id, out, |lrm, out| {
                    let reply = lrm.handle_store(&req);
                    reply.encode(out);
                    // A corrupt nack is deliberately not cached: the corruption
                    // happened in flight, so a retransmission of the same frame
                    // should re-execute the store, not replay the refusal.
                    !reply.corrupt
                });
            }
            OP_FETCH_CKPT => {
                // Read-only and naturally idempotent: no reply caching, a
                // retransmission re-reads the (possibly newer) disk state.
                let req = FetchCheckpoint::decode(args)?;
                self.handle_fetch(&req).encode(out);
            }
            OP_PURGE_CKPT => {
                let req = PurgeCheckpoint::decode(args)?;
                self.handle_purge(&req).encode(out);
            }
            OP_CANCEL => {
                let reservation = u64::decode(args)?;
                self.handle_cancel(reservation).encode(out);
            }
            crate::protocol::OP_CANCEL_PART => {
                let req = crate::protocol::CancelPartRequest::decode(args)?;
                self.deduplicated(req.request_id, out, |lrm, out| {
                    lrm.cancel_running(req.job, req.part).encode(out);
                    true
                });
            }
            other => return Err(ServerException::BadOperation(other.to_owned())),
        }
        Ok(())
    }

    /// Idempotent execution: replays the cached reply for an already-answered
    /// `request_id` into `out`, otherwise runs `handler`, which encodes the
    /// reply into `out` and says whether it may be cached.
    fn deduplicated(
        &mut self,
        request_id: u64,
        out: &mut CdrWriter,
        handler: impl FnOnce(&mut Self, &mut CdrWriter) -> bool,
    ) {
        if let Some(cached) = self.cached_reply(request_id) {
            out.write_bytes(&cached);
            return;
        }
        let start = out.as_bytes().len();
        if handler(self, out) {
            self.cache_reply(request_id, out.as_bytes()[start..].to_vec());
        }
    }

    /// This LRM as a remote object for one call arriving at `now` — what the
    /// host's ORB dispatches to ([`integrade_orb::orb::Orb::handle_wire_with`]).
    pub fn servant(&mut self, now: SimTime) -> LrmServant<'_> {
        LrmServant { state: self, now }
    }
}

/// An [`LrmState`] borrowed as a [`Servant`] for the duration of one call;
/// see [`LrmState::servant`].
#[derive(Debug)]
pub struct LrmServant<'a> {
    state: &'a mut LrmState,
    now: SimTime,
}

impl Servant for LrmServant<'_> {
    fn type_id(&self) -> &'static str {
        LrmState::TYPE_ID
    }

    fn dispatch(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException> {
        self.state.dispatch(self.now, operation, args)
    }

    fn dispatch_into(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
        out: &mut CdrWriter,
    ) -> Result<(), ServerException> {
        self.state.dispatch_into(self.now, operation, args, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lrm() -> LrmState {
        LrmState::new(
            NodeId(1),
            ResourceVector::desktop(),
            Platform::linux_x86(),
            SharingPolicy::default(),
            NodeRoles::provider(),
            LrmConfig::default(),
        )
    }

    fn reserve_req() -> ReserveRequest {
        ReserveRequest {
            request_id: 0,
            job: JobId(1),
            part: 0,
            ram_mb: 32,
            min_cpu_fraction: 0.1,
            duration_hint_s: 300,
        }
    }

    fn launch_req(reservation: u64, work_mips_s: u64, ckpt_interval: f64) -> LaunchRequest {
        LaunchRequest {
            request_id: 0,
            reservation,
            job: JobId(1),
            part: 0,
            work_mips_s,
            checkpoint_interval_mips_s: ckpt_interval,
            state_bytes: 0,
            resume_version: 0,
            replicas: Vec::new(),
        }
    }

    #[test]
    fn idle_node_grants_and_launches() {
        let mut lrm = lrm();
        let now = SimTime::from_secs(10);
        let reply = lrm.handle_reserve(&reserve_req(), now);
        assert!(reply.granted, "{}", reply.reason);
        let launch = lrm.handle_launch(&launch_req(reply.reservation, 1000, 0.0), now);
        assert!(launch.accepted);
        assert_eq!(lrm.running().len(), 1);
        assert!(lrm.reservations().is_empty(), "reservation consumed");
    }

    #[test]
    fn busy_owner_refuses_reservation() {
        let mut lrm = lrm();
        lrm.observe_owner(UsageSample::new(0.9, 0.5, 0.0, 0.0), Weekday::new(2), 600);
        let reply = lrm.handle_reserve(&reserve_req(), SimTime::ZERO);
        assert!(!reply.granted);
        assert!(reply.reason.contains("not exporting"));
    }

    #[test]
    fn memory_exhaustion_refuses() {
        let mut lrm = lrm();
        // Default policy: 50% of 256 MB = 128 MB for the grid.
        let mut req = reserve_req();
        req.ram_mb = 100;
        assert!(lrm.handle_reserve(&req, SimTime::ZERO).granted);
        let reply = lrm.handle_reserve(&req, SimTime::ZERO);
        assert!(!reply.granted);
        assert!(reply.reason.contains("memory"));
    }

    #[test]
    fn reservations_expire() {
        let mut lrm = lrm();
        let reply = lrm.handle_reserve(&reserve_req(), SimTime::ZERO);
        assert!(reply.granted);
        // Lease is clamped to >= 60 s; far future expires it.
        let launch = lrm.handle_launch(
            &launch_req(reply.reservation, 10, 0.0),
            SimTime::from_secs(7200),
        );
        assert!(!launch.accepted);
        assert!(launch.reason.contains("expired"));
    }

    #[test]
    fn advance_progresses_and_completes() {
        let mut lrm = lrm();
        let reply = lrm.handle_reserve(&reserve_req(), SimTime::ZERO);
        // 500 MIPS * 0.3 share = 150 MIPS → 10 s
        lrm.handle_launch(&launch_req(reply.reservation, 1500, 0.0), SimTime::ZERO);
        let done = lrm.advance(SimDuration::from_secs(5));
        assert!(done.is_empty());
        assert!(lrm.running()[0].done > 0.0);
        let done = lrm.advance(SimDuration::from_secs(6));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job, JobId(1));
        assert!(lrm.running().is_empty());
    }

    #[test]
    fn share_splits_among_parts() {
        let mut lrm = lrm();
        for part in 0..2 {
            let mut req = reserve_req();
            req.part = part;
            let reply = lrm.handle_reserve(&req, SimTime::ZERO);
            let mut launch = launch_req(reply.reservation, 10_000, 0.0);
            launch.part = part;
            lrm.handle_launch(&launch, SimTime::ZERO);
        }
        lrm.advance(SimDuration::from_secs(10));
        // 500 MIPS * 0.3 / 2 parts * 10 s = 750 each.
        for p in lrm.running() {
            assert!((p.done - 750.0).abs() < 1e-6, "done={}", p.done);
        }
    }

    #[test]
    fn owner_return_evicts_with_checkpoint_accounting() {
        let mut lrm = lrm();
        let reply = lrm.handle_reserve(&reserve_req(), SimTime::ZERO);
        // checkpoint every 300 MIPS-s
        lrm.handle_launch(&launch_req(reply.reservation, 10_000, 300.0), SimTime::ZERO);
        lrm.advance(SimDuration::from_secs(10)); // 1500 MIPS-s done
        lrm.observe_owner(UsageSample::new(0.9, 0.4, 0.0, 0.0), Weekday::new(1), 600);
        let evicted = lrm.check_eviction();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].checkpointed_work_mips_s, 1500); // 5 × 300
        assert_eq!(evicted[0].checkpoint_version, 5);
        assert_eq!(evicted[0].lost_work_mips_s, 0);
        assert!(lrm.running().is_empty());
    }

    #[test]
    fn eviction_without_checkpointing_loses_everything() {
        let mut lrm = lrm();
        let reply = lrm.handle_reserve(&reserve_req(), SimTime::ZERO);
        lrm.handle_launch(&launch_req(reply.reservation, 10_000, 0.0), SimTime::ZERO);
        lrm.advance(SimDuration::from_secs(10));
        lrm.observe_owner(UsageSample::new(0.9, 0.4, 0.0, 0.0), Weekday::new(1), 600);
        let evicted = lrm.check_eviction();
        assert_eq!(evicted[0].checkpointed_work_mips_s, 0);
        assert_eq!(evicted[0].lost_work_mips_s, 1500);
    }

    #[test]
    fn no_eviction_while_idle() {
        let mut lrm = lrm();
        let reply = lrm.handle_reserve(&reserve_req(), SimTime::ZERO);
        lrm.handle_launch(&launch_req(reply.reservation, 100, 0.0), SimTime::ZERO);
        assert!(lrm.check_eviction().is_empty());
        assert_eq!(lrm.running().len(), 1);
    }

    #[test]
    fn status_reflects_policy_and_load() {
        let mut lrm = lrm();
        let s = lrm.current_status();
        assert!(s.exporting);
        assert!((s.free_cpu_fraction - 0.3).abs() < 1e-12);
        assert_eq!(s.free_ram_mb, 128);
        lrm.observe_owner(UsageSample::new(0.9, 0.2, 0.0, 0.0), Weekday::new(0), 60);
        let s = lrm.current_status();
        assert!(!s.exporting);
        assert!(s.owner_active);
        assert_eq!(s.free_cpu_fraction, 0.0);
    }

    #[test]
    fn delta_suppression_skips_unchanged() {
        let mut lrm = lrm();
        let config = LrmConfig {
            delta_suppression: true,
            ..Default::default()
        };
        assert!(lrm.next_update(&config).is_some(), "first always sends");
        assert!(lrm.next_update(&config).is_none(), "unchanged suppressed");
        lrm.observe_owner(UsageSample::new(0.9, 0.1, 0.0, 0.0), Weekday::new(0), 60);
        assert!(lrm.next_update(&config).is_some(), "change sends");
    }

    #[test]
    fn updates_always_sent_without_suppression() {
        let mut lrm = lrm();
        let config = LrmConfig::default();
        let (seq1, _) = lrm.next_update(&config).unwrap();
        let (seq2, _) = lrm.next_update(&config).unwrap();
        assert_eq!(seq2, seq1 + 1);
    }

    #[test]
    fn servant_dispatch_reserve_launch() {
        use integrade_orb::cdr::CdrEncode;
        let mut state = lrm();
        let now = SimTime::ZERO;

        let args = reserve_req().to_cdr_bytes();
        let out = state
            .dispatch(now, OP_RESERVE, &mut CdrReader::new(&args))
            .unwrap();
        let reply = ReserveReply::from_cdr_bytes(&out).unwrap();
        assert!(reply.granted);

        // Through the borrowed servant: the same body behind the ORB's trait.
        let launch = launch_req(reply.reservation, 42, 0.0).to_cdr_bytes();
        let out = state
            .servant(now)
            .dispatch(OP_LAUNCH, &mut CdrReader::new(&launch))
            .unwrap();
        assert!(LaunchReply::from_cdr_bytes(&out).unwrap().accepted);
        assert_eq!(state.running().len(), 1);
    }

    #[test]
    fn retransmitted_reserve_replays_cached_reply_without_double_reserving() {
        use integrade_orb::cdr::CdrEncode;
        let mut state = lrm();
        let now = SimTime::ZERO;

        let mut req = reserve_req();
        req.request_id = 77;
        let args = req.to_cdr_bytes();
        let first = state
            .dispatch(now, OP_RESERVE, &mut CdrReader::new(&args))
            .unwrap();
        assert!(ReserveReply::from_cdr_bytes(&first).unwrap().granted);
        assert_eq!(state.reservations().len(), 1);

        // The GRM never saw the reply and retransmits the same request.
        let second = state
            .dispatch(now, OP_RESERVE, &mut CdrReader::new(&args))
            .unwrap();
        assert_eq!(first, second, "cached reply replayed byte-for-byte");
        assert_eq!(state.reservations().len(), 1, "no double reservation");
        assert_eq!(state.take_dedup_hits(), 1);
    }

    #[test]
    fn request_id_zero_disables_dedup() {
        let mut lrm = lrm();
        let req = reserve_req();
        assert!(lrm.handle_reserve(&req, SimTime::ZERO).granted);
        assert!(lrm.cached_reply(0).is_none());
        assert_eq!(lrm.take_dedup_hits(), 0);
    }

    #[test]
    fn rpc_cache_is_bounded() {
        let mut lrm = lrm();
        for id in 1..=(super::RPC_CACHE_CAPACITY as u64 + 50) {
            lrm.cache_reply(id, vec![1]);
        }
        // The oldest ids were evicted; the newest survive.
        assert!(lrm.cached_reply(1).is_none());
        assert!(lrm
            .cached_reply(super::RPC_CACHE_CAPACITY as u64 + 50)
            .is_some());
    }

    #[test]
    fn unacked_outcomes_survive_until_acknowledged() {
        let mut lrm = lrm();
        lrm.stash_done(PartDone {
            job: JobId(1),
            part: 0,
            node: NodeId(1),
            digest: canonical_result_digest(JobId(1), 0),
        });
        let (done, evicted) = lrm.piggyback_for(5);
        assert_eq!(done.len(), 1);
        assert!(evicted.is_empty());
        // No ack: the outcome rides on the next update again.
        let (done, _) = lrm.piggyback_for(6);
        assert_eq!(done.len(), 1);
        // An ack for an older update does not retire it…
        lrm.acknowledge(5);
        assert_eq!(lrm.unacked_outcomes(), 1);
        // …the ack for the seq it was last sent under does.
        lrm.acknowledge(6);
        assert_eq!(lrm.unacked_outcomes(), 0);
    }

    #[test]
    fn epoch_change_forces_full_update() {
        let mut lrm = lrm();
        let config = LrmConfig {
            delta_suppression: true,
            ..Default::default()
        };
        assert!(
            !lrm.observe_grm_epoch(1),
            "first observation is not a restart"
        );
        assert!(lrm.next_update(&config).is_some());
        assert!(
            lrm.next_update(&config).is_none(),
            "suppressed when unchanged"
        );
        assert!(lrm.observe_grm_epoch(2), "epoch bump detected");
        assert!(
            lrm.next_update(&config).is_some(),
            "restart forces a full re-announce through suppression"
        );
        assert!(lrm.next_update(&config).is_none());
    }

    #[test]
    fn expired_leases_are_counted() {
        let mut lrm = lrm();
        assert!(lrm.handle_reserve(&reserve_req(), SimTime::ZERO).granted);
        assert_eq!(lrm.expire_reservations(SimTime::from_secs(10)), 0);
        assert_eq!(lrm.expire_reservations(SimTime::from_secs(7200)), 1);
        assert!(lrm.reservations().is_empty());
    }

    #[test]
    fn lupa_collection_accumulates() {
        let mut lrm = lrm();
        let slots = LrmConfig::default().sampling.slots_per_day();
        for i in 0..slots + 1 {
            let minute = (i * 5 % 1440) as u32;
            lrm.observe_owner(UsageSample::idle(), Weekday::new(0), minute);
        }
        assert_eq!(lrm.take_lupa_periods().len(), 1);
    }
}
