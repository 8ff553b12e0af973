//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes how unreliable the cluster should be: a
//! per-message drop probability, extra latency jitter, scheduled link
//! partitions with heal times, and host crash/reboot windows. All random
//! decisions come from a dedicated [`DetRng`] stream derived from the
//! plan's seed, so two runs with the same seed and the same traffic see
//! exactly the same faults — chaos tests stay reproducible.
//!
//! The plan is threaded through [`Network::send`](crate::net::Network::send):
//! the network consults it for every message and either drops it, severs it
//! at a partition, or delivers it with extra jitter. Host outages are *not*
//! enforced by the network (it already refuses to deliver to down hosts);
//! instead the embedding world reads [`FaultPlan::outages`] and schedules
//! its own crash/reboot events, so higher layers (LRM state, GRM state) get
//! torn down alongside the host.
//!
//! Besides the clean failures above, the plan models *gray* failures —
//! hosts that are slow but alive, the failure mode that dominates desktop
//! grids:
//!
//! * [`DerateWindow`] — a host's effective CPU is multiplied by a factor
//!   over an interval (owner reclaimed half the machine, thermal
//!   throttling). Enforced by the embedding world, which reads
//!   [`FaultPlan::derates_for`] and slows the node's execution rate.
//! * [`LinkLimp`] — a host pair's traffic suffers persistent added latency
//!   over an interval (a limping NIC), distinct from the one-shot random
//!   jitter. Applied inside [`FaultPlan::decide`] with no RNG draw, so
//!   limping never perturbs the fault stream.
//! * [`HostFlap`] — a host bounces down/up repeatedly. Expanded into the
//!   equivalent [`HostOutage`] sequence at plan-build time.
//! * [`Saboteur`] — a host computes *wrong results* with probability `p`
//!   inside a window (a flaky DIMM, a malicious volunteer), optionally as a
//!   member of a colluding group whose wrong answers all agree. Enforced by
//!   the embedding world via [`FaultPlan::saboteurs_for`]; each per-part
//!   decision is a pure hash ([`scheduled_draw`]), never an RNG-stream
//!   draw.
//!
//! All degradation faults are plain scheduled data — no random draws — so a
//! plan that adds them replays bit-for-bit under any tick engine. Sabotage
//! decisions keep that property despite being probabilistic: the "draw" is
//! a stateless hash of the decision's identity, so it is identical no
//! matter which tick engine asks, in what order, or how many times.

use crate::rng::{keyed_u64, unit_f64, DetRng};
use crate::time::{SimDuration, SimTime};
use crate::topology::HostId;

/// Dedicated RNG stream for fault decisions ("FALT"). Keeping faults on
/// their own stream means enabling them never perturbs draws made by other
/// stochastic processes (scheduling, workloads) under the same master seed.
const FAULT_STREAM: u64 = 0x4641_4C54;

/// A scheduled network partition: during `[start, heal)` no message can
/// cross between the `island` and the rest of the network. Traffic with
/// both endpoints inside the island (or both outside) is unaffected.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Hosts on one side of the cut.
    pub island: Vec<HostId>,
    /// When the partition begins.
    pub start: SimTime,
    /// When the partition heals (exclusive).
    pub heal: SimTime,
}

impl Partition {
    /// True if this partition severs traffic between `from` and `to` at `now`.
    pub fn severs(&self, now: SimTime, from: HostId, to: HostId) -> bool {
        if now < self.start || now >= self.heal {
            return false;
        }
        let a = self.island.contains(&from);
        let b = self.island.contains(&to);
        a != b
    }
}

/// A scheduled host outage: the host crashes at `down_at` and reboots at
/// `up_at`. Interpreted by the embedding world, not by the network itself.
#[derive(Debug, Clone, Copy)]
pub struct HostOutage {
    /// The host that goes down.
    pub host: HostId,
    /// Crash instant.
    pub down_at: SimTime,
    /// Reboot instant.
    pub up_at: SimTime,
}

/// A gray CPU degradation: during `[start, end)` the host's effective CPU
/// capacity is multiplied by `factor` (e.g. `0.25` = the machine runs at a
/// quarter speed). The host stays alive and keeps answering messages — only
/// its execution rate suffers, which is exactly what a crash detector
/// cannot see. Enforced by the embedding world via
/// [`FaultPlan::derates_for`].
#[derive(Debug, Clone, Copy)]
pub struct DerateWindow {
    /// The degraded host.
    pub host: HostId,
    /// Degradation onset.
    pub start: SimTime,
    /// Recovery instant (exclusive).
    pub end: SimTime,
    /// Effective-MIPS multiplier in `(0, 1]`.
    pub factor: f64,
}

impl DerateWindow {
    /// The effective factor at `now`: `factor` inside the window, `1.0`
    /// outside it.
    pub fn factor_at(&self, now: SimTime) -> f64 {
        if now >= self.start && now < self.end {
            self.factor
        } else {
            1.0
        }
    }
}

/// A limping link: during `[start, end)` every message between `a` and `b`
/// (either direction) suffers `added_latency` on top of the modelled path
/// delay. Persistent and deterministic — unlike the plan's random jitter it
/// draws nothing from the RNG, modelling a half-broken NIC or a congested
/// uplink rather than transient noise.
#[derive(Debug, Clone, Copy)]
pub struct LinkLimp {
    /// One endpoint.
    pub a: HostId,
    /// The other endpoint.
    pub b: HostId,
    /// Extra one-way latency while limping.
    pub added_latency: SimDuration,
    /// Limp onset.
    pub start: SimTime,
    /// Recovery instant (exclusive).
    pub end: SimTime,
}

impl LinkLimp {
    /// True when this limp slows a message between `from` and `to` at `now`.
    pub fn afflicts(&self, now: SimTime, from: HostId, to: HostId) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        (from == self.a && to == self.b) || (from == self.b && to == self.a)
    }
}

/// A flapping host: starting at `first_down` the host goes down for
/// `down_for`, comes back for `up_for`, and repeats for `cycles` rounds.
/// Expanded into the equivalent [`HostOutage`] sequence when added to a
/// plan, so the embedding world needs no flap-specific handling.
#[derive(Debug, Clone, Copy)]
pub struct HostFlap {
    /// The flapping host.
    pub host: HostId,
    /// First crash instant.
    pub first_down: SimTime,
    /// Length of each down phase.
    pub down_for: SimDuration,
    /// Length of each up phase between crashes.
    pub up_for: SimDuration,
    /// Number of down/up rounds.
    pub cycles: u32,
}

impl HostFlap {
    /// The outage sequence this flap expands to.
    pub fn outages(&self) -> Vec<HostOutage> {
        let mut out = Vec::with_capacity(self.cycles as usize);
        let mut down_at = self.first_down;
        for _ in 0..self.cycles {
            let up_at = down_at + self.down_for;
            out.push(HostOutage {
                host: self.host,
                down_at,
                up_at,
            });
            down_at = up_at + self.up_for;
        }
        out
    }
}

/// A Byzantine executor: during `[start, end)` the host returns *wrong*
/// results with probability `probability` per finished part. The host stays
/// alive, reports progress honestly and answers every message — only the
/// result digest it computes is corrupted, which is exactly what a crash
/// detector and a progress tracker cannot see.
///
/// When `collusion` is `Some(group)`, every saboteur in the same group
/// produces the *same* wrong digest for the same part, so two colluders
/// voting on one part agree with each other and defeat a naive 2-vote
/// quorum. Loners (`collusion: None`) each produce their own node-specific
/// wrong digest.
///
/// Enforced by the embedding world via [`FaultPlan::saboteurs_for`]; the
/// per-part wrong/honest decision must be made with [`scheduled_draw`] so
/// it replays bit-for-bit under any tick engine.
#[derive(Debug, Clone, Copy)]
pub struct Saboteur {
    /// The lying host.
    pub host: HostId,
    /// Sabotage onset.
    pub start: SimTime,
    /// Recovery instant (exclusive).
    pub end: SimTime,
    /// Per-part probability of returning a wrong result, in `(0, 1]`.
    pub probability: f64,
    /// Colluding-group id: members produce matching wrong digests.
    pub collusion: Option<u32>,
}

impl Saboteur {
    /// True when the sabotage window covers `now`.
    pub fn covers(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

/// A deterministic unit-interval "draw" for scheduled-data faults: the
/// [`keyed_u64`] hash of `(salt, keys)` mapped to `[0, 1)`. Unlike a
/// [`DetRng`] stream there is no cursor to advance, so the result depends
/// only on the decision's identity — any tick engine, asking in any order,
/// any number of times, sees the same value. This is what lets probabilistic
/// sabotage stay bit-for-bit reproducible across both tick engines.
pub fn scheduled_draw(salt: u64, keys: [u64; 3]) -> f64 {
    unit_f64(keyed_u64(salt, keys))
}

/// A rejected [`FaultPlan`] parameter. Mirrors the style of the grid's
/// `ConfigError`: the `try_with_*` builders return it, the panicking
/// `with_*` builders unwrap it with the same message.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability was NaN or outside `[0, 1]`.
    BadProbability {
        /// Which knob was set.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A scheduled window (outage, derate, limp, partition) had zero or
    /// negative length.
    EmptyWindow {
        /// Which fault kind carried the window.
        what: &'static str,
    },
    /// A derate factor was NaN or outside `(0, 1]`.
    BadDerateFactor {
        /// The offending value.
        value: f64,
    },
    /// A flap was configured with zero cycles or a zero-length down phase.
    DegenerateFlap,
    /// A sabotage probability was NaN or outside `(0, 1]` (a rate of zero
    /// is an honest host, not a saboteur).
    BadSabotageProbability {
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::BadProbability { what, value } => {
                write!(f, "{what} probability must be in [0, 1], got {value}")
            }
            FaultError::EmptyWindow { what } => {
                write!(f, "{what} window must have positive length")
            }
            FaultError::BadDerateFactor { value } => {
                write!(f, "derate factor must be in (0, 1], got {value}")
            }
            FaultError::DegenerateFlap => {
                write!(f, "flap needs at least one cycle and a positive down phase")
            }
            FaultError::BadSabotageProbability { value } => {
                write!(f, "sabotage probability must be in (0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// What the fault layer decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver, adding `jitter` on top of the modelled delay.
    Deliver {
        /// Extra latency drawn from the jitter distribution.
        jitter: SimDuration,
        /// When `Some(r)`, the payload is corrupted in flight: the embedding
        /// world flips bit `r % (len * 8)` of the frame before delivery. The
        /// raw draw (not a bit index) is carried because the fault layer
        /// never sees message contents or lengths.
        corrupt: Option<u64>,
    },
    /// Drop the message silently (random loss).
    Drop,
    /// The path is severed by an active partition.
    Partitioned,
}

/// A reproducible description of network chaos.
///
/// The default plan ([`FaultPlan::quiet`]) injects nothing and draws no
/// random numbers, so a fault-free `Network` behaves bit-for-bit like one
/// built before this layer existed.
///
/// # Examples
///
/// ```
/// use integrade_simnet::faults::FaultPlan;
/// use integrade_simnet::time::SimDuration;
///
/// let plan = FaultPlan::new(42)
///     .with_drop_probability(0.05)
///     .with_jitter(SimDuration::from_millis(20));
/// assert!(plan.is_active());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    drop_probability: f64,
    corrupt_probability: f64,
    jitter_max: SimDuration,
    partitions: Vec<Partition>,
    outages: Vec<HostOutage>,
    derates: Vec<DerateWindow>,
    limps: Vec<LinkLimp>,
    saboteurs: Vec<Saboteur>,
    rng: DetRng,
}

impl FaultPlan {
    /// A plan seeded from the master seed, with no faults configured yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            drop_probability: 0.0,
            corrupt_probability: 0.0,
            jitter_max: SimDuration::ZERO,
            partitions: Vec::new(),
            outages: Vec::new(),
            derates: Vec::new(),
            limps: Vec::new(),
            saboteurs: Vec::new(),
            rng: DetRng::with_stream(seed, FAULT_STREAM),
        }
    }

    /// A plan that injects nothing (the default for every `Network`).
    pub fn quiet() -> Self {
        FaultPlan::new(0)
    }

    /// Sets the independent per-message drop probability.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadProbability`] when `p` is NaN or outside `[0, 1]`.
    pub fn try_with_drop_probability(mut self, p: f64) -> Result<Self, FaultError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultError::BadProbability {
                what: "drop",
                value: p,
            });
        }
        self.drop_probability = p;
        Ok(self)
    }

    /// Sets the independent per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN or outside `[0, 1]`; use
    /// [`FaultPlan::try_with_drop_probability`] to handle the error.
    #[must_use]
    pub fn with_drop_probability(self, p: f64) -> Self {
        match self.try_with_drop_probability(p) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Sets the independent per-message payload-corruption probability: a
    /// delivered message has one of its bits flipped in flight, exercising
    /// the end-to-end digest verification of the checkpoint repository.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadProbability`] when `p` is NaN or outside `[0, 1]`.
    pub fn try_with_corrupt_probability(mut self, p: f64) -> Result<Self, FaultError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultError::BadProbability {
                what: "corrupt",
                value: p,
            });
        }
        self.corrupt_probability = p;
        Ok(self)
    }

    /// Sets the independent per-message payload-corruption probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN or outside `[0, 1]`; use
    /// [`FaultPlan::try_with_corrupt_probability`] to handle the error.
    #[must_use]
    pub fn with_corrupt_probability(self, p: f64) -> Self {
        match self.try_with_corrupt_probability(p) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Sets the maximum extra latency added to each delivered message.
    /// The actual jitter is uniform in `[0, max]`.
    #[must_use]
    pub fn with_jitter(mut self, max: SimDuration) -> Self {
        self.jitter_max = max;
        self
    }

    /// Adds a scheduled partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Adds a scheduled host outage.
    ///
    /// # Errors
    ///
    /// [`FaultError::EmptyWindow`] when `up_at <= down_at`.
    pub fn try_with_outage(mut self, outage: HostOutage) -> Result<Self, FaultError> {
        if outage.up_at <= outage.down_at {
            return Err(FaultError::EmptyWindow { what: "outage" });
        }
        self.outages.push(outage);
        Ok(self)
    }

    /// Adds a scheduled host outage.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty (`up_at <= down_at`); use
    /// [`FaultPlan::try_with_outage`] to handle the error.
    #[must_use]
    pub fn with_outage(self, outage: HostOutage) -> Self {
        match self.try_with_outage(outage) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Adds a gray CPU-degradation window.
    ///
    /// # Errors
    ///
    /// [`FaultError::EmptyWindow`] when `end <= start`;
    /// [`FaultError::BadDerateFactor`] when the factor is NaN or outside
    /// `(0, 1]` (a factor of zero is a crash, not a gray failure — model it
    /// with an outage).
    pub fn try_with_derate(mut self, derate: DerateWindow) -> Result<Self, FaultError> {
        if derate.end <= derate.start {
            return Err(FaultError::EmptyWindow { what: "derate" });
        }
        if !(derate.factor > 0.0 && derate.factor <= 1.0) {
            return Err(FaultError::BadDerateFactor {
                value: derate.factor,
            });
        }
        self.derates.push(derate);
        Ok(self)
    }

    /// Adds a gray CPU-degradation window.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a factor outside `(0, 1]`; use
    /// [`FaultPlan::try_with_derate`] to handle the error.
    #[must_use]
    pub fn with_derate(self, derate: DerateWindow) -> Self {
        match self.try_with_derate(derate) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Adds a limping link.
    ///
    /// # Errors
    ///
    /// [`FaultError::EmptyWindow`] when `end <= start`.
    pub fn try_with_limp(mut self, limp: LinkLimp) -> Result<Self, FaultError> {
        if limp.end <= limp.start {
            return Err(FaultError::EmptyWindow { what: "limp" });
        }
        self.limps.push(limp);
        Ok(self)
    }

    /// Adds a limping link.
    ///
    /// # Panics
    ///
    /// Panics on an empty window; use [`FaultPlan::try_with_limp`] to
    /// handle the error.
    #[must_use]
    pub fn with_limp(self, limp: LinkLimp) -> Self {
        match self.try_with_limp(limp) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Adds a flapping host, expanding it into its outage sequence.
    ///
    /// # Errors
    ///
    /// [`FaultError::DegenerateFlap`] when the flap has zero cycles or a
    /// zero-length down phase.
    pub fn try_with_flap(mut self, flap: HostFlap) -> Result<Self, FaultError> {
        if flap.cycles == 0 || flap.down_for == SimDuration::ZERO {
            return Err(FaultError::DegenerateFlap);
        }
        self.outages.extend(flap.outages());
        Ok(self)
    }

    /// Adds a flapping host, expanding it into its outage sequence.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate flap; use [`FaultPlan::try_with_flap`] to
    /// handle the error.
    #[must_use]
    pub fn with_flap(self, flap: HostFlap) -> Self {
        match self.try_with_flap(flap) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Adds a Byzantine saboteur window.
    ///
    /// # Errors
    ///
    /// [`FaultError::EmptyWindow`] when `end <= start`;
    /// [`FaultError::BadSabotageProbability`] when the probability is NaN
    /// or outside `(0, 1]` (a saboteur that never lies is an honest host —
    /// leave it out of the plan).
    pub fn try_with_saboteur(mut self, saboteur: Saboteur) -> Result<Self, FaultError> {
        if saboteur.end <= saboteur.start {
            return Err(FaultError::EmptyWindow { what: "saboteur" });
        }
        if !(saboteur.probability > 0.0 && saboteur.probability <= 1.0) {
            return Err(FaultError::BadSabotageProbability {
                value: saboteur.probability,
            });
        }
        self.saboteurs.push(saboteur);
        Ok(self)
    }

    /// Adds a Byzantine saboteur window.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a probability outside `(0, 1]`; use
    /// [`FaultPlan::try_with_saboteur`] to handle the error.
    #[must_use]
    pub fn with_saboteur(self, saboteur: Saboteur) -> Self {
        match self.try_with_saboteur(saboteur) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// True if the plan can affect traffic at all.
    pub fn is_active(&self) -> bool {
        self.drop_probability > 0.0
            || self.corrupt_probability > 0.0
            || self.jitter_max > SimDuration::ZERO
            || !self.partitions.is_empty()
            || !self.limps.is_empty()
    }

    /// The scheduled host outages (explicit plus flap-expanded), for the
    /// embedding world to enact.
    pub fn outages(&self) -> &[HostOutage] {
        &self.outages
    }

    /// All gray CPU-degradation windows.
    pub fn derates(&self) -> &[DerateWindow] {
        &self.derates
    }

    /// The degradation windows affecting one host, as `(start, end, factor)`
    /// triples — the per-node slowdown schedule the embedding world hands to
    /// that node's executor.
    pub fn derates_for(&self, host: HostId) -> Vec<(SimTime, SimTime, f64)> {
        self.derates
            .iter()
            .filter(|d| d.host == host)
            .map(|d| (d.start, d.end, d.factor))
            .collect()
    }

    /// All Byzantine saboteur windows.
    pub fn saboteurs(&self) -> &[Saboteur] {
        &self.saboteurs
    }

    /// The saboteur windows afflicting one host — the per-node sabotage
    /// schedule the embedding world hands to that node's executor.
    pub fn saboteurs_for(&self, host: HostId) -> Vec<Saboteur> {
        self.saboteurs
            .iter()
            .filter(|s| s.host == host)
            .copied()
            .collect()
    }

    /// Decides the fate of one message sent at `now` from `from` to `to`.
    ///
    /// Partitions are checked first (deterministic, no RNG draw); then the
    /// drop probability; then jitter. A quiet plan never touches the RNG.
    /// Link limping is folded in last — also without an RNG draw, so adding
    /// a limp to a plan never shifts the fault stream's other decisions.
    pub fn decide(&mut self, now: SimTime, from: HostId, to: HostId) -> FaultDecision {
        if self.partitions.iter().any(|p| p.severs(now, from, to)) {
            return FaultDecision::Partitioned;
        }
        if self.drop_probability > 0.0 && self.rng.bernoulli(self.drop_probability) {
            return FaultDecision::Drop;
        }
        let jitter = if self.jitter_max > SimDuration::ZERO {
            SimDuration::from_micros(self.rng.uniform_range(0, self.jitter_max.as_micros() + 1))
        } else {
            SimDuration::ZERO
        };
        let corrupt =
            if self.corrupt_probability > 0.0 && self.rng.bernoulli(self.corrupt_probability) {
                Some(self.rng.next_u64())
            } else {
                None
            };
        let limp = self
            .limps
            .iter()
            .filter(|l| l.afflicts(now, from, to))
            .fold(SimDuration::ZERO, |acc, l| acc + l.added_latency);
        FaultDecision::Deliver {
            jitter: jitter + limp,
            corrupt,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::quiet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, Topology};

    fn two_hosts() -> (HostId, HostId) {
        let (topo, _, hosts) = Topology::star_cluster(2, LinkSpec::lan_100mbps());
        let _ = topo;
        (hosts[0], hosts[1])
    }

    #[test]
    fn quiet_plan_always_delivers_without_jitter() {
        let (a, b) = two_hosts();
        let mut plan = FaultPlan::quiet();
        assert!(!plan.is_active());
        for _ in 0..100 {
            assert_eq!(
                plan.decide(SimTime::ZERO, a, b),
                FaultDecision::Deliver {
                    jitter: SimDuration::ZERO,
                    corrupt: None,
                }
            );
        }
    }

    #[test]
    fn drop_probability_drops_roughly_that_fraction() {
        let (a, b) = two_hosts();
        let mut plan = FaultPlan::new(7).with_drop_probability(0.2);
        let drops = (0..10_000)
            .filter(|_| plan.decide(SimTime::ZERO, a, b) == FaultDecision::Drop)
            .count();
        assert!((1_600..=2_400).contains(&drops), "drops {drops}");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let (a, b) = two_hosts();
        let mut p1 = FaultPlan::new(99)
            .with_drop_probability(0.3)
            .with_jitter(SimDuration::from_millis(5));
        let mut p2 = FaultPlan::new(99)
            .with_drop_probability(0.3)
            .with_jitter(SimDuration::from_millis(5));
        for _ in 0..1_000 {
            assert_eq!(
                p1.decide(SimTime::ZERO, a, b),
                p2.decide(SimTime::ZERO, a, b)
            );
        }
    }

    #[test]
    fn partition_severs_cross_traffic_until_heal() {
        let (a, b) = two_hosts();
        let mut plan = FaultPlan::new(1).with_partition(Partition {
            island: vec![a],
            start: SimTime::from_secs(10),
            heal: SimTime::from_secs(20),
        });
        let before = SimTime::from_secs(5);
        let during = SimTime::from_secs(15);
        let after = SimTime::from_secs(20);
        assert!(matches!(
            plan.decide(before, a, b),
            FaultDecision::Deliver { .. }
        ));
        assert_eq!(plan.decide(during, a, b), FaultDecision::Partitioned);
        assert_eq!(plan.decide(during, b, a), FaultDecision::Partitioned);
        // Intra-island traffic is unaffected.
        assert!(matches!(
            plan.decide(during, a, a),
            FaultDecision::Deliver { .. }
        ));
        assert!(matches!(
            plan.decide(after, a, b),
            FaultDecision::Deliver { .. }
        ));
    }

    #[test]
    fn jitter_is_bounded_by_max() {
        let (a, b) = two_hosts();
        let max = SimDuration::from_millis(3);
        let mut plan = FaultPlan::new(5).with_jitter(max);
        let mut saw_nonzero = false;
        for _ in 0..500 {
            match plan.decide(SimTime::ZERO, a, b) {
                FaultDecision::Deliver { jitter, .. } => {
                    assert!(jitter <= max);
                    saw_nonzero |= jitter > SimDuration::ZERO;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_nonzero);
    }

    #[test]
    fn corruption_hits_roughly_the_configured_fraction() {
        let (a, b) = two_hosts();
        let mut plan = FaultPlan::new(21).with_corrupt_probability(0.1);
        assert!(plan.is_active());
        let corrupted = (0..10_000)
            .filter(|_| {
                matches!(
                    plan.decide(SimTime::ZERO, a, b),
                    FaultDecision::Deliver {
                        corrupt: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert!((700..=1_300).contains(&corrupted), "corrupted {corrupted}");
    }

    #[test]
    fn corruption_draws_are_reproducible() {
        let (a, b) = two_hosts();
        let mut p1 = FaultPlan::new(33).with_corrupt_probability(0.5);
        let mut p2 = FaultPlan::new(33).with_corrupt_probability(0.5);
        for _ in 0..500 {
            assert_eq!(
                p1.decide(SimTime::ZERO, a, b),
                p2.decide(SimTime::ZERO, a, b)
            );
        }
    }

    #[test]
    fn outages_are_recorded_for_the_world() {
        let (a, _) = two_hosts();
        let plan = FaultPlan::new(3).with_outage(HostOutage {
            host: a,
            down_at: SimTime::from_secs(60),
            up_at: SimTime::from_secs(120),
        });
        assert_eq!(plan.outages().len(), 1);
        assert_eq!(plan.outages()[0].host, a);
    }

    #[test]
    fn builder_rejects_bad_probabilities() {
        let err = FaultPlan::quiet()
            .try_with_drop_probability(f64::NAN)
            .unwrap_err();
        assert!(matches!(
            err,
            FaultError::BadProbability { what: "drop", .. }
        ));
        assert!(FaultPlan::quiet().try_with_drop_probability(1.5).is_err());
        assert!(FaultPlan::quiet().try_with_drop_probability(-0.1).is_err());
        assert!(FaultPlan::quiet()
            .try_with_corrupt_probability(2.0)
            .is_err());
        assert!(FaultPlan::quiet().try_with_drop_probability(1.0).is_ok());
        assert!(FaultPlan::quiet().try_with_corrupt_probability(0.0).is_ok());
        // The error formats as a readable message, mirroring ConfigError.
        let msg = FaultPlan::quiet()
            .try_with_corrupt_probability(-3.0)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("corrupt"), "message {msg}");
    }

    #[test]
    fn builder_rejects_empty_windows() {
        let (a, _) = two_hosts();
        let err = FaultPlan::quiet()
            .try_with_outage(HostOutage {
                host: a,
                down_at: SimTime::from_secs(60),
                up_at: SimTime::from_secs(60),
            })
            .unwrap_err();
        assert!(matches!(err, FaultError::EmptyWindow { what: "outage" }));
        let err = FaultPlan::quiet()
            .try_with_derate(DerateWindow {
                host: a,
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(10),
                factor: 0.5,
            })
            .unwrap_err();
        assert!(matches!(err, FaultError::EmptyWindow { what: "derate" }));
        let (_, b) = two_hosts();
        let err = FaultPlan::quiet()
            .try_with_limp(LinkLimp {
                a,
                b,
                added_latency: SimDuration::from_millis(20),
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(4),
            })
            .unwrap_err();
        assert!(matches!(err, FaultError::EmptyWindow { what: "limp" }));
    }

    #[test]
    fn builder_rejects_bad_derate_factor_and_degenerate_flap() {
        let (a, _) = two_hosts();
        let window = |factor| DerateWindow {
            host: a,
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(60),
            factor,
        };
        assert!(matches!(
            FaultPlan::quiet().try_with_derate(window(0.0)).unwrap_err(),
            FaultError::BadDerateFactor { .. }
        ));
        assert!(FaultPlan::quiet()
            .try_with_derate(window(f64::NAN))
            .is_err());
        assert!(FaultPlan::quiet().try_with_derate(window(1.5)).is_err());
        assert!(FaultPlan::quiet().try_with_derate(window(1.0)).is_ok());
        let flap = |cycles, down_ms| HostFlap {
            host: a,
            first_down: SimTime::from_secs(30),
            down_for: SimDuration::from_millis(down_ms),
            up_for: SimDuration::from_secs(10),
            cycles,
        };
        assert!(matches!(
            FaultPlan::quiet().try_with_flap(flap(0, 100)).unwrap_err(),
            FaultError::DegenerateFlap
        ));
        assert!(FaultPlan::quiet().try_with_flap(flap(3, 0)).is_err());
        assert!(FaultPlan::quiet().try_with_flap(flap(3, 100)).is_ok());
    }

    #[test]
    fn derate_windows_report_factor_in_window_only() {
        let (a, b) = two_hosts();
        let plan = FaultPlan::quiet()
            .with_derate(DerateWindow {
                host: a,
                start: SimTime::from_secs(100),
                end: SimTime::from_secs(200),
                factor: 0.25,
            })
            .with_derate(DerateWindow {
                host: b,
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(50),
                factor: 0.5,
            });
        let schedule = plan.derates_for(a);
        assert_eq!(schedule.len(), 1);
        let (start, end, factor) = schedule[0];
        assert_eq!(start, SimTime::from_secs(100));
        assert_eq!(end, SimTime::from_secs(200));
        assert_eq!(factor, 0.25);
        let d = &plan.derates()[0];
        assert_eq!(d.factor_at(SimTime::from_secs(99)), 1.0);
        assert_eq!(d.factor_at(SimTime::from_secs(100)), 0.25);
        assert_eq!(d.factor_at(SimTime::from_secs(199)), 0.25);
        assert_eq!(d.factor_at(SimTime::from_secs(200)), 1.0);
        // Derates alone never touch the message path.
        assert!(!plan.is_active());
    }

    #[test]
    fn limp_adds_latency_deterministically_without_rng_draws() {
        let (a, b) = two_hosts();
        let limp = LinkLimp {
            a,
            b,
            added_latency: SimDuration::from_millis(40),
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(20),
        };
        let mut plan = FaultPlan::new(11).with_limp(limp);
        assert!(plan.is_active());
        // Both directions limp inside the window; outside it nothing happens.
        for (now, expect) in [
            (SimTime::from_secs(5), SimDuration::ZERO),
            (SimTime::from_secs(15), SimDuration::from_millis(40)),
            (SimTime::from_secs(20), SimDuration::ZERO),
        ] {
            for (from, to) in [(a, b), (b, a)] {
                assert_eq!(
                    plan.decide(now, from, to),
                    FaultDecision::Deliver {
                        jitter: expect,
                        corrupt: None,
                    }
                );
            }
        }
        // Adding a limp must not shift the RNG stream: a plan with drops
        // makes the same drop decisions with or without the limp.
        let mut with_limp = FaultPlan::new(77)
            .with_drop_probability(0.3)
            .with_limp(limp);
        let mut without = FaultPlan::new(77).with_drop_probability(0.3);
        for i in 0..1_000 {
            let t = SimTime::from_secs(i % 30);
            let d1 = with_limp.decide(t, a, b);
            let d2 = without.decide(t, a, b);
            let dropped1 = d1 == FaultDecision::Drop;
            let dropped2 = d2 == FaultDecision::Drop;
            assert_eq!(dropped1, dropped2, "tick {i}");
        }
    }

    #[test]
    fn builder_rejects_bad_saboteurs() {
        let (a, _) = two_hosts();
        let saboteur = |start_s, end_s, probability| Saboteur {
            host: a,
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(end_s),
            probability,
            collusion: None,
        };
        let err = FaultPlan::quiet()
            .try_with_saboteur(saboteur(10, 10, 0.5))
            .unwrap_err();
        assert!(matches!(err, FaultError::EmptyWindow { what: "saboteur" }));
        let err = FaultPlan::quiet()
            .try_with_saboteur(saboteur(0, 60, 0.0))
            .unwrap_err();
        assert!(matches!(err, FaultError::BadSabotageProbability { .. }));
        assert!(FaultPlan::quiet()
            .try_with_saboteur(saboteur(0, 60, f64::NAN))
            .is_err());
        assert!(FaultPlan::quiet()
            .try_with_saboteur(saboteur(0, 60, 1.5))
            .is_err());
        assert!(FaultPlan::quiet()
            .try_with_saboteur(saboteur(0, 60, 1.0))
            .is_ok());
        let msg = FaultPlan::quiet()
            .try_with_saboteur(saboteur(0, 60, -0.3))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("sabotage"), "message {msg}");
    }

    #[test]
    fn saboteur_windows_report_per_host_without_touching_traffic() {
        let (a, b) = two_hosts();
        let plan = FaultPlan::quiet()
            .with_saboteur(Saboteur {
                host: a,
                start: SimTime::from_secs(100),
                end: SimTime::from_secs(200),
                probability: 0.4,
                collusion: Some(1),
            })
            .with_saboteur(Saboteur {
                host: b,
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(50),
                probability: 1.0,
                collusion: None,
            });
        let schedule = plan.saboteurs_for(a);
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule[0].probability, 0.4);
        assert_eq!(schedule[0].collusion, Some(1));
        assert!(!schedule[0].covers(SimTime::from_secs(99)));
        assert!(schedule[0].covers(SimTime::from_secs(100)));
        assert!(schedule[0].covers(SimTime::from_secs(199)));
        assert!(!schedule[0].covers(SimTime::from_secs(200)));
        assert_eq!(plan.saboteurs().len(), 2);
        // Saboteurs alone never touch the message path.
        assert!(!plan.is_active());
    }

    #[test]
    fn scheduled_draw_is_pure_and_roughly_uniform() {
        // Same identity, same value — no cursor, no order dependence.
        assert_eq!(scheduled_draw(42, [1, 2, 3]), scheduled_draw(42, [1, 2, 3]));
        // Different identity, different value.
        assert_ne!(scheduled_draw(42, [1, 2, 3]), scheduled_draw(42, [1, 2, 4]));
        assert_ne!(scheduled_draw(42, [1, 2, 3]), scheduled_draw(43, [1, 2, 3]));
        // Roughly uniform on [0, 1): a 30% threshold hits ~30% of keys.
        let hits = (0..10_000u64)
            .filter(|&i| scheduled_draw(7, [i, i / 3, i % 5]) < 0.3)
            .count();
        assert!((2_600..=3_400).contains(&hits), "hits {hits}");
        for i in 0..1_000u64 {
            let v = scheduled_draw(9, [i, 0, 0]);
            assert!((0.0..1.0).contains(&v));
        }
    }

    /// `scheduled_draw`'s values at a handful of identities, among them a
    /// colluder's and a loner's wrong-digest key: sabotage decisions,
    /// spot-check designations and wrong digests all come from it, so a
    /// change to the hash moves every certification outcome.
    #[test]
    fn scheduled_draw_values_are_pinned() {
        for (salt, keys, bits) in [
            (0, [0, 0, 0], 0x3fef_961e_178d_ec55),
            (42, [1, 2, 3], 0x3fe7_efac_c7b1_47ae),
            (0x1A7E_67AD, [0x434F_4C4C, 7, 0], 0x3fee_c694_9929_251a),
            (0x1A7E_67AD, [0x4C4F_4E45, 4_999, 0], 0x3fd7_15fb_e87b_02c4),
            (u64::MAX, [u64::MAX, 1 << 40, 12_345], 0x3fe6_b2ba_4d46_80b8),
        ] {
            assert_eq!(
                scheduled_draw(salt, keys).to_bits(),
                bits,
                "{salt:#x} {keys:?}"
            );
        }
    }

    #[test]
    fn saboteurs_never_shift_the_rng_stream() {
        let (a, b) = two_hosts();
        let saboteur = Saboteur {
            host: a,
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(3_600),
            probability: 0.5,
            collusion: None,
        };
        let mut with_sab = FaultPlan::new(77)
            .with_drop_probability(0.3)
            .with_saboteur(saboteur);
        let mut without = FaultPlan::new(77).with_drop_probability(0.3);
        for i in 0..1_000 {
            let t = SimTime::from_secs(i % 30);
            assert_eq!(
                with_sab.decide(t, a, b),
                without.decide(t, a, b),
                "tick {i}"
            );
        }
    }

    #[test]
    fn flap_expands_to_alternating_outages() {
        let (a, _) = two_hosts();
        let plan = FaultPlan::quiet().with_flap(HostFlap {
            host: a,
            first_down: SimTime::from_secs(100),
            down_for: SimDuration::from_secs(10),
            up_for: SimDuration::from_secs(30),
            cycles: 3,
        });
        let outages = plan.outages();
        assert_eq!(outages.len(), 3);
        let expect = [(100, 110), (140, 150), (180, 190)];
        for (outage, (down, up)) in outages.iter().zip(expect) {
            assert_eq!(outage.host, a);
            assert_eq!(outage.down_at, SimTime::from_secs(down));
            assert_eq!(outage.up_at, SimTime::from_secs(up));
        }
    }
}
