//! Validated fluent construction of [`GridConfig`].
//!
//! `GridConfig`'s fields stay `pub` — existing struct literals keep
//! compiling — but the builder is the blessed front door: it catches
//! nonsense (a zero tick, `max_candidates == 0`, a negative checkpoint
//! interval) at build time with a typed [`ConfigError`] instead of letting
//! a mis-assembled config panic deep inside the simulation, and it keeps
//! the coupled invariants straight (the execution tick doubles as the LUPA
//! sampling slot, so [`GridConfigBuilder::tick_mins`] updates both sides).
//!
//! ```
//! use integrade_core::grid::GridConfig;
//!
//! let config = GridConfig::builder()
//!     .seed(42)
//!     .max_candidates(32)
//!     .replication_factor(3)
//!     .build();
//! assert_eq!(config.seed, 42);
//! assert_eq!(config.replication_factor, 3);
//! ```

use crate::grid::{GridConfig, TickMode};
use crate::lrm::LrmConfig;
use crate::scheduler::Strategy;
use integrade_orb::security::ClusterKey;
use integrade_simnet::time::SimDuration;
use std::fmt;

/// Why a [`GridConfigBuilder`] refused to produce a config.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The execution tick is zero — the slot walk would never advance.
    ZeroTick,
    /// The tick disagrees with the LUPA sampling interval (they index the
    /// same 5-minute-slot arrays; use [`GridConfigBuilder::tick_mins`]).
    TickSamplingMismatch {
        /// The configured tick, minutes (rounded down).
        tick_mins: u64,
        /// The LRM sampling interval, minutes.
        sampling_mins: u32,
    },
    /// The sampling interval does not divide a day, so slot indexing would
    /// drift across midnight.
    BadSamplingInterval(u32),
    /// `max_candidates == 0` — the trader could never return a node.
    NoCandidates,
    /// `max_attempts == 0` — every job would fail before its first try.
    NoAttempts,
    /// The sequential checkpoint interval is negative or not a number.
    BadCheckpointInterval(f64),
    /// `cert_replication == 0` with certification on — no part could ever
    /// gather a vote, so no result would ever be delivered.
    NoCertVotes,
    /// The spot-check probe rate is NaN or outside `[0, 1)` — at 1 every
    /// part would be a known-answer probe and the grid would compute
    /// nothing it did not already know.
    BadSpotCheckRate(f64),
    /// `cert_trust_threshold == 0` with adaptive certification on — every
    /// unknown node would be born trusted, which is exactly the attack
    /// credibility is meant to stop.
    NoCertTrustThreshold,
    /// The LUPA measurement-jitter amplitude is NaN or outside `[0, 1)` —
    /// at 1 a measured sample could swing across the whole usage range and
    /// the learned patterns would be pure noise.
    BadLupaNoise(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTick => write!(f, "grid tick must be non-zero"),
            ConfigError::TickSamplingMismatch {
                tick_mins,
                sampling_mins,
            } => write!(
                f,
                "grid tick ({tick_mins} min) must equal the LUPA sampling \
                 interval ({sampling_mins} min); set both via tick_mins()"
            ),
            ConfigError::BadSamplingInterval(mins) => write!(
                f,
                "sampling interval must be in 1..=1440 and divide a day, got {mins} min"
            ),
            ConfigError::NoCandidates => {
                write!(f, "max_candidates must be at least 1")
            }
            ConfigError::NoAttempts => write!(f, "max_attempts must be at least 1"),
            ConfigError::BadCheckpointInterval(v) => write!(
                f,
                "sequential_checkpoint_mips_s must be finite and >= 0, got {v}"
            ),
            ConfigError::NoCertVotes => write!(
                f,
                "cert_replication must be at least 1 when certification is on"
            ),
            ConfigError::BadSpotCheckRate(v) => {
                write!(f, "cert_spot_check_rate must be in [0, 1), got {v}")
            }
            ConfigError::NoCertTrustThreshold => write!(
                f,
                "cert_trust_threshold must be at least 1 when adaptive \
                 certification is on"
            ),
            ConfigError::BadLupaNoise(v) => {
                write!(f, "lupa_noise must be in [0, 1), got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validated [`GridConfig`] construction. Obtain one through
/// [`GridConfig::builder`]; every setter returns `self` for chaining;
/// [`build`](GridConfigBuilder::build) validates.
#[derive(Debug, Clone)]
pub struct GridConfigBuilder {
    config: GridConfig,
}

impl GridConfigBuilder {
    pub(crate) fn new() -> Self {
        GridConfigBuilder {
            config: GridConfig::default(),
        }
    }

    /// Master seed; every stochastic choice derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Execution tick in minutes. The tick doubles as the LUPA sampling
    /// slot, so this sets **both** the grid tick and the LRM sampling
    /// interval, keeping them consistent by construction.
    pub fn tick_mins(mut self, mins: u32) -> Self {
        self.config.tick = SimDuration::from_mins(u64::from(mins));
        self.config.lrm.sampling.interval_mins = mins;
        self
    }

    /// Raw per-node LRM configuration. Prefer [`tick_mins`] for the
    /// sampling interval; build-time validation rejects a mismatch with the
    /// grid tick.
    ///
    /// [`tick_mins`]: GridConfigBuilder::tick_mins
    pub fn lrm(mut self, lrm: LrmConfig) -> Self {
        self.config.lrm = lrm;
        self
    }

    /// Suppress idle-status updates after the first (the delta-suppression
    /// knob inside [`LrmConfig`], surfaced for the common case).
    pub fn delta_suppression(mut self, on: bool) -> Self {
        self.config.lrm.delta_suppression = on;
        self
    }

    /// Information-update period (the send-interval knob inside
    /// [`LrmConfig`], surfaced for the common case).
    pub fn update_period(mut self, period: SimDuration) -> Self {
        self.config.lrm.update_period = period;
        self
    }

    /// Scheduling strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Maximum candidates fetched per trader query (must be ≥ 1).
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.config.max_candidates = n;
        self
    }

    /// Scheduling attempts before a job fails (must be ≥ 1).
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.config.max_attempts = n;
        self
    }

    /// Checkpoint interval for sequential/bag-of-tasks parts, MIPS-s
    /// (0 = restart from scratch on eviction). Must be finite and ≥ 0.
    pub fn sequential_checkpoint_mips_s(mut self, interval: f64) -> Self {
        self.config.sequential_checkpoint_mips_s = interval;
        self
    }

    /// Days of owner-trace history replayed into the GUPA before the run.
    pub fn gupa_warmup_days(mut self, days: usize) -> Self {
        self.config.gupa_warmup_days = days;
        self
    }

    /// On a reservation refusal, immediately try the next ranked candidate.
    pub fn candidate_failover(mut self, on: bool) -> Self {
        self.config.candidate_failover = on;
        self
    }

    /// Silence after which a reporting node is declared crashed.
    pub fn crash_silence(mut self, silence: SimDuration) -> Self {
        self.config.crash_silence = silence;
        self
    }

    /// Seal every protocol frame with this cluster key.
    pub fn cluster_key(mut self, key: ClusterKey) -> Self {
        self.config.cluster_key = Some(key);
        self
    }

    /// Retransmissions of an unanswered negotiation request.
    pub fn max_retransmits(mut self, n: u32) -> Self {
        self.config.max_retransmits = n;
        self
    }

    /// Replicas each checkpoint is written to (`k`; 0 disables the
    /// repository and crashes restart parts from scratch).
    pub fn replication_factor(mut self, k: usize) -> Self {
        self.config.replication_factor = k;
        self
    }

    /// How the per-slot node loop is driven.
    pub fn tick_mode(mut self, mode: TickMode) -> Self {
        self.config.tick_mode = mode;
        self
    }

    /// Enables the straggler detector and speculative re-execution of
    /// lagging parts (gray-failure mitigation). Off by default.
    pub fn speculation(mut self, on: bool) -> Self {
        self.config.speculation = on;
        self
    }

    /// Enables Byzantine result certification: finished parts count only
    /// once their result digest is certified. Off by default.
    pub fn certification(mut self, on: bool) -> Self {
        self.config.certification = on;
        self
    }

    /// Matching digests required to certify an unknown executor's result
    /// (the replication degree `r`). Must be ≥ 1 when certification is on.
    pub fn cert_replication(mut self, r: u32) -> Self {
        self.config.cert_replication = r;
        self
    }

    /// Credibility-adaptive replication: trusted executors certify with a
    /// single vote (Sarmenta-style credibility). Off by default.
    pub fn cert_adaptive(mut self, on: bool) -> Self {
        self.config.cert_adaptive = on;
        self
    }

    /// Fraction of parts designated as known-answer spot-check probes.
    /// Must be in `[0, 1)`.
    pub fn cert_spot_check_rate(mut self, rate: f64) -> Self {
        self.config.cert_spot_check_rate = rate;
        self
    }

    /// Credibility score at which an executor becomes trusted under
    /// adaptive certification. Must be ≥ 1 when adaptive mode is on.
    pub fn cert_trust_threshold(mut self, score: u32) -> Self {
        self.config.cert_trust_threshold = score;
        self
    }

    /// Amplitude of the per-slot LUPA measurement jitter, in `[0, 1)`.
    /// Zero (the default) draws nothing and keeps both tick modes
    /// observably identical; a positive amplitude perturbs what the
    /// pattern learner sees with draws from the grid's jitter stream. See
    /// [`GridConfig::lupa_noise`].
    pub fn lupa_noise(mut self, amplitude: f64) -> Self {
        self.config.lupa_noise = amplitude;
        self
    }

    /// Validates and returns the config, or says precisely what is wrong.
    pub fn try_build(self) -> Result<GridConfig, ConfigError> {
        let c = self.config;
        if c.tick == SimDuration::from_secs(0) {
            return Err(ConfigError::ZeroTick);
        }
        let sampling = c.lrm.sampling.interval_mins;
        if !(1..=1440).contains(&sampling) || 1440 % sampling != 0 {
            return Err(ConfigError::BadSamplingInterval(sampling));
        }
        if c.tick != SimDuration::from_mins(u64::from(sampling)) {
            return Err(ConfigError::TickSamplingMismatch {
                tick_mins: c.tick.as_micros() / 60_000_000,
                sampling_mins: sampling,
            });
        }
        if c.max_candidates == 0 {
            return Err(ConfigError::NoCandidates);
        }
        if c.max_attempts == 0 {
            return Err(ConfigError::NoAttempts);
        }
        if !c.sequential_checkpoint_mips_s.is_finite() || c.sequential_checkpoint_mips_s < 0.0 {
            return Err(ConfigError::BadCheckpointInterval(
                c.sequential_checkpoint_mips_s,
            ));
        }
        if c.certification && c.cert_replication == 0 {
            return Err(ConfigError::NoCertVotes);
        }
        if !c.cert_spot_check_rate.is_finite() || !(0.0..1.0).contains(&c.cert_spot_check_rate) {
            return Err(ConfigError::BadSpotCheckRate(c.cert_spot_check_rate));
        }
        if c.certification && c.cert_adaptive && c.cert_trust_threshold == 0 {
            return Err(ConfigError::NoCertTrustThreshold);
        }
        if !c.lupa_noise.is_finite() || !(0.0..1.0).contains(&c.lupa_noise) {
            return Err(ConfigError::BadLupaNoise(c.lupa_noise));
        }
        Ok(c)
    }

    /// Validates and returns the config.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on an invalid combination;
    /// use [`try_build`](GridConfigBuilder::try_build) to handle it.
    pub fn build(self) -> GridConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("invalid GridConfig: {e}"),
        }
    }
}

impl GridConfig {
    /// Starts a validated fluent builder seeded with the defaults.
    pub fn builder() -> GridConfigBuilder {
        GridConfigBuilder::new()
    }

    /// The named default profile: 5-minute execution/sampling tick, 30 s
    /// update period, availability-only scheduling, `k = 2` replication,
    /// the lazy walk ([`TickMode::Lazy`]) — exactly [`GridConfig::default`],
    /// under the name the tick actually has.
    pub fn default_5min() -> Self {
        GridConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_equal_default_5min() {
        let built = GridConfig::builder().build();
        let named = GridConfig::default_5min();
        assert_eq!(built.seed, named.seed);
        assert_eq!(built.tick, named.tick);
        assert_eq!(built.max_candidates, named.max_candidates);
        assert_eq!(built.replication_factor, named.replication_factor);
        assert_eq!(
            built.tick_mode,
            TickMode::Lazy,
            "the engine is the lazy walk"
        );
        assert_eq!(named.tick_mode, TickMode::Lazy);
    }

    #[test]
    fn setters_land_in_the_config() {
        let c = GridConfig::builder()
            .seed(7)
            .tick_mins(10)
            .max_candidates(5)
            .max_attempts(3)
            .delta_suppression(true)
            .crash_silence(SimDuration::from_secs(999))
            .replication_factor(4)
            .sequential_checkpoint_mips_s(1_000.0)
            .tick_mode(TickMode::Reference)
            .build();
        assert_eq!(c.seed, 7);
        assert_eq!(c.tick, SimDuration::from_mins(10));
        assert_eq!(c.lrm.sampling.interval_mins, 10, "tick_mins syncs sampling");
        assert!(c.lrm.delta_suppression);
        assert_eq!(c.max_candidates, 5);
        assert_eq!(c.crash_silence, SimDuration::from_secs(999));
        assert_eq!(c.replication_factor, 4);
        assert_eq!(c.tick_mode, TickMode::Reference);
    }

    #[test]
    fn rejects_zero_tick() {
        assert_eq!(
            GridConfig::builder().tick_mins(0).try_build().unwrap_err(),
            ConfigError::ZeroTick
        );
    }

    #[test]
    fn rejects_zero_candidates_and_attempts() {
        assert_eq!(
            GridConfig::builder()
                .max_candidates(0)
                .try_build()
                .unwrap_err(),
            ConfigError::NoCandidates
        );
        assert_eq!(
            GridConfig::builder()
                .max_attempts(0)
                .try_build()
                .unwrap_err(),
            ConfigError::NoAttempts
        );
    }

    #[test]
    fn rejects_negative_checkpoint_interval() {
        let err = GridConfig::builder()
            .sequential_checkpoint_mips_s(-1.0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::BadCheckpointInterval(-1.0));
        assert!(GridConfig::builder()
            .sequential_checkpoint_mips_s(f64::NAN)
            .try_build()
            .is_err());
    }

    #[test]
    fn rejects_tick_sampling_mismatch() {
        let mut lrm = LrmConfig::default();
        lrm.sampling.interval_mins = 15;
        let err = GridConfig::builder().lrm(lrm).try_build().unwrap_err();
        assert!(
            matches!(err, ConfigError::TickSamplingMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_sampling_not_dividing_a_day() {
        let mut lrm = LrmConfig::default();
        lrm.sampling.interval_mins = 7;
        let err = GridConfig::builder()
            .tick_mins(7)
            .lrm(lrm)
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::BadSamplingInterval(7));
    }

    #[test]
    #[should_panic(expected = "invalid GridConfig")]
    fn build_panics_with_the_error_message() {
        let _ = GridConfig::builder().max_candidates(0).build();
    }

    #[test]
    fn rejects_bad_certification_settings() {
        assert_eq!(
            GridConfig::builder()
                .certification(true)
                .cert_replication(0)
                .try_build()
                .unwrap_err(),
            ConfigError::NoCertVotes
        );
        // Zero replication is tolerated while certification is off.
        assert!(GridConfig::builder()
            .cert_replication(0)
            .try_build()
            .is_ok());
        assert_eq!(
            GridConfig::builder()
                .cert_spot_check_rate(1.0)
                .try_build()
                .unwrap_err(),
            ConfigError::BadSpotCheckRate(1.0)
        );
        assert_eq!(
            GridConfig::builder()
                .cert_spot_check_rate(-0.1)
                .try_build()
                .unwrap_err(),
            ConfigError::BadSpotCheckRate(-0.1)
        );
        assert!(GridConfig::builder()
            .cert_spot_check_rate(f64::NAN)
            .try_build()
            .is_err());
        assert_eq!(
            GridConfig::builder()
                .certification(true)
                .cert_adaptive(true)
                .cert_trust_threshold(0)
                .try_build()
                .unwrap_err(),
            ConfigError::NoCertTrustThreshold
        );
        let c = GridConfig::builder()
            .certification(true)
            .cert_replication(3)
            .cert_adaptive(true)
            .cert_spot_check_rate(0.15)
            .cert_trust_threshold(8)
            .build();
        assert!(c.certification && c.cert_adaptive);
        assert_eq!(c.cert_replication, 3);
        assert_eq!(c.cert_spot_check_rate, 0.15);
        assert_eq!(c.cert_trust_threshold, 8);
    }

    #[test]
    fn lupa_noise_validation() {
        assert_eq!(
            GridConfig::builder()
                .lupa_noise(1.0)
                .try_build()
                .unwrap_err(),
            ConfigError::BadLupaNoise(1.0)
        );
        assert_eq!(
            GridConfig::builder()
                .lupa_noise(-0.05)
                .try_build()
                .unwrap_err(),
            ConfigError::BadLupaNoise(-0.05)
        );
        assert!(GridConfig::builder()
            .lupa_noise(f64::NAN)
            .try_build()
            .is_err());
        let c = GridConfig::builder().lupa_noise(0.05).build();
        assert_eq!(c.lupa_noise, 0.05);
        assert_eq!(GridConfig::default().lupa_noise, 0.0, "noise defaults off");
    }
}
