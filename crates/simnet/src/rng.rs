//! Deterministic pseudo-random number generation.
//!
//! Experiments must replay bit-for-bit across platforms and runs, so the
//! simulator ships its own small generators instead of depending on external
//! RNG crates whose stream definitions may change between versions:
//!
//! * [`SplitMix64`] — used for seeding and cheap hashing-style streams.
//! * [`Pcg32`] — PCG-XSH-RR 64/32, the general-purpose generator.
//!
//! [`DetRng`] wraps `Pcg32` with the distribution helpers the rest of the
//! workspace needs (uniform ranges, Bernoulli, exponential, normal, shuffle,
//! weighted choice).

use serde::{Deserialize, Serialize};

/// The registry of well-known stream ids.
///
/// Every independent stochastic process in the workspace draws from its own
/// [`Pcg32`] stream so adding draws to one process never perturbs another.
/// The ids live here, in one place, so they can be *proven* pairwise
/// disjoint (see the tests).
///
/// Two streams collide iff their PCG increments collide; the increment is
/// `(stream << 1) | 1`, so ids are distinct whenever their low 63 bits are.
pub mod streams {
    /// The grid world's scheduling/ranking stream (`b"GRID"`).
    pub const GRID_WORLD: u64 = 0x4752_4944;
    /// Retransmission/backoff jitter (`b"RETY"`).
    pub const RETRY: u64 = 0x5245_5459;
    /// The default stream of [`DetRng::new`](super::DetRng::new).
    pub const DEFAULT: u64 = 0xDA3E_39CB_94B9_5BDB;
    /// The federation's wide-area stream (`b"FEDE"`): WAN fault decisions,
    /// request ids for inter-cluster protocol messages. Lives beside the
    /// member grids' streams so a federation run never perturbs any member
    /// cluster's own deterministic draws.
    pub const FED: u64 = 0x4645_4445;
    /// A grid's LUPA measurement jitter (`b"SHRD"` in the high half): every
    /// jittered owner sample, in the slot walk, in catch-up replay and in the
    /// report flush, draws from this one stream. The id is the one the slot
    /// walk's first shard owned when the walk could be cut into several, so
    /// jittered runs replay exactly as they did then.
    pub const LUPA_JITTER: u64 = 0x5348_5244_0000_0000;
    /// Every stream id above, for disjointness checks.
    pub const ALL: [u64; 5] = [GRID_WORLD, RETRY, DEFAULT, FED, LUPA_JITTER];
}

/// SplitMix64 generator (Steele, Lea, Flood 2014). Primarily a seed expander.
///
/// # Examples
///
/// ```
/// use integrade_simnet::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32 generator (O'Neill 2014).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg32 {
    /// Creates a generator from a seed and stream id. Distinct stream ids
    /// yield statistically independent sequences for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Returns the next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        Self::output(old)
    }

    /// The XSH-RR output permutation: the 32-bit value a draw from state
    /// `old` returns.
    #[inline]
    fn output(old: u64) -> u32 {
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64-bit output (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// The affine map `state ↦ mult · state + plus` of `delta` state steps
    /// on the stream with increment `inc`, as `(mult, plus)`: O'Neill's
    /// `pcg_advance_lcg_64`, which composes the one-step map `(PCG_MULT,
    /// inc)` by square-and-multiply in O(log delta). The period is 2⁶⁴, so
    /// `delta` is taken mod 2⁶⁴.
    fn step_map(delta: u64, inc: u64) -> (u64, u64) {
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        let (mut cur_mult, mut cur_plus) = (PCG_MULT, inc);
        let mut delta = delta;
        while delta > 0 {
            if delta & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(cur_mult);
                acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            delta >>= 1;
        }
        (acc_mult, acc_plus)
    }

    /// Moves the generator `delta` 32-bit draws ahead in O(log delta)
    /// steps: the LCG jump-ahead, one affine map of `delta` state steps.
    /// The period is 2⁶⁴, so `delta` is taken mod 2⁶⁴.
    pub fn advance(&mut self, delta: u64) {
        let (mult, plus) = Self::step_map(delta, self.inc);
        self.state = mult.wrapping_mul(self.state).wrapping_add(plus);
    }

    /// Fills `out` with exactly what `out.len()` calls of
    /// [`next_u64`](Self::next_u64) return, and leaves the generator where
    /// those calls would. The 32-bit draws are computed on eight
    /// independent lanes — lane `j` starts `j` steps ahead and every lane
    /// advances eight steps at a time through the jump-ahead's affine map
    /// — so the state steps of one round do not wait on each other as a
    /// serial draw's do.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        const LANES: usize = 8;
        let (mult, plus) = Self::step_map(LANES as u64, self.inc);
        let mut lanes = [0u64; LANES];
        let mut state = self.state;
        for lane in &mut lanes {
            *lane = state;
            state = state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        }
        // A round of the eight lanes is four 64-bit values: lanes 2q and
        // 2q + 1 are value q's high and low halves.
        let pair = |lanes: &[u64; LANES], q: usize| {
            (u64::from(Self::output(lanes[2 * q])) << 32)
                | u64::from(Self::output(lanes[2 * q + 1]))
        };
        let mut rounds = out.chunks_exact_mut(LANES / 2);
        for round in &mut rounds {
            for (q, value) in round.iter_mut().enumerate() {
                *value = pair(&lanes, q);
            }
            for lane in &mut lanes {
                *lane = lane.wrapping_mul(mult).wrapping_add(plus);
            }
        }
        let rest = rounds.into_remainder();
        for (q, value) in rest.iter_mut().enumerate() {
            *value = pair(&lanes, q);
        }
        // Lane 2·rest.len() is the first state no value was drawn from.
        self.state = lanes[2 * rest.len()];
    }
}

/// 53 random mantissa bits of a raw value as a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The map from raw values to symmetric jitter at one amplitude — the one
/// definition of the formula behind [`DetRng::jitter`], for callers that
/// draw raw values in blocks ([`DetRng::fill_u64`]) and check the
/// amplitude once rather than once per value.
///
/// # Examples
///
/// ```
/// use integrade_simnet::rng::{DetRng, Jitter};
///
/// let (mut one, mut block) = (DetRng::new(3), DetRng::new(3));
/// let mut raw = [0u64; 2];
/// block.fill_u64(&mut raw);
/// let jitter = Jitter::new(0.05);
/// assert_eq!(one.jitter(0.05).to_bits(), jitter.of(raw[0]).to_bits());
/// assert_eq!(one.jitter(0.05).to_bits(), jitter.of(raw[1]).to_bits());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Jitter {
    amplitude: f64,
}

impl Jitter {
    /// The map at `amplitude`.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or not finite.
    pub fn new(amplitude: f64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "jitter amplitude must be finite and >= 0, got {amplitude}"
        );
        Jitter { amplitude }
    }

    /// The jitter the raw value `raw` maps to, in `[-amplitude, amplitude]`:
    /// `(uniform · 2 − 1) · amplitude`, with `uniform` the value's top 53
    /// bits as a fraction of 2⁵³.
    #[inline]
    pub fn of(self, raw: u64) -> f64 {
        (unit_f64(raw) * 2.0 - 1.0) * self.amplitude
    }
}

/// Deterministic RNG with the distribution helpers used across the workspace.
///
/// # Examples
///
/// ```
/// use integrade_simnet::rng::DetRng;
///
/// let mut rng = DetRng::new(7);
/// let x = rng.uniform_f64();
/// assert!((0.0..1.0).contains(&x));
/// let k = rng.uniform_range(10, 20);
/// assert!((10..20).contains(&k));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetRng {
    pcg: Pcg32,
    /// Cached second normal deviate from the Box–Muller transform.
    spare_normal: Option<u64>, // bit pattern of f64 to keep Eq/serde simple
}

impl DetRng {
    /// Creates a generator on the default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xDA3E_39CB_94B9_5BDB)
    }

    /// Creates a generator on an explicit stream; use one stream per
    /// independent stochastic process so adding draws to one process does not
    /// perturb another.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ stream.rotate_left(17));
        DetRng {
            pcg: Pcg32::new(sm.next_u64(), stream),
            spare_normal: None,
        }
    }

    /// Derives a child generator; children with distinct tags are independent.
    pub fn fork(&mut self, tag: u64) -> DetRng {
        let seed = self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::with_stream(seed, tag | 1)
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.pcg.next_u64()
    }

    /// Discards the next `n` raw 64-bit values in O(log n): afterwards the
    /// generator is where `n` calls of [`next_u64`](Self::next_u64) would
    /// have left it. A cached normal deviate is kept, exactly as those
    /// calls would keep it.
    pub fn skip_u64(&mut self, n: u64) {
        self.pcg.advance(n.wrapping_mul(2));
    }

    /// Fills `out` with exactly what `out.len()` calls of
    /// [`next_u64`](Self::next_u64) return, and leaves the generator where
    /// they would ([`Pcg32::fill_u64`]). Callers that draw many values in a
    /// row read them in blocks through this instead of one serial draw at a
    /// time. A cached normal deviate is kept, as those calls would keep it.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        self.pcg.fill_u64(out);
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Returns a uniform integer in `[lo, hi)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_range requires lo < hi, got {lo}..{hi}");
        let span = hi - lo;
        // Rejection sampling to remove modulo bias.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires a non-empty range");
        self.uniform_range(0, len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a uniform jitter in `[-amplitude, amplitude]` — the
    /// symmetric perturbation per-slot measurement noise draws from
    /// [`streams::LUPA_JITTER`]. Exactly one `next_u64` is consumed per call, so
    /// stream advancement is independent of the amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or not finite.
    pub fn jitter(&mut self, amplitude: f64) -> f64 {
        Jitter::new(amplitude).of(self.next_u64())
    }

    /// Returns an exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        let u = 1.0 - self.uniform_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Returns a normally distributed value (Box–Muller with caching).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if let Some(bits) = self.spare_normal.take() {
            return mean + std_dev * f64::from_bits(bits);
        }
        let (z0, z1) = loop {
            let u1 = self.uniform_f64();
            let u2 = self.uniform_f64();
            if u1 > f64::MIN_POSITIVE {
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = std::f64::consts::TAU * u2;
                break (r * theta.cos(), r * theta.sin());
            }
        };
        self.spare_normal = Some(z1.to_bits());
        mean + std_dev * z0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Picks an index with probability proportional to `weights[i]`.
    ///
    /// Returns `None` if the slice is empty or all weights are zero/negative.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn pcg_is_deterministic_across_instances() {
        let mut a = Pcg32::new(99, 7);
        let mut b = Pcg32::new(99, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn pcg_advance_matches_stepping_by_single_draws() {
        let mut stepped = Pcg32::new(99, 7);
        for delta in 0..300 {
            let mut jumped = Pcg32::new(99, 7);
            jumped.advance(delta);
            assert_eq!(jumped, stepped, "delta {delta}");
            stepped.next_u32();
        }
    }

    #[test]
    fn the_step_map_is_delta_single_steps_and_the_one_jump_ahead() {
        let inc = Pcg32::new(99, 7).inc;
        let (mut mult, mut plus) = (1u64, 0u64);
        for delta in 0..40 {
            assert_eq!(Pcg32::step_map(delta, inc), (mult, plus), "delta {delta}");
            mult = mult.wrapping_mul(PCG_MULT);
            plus = plus.wrapping_mul(PCG_MULT).wrapping_add(inc);
        }
        // `advance` and `fill_u64` both jump through `step_map`: the
        // square-and-multiply loop is written once, in it.
        let source = include_str!("rng.rs");
        let body = |name: &str| {
            let start = source.find(&format!("pub fn {name}(")).expect(name);
            &source[start..start + source[start..].find("\n    }\n").expect(name)]
        };
        for name in ["advance", "fill_u64"] {
            assert!(
                body(name).contains("Self::step_map("),
                "{name} bypasses step_map"
            );
        }
        let squaring = ["cur_mult", ".wrapping_mul(cur_mult)"].concat();
        assert_eq!(source.matches(&squaring).count(), 1, "a second jump-ahead");
    }

    #[test]
    fn a_cached_normal_deviate_survives_a_skip() {
        let mut skipped = DetRng::new(37);
        skipped.normal(0.0, 1.0); // caches the second deviate
        let mut stepped = skipped.clone();
        let mut untouched = skipped.clone();
        skipped.skip_u64(1_000);
        for _ in 0..1_000 {
            stepped.next_u64();
        }
        assert_eq!(skipped, stepped);
        let cached = untouched.normal(0.0, 1.0);
        assert_eq!(skipped.normal(0.0, 1.0).to_bits(), cached.to_bits());
        assert_eq!(skipped.next_u64(), stepped.next_u64());
    }

    #[test]
    fn distinct_streams_differ() {
        let mut a = Pcg32::new(99, 1);
        let mut b = Pcg32::new(99, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = DetRng::new(5);
        for _ in 0..10_000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_range_covers_and_respects_bounds() {
        let mut rng = DetRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.uniform_range(10, 20);
            assert!((10..20).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all values in range should appear");
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_range_empty_panics() {
        DetRng::new(1).uniform_range(5, 5);
    }

    #[test]
    fn jitter_is_symmetric_bounded_and_amplitude_independent() {
        let mut rng = DetRng::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let j = rng.jitter(0.05);
            assert!((-0.05..=0.05).contains(&j), "{j}");
            sum += j;
        }
        assert!(sum.abs() < 0.05 * 100.0, "mean should be near zero: {sum}");
        // A zero-amplitude draw still advances the stream by one value, so
        // switching noise on/off never re-aligns later draws differently.
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        assert_eq!(a.jitter(0.0), 0.0);
        let _ = b.jitter(0.3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut rng = DetRng::new(11);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = DetRng::new(13);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = DetRng::new(17);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
        assert!((var - 9.0).abs() < 0.4, "var={var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn choose_weighted_prefers_heavy_weights() {
        let mut rng = DetRng::new(23);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.choose_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 9.0).abs() < 1.5, "ratio={ratio}");
    }

    #[test]
    fn choose_weighted_degenerate_cases() {
        let mut rng = DetRng::new(29);
        assert_eq!(rng.choose_weighted(&[]), None);
        assert_eq!(rng.choose_weighted(&[0.0, -1.0, f64::NAN]), None);
        assert_eq!(rng.choose_weighted(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = DetRng::new(31);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn forked_children_are_independent() {
        let mut parent = DetRng::new(101);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    /// The PCG increment `(stream << 1) | 1` only keeps the low 63 bits of
    /// the stream id, so the registry must stay collision-free there too.
    fn effective_inc(stream: u64) -> u64 {
        (stream << 1) | 1
    }

    proptest::proptest! {
        /// The registered streams are pairwise distinct and, for any seed,
        /// their generators produce effectively independent sequences.
        #[test]
        fn prop_registered_streams_never_collide(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut incs = streams::ALL.map(effective_inc);
            incs.sort_unstable();
            proptest::prop_assert!(
                incs.windows(2).all(|pair| pair[0] != pair[1]),
                "stream id collision"
            );
            for (i, &a) in streams::ALL.iter().enumerate() {
                for &b in &streams::ALL[i + 1..] {
                    let (mut x, mut y) = (DetRng::with_stream(seed, a), DetRng::with_stream(seed, b));
                    let same = (0..64).filter(|_| x.next_u64() == y.next_u64()).count();
                    proptest::prop_assert!(same < 4, "streams {:#x} and {:#x} track each other", a, b);
                }
            }
        }

        /// A skip of `n` lands where `n` draws do, on any seed and stream.
        #[test]
        fn prop_skip_equals_drawing(
            seed in proptest::prelude::any::<u64>(),
            stream in proptest::prelude::any::<u64>(),
            n in 0u64..2_048,
        ) {
            let mut drawn = DetRng::with_stream(seed, stream);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut skipped = DetRng::with_stream(seed, stream);
            skipped.skip_u64(n);
            proptest::prop_assert_eq!(&skipped, &drawn);
            proptest::prop_assert_eq!(skipped.next_u64(), drawn.next_u64());
        }

        /// A fill of `n` values returns what `n` draws return and leaves the
        /// generator where they leave it — over every lane and block edge
        /// up to n = 70, the empty fill included.
        #[test]
        fn prop_fill_equals_drawing(
            seed in proptest::prelude::any::<u64>(),
            stream in proptest::prelude::any::<u64>(),
            n in 0usize..=70,
        ) {
            let mut drawn = DetRng::with_stream(seed, stream);
            let expected: Vec<u64> = (0..n).map(|_| drawn.next_u64()).collect();
            let mut filled = DetRng::with_stream(seed, stream);
            let mut out = vec![0; n];
            filled.fill_u64(&mut out);
            proptest::prop_assert_eq!(out, expected);
            proptest::prop_assert_eq!(&filled, &drawn);
            proptest::prop_assert_eq!(filled.next_u64(), drawn.next_u64());
        }

        /// Skips compose: `skip(a); skip(b)` is `skip(a + b)`, for small
        /// spans and for spans near 2⁴⁰, far past anything drawn one by one.
        #[test]
        fn prop_skips_compose(
            seed in proptest::prelude::any::<u64>(),
            stream in proptest::prelude::any::<u64>(),
            a in 0u64..4_096,
            b in 0u64..4_096,
            far in proptest::prelude::any::<bool>(),
        ) {
            let base = if far { (1u64 << 40) - 2_048 } else { 0 };
            let (a, b) = (base + a, base + b);
            let mut twice = DetRng::with_stream(seed, stream);
            twice.skip_u64(a);
            twice.skip_u64(b);
            let mut once = DetRng::with_stream(seed, stream);
            once.skip_u64(a + b);
            proptest::prop_assert_eq!(&twice, &once);
            proptest::prop_assert_eq!(twice.next_u64(), once.next_u64());
        }
    }
}
