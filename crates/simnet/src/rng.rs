//! Deterministic pseudo-random number generation.
//!
//! Experiments must replay bit-for-bit across platforms and runs, so the
//! simulator ships its own small generators instead of depending on external
//! RNG crates whose stream definitions may change between versions:
//!
//! * [`SplitMix64`] — used for seeding and cheap hashing-style streams.
//! * [`Pcg32`] — PCG-XSH-RR 64/32, the general-purpose generator.
//! * [`keyed_u64`] — a cursor-free hash, for values that must depend only
//!   on what they are keyed by, never on the order they are asked for.
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
    /// A grid's LUPA measurement jitter (`b"SHRD"` in the high half). It
    /// is not drawn as a stream: XORed with the grid's seed it salts the
    /// [`keyed_u64`](super::keyed_u64) hash every jittered owner sample is
    /// keyed by, so each sample's jitter is a pure function of the seed,
    /// the node, the slot and the channel. It stays registered here so no
    /// stream takes the id.
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
}

/// A raw 64-bit value keyed by `(salt, keys)`: a splitmix64-style mix of
/// each key into the salt, then the splitmix64 finalizer. There is no
/// cursor, so the value depends only on the identity it is keyed by — any
/// caller, asking in any order, any number of times, gets the same bits.
/// Sabotage decisions ([`scheduled_draw`](crate::faults::scheduled_draw))
/// and LUPA measurement jitter are both drawn this way.
#[inline]
pub fn keyed_u64(salt: u64, keys: [u64; 3]) -> u64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for k in keys {
        h ^= k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// 53 random mantissa bits of a raw value as a uniform `f64` in `[0, 1)`.
#[inline]
pub(crate) fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The map from raw values to symmetric jitter at one amplitude, checked
/// once rather than once per value. Measurement jitter maps
/// [`keyed_u64`] values through it.
///
/// # Examples
///
/// ```
/// use integrade_simnet::rng::{keyed_u64, Jitter};
///
/// let jitter = Jitter::new(0.05);
/// let value = jitter.of(keyed_u64(3, [7, 288, 0]));
/// assert!((-0.05..=0.05).contains(&value));
/// // A keyed value has no cursor: the same key gives the same bits.
/// assert_eq!(value.to_bits(), jitter.of(keyed_u64(3, [7, 288, 0])).to_bits());
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
    }
}
