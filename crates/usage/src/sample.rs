//! Usage samples and collection configuration.
//!
//! The paper's LUPA collects node usage "for short time intervals (e.g., 5
//! minutes)" and groups them "in larger intervals called periods". A
//! [`UsageSample`] is one such measurement (CPU, memory, disk and network
//! utilisation, each in `[0, 1]`); [`SamplingConfig`] fixes the interval and
//! period length; [`SampleWindow`] accumulates samples into day-long periods
//! ready for clustering.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One resource-utilisation measurement, each component in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use integrade_usage::sample::UsageSample;
///
/// let s = UsageSample::new(0.8, 0.5, 0.1, 0.0);
/// assert!(s.load() > 0.5); // CPU-dominated
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UsageSample {
    /// CPU utilisation fraction.
    pub cpu: f64,
    /// Physical memory utilisation fraction.
    pub mem: f64,
    /// Disk bandwidth utilisation fraction.
    pub disk: f64,
    /// Network bandwidth utilisation fraction.
    pub net: f64,
}

impl UsageSample {
    /// Creates a sample, clamping each component into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any component is NaN.
    pub fn new(cpu: f64, mem: f64, disk: f64, net: f64) -> Self {
        for (name, v) in [("cpu", cpu), ("mem", mem), ("disk", disk), ("net", net)] {
            assert!(!v.is_nan(), "usage component {name} is NaN");
        }
        UsageSample {
            cpu: cpu.clamp(0.0, 1.0),
            mem: mem.clamp(0.0, 1.0),
            disk: disk.clamp(0.0, 1.0),
            net: net.clamp(0.0, 1.0),
        }
    }

    /// A fully idle sample.
    pub const fn idle() -> Self {
        UsageSample {
            cpu: 0.0,
            mem: 0.0,
            disk: 0.0,
            net: 0.0,
        }
    }

    /// Scalar load summary: a weighted blend dominated by CPU, which is what
    /// owner-perceived interactivity tracks most closely.
    pub fn load(&self) -> f64 {
        0.6 * self.cpu + 0.2 * self.mem + 0.1 * self.disk + 0.1 * self.net
    }

    /// This sample with measurement jitter added to its CPU and memory
    /// components, each re-clamped into `[0, 1]` — how a LUPA collection
    /// window models sensor noise without ever leaving the valid sample
    /// space. Disk and network pass through unchanged: the idle predictor's
    /// load blend is CPU/memory-dominated, and two draws per slot keep the
    /// jitter stream's advancement cheap and fixed.
    pub fn with_jitter(self, cpu_delta: f64, mem_delta: f64) -> Self {
        UsageSample::new(
            self.cpu + cpu_delta,
            self.mem + mem_delta,
            self.disk,
            self.net,
        )
    }

    /// True when every component is below `threshold` — the default
    /// "node is idle" test the NCC lets owners override.
    pub fn is_idle(&self, threshold: f64) -> bool {
        self.cpu < threshold
            && self.mem < threshold
            && self.disk < threshold
            && self.net < threshold
    }
}

impl fmt::Display for UsageSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.0}% mem={:.0}% disk={:.0}% net={:.0}%",
            self.cpu * 100.0,
            self.mem * 100.0,
            self.disk * 100.0,
            self.net * 100.0
        )
    }
}

/// How often samples are taken and how they group into periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Minutes between samples (the paper's example: 5).
    pub interval_mins: u32,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig { interval_mins: 5 }
    }
}

impl SamplingConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics unless `interval_mins` is in `1..=1440` and divides a day
    /// evenly.
    pub fn new(interval_mins: u32) -> Self {
        assert!(
            (1..=1440).contains(&interval_mins) && 1440 % interval_mins == 0,
            "sampling interval must divide 1440 minutes, got {interval_mins}"
        );
        SamplingConfig { interval_mins }
    }

    /// Samples collected per 24-hour period.
    pub fn slots_per_day(&self) -> usize {
        (1440 / self.interval_mins) as usize
    }

    /// The slot index for a minute-of-day.
    ///
    /// # Panics
    ///
    /// Panics if `minute_of_day >= 1440`.
    pub fn slot_of(&self, minute_of_day: u32) -> usize {
        assert!(minute_of_day < 1440, "minute of day out of range");
        (minute_of_day / self.interval_mins) as usize
    }
}

/// Day of week, Monday = 0 … Sunday = 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Weekday(u8);

impl Weekday {
    /// Creates a weekday.
    ///
    /// # Panics
    ///
    /// Panics if `index > 6`.
    pub fn new(index: u8) -> Self {
        assert!(index <= 6, "weekday index must be 0..=6, got {index}");
        Weekday(index)
    }

    /// The weekday of day number `day` counting from a Monday epoch.
    pub fn from_day_number(day: u64) -> Self {
        Weekday((day % 7) as u8)
    }

    /// Monday = 0 … Sunday = 6.
    pub fn index(&self) -> u8 {
        self.0
    }

    /// Saturday or Sunday.
    pub fn is_weekend(&self) -> bool {
        self.0 >= 5
    }

    /// Short English name.
    pub fn name(&self) -> &'static str {
        ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][self.0 as usize]
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One completed period: a day of samples plus its weekday.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayPeriod {
    /// Day number since trace start.
    pub day: u64,
    /// Weekday of that day.
    pub weekday: Weekday,
    /// One sample per slot ([`SamplingConfig::slots_per_day`] of them).
    pub samples: Vec<UsageSample>,
}

impl DayPeriod {
    /// The scalar load curve of the day.
    pub fn load_curve(&self) -> Vec<f64> {
        self.samples.iter().map(UsageSample::load).collect()
    }

    /// Fraction of slots idle at `threshold`.
    pub fn idle_fraction(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.is_idle(threshold)).count() as f64
            / self.samples.len() as f64
    }
}

/// Accumulates a node's samples into completed [`DayPeriod`]s — the LUPA's
/// collection stage.
///
/// The window holds only the day in progress: it reserves nothing up
/// front and grows its buffer as samples arrive, never past one day, so a
/// node that has sampled nothing since its last rollover costs no sample
/// storage, and every completed day's buffer holds exactly
/// [`SamplingConfig::slots_per_day`] samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleWindow {
    config: SamplingConfig,
    current_day: u64,
    current: Vec<UsageSample>,
    completed: Vec<DayPeriod>,
}

impl SampleWindow {
    /// Creates an empty window starting at day 0.
    pub fn new(config: SamplingConfig) -> Self {
        SampleWindow {
            config,
            current_day: 0,
            current: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// The sampling configuration.
    pub fn config(&self) -> SamplingConfig {
        self.config
    }

    /// Pushes the next sample in time order; rolls the day over when full.
    ///
    /// The buffer grows geometrically but never past one day, so a day
    /// pushed slot by slot ends in a buffer of exactly `slots_per_day`.
    pub fn push(&mut self, sample: UsageSample) {
        let cap = self.current.capacity();
        if self.current.len() == cap {
            let grown = (2 * cap).max(4).min(self.config.slots_per_day());
            self.current.reserve_exact(grown - cap);
        }
        self.current.push(sample);
        if self.current.len() == self.config.slots_per_day() {
            self.roll_over();
        }
    }

    /// Pushes a run of consecutive samples in time order, equivalent to
    /// calling [`SampleWindow::push`] on each — day rollovers included.
    ///
    /// The run is consumed one window-day at a time: the in-progress day
    /// takes as many samples as it has room for and rolls over only when
    /// that fills it, so the rollover check runs once per completed day
    /// rather than once per sample. The simulator's catch-up replay feeds a
    /// node's whole deferred span through here; a constant run
    /// (`std::iter::repeat_n`) is its always-idle case.
    ///
    /// Each day's share of the run is reserved exactly, from the run's
    /// size hint, so a run that reports its length (a mapped range, a
    /// slice, `repeat_n`) never grows the buffer past one day.
    pub fn extend_run(&mut self, samples: impl IntoIterator<Item = UsageSample>) {
        let per_day = self.config.slots_per_day();
        let mut samples = samples.into_iter();
        loop {
            let room = per_day - self.current.len();
            let day = samples.by_ref().take(room);
            self.current.reserve_exact(day.size_hint().0);
            self.current.extend(day);
            if self.current.len() < per_day {
                return;
            }
            self.roll_over();
        }
    }

    /// Moves the (full) in-progress day to the completed periods and starts
    /// the next one.
    fn roll_over(&mut self) {
        let day = self.current_day;
        self.completed.push(DayPeriod {
            day,
            weekday: Weekday::from_day_number(day),
            samples: std::mem::take(&mut self.current),
        });
        self.current_day += 1;
    }

    /// Completed periods so far.
    pub fn completed(&self) -> &[DayPeriod] {
        &self.completed
    }

    /// Samples accumulated toward the in-progress day.
    pub fn partial_day(&self) -> &[UsageSample] {
        &self.current
    }

    /// Drains and returns the completed periods (collection upload to GUPA).
    pub fn take_completed(&mut self) -> Vec<DayPeriod> {
        std::mem::take(&mut self.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_clamps_and_summarises() {
        let s = UsageSample::new(1.5, -0.2, 0.5, 0.5);
        assert_eq!(s.cpu, 1.0);
        assert_eq!(s.mem, 0.0);
        assert!((s.load() - (0.6 + 0.05 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn jitter_clamps_and_leaves_io_components_alone() {
        let s = UsageSample::new(0.9, 0.05, 0.3, 0.1);
        let j = s.with_jitter(0.2, -0.2);
        assert_eq!(j.cpu, 1.0, "clamped at the top");
        assert_eq!(j.mem, 0.0, "clamped at the bottom");
        assert_eq!(j.disk, s.disk);
        assert_eq!(j.net, s.net);
        assert_eq!(s.with_jitter(0.0, 0.0), s);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_component_panics() {
        UsageSample::new(f64::NAN, 0.0, 0.0, 0.0);
    }

    #[test]
    fn idle_test_uses_all_components() {
        assert!(UsageSample::idle().is_idle(0.1));
        assert!(!UsageSample::new(0.0, 0.0, 0.0, 0.5).is_idle(0.1));
        assert!(UsageSample::new(0.05, 0.05, 0.05, 0.05).is_idle(0.1));
    }

    #[test]
    fn config_slots_per_day() {
        assert_eq!(SamplingConfig::default().slots_per_day(), 288);
        assert_eq!(SamplingConfig::new(60).slots_per_day(), 24);
        assert_eq!(SamplingConfig::new(5).slot_of(0), 0);
        assert_eq!(SamplingConfig::new(5).slot_of(7), 1);
        assert_eq!(SamplingConfig::new(5).slot_of(1439), 287);
    }

    #[test]
    #[should_panic(expected = "divide 1440")]
    fn non_dividing_interval_panics() {
        SamplingConfig::new(7);
    }

    #[test]
    fn weekday_cycle_and_weekend() {
        assert_eq!(Weekday::from_day_number(0).name(), "Mon");
        assert_eq!(Weekday::from_day_number(6).name(), "Sun");
        assert_eq!(Weekday::from_day_number(7).name(), "Mon");
        assert!(Weekday::new(5).is_weekend());
        assert!(!Weekday::new(4).is_weekend());
    }

    #[test]
    fn window_rolls_days() {
        let cfg = SamplingConfig::new(480); // 3 slots/day for brevity
        let mut w = SampleWindow::new(cfg);
        assert_eq!(w.current.capacity(), 0, "a fresh window reserves nothing");
        for i in 0..7 {
            w.push(UsageSample::new(i as f64 / 10.0, 0.0, 0.0, 0.0));
            if w.partial_day().is_empty() {
                assert_eq!(w.current.capacity(), 0, "a rollover keeps no buffer");
            }
        }
        for period in w.completed() {
            assert_eq!(period.samples.capacity(), 3, "exactly one day, no slack");
        }
        assert_eq!(w.completed().len(), 2);
        assert_eq!(w.partial_day().len(), 1);
        assert_eq!(w.completed()[0].day, 0);
        assert_eq!(w.completed()[1].day, 1);
        assert_eq!(w.completed()[1].weekday.name(), "Tue");
        let taken = w.take_completed();
        assert_eq!(taken.len(), 2);
        assert!(w.completed().is_empty());
    }

    /// A run whose samples differ slot to slot, so a misplaced or dropped
    /// sample shows.
    fn ramp(count: usize) -> impl Iterator<Item = UsageSample> {
        (0..count).map(|i| UsageSample::new((i % 97) as f64 / 97.0, 0.1, 0.0, 0.0))
    }

    #[test]
    fn extend_run_matches_repeated_push() {
        let cfg = SamplingConfig::new(480); // 3 slots/day for brevity
        for offset in 0..3usize {
            for count in [0usize, 1, 2, 3, 4, 7, 11] {
                let mut bulk = SampleWindow::new(cfg);
                let mut slow = SampleWindow::new(cfg);
                for _ in 0..offset {
                    bulk.push(UsageSample::idle());
                    slow.push(UsageSample::idle());
                }
                bulk.extend_run(ramp(count));
                for sample in ramp(count) {
                    slow.push(sample);
                }
                assert_eq!(
                    bulk.completed(),
                    slow.completed(),
                    "offset={offset} count={count}"
                );
                assert_eq!(bulk.partial_day(), slow.partial_day());
                assert_eq!(bulk.current_day, slow.current_day);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_extend_run_equivalence(
            offset in 0usize..300,
            count in 0usize..1000,
            constant in proptest::arbitrary::any::<bool>(),
        ) {
            let cfg = SamplingConfig::default(); // 288 slots/day
            let run: Vec<UsageSample> = if constant {
                std::iter::repeat_n(UsageSample::new(0.3, 0.0, 0.0, 0.0), count).collect()
            } else {
                ramp(count).collect()
            };
            let mut bulk = SampleWindow::new(cfg);
            let mut slow = SampleWindow::new(cfg);
            for _ in 0..offset {
                bulk.push(UsageSample::idle());
                slow.push(UsageSample::idle());
            }
            bulk.extend_run(run.iter().copied());
            for &sample in &run {
                slow.push(sample);
            }
            proptest::prop_assert_eq!(bulk.completed(), slow.completed());
            proptest::prop_assert_eq!(bulk.partial_day(), slow.partial_day());
            proptest::prop_assert_eq!(bulk.current_day, slow.current_day);
            for period in bulk.completed().iter().chain(slow.completed()) {
                proptest::prop_assert_eq!(period.samples.capacity(), cfg.slots_per_day());
            }
            for w in [&bulk, &slow] {
                proptest::prop_assert!(w.current.capacity() <= cfg.slots_per_day());
                if w.partial_day().is_empty() {
                    proptest::prop_assert_eq!(w.current.capacity(), 0);
                }
            }
        }
    }

    #[test]
    fn day_period_metrics() {
        let day = DayPeriod {
            day: 0,
            weekday: Weekday::new(0),
            samples: vec![
                UsageSample::idle(),
                UsageSample::new(0.9, 0.1, 0.0, 0.0),
                UsageSample::idle(),
                UsageSample::idle(),
            ],
        };
        assert_eq!(day.idle_fraction(0.1), 0.75);
        assert_eq!(day.load_curve().len(), 4);
        assert!(day.load_curve()[1] > 0.5);
    }

    #[test]
    fn display_formats_percentages() {
        let s = UsageSample::new(0.25, 0.5, 0.0, 1.0);
        assert_eq!(s.to_string(), "cpu=25% mem=50% disk=0% net=100%");
    }
}
