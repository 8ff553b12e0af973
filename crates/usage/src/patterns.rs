//! Behavioural usage categories — the LUPA analysis stage.
//!
//! "Node usage information for short time intervals is grouped in larger
//! intervals called periods. After that, the system shall apply clustering
//! algorithms to this data in order to extract behavioral categories. It is
//! expected that these categories will map to common usage periods such as
//! lunch-breaks, nights, holidays, working periods…" (§3).
//!
//! [`LupaModel::train`] clusters a node's daily load curves into categories
//! (k chosen by silhouette), attaches a weekday histogram to each, and names
//! them with shape heuristics. [`LupaModel::retrain`] implements the paper's
//! "evolutionary process: as data is being collected and analyzed new
//! categories can appear, others can disappear".
//!
//! The only thing the learner reads of a [`DayPeriod`] is its weekday and
//! [`day_features`] — the load curve resampled to `feature_len` points and
//! smoothed. The model retains exactly that per training day
//! ([`TrainedDay`]), so a caller that keeps the model (or, before the first
//! training, the feature curves for [`LupaModel::train_curves`]) can drop
//! the raw samples: retraining on retained curves plus new periods is
//! bit-identical to training on the whole raw history.

use crate::kmeans::{select_k, KMeansModel};
use crate::sample::{DayPeriod, Weekday};
use crate::series::{euclidean, resample, resampled_point, smooth};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration for training a [`LupaModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LupaConfig {
    /// Length daily curves are resampled to before clustering.
    pub feature_len: usize,
    /// Candidate category counts (inclusive).
    pub k_min: usize,
    /// Candidate category counts (inclusive).
    pub k_max: usize,
    /// Load below this is "idle" for category labelling and prediction.
    pub idle_threshold: f64,
    /// Seed for clustering initialisation.
    pub seed: u64,
}

impl Default for LupaConfig {
    fn default() -> Self {
        LupaConfig {
            feature_len: 96, // 15-minute resolution
            k_min: 2,
            k_max: 6,
            idle_threshold: 0.15,
            seed: 0x4C55_5041, // "LUPA"
        }
    }
}

/// Heuristic shape label for a category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CategoryLabel {
    /// Idle essentially all day (weekends, holidays, spare machines).
    MostlyIdle,
    /// Busy during business hours, idle nights — the classic workstation.
    OfficeHours,
    /// Busy at night, idle by day.
    NightActive,
    /// Busy essentially all day (servers, simulation boxes).
    AlwaysBusy,
    /// No dominant shape.
    Irregular,
}

impl fmt::Display for CategoryLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CategoryLabel::MostlyIdle => "mostly-idle",
            CategoryLabel::OfficeHours => "office-hours",
            CategoryLabel::NightActive => "night-active",
            CategoryLabel::AlwaysBusy => "always-busy",
            CategoryLabel::Irregular => "irregular",
        };
        f.write_str(s)
    }
}

/// One behavioural category extracted from a node's history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Category {
    /// Dense id within the model.
    pub id: usize,
    /// Mean daily load curve (length = `feature_len`).
    pub centroid: Vec<f64>,
    /// Training days assigned to this category.
    pub day_count: usize,
    /// Distribution of those days over weekdays (Mon..Sun).
    pub weekday_hist: [usize; 7],
    /// Heuristic shape name.
    pub label: CategoryLabel,
}

impl Category {
    /// Fraction of this category's days falling on `weekday`.
    pub fn weekday_share(&self, weekday: Weekday) -> f64 {
        if self.day_count == 0 {
            return 0.0;
        }
        self.weekday_hist[weekday.index() as usize] as f64 / self.day_count as f64
    }
}

/// One training day retained by the model (feature-space curve).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedDay {
    /// Weekday of the original day.
    pub weekday: Weekday,
    /// Resampled load curve.
    pub features: Vec<f64>,
    /// Assigned category id.
    pub category: usize,
}

/// Changes observed across a retraining — the paper's category evolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionReport {
    /// Labels present after but not before.
    pub appeared: Vec<CategoryLabel>,
    /// Labels present before but not after.
    pub disappeared: Vec<CategoryLabel>,
    /// Category count before → after.
    pub k_before: usize,
    /// Category count after retraining.
    pub k_after: usize,
}

/// A node's trained usage-pattern model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LupaModel {
    config: LupaConfig,
    categories: Vec<Category>,
    days: Vec<TrainedDay>,
}

/// The feature-space curve of one day: its scalar load curve resampled to
/// `feature_len` points and smoothed over a three-point window — the same
/// values as `smooth(&resample(&period.load_curve(), feature_len), 1)`, bit
/// for bit, computed in one pass with the output as the only allocation.
///
/// # Panics
///
/// Panics if the period has no samples or `feature_len` is zero.
pub fn day_features(period: &DayPeriod, feature_len: usize) -> Vec<f64> {
    let samples = &period.samples;
    let point = |i: usize| resampled_point(samples.len(), feature_len, i, |j| samples[j].load());
    // `[previous, current, next]` resampled points around output slot `i`;
    // the ends average over the two points that exist.
    let mut window = [0.0, point(0), 0.0];
    let mut out = Vec::with_capacity(feature_len);
    for i in 0..feature_len {
        let has_next = i + 1 < feature_len;
        if has_next {
            window[2] = point(i + 1);
        }
        let present = &window[usize::from(i == 0)..if has_next { 3 } else { 2 }];
        out.push(present.iter().sum::<f64>() / present.len() as f64);
        window.rotate_left(1);
    }
    out
}

fn label_centroid(centroid: &[f64], idle_threshold: f64) -> CategoryLabel {
    let n = centroid.len();
    let idle_frac = centroid.iter().filter(|&&v| v < idle_threshold).count() as f64 / n as f64;
    if idle_frac > 0.85 {
        return CategoryLabel::MostlyIdle;
    }
    if idle_frac < 0.15 {
        return CategoryLabel::AlwaysBusy;
    }
    // Compare business hours (09:00–18:00) against night (00:00–06:00).
    let slot = |hour: f64| ((hour / 24.0) * n as f64) as usize;
    let mean = |lo: usize, hi: usize| -> f64 {
        centroid[lo..hi.min(n)].iter().sum::<f64>() / (hi.min(n) - lo).max(1) as f64
    };
    let day_load = mean(slot(9.0), slot(18.0));
    let night_load = mean(slot(0.0), slot(6.0));
    if day_load > 2.0 * night_load && day_load > idle_threshold {
        CategoryLabel::OfficeHours
    } else if night_load > 2.0 * day_load && night_load > idle_threshold {
        CategoryLabel::NightActive
    } else {
        CategoryLabel::Irregular
    }
}

impl LupaModel {
    /// Trains a model on a node's completed periods.
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty or contains empty days.
    pub fn train(periods: &[DayPeriod], config: LupaConfig) -> Self {
        Self::train_curves(
            periods
                .iter()
                .map(|p| (p.weekday, day_features(p, config.feature_len)))
                .collect(),
            config,
        )
    }

    /// Trains a model on days already reduced to `(weekday, day_features)`
    /// — what a store that dropped the raw samples holds. Equal to
    /// [`LupaModel::train`] over the periods the curves came from.
    ///
    /// # Panics
    ///
    /// Panics if `days` is empty.
    pub fn train_curves(days: Vec<(Weekday, Vec<f64>)>, config: LupaConfig) -> Self {
        assert!(
            !days.is_empty(),
            "LUPA training requires at least one period"
        );
        let (weekdays, features) = days.into_iter().unzip();
        Self::fit_days(weekdays, features, config)
    }

    /// Retrains with additional periods appended to the history, reporting
    /// how the category set evolved. The history is the model's own
    /// retained [`TrainedDay`] curves, so the result equals
    /// [`LupaModel::train`] over every period the model has ever seen.
    pub fn retrain(&mut self, new_periods: &[DayPeriod]) -> EvolutionReport {
        let before: Vec<CategoryLabel> = self.categories.iter().map(|c| c.label).collect();
        let (mut weekdays, mut features): (Vec<Weekday>, Vec<Vec<f64>>) =
            std::mem::take(&mut self.days)
                .into_iter()
                .map(|d| (d.weekday, d.features))
                .unzip();
        for period in new_periods {
            weekdays.push(period.weekday);
            features.push(day_features(period, self.config.feature_len));
        }
        *self = Self::fit_days(weekdays, features, self.config);
        let after: Vec<CategoryLabel> = self.categories.iter().map(|c| c.label).collect();
        EvolutionReport {
            appeared: after
                .iter()
                .filter(|l| !before.contains(l))
                .copied()
                .collect(),
            disappeared: before
                .iter()
                .filter(|l| !after.contains(l))
                .copied()
                .collect(),
            k_before: before.len(),
            k_after: after.len(),
        }
    }

    /// The one place that turns day curves into a model: picks `k` by
    /// silhouette, builds the categories with their weekday histograms and
    /// labels, and retains each day's curve with its assignment.
    fn fit_days(weekdays: Vec<Weekday>, features: Vec<Vec<f64>>, config: LupaConfig) -> Self {
        let k_max = config.k_max.min(features.len());
        let k_min = config.k_min.min(k_max);
        let (_, model): (usize, KMeansModel) = select_k(&features, k_min..=k_max, config.seed);
        let mut categories: Vec<Category> = model
            .centroids
            .into_iter()
            .enumerate()
            .map(|(id, centroid)| Category {
                id,
                label: label_centroid(&centroid, config.idle_threshold),
                centroid,
                day_count: 0,
                weekday_hist: [0; 7],
            })
            .collect();
        let days = weekdays
            .into_iter()
            .zip(features)
            .zip(model.assignments)
            .map(|((weekday, features), category)| {
                categories[category].day_count += 1;
                categories[category].weekday_hist[weekday.index() as usize] += 1;
                TrainedDay {
                    weekday,
                    features,
                    category,
                }
            })
            .collect();
        LupaModel {
            config,
            categories,
            days,
        }
    }

    /// The trained configuration.
    pub fn config(&self) -> LupaConfig {
        self.config
    }

    /// The extracted categories.
    pub fn categories(&self) -> &[Category] {
        &self.categories
    }

    /// The retained training days.
    pub fn days(&self) -> &[TrainedDay] {
        &self.days
    }

    /// Prior probability of each category on `weekday` (Laplace-smoothed).
    pub fn weekday_prior(&self, weekday: Weekday) -> Vec<f64> {
        let counts = self
            .categories
            .iter()
            .map(|c| c.weekday_hist[weekday.index() as usize] as f64 + 0.5);
        let total: f64 = counts.clone().sum();
        counts.map(|c| c / total).collect()
    }

    /// Classifies a complete feature-space day curve.
    pub fn classify(&self, features: &[f64]) -> usize {
        self.categories
            .iter()
            .map(|c| euclidean(&c.centroid, features))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("model has at least one category")
    }

    /// Posterior over categories given the day observed so far (`prefix`
    /// feature slots) on `weekday`. Combines the weekday prior with a
    /// distance-based likelihood on the observed prefix.
    pub fn posterior(&self, weekday: Weekday, prefix: &[f64]) -> Vec<f64> {
        let prior = self.weekday_prior(weekday);
        if prefix.is_empty() {
            return prior;
        }
        let len = prefix.len().min(self.config.feature_len);
        let mut weights: Vec<f64> = self
            .categories
            .iter()
            .zip(&prior)
            .map(|(c, p)| {
                let d = euclidean(&c.centroid[..len], &prefix[..len]);
                // Gaussian-ish likelihood on mean per-slot deviation.
                let per_slot = d / (len as f64).sqrt();
                p * (-8.0 * per_slot * per_slot).exp().max(1e-12)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        weights
    }

    /// Converts a day's partial load curve (native slot resolution) into the
    /// model's feature space prefix.
    pub fn prefix_features(&self, partial_load: &[f64], slots_per_day: usize) -> Vec<f64> {
        if partial_load.is_empty() {
            return Vec::new();
        }
        let frac = partial_load.len() as f64 / slots_per_day as f64;
        let target = ((self.config.feature_len as f64 * frac).round() as usize)
            .clamp(1, self.config.feature_len);
        smooth(&resample(partial_load, target), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{SamplingConfig, UsageSample};
    use integrade_simnet::rng::DetRng;

    /// Builds a synthetic day with the given hourly shape + noise.
    fn synth_day(day: u64, shape: impl Fn(f64) -> f64, rng: &mut DetRng) -> DayPeriod {
        let cfg = SamplingConfig::new(15); // 96 slots
        let samples = (0..cfg.slots_per_day())
            .map(|slot| {
                let hour = slot as f64 * 24.0 / cfg.slots_per_day() as f64;
                let base = shape(hour).clamp(0.0, 1.0);
                let jitter = rng.normal(0.0, 0.03);
                UsageSample::new((base + jitter).clamp(0.0, 1.0), base * 0.5, 0.0, 0.0)
            })
            .collect();
        DayPeriod {
            day,
            weekday: Weekday::from_day_number(day),
            samples,
        }
    }

    fn office(hour: f64) -> f64 {
        if (9.0..12.0).contains(&hour) || (13.0..18.0).contains(&hour) {
            0.8
        } else {
            0.03
        }
    }

    fn idle(_hour: f64) -> f64 {
        0.02
    }

    fn busy(_hour: f64) -> f64 {
        0.9
    }

    /// Two weeks: office-hours weekdays, idle weekends.
    fn two_weeks() -> Vec<DayPeriod> {
        let mut rng = DetRng::new(42);
        (0..14)
            .map(|day| {
                let weekday = Weekday::from_day_number(day);
                if weekday.is_weekend() {
                    synth_day(day, idle, &mut rng)
                } else {
                    synth_day(day, office, &mut rng)
                }
            })
            .collect()
    }

    #[test]
    fn recovers_weekday_weekend_split() {
        let model = LupaModel::train(&two_weeks(), LupaConfig::default());
        assert_eq!(model.categories().len(), 2, "should find 2 categories");
        let labels: Vec<CategoryLabel> = model.categories().iter().map(|c| c.label).collect();
        assert!(labels.contains(&CategoryLabel::OfficeHours), "{labels:?}");
        assert!(labels.contains(&CategoryLabel::MostlyIdle), "{labels:?}");
        // Weekend days all fall in the mostly-idle category.
        let idle_cat = model
            .categories()
            .iter()
            .find(|c| c.label == CategoryLabel::MostlyIdle)
            .unwrap();
        assert_eq!(idle_cat.day_count, 4);
        assert!(idle_cat.weekday_share(Weekday::new(5)) > 0.4);
        assert_eq!(idle_cat.weekday_share(Weekday::new(0)), 0.0);
    }

    #[test]
    fn weekday_prior_reflects_history() {
        let model = LupaModel::train(&two_weeks(), LupaConfig::default());
        let office_cat = model
            .categories()
            .iter()
            .position(|c| c.label == CategoryLabel::OfficeHours)
            .unwrap();
        let monday = model.weekday_prior(Weekday::new(0));
        let saturday = model.weekday_prior(Weekday::new(5));
        assert!(monday[office_cat] > 0.7);
        assert!(saturday[office_cat] < 0.3);
    }

    #[test]
    fn classify_maps_day_to_right_category() {
        let model = LupaModel::train(&two_weeks(), LupaConfig::default());
        let mut rng = DetRng::new(7);
        let fresh_office = synth_day(14, office, &mut rng); // a Monday
        let feats = day_features(&fresh_office, model.config().feature_len);
        let cat = model.classify(&feats);
        assert_eq!(model.categories()[cat].label, CategoryLabel::OfficeHours);
    }

    #[test]
    fn posterior_sharpens_with_evidence() {
        let model = LupaModel::train(&two_weeks(), LupaConfig::default());
        let office_cat = model
            .categories()
            .iter()
            .position(|c| c.label == CategoryLabel::OfficeHours)
            .unwrap();
        // Saturday, but the morning looks busy (owner came in to work):
        // evidence should pull probability toward office-hours vs the prior.
        let mut rng = DetRng::new(9);
        let busy_sat = synth_day(5, office, &mut rng);
        let half_day: Vec<f64> = busy_sat.load_curve()[..48].to_vec(); // until noon
        let prefix = model.prefix_features(&half_day, 96);
        let prior = model.weekday_prior(Weekday::new(5));
        let post = model.posterior(Weekday::new(5), &prefix);
        assert!(
            post[office_cat] > prior[office_cat],
            "post={post:?} prior={prior:?}"
        );
    }

    #[test]
    fn posterior_is_a_distribution() {
        let model = LupaModel::train(&two_weeks(), LupaConfig::default());
        let post = model.posterior(Weekday::new(2), &[0.8; 20]);
        let sum: f64 = post.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(post.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn retrain_reports_new_category() {
        let mut model = LupaModel::train(&two_weeks(), LupaConfig::default());
        // A new always-busy regime appears (machine converted to a server).
        let mut rng = DetRng::new(11);
        let busy_days: Vec<DayPeriod> = (14..24).map(|d| synth_day(d, busy, &mut rng)).collect();
        let report = model.retrain(&busy_days);
        assert!(
            report.appeared.contains(&CategoryLabel::AlwaysBusy),
            "{report:?}"
        );
        assert!(report.k_after >= report.k_before);
    }

    #[test]
    fn day_features_is_bit_identical_to_the_staged_pipeline() {
        // Down-sampled (288, 100), native (96) and interpolated (48, 2, 1)
        // days, and feature lengths down to one point.
        let mut rng = DetRng::new(0x4645_4154);
        for slots in [1usize, 2, 48, 96, 100, 288] {
            let period = DayPeriod {
                day: 0,
                weekday: Weekday::new(0),
                samples: (0..slots)
                    .map(|_| {
                        UsageSample::new(
                            rng.uniform_f64(),
                            rng.uniform_f64(),
                            rng.uniform_f64(),
                            rng.uniform_f64(),
                        )
                    })
                    .collect(),
            };
            for feature_len in [1usize, 2, 3, 24, 96] {
                let staged = smooth(&resample(&period.load_curve(), feature_len), 1);
                let fused = day_features(&period, feature_len);
                assert_eq!(
                    fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    staged.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "slots={slots} feature_len={feature_len}"
                );
            }
        }
    }

    #[test]
    fn retrain_equals_training_on_the_whole_history() {
        let mut rng = DetRng::new(23);
        let history: Vec<DayPeriod> = (0..21)
            .map(|d| match d % 3 {
                0 => synth_day(d, office, &mut rng),
                1 => synth_day(d, idle, &mut rng),
                _ => synth_day(d, busy, &mut rng),
            })
            .collect();
        let config = LupaConfig::default();
        let mut grown = LupaModel::train(&history[..7], config);
        for split in 7..history.len() {
            grown.retrain(&history[split..=split]);
            assert_eq!(
                grown,
                LupaModel::train(&history[..=split], config),
                "{split}"
            );
        }
    }

    #[test]
    fn label_heuristics() {
        let n = 96;
        let idle_c = vec![0.01; n];
        assert_eq!(label_centroid(&idle_c, 0.15), CategoryLabel::MostlyIdle);
        let busy_c = vec![0.9; n];
        assert_eq!(label_centroid(&busy_c, 0.15), CategoryLabel::AlwaysBusy);
        let mut office_c = vec![0.02; n];
        for value in office_c.iter_mut().take(72).skip(36) {
            *value = 0.8; // 09:00–18:00
        }
        assert_eq!(label_centroid(&office_c, 0.15), CategoryLabel::OfficeHours);
        let mut night_c = vec![0.02; n];
        for value in night_c.iter_mut().take(24) {
            *value = 0.8; // 00:00–06:00
        }
        assert_eq!(label_centroid(&night_c, 0.15), CategoryLabel::NightActive);
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn empty_training_panics() {
        LupaModel::train(&[], LupaConfig::default());
    }

    #[test]
    fn prefix_features_scales_with_progress() {
        let model = LupaModel::train(&two_weeks(), LupaConfig::default());
        assert!(model.prefix_features(&[], 96).is_empty());
        let quarter = model.prefix_features(&[0.5; 24], 96);
        assert_eq!(quarter.len(), 24); // 96 feature * (24/96)
        let full = model.prefix_features(&vec![0.5; 96], 96);
        assert_eq!(full.len(), 96);
    }

    #[test]
    fn single_day_trains_one_category() {
        let mut rng = DetRng::new(3);
        let model = LupaModel::train(&[synth_day(0, office, &mut rng)], LupaConfig::default());
        assert_eq!(model.categories().len(), 1);
        assert_eq!(model.days().len(), 1);
    }
}
