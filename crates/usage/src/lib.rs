//! # integrade-usage
//!
//! Usage-pattern collection, clustering and idle-period prediction — the
//! analytics behind InteGrade's LUPA (Local Usage Pattern Analyzer) and
//! GUPA (Global Usage Pattern Analyzer) components.
//!
//! The paper's pipeline (§3): sample node usage every few minutes
//! ([`sample`]), group samples into day-long periods, cluster the periods
//! into behavioural categories ([`kmeans`], which [`patterns`] trains with;
//! [`kmedoids`] with DTW for time-shifted routines), and use the categories
//! to forecast how long an idle node will stay idle ([`predict`]) — the hint
//! the GRM's scheduler consumes.
//!
//! # Examples
//!
//! ```
//! use integrade_usage::sample::{DayPeriod, SamplingConfig, UsageSample, Weekday};
//! use integrade_usage::patterns::{LupaConfig, LupaModel};
//!
//! // Two synthetic days: one busy, one idle.
//! let cfg = SamplingConfig::new(60); // hourly samples for brevity
//! let make_day = |day: u64, level: f64| DayPeriod {
//!     day,
//!     weekday: Weekday::from_day_number(day),
//!     samples: vec![UsageSample::new(level, level, 0.0, 0.0); cfg.slots_per_day()],
//! };
//! let days = vec![make_day(0, 0.9), make_day(1, 0.9), make_day(2, 0.0), make_day(3, 0.0)];
//! let model = LupaModel::train(&days, LupaConfig { feature_len: 24, ..Default::default() });
//! assert_eq!(model.categories().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kmeans;
pub mod kmedoids;
pub mod patterns;
pub mod predict;
pub mod sample;
pub mod series;

pub use patterns::{Category, CategoryLabel, EvolutionReport, LupaConfig, LupaModel};
pub use predict::{
    brier_score, precision_recall, IdlePredictor, LupaPredictor, PersistencePredictor,
    PrecisionRecall, PredictionContext,
};
pub use sample::{DayPeriod, SampleWindow, SamplingConfig, UsageSample, Weekday};
