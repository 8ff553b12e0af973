//! `usage.kmeans.fit_ns`: one k-means fit (k = 3) over a week of daily
//! load curves at LUPA's feature length.

use super::fixture::{day_periods, Point, HISTORY_DAYS};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_usage::kmeans::{fit, KMeansConfig};
use integrade_usage::patterns::LupaConfig;
use integrade_usage::series::resample;
use std::hint::black_box;

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let feature_len = LupaConfig::default().feature_len;
    let curves: Vec<Vec<f64>> = day_periods(point.seed, HISTORY_DAYS)
        .iter()
        .map(|p| resample(&p.load_curve(), feature_len))
        .collect();
    ns_per_op(|| fit(black_box(&curves), KMeansConfig::new(3, 11)))
}
