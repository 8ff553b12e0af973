//! `usage.lupa.train_ns`: train one node's pattern model from a week of
//! history (resample, select k, cluster, label).

use super::fixture::{day_periods, Point, HISTORY_DAYS};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_usage::patterns::{LupaConfig, LupaModel};
use std::hint::black_box;

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let periods = day_periods(point.seed, HISTORY_DAYS);
    ns_per_op(|| LupaModel::train(black_box(&periods), LupaConfig::default()))
}
