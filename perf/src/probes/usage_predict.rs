//! `usage.predict_ns`: one idle forecast from a trained model at noon.

use super::fixture::{day_periods, Point, HISTORY_DAYS};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_usage::patterns::{LupaConfig, LupaModel};
use integrade_usage::predict::{IdlePredictor, LupaPredictor, PredictionContext};
use integrade_usage::sample::Weekday;
use std::hint::black_box;

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let periods = day_periods(point.seed, HISTORY_DAYS);
    let model = LupaModel::train(&periods, LupaConfig::default());
    let predictor = LupaPredictor::new(&model);
    let morning: Vec<f64> = periods[0].load_curve()[..144].to_vec();
    ns_per_op(|| {
        predictor.prob_idle_for(black_box(&PredictionContext {
            weekday: Weekday::new(1),
            minute_of_day: 720,
            partial_load: &morning,
            slots_per_day: 288,
            horizon_mins: 120,
        }))
    })
}
