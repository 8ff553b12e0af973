//! `core.gupa.digest_ns`: digest the upload that crosses the training
//! threshold: append the seventh day and train the node's model.

use super::fixture::{day_periods, Point, HISTORY_DAYS};
use crate::measure::ns_per_op_with_setup;
use integrade_core::grm::GrmState;
use integrade_core::gupa::GupaState;
use integrade_core::types::NodeId;
use integrade_usage::patterns::LupaConfig;

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let periods = day_periods(point.seed, HISTORY_DAYS);
    let (history, last) = periods.split_at(HISTORY_DAYS - 1);
    ns_per_op_with_setup(
        || {
            let mut gupa = GupaState::new(LupaConfig::default());
            gupa.upload(NodeId(0), history.to_vec());
            (gupa, last.to_vec())
        },
        |(mut gupa, day)| {
            gupa.upload(NodeId(0), day);
            gupa.has_model(NodeId(0))
        },
    )
}
