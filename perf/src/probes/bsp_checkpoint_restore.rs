//! `bsp.checkpoint.restore_ns`: rebuild the BSP runtime from a snapshot.

use super::bsp_checkpoint_encode::job;
use super::fixture::Point;
use crate::measure::ns_per_op;
use integrade_bsp::apps::Stencil1d;
use integrade_bsp::checkpoint::{checkpoint, restore};
use integrade_core::grm::GrmState;
use std::hint::black_box;

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let snapshot = checkpoint(&job());
    ns_per_op(|| restore::<Stencil1d>(black_box(&snapshot)).expect("round trip"))
}
