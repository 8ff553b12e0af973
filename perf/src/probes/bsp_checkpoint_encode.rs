//! `bsp.checkpoint.encode_ns`: snapshot a 4-process BSP job of 1 024
//! cells at a superstep boundary.

use super::fixture::Point;
use crate::measure::ns_per_op;
use integrade_bsp::apps::Stencil1d;
use integrade_bsp::checkpoint::checkpoint;
use integrade_bsp::runtime::BspRuntime;
use integrade_core::grm::GrmState;
use std::hint::black_box;

pub fn job() -> BspRuntime<Stencil1d> {
    let initial: Vec<f64> = (0..1024).map(|i| f64::from(i % 10)).collect();
    let mut runtime = BspRuntime::new(Stencil1d::partition(&initial, 4, u64::MAX / 2, 0.0, 1.0));
    for _ in 0..3 {
        runtime.step();
    }
    runtime
}

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let runtime = job();
    ns_per_op(|| checkpoint(black_box(&runtime)))
}
