//! Layer probes: each drives one layer's public functions directly, at
//! the workload's operating point, and reports median ns per operation.
//!
//! One probe per file, so that an API a later refactor removes costs one
//! file. A probe times the layer alone with warm caches, so
//! `probe × count` is a floor on the layer's busy time in the run, not a
//! measurement of it; `unattributed_share` is what the floors leave.

pub mod fixture;

mod bsp_checkpoint_encode;
mod bsp_checkpoint_restore;
mod cdr_decode_status;
mod cdr_encode_status;
mod event_schedule_pop;
mod giop_frame_decode;
mod giop_frame_encode;
mod grm_candidates;
mod grm_handle_update;
mod gupa_digest;
mod hierarchy_summary;
mod kmeans_fit;
mod lupa_train;
mod orb_dispatch_cycle;
mod repo_get;
mod repo_store;
mod scheduler_rank;
mod trading_export;
mod trading_modify;
mod trading_query;
mod usage_predict;

use crate::metrics::ESTIMATE_LAYERS;
use fixture::Point;
use integrade_core::grm::GrmState;

/// A probe: median ns per operation at the point, given the shared GRM.
type Probe = fn(&Point, &mut GrmState) -> f64;

/// Every probe: its metric name and the function that measures it.
pub const PROBES: &[(&str, Probe)] = &[
    ("simnet.event.schedule_pop_ns", event_schedule_pop::run),
    ("orb.cdr.encode_status_ns", cdr_encode_status::run),
    ("orb.cdr.decode_status_ns", cdr_decode_status::run),
    ("orb.giop.frame_encode_ns", giop_frame_encode::run),
    ("orb.giop.frame_decode_ns", giop_frame_decode::run),
    ("orb.dispatch_cycle_ns", orb_dispatch_cycle::run),
    ("orb.trading.query_ns", trading_query::run),
    ("orb.trading.modify_ns", trading_modify::run),
    ("orb.trading.export_ns", trading_export::run),
    ("core.grm.handle_update_ns", grm_handle_update::run),
    ("core.grm.candidates_ns", grm_candidates::run),
    ("core.scheduler.rank_ns", scheduler_rank::run),
    ("usage.kmeans.fit_ns", kmeans_fit::run),
    ("usage.lupa.train_ns", lupa_train::run),
    ("usage.predict_ns", usage_predict::run),
    ("core.gupa.digest_ns", gupa_digest::run),
    ("bsp.checkpoint.encode_ns", bsp_checkpoint_encode::run),
    ("bsp.checkpoint.restore_ns", bsp_checkpoint_restore::run),
    ("core.repo.store_ns", repo_store::run),
    ("core.repo.get_ns", repo_get::run),
    ("core.hierarchy.summary_ns", hierarchy_summary::run),
];

/// Runs every probe at `point`. The probes that need a populated GRM
/// share one; each leaves every node registered and exporting.
pub fn run_all(point: &Point) -> Vec<(&'static str, f64)> {
    let mut grm = fixture::grm(point);
    PROBES
        .iter()
        .map(|(name, run)| (*name, run(point, &mut grm)))
        .collect()
}

/// Estimated busy seconds per layer: each probe times its exact count.
///
/// `value(name)` looks a probe (ns) or a count up by metric name;
/// `checkpoint_stores` is the one count with no metric of its own and
/// `nodes` the workload's population. Returns `(layer, est_busy_s)` in
/// [`ESTIMATE_LAYERS`] order.
pub fn estimates(
    value: &dyn Fn(&str) -> f64,
    checkpoint_stores: f64,
    nodes: f64,
) -> Vec<(&'static str, f64)> {
    let updates = value("core.grm.updates_accepted") + value("core.grm.updates_stale");
    let queries = value("orb.trading.queries");
    let messages = value("simnet.net.messages");
    // Every node uploads at every midnight and the ones past the training
    // threshold, which are those holding a model at the horizon, retrain.
    let trainings = value("core.gupa.uploads") * value("core.gupa.models") / nodes;
    let busy_ns = |layer: &str| -> f64 {
        match layer {
            "simnet.event" => value("simnet.event.schedule_pop_ns") * value("simnet.event.fired"),
            // Every message is framed once and parsed once.
            "orb.giop" => {
                (value("orb.giop.frame_encode_ns") + value("orb.giop.frame_decode_ns")) * messages
            }
            "orb.cdr" => {
                (value("orb.cdr.encode_status_ns") + value("orb.cdr.decode_status_ns")) * updates
            }
            "core.grm" => {
                value("core.grm.handle_update_ns") * updates
                    + value("core.grm.candidates_ns") * queries
            }
            "orb.trading" => {
                value("orb.trading.modify_ns") * value("core.grm.updates_accepted")
                    + value("orb.trading.query_ns") * queries
            }
            "core.scheduler" => value("core.scheduler.rank_ns") * queries,
            // A digest is an append and a training; the two probes are
            // timed apart, so the larger keeps the parent above its child.
            "core.gupa" => {
                value("core.gupa.digest_ns").max(value("usage.lupa.train_ns")) * trainings
            }
            "usage" => value("usage.lupa.train_ns") * trainings,
            // Every eviction recovers from the newest held replica.
            "core.repo" => {
                value("core.repo.store_ns") * checkpoint_stores
                    + value("core.repo.get_ns") * value("core.grid.evictions")
            }
            "core.hierarchy" => {
                value("core.hierarchy.summary_ns") * value("core.federation.summary_updates")
            }
            other => unreachable!("no estimate for layer {other}"),
        }
    };
    ESTIMATE_LAYERS
        .iter()
        .map(|(layer, _)| (*layer, busy_ns(layer) / 1e9))
        .collect()
}
