//! Global Usage Pattern Analyzer — cluster-level pattern aggregation.
//!
//! "The LUPA executes in each cluster node that is a user workstation and
//! collects data about its user usage patterns... Each node's usage pattern
//! is periodically uploaded to the GUPA. This information is made available
//! to the GRM, which can make better scheduling decisions due to the
//! possibility of predicting a node's idle periods" (§4).
//!
//! [`GupaState`] receives completed day-periods per node, trains a
//! [`LupaModel`] per node once enough history accumulates, and answers the
//! GRM's question: *P(node stays idle for the next H minutes)*.
//!
//! Storage is a node-indexed table of [`GupaCell`]s rather than a map:
//! every upload call site uploads the node's *own* periods, so the state is
//! node-partitioned by construction. The report flush splits the table in
//! lock-step with the node table and hands the disjoint `&mut` cell slices
//! to its chunks, so upload digestion (the curve reduction *and* the
//! expensive retrain) runs on every core. Only the upload counter is
//! shared; chunks count locally and the coordinator adds the partial counts
//! when they join. The lazy slot walk digests into the same table through
//! the same per-cell path.
//!
//! A cell keeps day *curves*, not raw samples. The learner's only read of
//! an uploaded [`DayPeriod`] is its weekday and its [`day_features`] curve
//! (96 points at the default [`LupaConfig`]), and the trained model retains
//! exactly that per day, so the period is reduced on arrival and dropped:
//! 0.8 kB per node-day instead of the 9.2 kB of 288 four-component samples,
//! with every model bit-identical to one trained on the raw history.
//!
//! Nodes that uploaded identical histories share one model: the cell holds
//! it behind an `Arc`, and a node's first retrain copies it
//! ([`Arc::make_mut`]). Build-time warm-up digests each distinct owner trace
//! once and hands every other node with that trace a copy of the cell
//! (`GupaState::upload_same_as`).

use crate::types::NodeId;
use integrade_usage::patterns::{day_features, LupaConfig, LupaModel};
use integrade_usage::predict::{IdlePredictor, LupaPredictor, PredictionContext};
use integrade_usage::sample::{DayPeriod, UsageSample, Weekday};
use std::sync::Arc;

/// Minimum training days before a model is trusted.
pub const MIN_TRAINING_DAYS: usize = 7;

/// One node's slice of the GUPA: the feature curves of its uploaded days.
/// Below [`MIN_TRAINING_DAYS`] they wait in `pending`; at the threshold the
/// model is trained from them, and from then on the model's retained
/// [`LupaModel::days`] are the single copy of the history, grown by
/// [`LupaModel::retrain`]. Plain owned data — a flush chunk can digest
/// uploads into its nodes' cells without touching any other node's state.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GupaCell {
    pending: Vec<(Weekday, Vec<f64>)>,
    /// Shared copy-on-write: cells cloned from one warm-up digest share the
    /// model until a retrain copies it.
    model: Option<Arc<LupaModel>>,
}

impl GupaCell {
    /// Digests a batch of completed days into this cell: reduces the
    /// periods to their feature curves and (re)trains the model once enough
    /// days exist — once per batch, however many days it holds or where in
    /// it the history reaches [`MIN_TRAINING_DAYS`]. A model is fit over its
    /// whole history, so one batch trains the model a digest per day would.
    /// Returns whether the batch counted as an upload call (empty ones are
    /// ignored, matching the protocol's no-op on an empty report).
    ///
    /// This is the cell-side half of [`GupaState::upload`]. The lazy walk
    /// calls it against the cell table with every day one catch-up
    /// completed, counts one upload per day, and the coordinator folds the
    /// counts back in with [`GupaState::add_uploads`].
    pub fn digest(&mut self, config: LupaConfig, periods: Vec<DayPeriod>) -> bool {
        if periods.is_empty() {
            return false;
        }
        if let Some(model) = &mut self.model {
            Arc::make_mut(model).retrain(&periods);
            return true;
        }
        self.pending.extend(
            periods
                .iter()
                .map(|p| (p.weekday, day_features(p, config.feature_len))),
        );
        if self.pending.len() >= MIN_TRAINING_DAYS {
            let days = std::mem::take(&mut self.pending);
            self.model = Some(Arc::new(LupaModel::train_curves(days, config)));
        }
        true
    }

    /// The stored days in arrival order, as `(weekday, feature curve)`.
    fn day_curves(&self) -> impl Iterator<Item = (Weekday, &[f64])> {
        let trained = self.model.iter().flat_map(|m| m.days());
        self.pending
            .iter()
            .map(|(weekday, curve)| (*weekday, curve.as_slice()))
            .chain(trained.map(|d| (d.weekday, d.features.as_slice())))
    }
}

/// Cluster-level usage-pattern store.
#[derive(Debug, Default)]
pub struct GupaState {
    /// Node-indexed cells, grown on demand (index = `NodeId.0`).
    cells: Vec<GupaCell>,
    config: LupaConfig,
    uploads: u64,
}

impl GupaState {
    /// Creates an empty GUPA with the given analysis configuration.
    pub fn new(config: LupaConfig) -> Self {
        GupaState {
            cells: Vec::new(),
            config,
            uploads: 0,
        }
    }

    /// The analysis configuration models are trained with.
    pub fn config(&self) -> LupaConfig {
        self.config
    }

    /// Receives a node's completed periods (the LUPA upload). Retrains the
    /// node's model when enough history exists.
    pub fn upload(&mut self, node: NodeId, periods: Vec<DayPeriod>) {
        let config = self.config;
        if self.cell_mut(node).digest(config, periods) {
            self.uploads += 1;
        }
    }

    /// Receives for `node` the upload `like` received as its only one, and
    /// counts it: `node`'s cell becomes a copy of `like`'s, sharing the
    /// model until either node retrains. Training is a pure function of the
    /// periods and [`LupaConfig::seed`], so this equals digesting the same
    /// periods again — how warm-up learns each distinct trace once.
    pub(crate) fn upload_same_as(&mut self, node: NodeId, like: NodeId) {
        let cell = self.cell(like).expect("`like` has uploaded").clone();
        *self.cell_mut(node) = cell;
        self.uploads += 1;
    }

    /// Mutable access to the node-indexed cell table, grown to cover at
    /// least `nodes` entries — the report flush slices this with
    /// `split_at_mut` so each chunk digests its own nodes' uploads.
    pub fn cells_mut(&mut self, nodes: usize) -> &mut [GupaCell] {
        if self.cells.len() < nodes {
            self.cells.resize_with(nodes, GupaCell::default);
        }
        &mut self.cells
    }

    /// Folds workers' partial upload counts into the global counter (a
    /// slot frame's merge, or the report flush's; counts are
    /// order-independent).
    pub fn add_uploads(&mut self, count: u64) {
        self.uploads += count;
    }

    fn cell_mut(&mut self, node: NodeId) -> &mut GupaCell {
        let i = node.0 as usize;
        if self.cells.len() <= i {
            self.cells.resize_with(i + 1, GupaCell::default);
        }
        &mut self.cells[i]
    }

    fn cell(&self, node: NodeId) -> Option<&GupaCell> {
        self.cells.get(node.0 as usize)
    }

    /// Number of uploads received.
    pub fn uploads(&self) -> u64 {
        self.uploads
    }

    /// Whether a trusted model exists for `node`.
    pub fn has_model(&self, node: NodeId) -> bool {
        self.cell(node).is_some_and(|c| c.model.is_some())
    }

    /// The trained model for a node, if any.
    pub fn model(&self, node: NodeId) -> Option<&LupaModel> {
        self.cell(node)?.model.as_deref()
    }

    /// The days uploaded for a node so far, in arrival order, as the
    /// `(weekday, feature curve)` pairs the cell stores. Exposed so tests
    /// can pin the jittered histories and show that the jitter moved
    /// nothing execution can see.
    pub fn day_curves(&self, node: NodeId) -> impl Iterator<Item = (Weekday, &[f64])> {
        self.cell(node).into_iter().flat_map(GupaCell::day_curves)
    }

    /// Days of history held for a node.
    pub fn history_days(&self, node: NodeId) -> usize {
        self.cell(node).map_or(0, |c| {
            c.pending.len() + c.model.as_ref().map_or(0, |m| m.days().len())
        })
    }

    /// P(node stays idle through the next `horizon_mins`), given the day so
    /// far. `None` when no trusted model exists — the GRM then falls back to
    /// availability-only ranking, exactly the paper's "hint, not guarantee"
    /// stance. `loads` is scratch for the day's load curve: a ranking pass
    /// hands the same buffer to every node's call.
    #[allow(clippy::too_many_arguments)]
    pub fn predict_idle(
        &self,
        node: NodeId,
        weekday: Weekday,
        minute_of_day: u32,
        partial_day: &[UsageSample],
        slots_per_day: usize,
        horizon_mins: u32,
        loads: &mut Vec<f64>,
    ) -> Option<f64> {
        let model = self.model(node)?;
        loads.clear();
        loads.extend(partial_day.iter().map(UsageSample::load));
        let predictor = LupaPredictor::new(model);
        Some(predictor.prob_idle_for(&PredictionContext {
            weekday,
            minute_of_day,
            partial_load: loads,
            slots_per_day,
            horizon_mins,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use integrade_usage::sample::SamplingConfig;

    fn day(day_number: u64, shape: impl Fn(f64) -> f64) -> DayPeriod {
        let cfg = SamplingConfig::new(15);
        DayPeriod {
            day: day_number,
            weekday: Weekday::from_day_number(day_number),
            samples: (0..cfg.slots_per_day())
                .map(|slot| {
                    let hour = slot as f64 * 24.0 / cfg.slots_per_day() as f64;
                    let v = shape(hour).clamp(0.0, 1.0);
                    UsageSample::new(v, v * 0.5, 0.0, 0.0)
                })
                .collect(),
        }
    }

    fn office(hour: f64) -> f64 {
        if (9.0..18.0).contains(&hour) {
            0.85
        } else {
            0.02
        }
    }

    /// Two weeks of office days and idle weekends.
    fn history() -> Vec<DayPeriod> {
        (0..14)
            .map(|d| {
                if Weekday::from_day_number(d).is_weekend() {
                    day(d, |_| 0.02)
                } else {
                    day(d, office)
                }
            })
            .collect()
    }

    fn gupa_with_history() -> GupaState {
        let mut gupa = GupaState::new(LupaConfig::default());
        gupa.upload(NodeId(1), history());
        gupa
    }

    #[test]
    fn no_model_until_enough_history() {
        let mut gupa = GupaState::new(LupaConfig::default());
        gupa.upload(NodeId(1), vec![day(0, office)]);
        assert!(!gupa.has_model(NodeId(1)));
        assert!(gupa
            .predict_idle(
                NodeId(1),
                Weekday::new(0),
                600,
                &[],
                96,
                60,
                &mut Vec::new()
            )
            .is_none());
        // Accumulate past the threshold.
        gupa.upload(NodeId(1), (1..8).map(|d| day(d, office)).collect());
        assert!(gupa.has_model(NodeId(1)));
        assert_eq!(gupa.history_days(NodeId(1)), 8);
    }

    #[test]
    fn empty_upload_is_ignored() {
        let mut gupa = GupaState::new(LupaConfig::default());
        gupa.upload(NodeId(1), vec![]);
        assert_eq!(gupa.uploads(), 0);
    }

    #[test]
    fn curve_store_trains_the_model_raw_history_would() {
        // Three regimes with per-day amplitude drift, so k and the
        // assignments move as days arrive.
        let raw: Vec<DayPeriod> = (0..21)
            .map(|d| {
                let drift = 0.01 * d as f64;
                match d % 3 {
                    0 => day(d, |h| office(h) - drift),
                    1 => day(d, |_| 0.02 + drift),
                    _ => day(d, |_| 0.9 - drift),
                }
            })
            .collect();
        let config = LupaConfig::default();
        let mut daily = GupaCell::default();
        for len in 1..=raw.len() {
            // The reference walk's shape: one completed day per upload call.
            assert!(daily.digest(config, vec![raw[len - 1].clone()]));
            assert_eq!(daily.day_curves().count(), len);
            if len < MIN_TRAINING_DAYS {
                assert!(daily.model.is_none());
                continue;
            }
            let trained = LupaModel::train(&raw[..len], config);
            assert_eq!(daily.model.as_deref(), Some(&trained), "daily, {len} days");
            // Warm-up's shape: the whole history in one call.
            let mut bulk = GupaCell::default();
            bulk.digest(config, raw[..len].to_vec());
            assert_eq!(bulk.model.as_deref(), Some(&trained), "bulk, {len} days");
            // And a warm-up followed by the reference walk's daily uploads.
            let mut mixed = GupaCell::default();
            mixed.digest(config, raw[..MIN_TRAINING_DAYS - 2].to_vec());
            for period in &raw[MIN_TRAINING_DAYS - 2..len] {
                mixed.digest(config, vec![period.clone()]);
            }
            assert_eq!(mixed.model.as_deref(), Some(&trained), "mixed, {len} days");
        }
    }

    #[test]
    fn a_batch_crossing_the_training_threshold_trains_the_daily_model() {
        let raw: Vec<DayPeriod> = (0..11)
            .map(|d| day(d, |h| office(h) - 0.01 * d as f64))
            .collect();
        let config = LupaConfig::default();
        let (mut batched, mut daily) = (GupaCell::default(), GupaCell::default());
        let first = MIN_TRAINING_DAYS - 3;
        batched.digest(config, raw[..first].to_vec());
        assert!(batched.model.is_none());
        // One call from below the threshold to four days past it.
        assert!(batched.digest(config, raw[first..].to_vec()));
        for period in &raw {
            daily.digest(config, vec![period.clone()]);
        }
        assert_eq!(batched, daily);
        assert_eq!(
            batched.model.as_deref(),
            Some(&LupaModel::train(&raw, config))
        );
        assert!(batched.pending.is_empty());
    }

    #[test]
    fn a_batch_retrain_leaves_a_copied_siblings_model_alone() {
        let mut gupa = gupa_with_history();
        gupa.upload_same_as(NodeId(4), NodeId(1));
        let original = gupa.model(NodeId(1)).cloned().unwrap();
        let batch: Vec<DayPeriod> = (14..17).map(|d| day(d, |_| 0.9)).collect();
        gupa.upload(NodeId(4), batch.clone());
        assert_eq!(gupa.model(NodeId(1)), Some(&original));
        assert_eq!(gupa.history_days(NodeId(1)), 14);
        let whole = [history(), batch].concat();
        let expected = LupaModel::train(&whole, LupaConfig::default());
        assert_eq!(gupa.model(NodeId(4)), Some(&expected));
        assert_eq!(gupa.history_days(NodeId(4)), 17);
    }

    #[test]
    fn worker_side_digestion_matches_sequential_uploads() {
        let mut seq = GupaState::new(LupaConfig::default());
        for d in 0..8 {
            seq.upload(NodeId(3), vec![day(d, office)]);
        }
        // The slot-frame and flush path: digest into the cell table, fold
        // the count back.
        let mut par = GupaState::new(LupaConfig::default());
        let config = par.config();
        let mut counted = 0u64;
        {
            let cells = par.cells_mut(4);
            for d in 0..8 {
                if cells[3].digest(config, vec![day(d, office)]) {
                    counted += 1;
                }
            }
            assert!(!cells[3].digest(config, vec![]), "empty calls don't count");
        }
        par.add_uploads(counted);
        assert_eq!(par.uploads(), seq.uploads());
        assert_eq!(par.history_days(NodeId(3)), seq.history_days(NodeId(3)));
        assert!(par.has_model(NodeId(3)) && seq.has_model(NodeId(3)));
        assert_eq!(par.day_curves(NodeId(3)).count(), 8);
        assert_eq!(par.day_curves(NodeId(0)).count(), 0);
    }

    #[test]
    fn a_copied_upload_shares_the_model_until_a_retrain() {
        let mut gupa = gupa_with_history();
        let original = gupa.model(NodeId(1)).cloned();
        gupa.upload_same_as(NodeId(4), NodeId(1));
        assert_eq!(gupa.uploads(), 2);
        let shared = |g: &GupaState| {
            let (a, b) = (g.cells[1].model.as_ref(), g.cells[4].model.as_ref());
            Arc::ptr_eq(a.unwrap(), b.unwrap())
        };
        assert!(shared(&gupa));
        gupa.upload(NodeId(4), vec![day(14, |_| 0.9)]);
        assert!(!shared(&gupa), "the retrain copied");
        assert_eq!(gupa.model(NodeId(1)).cloned(), original);
        assert_eq!(gupa.history_days(NodeId(4)), 15);
        // A copy of a cell below the threshold carries its pending days.
        gupa.upload(NodeId(6), vec![day(0, office)]);
        gupa.upload_same_as(NodeId(7), NodeId(6));
        assert_eq!(gupa.history_days(NodeId(7)), 1);
        assert!(!gupa.has_model(NodeId(7)));
    }

    #[test]
    fn predicts_overnight_idleness() {
        let gupa = gupa_with_history();
        // Tuesday 20:00 after a normal office day.
        let partial: Vec<UsageSample> = (0..80)
            .map(|slot| {
                let hour = slot as f64 * 0.25;
                let v = office(hour);
                UsageSample::new(v, v * 0.5, 0.0, 0.0)
            })
            .collect();
        let p = gupa
            .predict_idle(
                NodeId(1),
                Weekday::new(1),
                20 * 60,
                &partial,
                96,
                120,
                &mut Vec::new(),
            )
            .unwrap();
        assert!(p > 0.7, "overnight idle: {p}");
    }

    #[test]
    fn predicts_morning_reclaim() {
        let gupa = gupa_with_history();
        // Wednesday 08:30, idle so far — owner arrives at 09:00.
        let partial: Vec<UsageSample> = (0..34).map(|_| UsageSample::idle()).collect();
        let p = gupa
            .predict_idle(
                NodeId(1),
                Weekday::new(2),
                8 * 60 + 30,
                &partial,
                96,
                180,
                &mut Vec::new(),
            )
            .unwrap();
        assert!(p < 0.4, "owner about to return: {p}");
    }
}
