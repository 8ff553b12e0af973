//! The linear-scan reference query, [`Trader::query_reference`].

use super::{OfferId, Preference, ServiceOffer, Trader, TraderError};
use crate::constraint;
use std::cmp::Ordering;

impl Trader {
    /// The pre-index linear-scan implementation, retained as the
    /// oracle for `tests/trader_parity.rs` and as the honest baseline for
    /// the before/after benchmarks. Semantically identical to
    /// [`Trader::query`] (including RNG consumption under `random`), minus
    /// the indexes and plan cache. It reads each offer through the public
    /// view a remote importer would receive, built for every offer first.
    ///
    /// # Errors
    ///
    /// Fails when the constraint or preference strings are malformed.
    pub fn query_reference(
        &mut self,
        service_type: &str,
        constraint_str: &str,
        preference_str: &str,
        max_offers: usize,
    ) -> Result<Vec<ServiceOffer>, TraderError> {
        let expr = constraint::parse(constraint_str).map_err(TraderError::BadConstraint)?;
        let preference = Preference::parse(preference_str).map_err(TraderError::BadPreference)?;
        self.queries += 1;

        let views: Vec<ServiceOffer> = (1..self.next_id)
            .filter_map(|id| self.offer(OfferId(id)))
            .collect();
        let mut matched: Vec<&ServiceOffer> = views
            .iter()
            .filter(|o| o.service_type == service_type)
            .filter(|o| constraint::matches(&expr, &o.properties))
            .collect();

        match &preference {
            Preference::First => {} // table iteration = export order by id
            Preference::Random => {
                let mut owned: Vec<&ServiceOffer> = std::mem::take(&mut matched);
                self.rng.shuffle(&mut owned);
                matched = owned;
            }
            Preference::Max(expr) | Preference::Min(expr) => {
                let minimise = matches!(preference, Preference::Min(_));
                let mut keyed: Vec<(Option<f64>, &ServiceOffer)> = matched
                    .into_iter()
                    .map(|o| {
                        let key = constraint::eval(expr, &o.properties)
                            .ok()
                            .and_then(|v| v.as_f64());
                        (key, o)
                    })
                    .collect();
                keyed.sort_by(|(ka, oa), (kb, ob)| {
                    match (ka, kb) {
                        (Some(a), Some(b)) => {
                            let ord = a.partial_cmp(b).unwrap_or(Ordering::Equal);
                            if minimise {
                                ord
                            } else {
                                ord.reverse()
                            }
                        }
                        (Some(_), None) => Ordering::Less, // defined first
                        (None, Some(_)) => Ordering::Greater,
                        (None, None) => Ordering::Equal,
                    }
                    .then(oa.id.cmp(&ob.id))
                });
                matched = keyed.into_iter().map(|(_, o)| o).collect();
            }
        }

        Ok(matched.into_iter().take(max_offers).cloned().collect())
    }
}
