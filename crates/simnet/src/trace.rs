//! Lightweight event trace recording for tests and experiment harnesses.
//!
//! A [`TraceLog`] collects `(time, category, detail)` records during a
//! simulation run. Tests assert on ordering or counts; experiment harnesses
//! aggregate per category.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One recorded occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time of the occurrence.
    pub time: SimTime,
    /// Machine-matchable category, e.g. `"grm.schedule"`.
    pub category: String,
    /// Free-form human detail.
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.category, self.detail)
    }
}

/// An append-only record of simulation occurrences.
///
/// # Examples
///
/// ```
/// use integrade_simnet::trace::TraceLog;
/// use integrade_simnet::time::SimTime;
///
/// let mut log = TraceLog::new();
/// log.record(SimTime::from_secs(1), "job.start", "job 1 on node 3");
/// log.record(SimTime::from_secs(5), "job.done", "job 1");
/// assert_eq!(log.count("job.start"), 1);
/// assert!(log.first("job.done").is_some());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl TraceLog {
    /// Creates an enabled, empty log.
    pub fn new() -> Self {
        TraceLog {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled log; [`TraceLog::record`] becomes a no-op. Useful
    /// for benchmarks where tracing overhead would pollute measurements.
    pub fn disabled() -> Self {
        TraceLog {
            records: Vec::new(),
            enabled: false,
        }
    }

    /// Appends a record. The detail is rendered only when the log is
    /// enabled, so a disabled log costs hot paths no formatting: pass
    /// `format_args!(..)` rather than a `format!(..)` built up front.
    pub fn record(&mut self, time: SimTime, category: &str, detail: impl fmt::Display) {
        if self.enabled {
            self.records.push(TraceRecord {
                time,
                category: category.to_owned(),
                detail: detail.to_string(),
            });
        }
    }

    /// Appends a record whose detail is `prefix` followed by a decimal
    /// index — the common shape of per-node occurrences (`"node 17"`,
    /// `"update from 3"`). Produces exactly what
    /// `format!("{prefix}{index}")` would, without going through the
    /// formatting machinery.
    pub fn record_indexed(&mut self, time: SimTime, category: &str, prefix: &str, index: u64) {
        if !self.enabled {
            return;
        }
        let mut digits = [0u8; 20];
        let mut pos = digits.len();
        let mut rest = index;
        loop {
            pos -= 1;
            digits[pos] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let mut detail = String::with_capacity(prefix.len() + (digits.len() - pos));
        detail.push_str(prefix);
        detail.push_str(std::str::from_utf8(&digits[pos..]).expect("ascii digits"));
        self.records.push(TraceRecord {
            time,
            category: category.to_owned(),
            detail,
        });
    }

    /// All records, in insertion (and therefore time) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records whose category matches exactly.
    pub fn with_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.records.iter().filter(move |r| r.category == category)
    }

    /// Number of records in a category.
    pub fn count(&self, category: &str) -> usize {
        self.with_category(category).count()
    }

    /// First record in a category, if any.
    pub fn first(&self, category: &str) -> Option<&TraceRecord> {
        self.records.iter().find(|r| r.category == category)
    }

    /// Last record in a category, if any.
    pub fn last(&self, category: &str) -> Option<&TraceRecord> {
        self.records.iter().rev().find(|r| r.category == category)
    }

    /// True when `earlier` has at least one record strictly before every
    /// record of `later`. Vacuously false if either category is absent.
    pub fn happens_before(&self, earlier: &str, later: &str) -> bool {
        match (self.last(earlier), self.first(later)) {
            (Some(e), Some(l)) => e.time < l.time,
            _ => false,
        }
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_secs(1), "a", "one");
        log.record(SimTime::from_secs(2), "b", "two");
        log.record(SimTime::from_secs(3), "a", "three");
        assert_eq!(log.len(), 3);
        assert_eq!(log.count("a"), 2);
        assert_eq!(log.first("a").unwrap().detail, "one");
        assert_eq!(log.last("a").unwrap().detail, "three");
        assert!(log.first("missing").is_none());
    }

    #[test]
    fn happens_before_semantics() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_secs(1), "x", "");
        log.record(SimTime::from_secs(2), "x", "");
        log.record(SimTime::from_secs(3), "y", "");
        assert!(log.happens_before("x", "y"));
        assert!(!log.happens_before("y", "x"));
        assert!(!log.happens_before("x", "missing"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        struct NeverRendered;
        impl fmt::Display for NeverRendered {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("must not format")
            }
        }
        log.record(SimTime::ZERO, "a", NeverRendered);
        log.record_indexed(SimTime::ZERO, "a", "node ", 7);
        assert!(log.is_empty());
    }

    #[test]
    fn indexed_matches_format() {
        let mut log = TraceLog::new();
        for index in [0u64, 7, 10, 409, 18_446_744_073_709_551_615] {
            log.record_indexed(SimTime::ZERO, "c", "node ", index);
            assert_eq!(
                log.records().last().unwrap().detail,
                format!("node {index}")
            );
        }
        log.record(SimTime::from_secs(1), "c", format_args!("built {}", 1));
        assert_eq!(log.last("c").unwrap().detail, "built 1");
    }

    #[test]
    fn clear_empties() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, "a", "");
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn display_is_informative() {
        let r = TraceRecord {
            time: SimTime::from_secs(90),
            category: "job.done".into(),
            detail: "j1".into(),
        };
        assert_eq!(r.to_string(), "[1m30s] job.done: j1");
    }
}
