//! Structured quarantine reporting for supervised execution.
//!
//! A work item whose evaluation panics is *quarantined* at once (see
//! [`crate::supervise`]): recorded here with enough identity (plan index,
//! human label, derived seed) to replay it in isolation, while the pool
//! keeps running. The report serializes as `sdnav-quarantine/v1`.

use sdnav_json::{Json, ToJson};

/// One work item whose evaluation panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Position of the item in the canonical plan order.
    pub index: usize,
    /// Human-readable identity of the item (its grid coordinates).
    pub label: String,
    /// The identity-derived RNG seed the item ran with, for replay.
    pub seed: u64,
    /// The panic payload (when it was a string).
    pub panic_message: String,
}

impl ToJson for QuarantineRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::Num(self.index as f64)),
            ("item", Json::str(&self.label)),
            // Seeds use the full u64 range; serialize as a decimal string
            // so the f64-backed JSON layer cannot round them.
            ("seed", Json::str(self.seed.to_string())),
            ("panic_message", Json::str(&self.panic_message)),
        ])
    }
}

/// Every quarantined item of one supervised run.
///
/// Serialized as `sdnav-quarantine/v1`. An empty report means the run
/// needed no quarantine at all (it is still produced, so callers can gate
/// on [`QuarantineReport::is_empty`] rather than an `Option`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Quarantined items in plan order.
    pub records: Vec<QuarantineRecord>,
}

impl QuarantineReport {
    /// Whether no item was quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of quarantined items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }
}

impl ToJson for QuarantineReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(sdnav_json::schema::QUARANTINE)),
            ("quarantined", Json::Num(self.records.len() as f64)),
            (
                "cells",
                Json::Arr(self.records.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_schema_and_records() {
        let report = QuarantineReport {
            records: vec![QuarantineRecord {
                index: 3,
                label: "sim x=0 Small supervisor".into(),
                seed: u64::MAX,
                panic_message: "boom".into(),
            }],
        };
        assert!(!report.is_empty());
        assert_eq!(report.len(), 1);
        let json = sdnav_json::to_string(&report);
        assert!(json.contains("sdnav-quarantine/v1"));
        assert!(json.contains("\"panic_message\":\"boom\""));
        // u64::MAX survives as a decimal string, not a rounded float.
        assert!(json.contains("\"18446744073709551615\""));
    }

    #[test]
    fn empty_report_is_empty() {
        let report = QuarantineReport::default();
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
        assert!(sdnav_json::to_string(&report).contains("\"quarantined\":0"));
    }
}
