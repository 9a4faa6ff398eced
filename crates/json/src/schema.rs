//! The workspace's versioned document schemas in one place.
//!
//! Every JSON artifact the workspace emits or consumes carries a
//! `"schema": "sdnav-<kind>/v<N>"` discriminator field. The string
//! constants used to be scattered across the emitting crates; they live
//! here so producers and consumers agree by construction, and so bumping
//! a version is a one-line change with every emit/parse site following.
//!
//! [`Envelope`] is the helper both sides use: [`Envelope::wrap`] prepends
//! the schema field when emitting, [`Envelope::expect`] checks it when
//! parsing — an unknown or missing version is a structured
//! [`JsonError`], never a panic.

use crate::{Json, JsonError};

/// `sdnav sweep` result payload (figure tables, sim and chaos rows).
pub const SWEEP_RESULTS: &str = "sdnav-sweep-results/v1";

/// Run-varying metrics block emitted next to sweep results.
pub const SWEEP_METRICS: &str = "sdnav-sweep-metrics/v1";

/// Static cost prediction for a proposed grid (`sweep --dry-run`,
/// `GET /v1/plan`).
pub const SWEEP_PLAN: &str = "sdnav-sweep-plan/v1";

/// Full chaos-campaign report with the outage-attribution ledger.
pub const CHAOS_REPORT: &str = "sdnav-chaos-report/v1";

/// Compact digest of a chaos report (array hashes + first/last rows).
pub const CHAOS_DIGEST: &str = "sdnav-chaos-digest/v1";

/// FMEA-generated chaos campaign plus per-mode expectation records
/// (`sdnav chaos generate`, `POST /v1/chaos/generate`).
pub const CHAOS_GENSPEC: &str = "sdnav-chaos-genspec/v1";

/// Survive-or-attribute verdict over a generated campaign run
/// (`sdnav chaos run --verdict`).
pub const CHAOS_VERDICT: &str = "sdnav-chaos-verdict/v1";

/// Checkpoint WAL header/cell/seal frames.
pub const CHECKPOINT: &str = "sdnav-checkpoint/v1";

/// Quarantine report for cells whose evaluation panicked.
pub const QUARANTINE: &str = "sdnav-quarantine/v1";

/// `sdnav serve` patch acknowledgement (`PATCH /v1/spec`).
pub const SERVE_PATCH: &str = "sdnav-serve-patch/v1";

/// `sdnav serve` service counters (`GET /v1/metrics`).
pub const SERVE_METRICS: &str = "sdnav-serve-metrics/v1";

/// `sdnav serve` health document (`GET /v1/healthz`).
pub const SERVE_HEALTH: &str = "sdnav-serve-health/v1";

/// `sdnav serve` structured error body.
pub const SERVE_ERROR: &str = "sdnav-serve-error/v1";

/// Versioned-document helper: wraps payload fields under a schema
/// discriminator and checks the discriminator on the way back in.
#[derive(Debug, Clone, Copy)]
pub struct Envelope;

impl Envelope {
    /// Builds a document object whose first field is
    /// `"schema": <schema>`, followed by `fields` in order.
    #[must_use]
    pub fn wrap(schema: &str, fields: Vec<(&str, Json)>) -> Json {
        let mut all = Vec::with_capacity(fields.len() + 1);
        all.push(("schema", Json::str(schema)));
        all.extend(fields);
        Json::obj(all)
    }

    /// Checks that `value` is an object declaring exactly `schema`, and
    /// returns the value for field access.
    ///
    /// # Errors
    ///
    /// Returns a structured [`JsonError`] when the field is missing, not
    /// a string, or names a different (e.g. future) version — callers
    /// surface the message instead of panicking on unknown input.
    pub fn expect<'a>(schema: &str, value: &'a Json) -> Result<&'a Json, JsonError> {
        let declared = value
            .field("schema")
            .map_err(|_| JsonError::decode(format!("missing `schema` field (want {schema:?})")))?
            .as_str()
            .map_err(|e| e.ctx("schema"))?;
        if declared != schema {
            return Err(JsonError::decode(format!(
                "unsupported schema {declared:?} (want {schema:?})"
            ))
            .ctx("schema"));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_puts_schema_first() {
        let doc = Envelope::wrap(SWEEP_RESULTS, vec![("rows", Json::Arr(vec![]))]);
        let json = doc.to_compact();
        assert!(
            json.starts_with("{\"schema\":\"sdnav-sweep-results/v1\""),
            "{json}"
        );
        assert!(Envelope::expect(SWEEP_RESULTS, &doc).is_ok());
    }

    #[test]
    fn expect_rejects_unknown_version_with_structured_error() {
        let doc = Envelope::wrap("sdnav-sweep-results/v9", vec![]);
        let err = Envelope::expect(SWEEP_RESULTS, &doc).unwrap_err();
        assert_eq!(
            err.to_string(),
            "schema: unsupported schema \"sdnav-sweep-results/v9\" (want \"sdnav-sweep-results/v1\")"
        );
    }

    #[test]
    fn expect_rejects_missing_and_nonstring_schema() {
        let missing = Json::obj(vec![("rows", Json::Arr(vec![]))]);
        assert!(Envelope::expect(CHECKPOINT, &missing)
            .unwrap_err()
            .to_string()
            .contains("missing `schema`"));
        let wrong_type = Json::obj(vec![("schema", Json::Num(1.0))]);
        assert!(Envelope::expect(CHECKPOINT, &wrong_type)
            .unwrap_err()
            .to_string()
            .starts_with("schema:"));
    }

    #[test]
    fn constants_follow_the_naming_convention() {
        for schema in [
            SWEEP_RESULTS,
            SWEEP_METRICS,
            SWEEP_PLAN,
            CHAOS_REPORT,
            CHAOS_DIGEST,
            CHAOS_GENSPEC,
            CHAOS_VERDICT,
            CHECKPOINT,
            QUARANTINE,
            SERVE_PATCH,
            SERVE_METRICS,
            SERVE_HEALTH,
            SERVE_ERROR,
        ] {
            assert!(schema.starts_with("sdnav-"), "{schema}");
            assert!(schema.ends_with("/v1"), "{schema}");
        }
    }
}
