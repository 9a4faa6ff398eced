//! SARIF 2.1.0 output for audit reports.
//!
//! [SARIF](https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html)
//! is the interchange format GitHub code scanning ingests: uploading the
//! lint gate's report annotates findings inline on pull requests. The
//! emitter maps each [`Diagnostic`](crate::Diagnostic) to a SARIF result
//! (model paths become logical locations; the linted file, when known,
//! becomes the physical location) and ships the full SA001–SA035 rule
//! catalog as `tool.driver.rules` metadata.
//!
//! [`validate_sarif`] checks a document against the subset of the 2.1.0
//! schema GitHub requires (offline — no schema fetch), and is what the
//! test suite runs against every emitted report.

use sdnav_json::Json;

use crate::{AuditReport, Severity};

/// The stable rule catalog: `(id, short description)` for every code the
/// analysis pass can emit.
pub const RULES: &[(&str, &str)] = &[
    (
        "SA001",
        "Spec structure: zero-node cluster or empty role list",
    ),
    ("SA002", "Duplicate role or process names"),
    (
        "SA003",
        "Quorum requirement exceeds the available instances",
    ),
    (
        "SA004",
        "Grouped processes disagree about their block's quorum",
    ),
    ("SA005", "Supervisor and restart-mode configuration"),
    ("SA006", "Degenerate k-of-n structure"),
    (
        "SA007",
        "Dead RBD unit: zero structural Birnbaum importance",
    ),
    ("SA008", "Probability out of [0, 1] or NaN"),
    ("SA009", "MTTR at or above MTBF: availability below 50%"),
    ("SA010", "CTMC generator sanity"),
    ("SA011", "Simulator configuration sanity"),
    ("SA012", "Topology does not fit the spec"),
    ("SA013", "MTBF/MTTR pair mixes units"),
    ("SA014", "FIT-for-hours magnitude slip in a mean time"),
    ("SA015", "Rate or time used where a probability is expected"),
    (
        "SA016",
        "CTMC rates disagree with the spec's declared availability",
    ),
    (
        "SA017",
        "Simulation horizon too short for the model's rates",
    ),
    (
        "SA018",
        "Specs of one sweep grid disagree about a field's unit",
    ),
    ("SA019", "Unresolvable or ambiguous unit"),
    ("SA020", "Campaign target does not exist in the deployment"),
    (
        "SA021",
        "Campaign injection scheduled at or beyond the horizon",
    ),
    (
        "SA022",
        "Maintenance window(s) take down a control-plane quorum",
    ),
    ("SA023", "Campaign fails validation"),
    (
        "SA024",
        "CTMC is reducible: multiple closed communicating classes",
    ),
    ("SA025", "CTMC has transient states that drain to zero"),
    ("SA026", "CTMC generator is stiff (rate spread above 1e6)"),
    (
        "SA027",
        "Injections hold overlapping windows on the same target",
    ),
    (
        "SA028",
        "Failure + maintenance windows provably break a CP quorum",
    ),
    ("SA029", "Schedule provably starves the repair-crew pool"),
    ("SA030", "Sweep grid is invalid or repeats work cells"),
    (
        "SA031",
        "Dominated chaos crew-count cells measure the same system",
    ),
    ("SA032", "Predicted sweep cost exceeds the event budget"),
    (
        "SA033",
        "Consensus election-timeout floor does not exceed the heartbeat",
    ),
    (
        "SA034",
        "Consensus cluster too small for its declared fault mix",
    ),
    (
        "SA035",
        "Consensus quorum unreachable under the declared byzantine count",
    ),
    (
        "DL000",
        "detlint suppression hygiene: unused or reason-less allow",
    ),
    (
        "DL001",
        "HashMap/HashSet iteration order can leak into results",
    ),
    (
        "DL002",
        "Wall-clock reading (Instant/SystemTime) near result values",
    ),
    (
        "DL003",
        "Thread-order-sensitive floating-point accumulation",
    ),
    ("DL004", "Randomly seeded hashing in keyed state"),
    ("DL005", "Thread identity leaking into values"),
    ("DL006", "catch_unwind discarding the panic payload"),
    ("DL007", "Ambient std::env read outside crates/cli"),
    (
        "DL008",
        "Schema version literal bypassing sdnav_json::schema",
    ),
    ("DL009", "Lossy as-cast in fingerprint/WAL framing code"),
    ("DL010", "Public API returning a hash-ordered container"),
];

/// Splits a `path/to/file.rs:42`-style diagnostic path (as the detlint
/// source scan emits) into its file URI and 1-based line. Model paths
/// (`spec/roles/...`) don't match and return `None`.
fn file_line_span(path: &str) -> Option<(&str, u32)> {
    let (file, line) = path.rsplit_once(':')?;
    if !file.ends_with(".rs") {
        return None;
    }
    line.parse::<u32>().ok().map(|n| (file, n))
}

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warn => "warning",
        Severity::Info => "note",
    }
}

/// Renders a report as a SARIF 2.1.0 document with a single run.
///
/// `artifact` is the URI of the linted file, when one exists (fixtures,
/// `--spec FILE`); findings then carry a physical location GitHub can
/// anchor annotations to. Built-in models have no file, so their findings
/// carry only logical locations (the diagnostic's model path).
#[must_use]
pub fn to_sarif(report: &AuditReport, artifact: Option<&str>) -> Json {
    let rules: Vec<Json> = RULES
        .iter()
        .map(|(id, desc)| {
            Json::obj(vec![
                ("id", Json::str(*id)),
                ("name", Json::str(*id)),
                (
                    "shortDescription",
                    Json::obj(vec![("text", Json::str(*desc))]),
                ),
            ])
        })
        .collect();
    let results: Vec<Json> = report
        .diagnostics()
        .iter()
        .map(|d| {
            let rule_index = RULES
                .iter()
                .position(|(id, _)| *id == d.code)
                .unwrap_or(usize::MAX);
            let mut location = vec![(
                "logicalLocations",
                Json::Arr(vec![Json::obj(vec![
                    ("fullyQualifiedName", Json::str(d.path.clone())),
                    ("kind", Json::str("member")),
                ])]),
            )];
            if let Some(uri) = artifact {
                let mut physical =
                    vec![("artifactLocation", Json::obj(vec![("uri", Json::str(uri))]))];
                if let Some((_, line)) = file_line_span(&d.path) {
                    physical.push((
                        "region",
                        Json::obj(vec![("startLine", Json::Num(f64::from(line)))]),
                    ));
                }
                location.push(("physicalLocation", Json::obj(physical)));
            } else if let Some((file, line)) = file_line_span(&d.path) {
                // Source-scan diagnostics carry their own file:line span;
                // each finding anchors to its own artifact.
                location.push((
                    "physicalLocation",
                    Json::obj(vec![
                        (
                            "artifactLocation",
                            Json::obj(vec![("uri", Json::str(file))]),
                        ),
                        (
                            "region",
                            Json::obj(vec![("startLine", Json::Num(f64::from(line)))]),
                        ),
                    ]),
                ));
            }
            let text = if d.hint.is_empty() {
                d.message.clone()
            } else {
                format!("{} ({})", d.message, d.hint)
            };
            let mut fields = vec![
                ("ruleId", Json::str(d.code)),
                ("level", Json::str(level(d.severity))),
                ("message", Json::obj(vec![("text", Json::str(text))])),
                ("locations", Json::Arr(vec![Json::obj(location)])),
            ];
            if rule_index != usize::MAX {
                fields.insert(1, ("ruleIndex", Json::Num(rule_index as f64)));
            }
            Json::obj(fields)
        })
        .collect();
    let driver = Json::obj(vec![
        ("name", Json::str("sdnav-audit")),
        (
            "informationUri",
            Json::str("https://github.com/sdn-availability/sdn-availability"),
        ),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("rules", Json::Arr(rules)),
    ]);
    Json::obj(vec![
        (
            "$schema",
            Json::str(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
            ),
        ),
        ("version", Json::str("2.1.0")),
        (
            "runs",
            Json::Arr(vec![Json::obj(vec![
                ("tool", Json::obj(vec![("driver", driver)])),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ])
}

fn require_str<'a>(v: &'a Json, field: &str, at: &str) -> Result<&'a str, String> {
    v.get(field)
        .ok_or_else(|| format!("{at}: missing required property `{field}`"))?
        .as_str()
        .map_err(|_| format!("{at}: `{field}` must be a string"))
}

fn require_arr<'a>(v: &'a Json, field: &str, at: &str) -> Result<&'a [Json], String> {
    v.get(field)
        .ok_or_else(|| format!("{at}: missing required property `{field}`"))?
        .as_arr()
        .map_err(|_| format!("{at}: `{field}` must be an array"))
}

/// Structurally validates a document against the SARIF 2.1.0 schema subset
/// GitHub code scanning requires: the version marker, at least one run
/// with a named tool driver, well-formed rule metadata, and results with a
/// `ruleId`, a valid `level`, a message text, and well-formed locations.
///
/// # Errors
///
/// Returns a message naming the first violated schema constraint.
pub fn validate_sarif(doc: &Json) -> Result<(), String> {
    if require_str(doc, "version", "sarifLog")? != "2.1.0" {
        return Err("sarifLog: `version` must be \"2.1.0\"".to_owned());
    }
    let runs = require_arr(doc, "runs", "sarifLog")?;
    if runs.is_empty() {
        return Err("sarifLog: `runs` must not be empty".to_owned());
    }
    for (i, run) in runs.iter().enumerate() {
        let at = format!("runs[{i}]");
        let tool = run
            .get("tool")
            .ok_or_else(|| format!("{at}: missing required property `tool`"))?;
        let driver = tool
            .get("driver")
            .ok_or_else(|| format!("{at}.tool: missing required property `driver`"))?;
        require_str(driver, "name", &format!("{at}.tool.driver"))?;
        if let Some(rules) = driver.get("rules") {
            let rules = rules
                .as_arr()
                .map_err(|_| format!("{at}.tool.driver: `rules` must be an array"))?;
            for (j, rule) in rules.iter().enumerate() {
                require_str(rule, "id", &format!("{at}.tool.driver.rules[{j}]"))?;
            }
        }
        let results = require_arr(run, "results", &at)?;
        for (j, result) in results.iter().enumerate() {
            let at = format!("{at}.results[{j}]");
            require_str(result, "ruleId", &at)?;
            let lvl = require_str(result, "level", &at)?;
            if !["none", "note", "warning", "error"].contains(&lvl) {
                return Err(format!("{at}: invalid `level` \"{lvl}\""));
            }
            let message = result
                .get("message")
                .ok_or_else(|| format!("{at}: missing required property `message`"))?;
            require_str(message, "text", &format!("{at}.message"))?;
            if let Some(locations) = result.get("locations") {
                let locations = locations
                    .as_arr()
                    .map_err(|_| format!("{at}: `locations` must be an array"))?;
                for (k, loc) in locations.iter().enumerate() {
                    let at = format!("{at}.locations[{k}]");
                    if let Some(logical) = loc.get("logicalLocations") {
                        let logical = logical
                            .as_arr()
                            .map_err(|_| format!("{at}: `logicalLocations` must be an array"))?;
                        for (m, l) in logical.iter().enumerate() {
                            require_str(
                                l,
                                "fullyQualifiedName",
                                &format!("{at}.logicalLocations[{m}]"),
                            )?;
                        }
                    }
                    if let Some(physical) = loc.get("physicalLocation") {
                        let art = physical.get("artifactLocation").ok_or_else(|| {
                            format!("{at}.physicalLocation: missing `artifactLocation`")
                        })?;
                        require_str(
                            art,
                            "uri",
                            &format!("{at}.physicalLocation.artifactLocation"),
                        )?;
                        if let Some(region) = physical.get("region") {
                            let start = region.get("startLine").ok_or_else(|| {
                                format!("{at}.physicalLocation.region: missing `startLine`")
                            })?;
                            let n = start.as_f64().map_err(|_| {
                                format!(
                                    "{at}.physicalLocation.region: `startLine` must be a number"
                                )
                            })?;
                            if n < 1.0 || n.fract() != 0.0 {
                                return Err(format!(
                                    "{at}.physicalLocation.region: `startLine` must be a positive integer"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{audit_model, Diagnostic};
    use sdnav_core::ControllerSpec;

    fn sample_report() -> AuditReport {
        let mut r = AuditReport::new();
        r.push(Diagnostic::error("SA003", "spec/x", "too big", "shrink it"));
        r.push(Diagnostic::warn(
            "SA014",
            "spec/rates/rack/mtbf",
            "slip",
            "",
        ));
        r.push(Diagnostic::info("SA006", "rbd/cp", "trivial", "simplify"));
        r
    }

    #[test]
    fn emitted_sarif_validates() {
        let doc = to_sarif(&sample_report(), Some("tests/fixtures/x.json"));
        validate_sarif(&doc).unwrap();
        // And survives a serialization round trip.
        let text = doc.to_pretty();
        let back = Json::parse(&text).unwrap();
        validate_sarif(&back).unwrap();
    }

    #[test]
    fn clean_report_emits_empty_results() {
        let doc = to_sarif(&audit_model(&ControllerSpec::opencontrail_3x()), None);
        validate_sarif(&doc).unwrap();
        let runs = doc.field("runs").unwrap().as_arr().unwrap();
        assert!(runs[0]
            .field("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        // The rule catalog is complete regardless.
        let rules = runs[0]
            .field("tool")
            .unwrap()
            .field("driver")
            .unwrap()
            .field("rules")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rules.len(), 46);
    }

    #[test]
    fn severity_maps_to_sarif_levels() {
        let doc = to_sarif(&sample_report(), None);
        let runs = doc.field("runs").unwrap().as_arr().unwrap();
        let results = runs[0].field("results").unwrap().as_arr().unwrap();
        let levels: Vec<&str> = results
            .iter()
            .map(|r| r.field("level").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(levels, ["error", "warning", "note"]);
        // Hints fold into the message text.
        let msg = results[0]
            .field("message")
            .unwrap()
            .field("text")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(msg.contains("too big") && msg.contains("shrink it"));
    }

    #[test]
    fn physical_location_only_with_artifact() {
        let with = to_sarif(&sample_report(), Some("a.json"));
        let without = to_sarif(&sample_report(), None);
        assert!(with.to_pretty().contains("physicalLocation"));
        assert!(!without.to_pretty().contains("physicalLocation"));
        validate_sarif(&with).unwrap();
        validate_sarif(&without).unwrap();
    }

    #[test]
    fn source_scan_paths_become_regions() {
        let mut r = AuditReport::new();
        r.push(Diagnostic::error(
            "DL002",
            "crates/grid/src/lib.rs:922",
            "clock",
            "use metrics",
        ));
        let doc = to_sarif(&r, None);
        validate_sarif(&doc).unwrap();
        let text = doc.to_pretty();
        assert!(
            text.contains("\"uri\": \"crates/grid/src/lib.rs\""),
            "{text}"
        );
        assert!(text.contains("\"startLine\": 922"), "{text}");
        // Model paths still carry no physical location without an artifact.
        assert!(!to_sarif(&sample_report(), None)
            .to_pretty()
            .contains("physicalLocation"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let bad_version = Json::parse(r#"{"version": "2.0.0", "runs": []}"#).unwrap();
        assert!(validate_sarif(&bad_version).unwrap_err().contains("2.1.0"));

        let empty_runs = Json::parse(r#"{"version": "2.1.0", "runs": []}"#).unwrap();
        assert!(validate_sarif(&empty_runs).unwrap_err().contains("empty"));

        let no_driver_name = Json::parse(
            r#"{"version": "2.1.0", "runs": [{"tool": {"driver": {}}, "results": []}]}"#,
        )
        .unwrap();
        assert!(validate_sarif(&no_driver_name)
            .unwrap_err()
            .contains("name"));

        let bad_level = Json::parse(
            r#"{"version": "2.1.0", "runs": [{"tool": {"driver": {"name": "x"}},
                "results": [{"ruleId": "SA001", "level": "fatal",
                             "message": {"text": "m"}}]}]}"#,
        )
        .unwrap();
        assert!(validate_sarif(&bad_level).unwrap_err().contains("fatal"));
    }
}
