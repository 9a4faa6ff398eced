//! Static model-analysis pass over controller specs, topologies, derived
//! RBD/CTMC structures, and simulator configurations.
//!
//! Each input (spec, topology, parameter set, simulator config, chaos
//! campaign, sweep grid) has one validator: its `violations()` lists every
//! rule the input breaks, and `validate`/`try_validate` refuse it with the
//! first. A model author wants every problem at once, not one per re-run.
//! This crate is the *lint* pass: it walks the whole model, reports every
//! validator violation plus the checks no validator holds (warnings,
//! cross-input and whole-study analyses), each as a structured
//! [`Diagnostic`]:
//!
//! * a stable code (`SA001` … `SA035`) that scripts and CI can match on,
//! * a [`Severity`] (`Error` = the model is wrong, `Warn` = the model is
//!   suspicious, `Info` = worth knowing),
//! * the path of the offending element
//!   (`spec/roles/Config/processes/redis`),
//! * a human message and a fix hint.
//!
//! # Diagnostic codes
//!
//! | Code  | Severity   | Check |
//! |-------|------------|-------|
//! | SA001 | error      | spec structure: zero-node cluster, empty role list, invalid consensus block |
//! | SA002 | error      | duplicate role / process names |
//! | SA003 | error      | quorum requirement exceeds the available instances (Table III vs cluster size, and vs topology assignments) |
//! | SA004 | error      | grouped processes disagree about their block's quorum |
//! | SA005 | error/warn | supervisor & restart-mode configuration (Table II): multiple supervisors, auto-restart without a supervisor, auto-restarted supervisor |
//! | SA006 | error/warn | k-of-n structure: `k > n`, empty parallel, trivial `k = 0` / empty series |
//! | SA007 | warn       | dead RBD unit: zero structural Birnbaum importance |
//! | SA008 | error      | probability out of `[0, 1]` or NaN (params, unit availabilities, downtime factors) |
//! | SA009 | warn       | MTTR ≥ MTBF: availability below 50%, likely a unit slip |
//! | SA010 | error/warn | CTMC generator sanity: row sums, negative rates, absorbing / unreachable states |
//! | SA011 | error/warn | simulator config: invalid values, excessive warm-up, batches too short for the slowest repair |
//! | SA012 | error      | topology ↔ spec consistency: missing assignments, dangling VMs, roles that are not controller roles of the spec (unknown or per-host), out-of-range nodes |
//! | SA013 | error/warn | MTBF/MTTR pair mixes units: FIT on a repair field, a rate where a mean time is expected |
//! | SA014 | warn       | FIT-for-hours magnitude slip: a bare MTBF implausible as hours but plausible as a FIT count (auto-fixable) |
//! | SA015 | error      | rate or time used where a probability is expected (`a_v`/`a_h`/`a_r`) |
//! | SA016 | warn       | an element's failure/repair CTMC rates imply an availability that contradicts the spec's declared one |
//! | SA017 | warn       | sim time-unit drift: overridden horizon under 10× the resolved process MTBF |
//! | SA018 | warn       | specs of one sweep grid declare the same field in different units |
//! | SA019 | error/warn | unresolvable or ambiguous unit: no plausible reading as hours, FIT, or a rate |
//! | SA020 | error      | chaos campaign names a target that does not exist in the deployment |
//! | SA021 | warn       | chaos injection scheduled at or beyond the simulation horizon — it can never fire |
//! | SA022 | warn       | maintenance window(s), alone or overlapping, take a CP quorum below its required member count |
//! | SA023 | error      | chaos campaign fails validation: a zero-crew pool, bad labels, times, periods, probabilities or durations, empty groups, latent faults off a controller process |
//! | SA024 | warn       | CTMC generator is reducible: multiple closed communicating classes, steady state depends on the initial state |
//! | SA025 | warn       | CTMC has transient states: probability drains out and never returns |
//! | SA026 | warn       | CTMC generator is stiff: positive-rate spread above 1e6 |
//! | SA027 | warn       | two chaos injections hold overlapping windows on the same target — the later one is a silent no-op |
//! | SA028 | warn       | overlapping failure + maintenance windows provably take a CP quorum down |
//! | SA029 | warn       | chaos schedule provably starves the repair-crew pool (concurrency or total capacity) |
//! | SA030 | error      | sweep grid is invalid or contains bit-identical duplicate work cells |
//! | SA031 | warn       | dominated chaos crew-count cells: values past the hardware element count are pairwise equivalent |
//! | SA032 | warn       | predicted sweep cost exceeds the event budget — inspect with `sweep --dry-run` |
//! | SA033 | error      | consensus election-timeout floor does not exceed the heartbeat interval |
//! | SA034 | warn       | consensus cluster smaller than `2·F_BFT + 2·F_crash + 1` for its declared fault mix |
//! | SA035 | error      | consensus commit quorum unreachable from honest votes under the declared byzantine count |
//!
//! SA013–SA019 come from the unit-inference dataflow pass ([`audit_units`]):
//! declared units win, bare values are classified by per-field magnitude
//! bands, and the *resolved* values flow into a derived parameter set, RBD,
//! CTMCs, and simulator config that are re-audited under
//! `spec/rates/derived/`. SA020–SA023 and SA027–SA029 come from the
//! chaos-campaign pass ([`audit_campaign`]), which lints a fault-injection
//! campaign — and its [`ScheduleIr`] of statically provable down-windows —
//! against the deployment it will run on. SA024–SA026 are the whole-graph
//! CTMC structural checks ([`audit_ctmc_structure`]); SA030–SA032 are the
//! sweep-grid checks ([`audit_grid`]), backed by the same static cost
//! model that powers `sdnav sweep --dry-run` ([`SweepPlan`]);
//! SA033–SA035 come from the consensus-block pass ([`audit_consensus`]).
//! [`fix_spec`]/[`fix_block`] rewrite the trivially
//! auto-fixable findings ([`FIXABLE_CODES`]), and [`to_sarif`] renders any
//! report as SARIF 2.1.0 for CI annotation.
//!
//! Whole-study passes share the semantic model IR ([`ModelIr`]): the
//! topologies, RBDs, parameter sets, simulator configurations, and element
//! CTMCs are derived **once** per study and every pass walks the same
//! typed graph instead of re-deriving its own view.
//!
//! # Quickstart
//!
//! ```
//! use sdnav_audit::{audit_model, audit_spec};
//! use sdnav_core::ControllerSpec;
//!
//! // The paper's reference model is clean.
//! let spec = ControllerSpec::opencontrail_3x();
//! assert!(audit_model(&spec).is_clean());
//!
//! // A seeded defect is caught with its code.
//! let mut broken = spec.clone();
//! broken.roles[0].processes[0].cp_required = 7;
//! let report = audit_spec(&broken);
//! assert!(report.has_code("SA003"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod consensus;
mod cost;
mod dynamics;
mod fix;
mod ir;
mod rbd;
mod reach;
mod sarif;
mod schedule;
mod spec;
mod units;

use std::fmt;

use sdnav_core::ControllerSpec;
use sdnav_json::{Json, ToJson};

pub use campaign::audit_campaign;
pub use consensus::audit_consensus;
pub use cost::{audit_grid, CachePrediction, PlanCell, SweepPlan};
pub use dynamics::{
    audit_config_ctmcs, audit_ctmc, audit_hw_params, audit_sim_config, audit_sw_params,
};
pub use fix::{fix_block, fix_spec, FixEdit, FixPlan, FIXABLE_CODES};
pub use ir::{config_element_ctmcs, ElementCtmc, ModelIr, ScheduleIr, ScheduleWindow, WindowKind};
pub use rbd::{audit_block, cp_rbd, dp_rbd};
pub use reach::audit_ctmc_structure;
pub use sarif::{to_sarif, validate_sarif, RULES};
pub use schedule::audit_schedule;
pub use spec::{audit_spec, audit_topology};
pub use units::{audit_spec_set, audit_units};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; never fails a lint run.
    Info,
    /// The model is suspicious: it evaluates, but probably not to what the
    /// author intended.
    Warn,
    /// The model is wrong: evaluation would panic, error, or produce
    /// meaningless numbers.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered output and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for Severity {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

/// One finding of the analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`SA001` … `SA035`), safe to match on in scripts.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Slash-separated path of the offending element, e.g.
    /// `spec/roles/Config/processes/redis`.
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Creates an [`Severity::Error`] diagnostic.
    #[must_use]
    pub fn error(
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            path: path.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Creates a [`Severity::Warn`] diagnostic.
    #[must_use]
    pub fn warn(
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warn,
            ..Diagnostic::error(code, path, message, hint)
        }
    }

    /// Creates a [`Severity::Info`] diagnostic.
    #[must_use]
    pub fn info(
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, path, message, hint)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.path, self.message
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::str(self.code)),
            ("severity", self.severity.to_json()),
            ("path", Json::str(self.path.clone())),
            ("message", Json::str(self.message.clone())),
            ("hint", Json::str(self.hint.clone())),
        ])
    }
}

/// The collected findings of an analysis pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: AuditReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in check order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of [`Severity::Error`] findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of [`Severity::Warn`] findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Whether any finding is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report has no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether some finding carries `code`.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Human-readable rendering: one line per finding (worst first), an
    /// indented hint under each, and a summary line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ordered: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        ordered.sort_by_key(|d| std::cmp::Reverse(d.severity));
        for d in ordered {
            let _ = writeln!(out, "{d}");
            if !d.hint.is_empty() {
                let _ = writeln!(out, "    hint: {}", d.hint);
            }
        }
        if self.is_clean() {
            out.push_str("audit: clean (no findings)\n");
        } else {
            let _ = writeln!(
                out,
                "audit: {} error(s), {} warning(s), {} info",
                self.error_count(),
                self.warning_count(),
                self.count(Severity::Info)
            );
        }
        out
    }
}

impl ToJson for AuditReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("errors", self.error_count().to_json()),
            ("warnings", self.warning_count().to_json()),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

/// Full analysis pass over everything derivable from a spec with the
/// paper's default parameters. Builds the semantic model IR once
/// ([`ModelIr::build`]) and runs every whole-study pass over it via
/// [`audit_ir`].
///
/// This is what `sdnav lint` runs.
#[must_use]
pub fn audit_model(spec: &ControllerSpec) -> AuditReport {
    audit_ir(&ModelIr::build(spec))
}

/// Runs every whole-study pass over an already-built model IR: the spec
/// itself, the reference topologies, the derived control-plane and
/// data-plane RBDs, the parameter sets, both scenarios' simulator
/// configurations, and — per element CTMC — the per-row generator checks
/// (SA010) plus the whole-graph structural checks (SA024–SA026).
#[must_use]
pub fn audit_ir(ir: &ModelIr<'_>) -> AuditReport {
    let mut report = audit_spec(ir.spec);
    for topo in &ir.topologies {
        report.merge(audit_topology(ir.spec, topo));
    }
    report.merge(audit_block(&ir.cp_rbd, "rbd/cp"));
    report.merge(audit_block(&ir.dp_rbd, "rbd/dp"));
    report.merge(audit_hw_params(&ir.hw_params));
    report.merge(audit_sw_params(&ir.sw_params));
    for config in &ir.configs {
        report.merge(audit_sim_config(config));
    }
    for element in &ir.element_ctmcs {
        report.merge(audit_ctmc(&element.ctmc, &element.origin));
        report.merge(audit_ctmc_structure(&element.ctmc, &element.origin));
    }
    report.merge(audit_units(ir.spec));
    if let Some(c) = &ir.spec.consensus {
        report.merge(audit_consensus(c, "spec/consensus"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_audits_clean() {
        let report = audit_model(&ControllerSpec::opencontrail_3x());
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
        assert!(report.render().contains("clean"));
    }

    #[test]
    fn kernel_mode_and_scaled_variants_audit_clean() {
        assert!(audit_model(&ControllerSpec::opencontrail_3x_kernel_mode()).is_clean());
        assert!(audit_model(&ControllerSpec::opencontrail_3x().scaled_cluster(5)).is_clean());
    }

    #[test]
    fn render_groups_errors_first_and_counts() {
        let mut report = AuditReport::new();
        report.push(Diagnostic::warn("SA009", "sim/rack", "w", "h"));
        report.push(Diagnostic::error("SA003", "spec/x", "e", "fix it"));
        let text = report.render();
        let err_pos = text.find("error[SA003]").unwrap();
        let warn_pos = text.find("warning[SA009]").unwrap();
        assert!(err_pos < warn_pos);
        assert!(text.contains("hint: fix it"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has_errors());
        assert!(report.has_code("SA003") && !report.has_code("SA001"));
    }

    #[test]
    fn report_serializes_to_json() {
        let mut report = AuditReport::new();
        report.push(Diagnostic::error("SA001", "spec", "no roles", "add roles"));
        let json = sdnav_json::to_string(&report);
        let value = Json::parse(&json).unwrap();
        assert_eq!(value.field("errors").unwrap().as_usize().unwrap(), 1);
        assert_eq!(value.field("warnings").unwrap().as_usize().unwrap(), 0);
        let diags = value.field("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].field("code").unwrap().as_str().unwrap(), "SA001");
        assert_eq!(
            diags[0].field("severity").unwrap().as_str().unwrap(),
            "error"
        );
    }

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Error > Severity::Warn && Severity::Warn > Severity::Info);
        assert_eq!(Severity::Warn.to_string(), "warning");
    }
}
