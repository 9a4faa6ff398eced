//! Chaos-campaign lint pass (SA020–SA023, SA027–SA029).
//!
//! Campaigns are authored against a *deployment*, so most campaign defects
//! are only visible with the compiled simulation in hand: a target name
//! that does not resolve (SA020), an injection scheduled past the horizon
//! (SA021), windows that take a control-plane quorum below its required
//! member count (SA022/SA028), and the schedule-interference family
//! (SA027–SA029). The campaign's own rules live in
//! [`ChaosSpec::violations`], and each violation is an SA023 error. The
//! pass reports every finding instead of stopping at the first, and runs
//! the deployment checks even on a campaign that fails validation, so
//! seeded fixtures for each code lint without tripping an earlier gate.
//!
//! This pass resolves targets and reports SA020/SA021 itself; every
//! window-based check is delegated to [`crate::schedule::audit_schedule`]
//! over the [`ScheduleIr`] built once per campaign.

use sdnav_chaos::{ChaosError, ChaosSpec, InjectionKind, TargetRef};
use sdnav_sim::Simulation;

use crate::ir::ScheduleIr;
use crate::schedule::audit_schedule;
use crate::{AuditReport, Diagnostic};

/// Lints a campaign against the deployment it will run on, reporting
/// SA020–SA023 and SA027–SA029.
///
/// | Code  | Severity | Check |
/// |-------|----------|-------|
/// | SA020 | error    | a target does not exist in the simulated deployment |
/// | SA021 | warn     | an injection's first occurrence is at or beyond the horizon — it can never fire |
/// | SA022 | warn     | maintenance windows (alone or overlapping) take a CP quorum below its required member count |
/// | SA023 | error    | the campaign fails validation ([`ChaosSpec::violations`]): a zero-crew pool, a bad label, time, period, probability or duration, an empty group, a latent fault off a controller process |
/// | SA027 | warn     | two injections hold overlapping windows on the same target — the later one is a silent no-op |
/// | SA028 | warn     | overlapping failure + maintenance windows provably take a CP quorum down |
/// | SA029 | warn     | schedule provably demands more concurrent hardware repairs than declared crews, or saturates total crew capacity |
#[must_use]
pub fn audit_campaign(campaign: &ChaosSpec, sim: &Simulation<'_>) -> AuditReport {
    let mut report = AuditReport::new();
    let horizon = sim.config().horizon_hours;

    for e in campaign.violations() {
        let (path, hint) = match &e {
            ChaosError::ZeroCrews => (
                "campaign/crews".to_owned(),
                "declare at least one crew, or drop the `crews` block for unlimited crews",
            ),
            ChaosError::BadLabel { label }
            | ChaosError::BadTime { label, .. }
            | ChaosError::BadEvery { label, .. }
            | ChaosError::BadProbability { label, .. }
            | ChaosError::BadDuration { label, .. }
            | ChaosError::LatentNotProc { label }
            | ChaosError::EmptyGroup { label } => (
                format!("campaign/injections/{label}"),
                "fix the injection: `chaos run` refuses a campaign that fails validation",
            ),
            _ => ("campaign".to_owned(), "fix the campaign"),
        };
        report.push(Diagnostic::error("SA023", path, e.to_string(), hint));
    }

    for inj in &campaign.injections {
        let path = format!("campaign/injections/{}", inj.label);
        let mut check = |target: &TargetRef| {
            // `leader` resolves at event time inside a consensus run, not
            // against the static deployment — never a SA020.
            let TargetRef::Element(element) = target else {
                return;
            };
            if sim.structure().element(element).is_none() {
                report.push(Diagnostic::error(
                    "SA020",
                    &path,
                    format!("target {target} does not exist in the simulated deployment"),
                    "check the index against the topology (rack/host/vm) or the role, node, and process names against the spec",
                ));
            }
        };
        match &inj.kind {
            InjectionKind::Fail { target, .. }
            | InjectionKind::Maintenance { target, .. }
            | InjectionKind::Latent { target } => check(target),
            InjectionKind::CommonCause {
                trigger, members, ..
            } => {
                check(trigger);
                for member in members {
                    check(member);
                }
            }
        }

        if inj.at >= horizon && inj.at.is_finite() {
            report.push(Diagnostic::warn(
                "SA021",
                &path,
                format!(
                    "first occurrence at {} h is at or beyond the {horizon} h simulation horizon — the injection can never fire",
                    inj.at
                ),
                "move `at` inside the horizon or extend `horizon_hours`",
            ));
        }
    }

    let sched = ScheduleIr::build(campaign, sim);
    report.merge(audit_schedule(campaign, &sched, sim));

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::{ControllerSpec, Scenario, Topology};
    use sdnav_sim::SimConfig;

    fn small_sim<'a>(spec: &'a ControllerSpec, topo: &'a Topology) -> Simulation<'a> {
        let mut config = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        config.horizon_hours = 10_000.0;
        config.compute_hosts = 2;
        Simulation::try_new(spec, topo, config).expect("valid simulation")
    }

    fn campaign(text: &str) -> ChaosSpec {
        sdnav_json::from_str(text).expect("valid campaign JSON")
    }

    #[test]
    fn clean_campaign_audits_clean() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c = campaign(
            r#"{"name": "clean", "crews": {"count": 2},
                "injections": [
                    {"label": "kill", "kind": "fail", "target": "rack:0",
                     "at": 100.0, "repair_hours": 24.0},
                    {"label": "maint", "kind": "maintenance", "target": "vm:0",
                     "at": 500.0, "duration_hours": 8.0}
                ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn sa020_unknown_targets() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "bad-rack", "kind": "fail", "target": "rack:99", "at": 1.0},
                {"label": "bad-member", "kind": "common_cause", "trigger": "rack:0",
                 "members": ["host:123"], "probability": 0.5, "at": 2.0},
                {"label": "bad-proc", "kind": "latent",
                 "target": "proc:NoSuchRole/0/nope", "at": 3.0}
            ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        assert_eq!(report.error_count(), 3, "{}", report.render());
        assert!(report.has_code("SA020"));
    }

    #[test]
    fn sa021_beyond_horizon() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "late", "kind": "fail", "target": "rack:0", "at": 10000.0}
            ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        assert!(report.has_code("SA021"), "{}", report.render());
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn sa022_overlapping_maintenance_breaks_quorum() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        // Small = one rack: maintaining VMs 0 and 1 together leaves 1 of 3
        // controller nodes, below every 2-of-3 quorum.
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "m0", "kind": "maintenance", "target": "vm:0",
                 "at": 100.0, "duration_hours": 24.0},
                {"label": "m1", "kind": "maintenance", "target": "vm:1",
                 "at": 110.0, "duration_hours": 24.0}
            ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        assert!(report.has_code("SA022"), "{}", report.render());
        // Exactly one finding despite both windows seeing the overlap.
        assert_eq!(report.warning_count(), 1, "{}", report.render());

        // Staggered windows are fine.
        let staggered = campaign(
            r#"{"name": "x", "injections": [
                {"label": "m0", "kind": "maintenance", "target": "vm:0",
                 "at": 100.0, "duration_hours": 24.0},
                {"label": "m1", "kind": "maintenance", "target": "vm:1",
                 "at": 200.0, "duration_hours": 24.0}
            ]}"#,
        );
        assert!(audit_campaign(&staggered, &sim).is_clean());
    }

    #[test]
    fn sa022_single_window_on_shared_hardware() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        // Small packs all three controller VMs in one rack: one rack-wide
        // maintenance window takes the whole control plane down by itself.
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "rackwork", "kind": "maintenance", "target": "rack:0",
                 "at": 100.0, "duration_hours": 4.0}
            ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        assert!(report.has_code("SA022"), "{}", report.render());
    }

    #[test]
    fn sa022_periodic_windows_report_once() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "weekly", "kind": "maintenance", "target": "rack:0",
                 "at": 100.0, "every": 168.0, "duration_hours": 4.0}
            ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        let sa022 = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "SA022")
            .count();
        assert_eq!(sa022, 1, "{}", report.render());
    }

    #[test]
    fn sa023_reports_every_violation_in_check_order() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c = campaign(
            r#"{"name": "x", "injections": [
                {"label": "kill", "kind": "fail", "target": "rack:0",
                 "at": 100.0, "repair_hours": -5.0},
                {"label": "kill", "kind": "fail", "target": "host:0",
                 "at": 200.0, "repair_hours": 24.0},
                {"label": "hidden", "kind": "latent", "target": "host:1", "at": 300.0}
            ]}"#,
        );
        let report = audit_campaign(&c, &sim);
        let sa023: Vec<(&str, &str)> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "SA023")
            .map(|d| (d.path.as_str(), d.message.as_str()))
            .collect();
        assert_eq!(
            sa023,
            [
                (
                    "campaign/injections/kill",
                    "injection \"kill\": duration must be finite and > 0, got -5"
                ),
                (
                    "campaign/injections/kill",
                    "duplicate injection label \"kill\""
                ),
                (
                    "campaign/injections/hidden",
                    "injection \"hidden\": latent faults only apply to proc: targets"
                ),
            ],
            "{}",
            report.render()
        );
    }

    #[test]
    fn sa023_zero_crews() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let c = campaign(r#"{"name": "x", "crews": {"count": 0}, "injections": []}"#);
        let report = audit_campaign(&c, &sim);
        assert!(report.has_code("SA023"), "{}", report.render());
        assert!(report.has_errors());
    }
}
