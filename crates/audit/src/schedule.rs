//! Schedule-interference analysis over a [`ScheduleIr`] (SA022,
//! SA027–SA029).
//!
//! All four checks reason about the same object — the campaign's
//! statically provable down-windows — so they share the expansion the IR
//! builds once:
//!
//! * **SA022** — maintenance window(s), alone or overlapping, take a CP
//!   quorum below its required member count (pre-existing check, now fed
//!   by the IR).
//! * **SA027** — two *different* injections hold overlapping windows on
//!   the same resolved target: the later action is a silent no-op (a
//!   `fail` on a target already under maintenance does nothing) and almost
//!   always an authoring mistake.
//! * **SA028** — a provable quorum-kill window arises only from the
//!   *combination* of a fixed-duration failure and other windows. A single
//!   injected failure taking the quorum down is the campaign's purpose;
//!   maintenance-only kills are SA022; this flags the subtle mixed case
//!   where planned downtime collides with an injected outage.
//! * **SA029** — repair-crew starvation: more concurrent fixed-duration
//!   *hardware* repairs than crews (repairs queue, stretching outages
//!   beyond the declared durations), or aggregate repair demand at or
//!   above total crew capacity over the horizon.

use std::collections::BTreeSet;

use sdnav_chaos::ChaosSpec;
use sdnav_sim::{InjectTarget, Simulation};

use crate::ir::{ScheduleIr, ScheduleWindow, WindowKind};
use crate::{AuditReport, Diagnostic};

fn overlaps(a: &ScheduleWindow, b: &ScheduleWindow) -> bool {
    a.start < b.end && b.start < a.end
}

fn is_hardware(target: InjectTarget) -> bool {
    // Repair crews serve hardware repairs only; process/vProc restarts are
    // software recovery and never queue on the crew pool.
    matches!(
        target,
        InjectTarget::Rack(_) | InjectTarget::Host(_) | InjectTarget::Vm(_)
    )
}

/// Runs every window-based check (SA022, SA027–SA029) over a campaign's
/// schedule graph.
#[must_use]
pub fn audit_schedule(
    campaign: &ChaosSpec,
    sched: &ScheduleIr,
    sim: &Simulation<'_>,
) -> AuditReport {
    let mut report = AuditReport::new();
    let label = |i: usize| campaign.injections[i].label.as_str();

    // SA027: overlapping windows from different injections on one target.
    // Report once per injection pair, not per occurrence pair.
    let mut conflicting: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (ai, a) in sched.windows.iter().enumerate() {
        for b in &sched.windows[ai + 1..] {
            if a.injection != b.injection && a.target == b.target && overlaps(a, b) {
                conflicting.insert((a.injection.min(b.injection), a.injection.max(b.injection)));
            }
        }
    }
    for &(i, j) in &conflicting {
        report.push(Diagnostic::warn(
            "SA027",
            format!("campaign/injections/{}+{}", label(i), label(j)),
            format!(
                "injections [{}] and [{}] hold overlapping windows on the same target — \
                 the later action hits an element that is already down and is a silent no-op",
                label(i),
                label(j),
            ),
            "stagger the schedules or retarget one injection; overlapping same-target \
             windows almost never measure what was intended",
        ));
    }

    // SA022 / SA028: at each window start, union the CP member blocks of
    // every active window and test each quorum requirement. Maintenance-only
    // participant sets are SA022 (planned downtime kills the quorum by
    // itself); sets that need a fixed-duration failure *and* at least one
    // other window are SA028 (injected outage colliding with other
    // downtime). Deduplicate by participant set so `every` expansions
    // report once, not per occurrence.
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for w in &sched.windows {
        let active: Vec<&ScheduleWindow> = sched
            .windows
            .iter()
            .filter(|o| o.start <= w.start && w.start < o.end)
            .collect();
        let participants: BTreeSet<usize> = active.iter().map(|o| o.injection).collect();
        let all_maintenance = active.iter().all(|o| o.kind == WindowKind::Maintenance);
        if !all_maintenance && participants.len() < 2 {
            // A lone injected failure killing the quorum is the campaign's
            // point, not a defect.
            continue;
        }
        let down: BTreeSet<(usize, usize)> = active
            .iter()
            .flat_map(|o| o.blocks.iter().copied())
            .collect();
        let structure = sim.structure();
        for (req, quorum) in structure.cp().iter().enumerate() {
            let members = structure.nodes();
            let required = quorum.required;
            let down_count = down.iter().filter(|(r, _)| *r == req).count();
            if members - down_count < required {
                let key: Vec<usize> = participants.iter().copied().collect();
                if reported.insert(key.clone()) {
                    let labels: Vec<&str> = key.iter().map(|&i| label(i)).collect();
                    let path = format!("campaign/injections/{}", labels.join("+"));
                    if all_maintenance {
                        report.push(Diagnostic::warn(
                            "SA022",
                            path,
                            format!(
                                "maintenance window(s) [{}] leave {} of {members} members of a control-plane quorum (requires {required}) — planned downtime takes the control plane out",
                                labels.join(", "),
                                members - down_count,
                            ),
                            "stagger the windows or shrink the maintenance scope so a quorum majority stays up",
                        ));
                    } else {
                        report.push(Diagnostic::warn(
                            "SA028",
                            path,
                            format!(
                                "overlapping failure and maintenance windows [{}] provably leave {} of {members} members of a control-plane quorum (requires {required}) — the injected outage collides with other scheduled downtime",
                                labels.join(", "),
                                members - down_count,
                            ),
                            "move the maintenance window outside the injected outage's repair window, or make the collision explicit in the campaign name",
                        ));
                    }
                }
                break;
            }
        }
    }

    // SA029: repair-crew starvation. Only fixed-duration hardware repair
    // windows compete for crews.
    if let Some(crews) = campaign.crews {
        if crews.count > 0 {
            let hw: Vec<&ScheduleWindow> = sched
                .windows
                .iter()
                .filter(|w| w.kind == WindowKind::Repair && is_hardware(w.target))
                .collect();
            let peak = hw
                .iter()
                .map(|w| {
                    hw.iter()
                        .filter(|o| o.start <= w.start && w.start < o.end)
                        .count()
                })
                .max()
                .unwrap_or(0);
            if peak > crews.count {
                report.push(Diagnostic::warn(
                    "SA029",
                    "campaign/crews",
                    format!(
                        "schedule provably demands {peak} concurrent hardware repairs but only \
                         {} crew(s) are declared — repairs will queue and outages stretch \
                         beyond their declared durations",
                        crews.count,
                    ),
                    "add crews or stagger the failure schedule so repairs do not pile up",
                ));
            }
            let horizon = sim.config().horizon_hours;
            if horizon.is_finite() && horizon > 0.0 {
                let demand: f64 = hw.iter().map(|w| w.end.min(horizon) - w.start).sum();
                let utilization = demand / (crews.count as f64 * horizon);
                if utilization >= 1.0 {
                    report.push(Diagnostic::warn(
                        "SA029",
                        "campaign/crews",
                        format!(
                            "scheduled hardware repair demand ({demand:.0} crew-hours) is at or \
                             above total crew capacity ({:.0} crew-hours over the horizon) — \
                             utilization {utilization:.2}",
                            crews.count as f64 * horizon,
                        ),
                        "the repair backlog can only grow; add crews or thin the schedule",
                    ));
                }
            }
        }
    }

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

    fn audit(text: &str, sim: &Simulation<'_>) -> AuditReport {
        let c: ChaosSpec = sdnav_json::from_str(text).expect("valid campaign JSON");
        audit_schedule(&c, &ScheduleIr::build(&c, sim), sim)
    }

    #[test]
    fn sa027_conflicting_windows_on_one_target() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        let r = audit(
            r#"{"name": "x", "injections": [
                {"label": "kill", "kind": "fail", "target": "host:0",
                 "at": 100.0, "repair_hours": 48.0},
                {"label": "patch", "kind": "maintenance", "target": "host:0",
                 "at": 110.0, "duration_hours": 4.0}
            ]}"#,
            &sim,
        );
        assert!(r.has_code("SA027"), "{}", r.render());
        // Occurrence expansion must not multiply the finding.
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "SA027").count(),
            1
        );
    }

    #[test]
    fn sa028_fail_plus_maintenance_quorum_kill() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        // vm:0 down for repair while vm:1 is under maintenance: 1 of 3
        // controller nodes left, below every 2-of-3 quorum. Neither window
        // alone kills the quorum, and they are not maintenance-only.
        let r = audit(
            r#"{"name": "x", "injections": [
                {"label": "kill", "kind": "fail", "target": "vm:0",
                 "at": 100.0, "repair_hours": 24.0},
                {"label": "patch", "kind": "maintenance", "target": "vm:1",
                 "at": 110.0, "duration_hours": 8.0}
            ]}"#,
            &sim,
        );
        assert!(r.has_code("SA028"), "{}", r.render());
        assert!(!r.has_code("SA022"), "{}", r.render());
    }

    #[test]
    fn lone_fail_quorum_kill_is_intentional() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        // Small = one rack holding the whole control plane: killing it is
        // the campaign's purpose, not an authoring defect.
        let r = audit(
            r#"{"name": "x", "injections": [
                {"label": "kill", "kind": "fail", "target": "rack:0",
                 "at": 100.0, "repair_hours": 48.0}
            ]}"#,
            &sim,
        );
        assert!(!r.has_code("SA028"), "{}", r.render());
        assert!(!r.has_code("SA022"), "{}", r.render());
    }

    #[test]
    fn sa029_crew_starvation_peak_and_utilization() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        // Three concurrent hardware repairs vs one crew.
        let r = audit(
            r#"{"name": "x", "crews": {"count": 1}, "injections": [
                {"label": "h0", "kind": "fail", "target": "host:0",
                 "at": 100.0, "repair_hours": 50.0},
                {"label": "h1", "kind": "fail", "target": "host:1",
                 "at": 110.0, "repair_hours": 50.0},
                {"label": "h2", "kind": "fail", "target": "host:2",
                 "at": 120.0, "repair_hours": 50.0}
            ]}"#,
            &sim,
        );
        assert!(r.has_code("SA029"), "{}", r.render());

        // Periodic repairs saturating total capacity: every 10 h, each
        // taking 20 h, forever — utilization 2.0 on one crew.
        let r = audit(
            r#"{"name": "x", "crews": {"count": 1}, "injections": [
                {"label": "churn", "kind": "fail", "target": "host:0",
                 "at": 0.0, "every": 10.0, "repair_hours": 20.0}
            ]}"#,
            &sim,
        );
        assert!(r.has_code("SA029"), "{}", r.render());
    }

    #[test]
    fn process_restarts_do_not_consume_crews() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let sim = small_sim(&spec, &topo);
        // vProc windows never queue on the crew pool, however dense.
        let r = audit(
            r#"{"name": "x", "crews": {"count": 1}, "injections": [
                {"label": "p0", "kind": "fail", "target": "vproc:0/contrail-vrouter-agent",
                 "at": 100.0, "repair_hours": 50.0},
                {"label": "p1", "kind": "fail", "target": "vproc:1/contrail-vrouter-agent",
                 "at": 110.0, "repair_hours": 50.0}
            ]}"#,
            &sim,
        );
        assert!(!r.has_code("SA029"), "{}", r.render());
    }
}
