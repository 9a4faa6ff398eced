//! Checks over [`ControllerSpec`] (Tables I–III) and [`Topology`].

use sdnav_core::{ControllerSpec, Plane, RestartMode, SpecError, Topology, TopologyError};

use crate::{AuditReport, Diagnostic};

/// Lints a controller spec: every [`ControllerSpec::violations`] finding as
/// an error — structure and the consensus block (SA001), duplicate names
/// (SA002), quorum bounds (SA003), group consistency (SA004), multiple
/// supervisors (SA005) and downtime-factor ranges (SA008) — then the
/// supervisor/restart warnings of Table II (SA005).
#[must_use]
pub fn audit_spec(spec: &ControllerSpec) -> AuditReport {
    let mut r = AuditReport::new();
    for e in spec.violations() {
        let proc_path = |role, process| format!("spec/roles/{role}/processes/{process}");
        let (code, path, hint) = match &e {
            SpecError::EmptyCluster => (
                "SA001",
                "spec/nodes".to_owned(),
                "set nodes to an odd 2N+1 cluster size (the paper uses 3)",
            ),
            SpecError::NoRoles => (
                "SA001",
                "spec/roles".to_owned(),
                "add at least one role (Config, Control, Analytics, Database, vRouter, …)",
            ),
            SpecError::BadConsensus(_) => (
                "SA001",
                "spec/consensus".to_owned(),
                "use finite positive durations, a well-formed election latency, \
                 and a cluster of 1 to 255 nodes",
            ),
            SpecError::DuplicateRole { role, .. } => (
                "SA002",
                format!("spec/roles/{role}"),
                "rename or remove the duplicate role",
            ),
            SpecError::DuplicateProcess { role, process, .. } => (
                "SA002",
                proc_path(role, process),
                "rename or remove the duplicate process",
            ),
            SpecError::QuorumTooLarge { role, process, .. } => (
                "SA003",
                proc_path(role, process),
                "lower the quorum requirement or grow the cluster",
            ),
            SpecError::InconsistentGroup { role, process, .. } => (
                "SA004",
                proc_path(role, process),
                "give every member of a grouped series block the same requirement",
            ),
            SpecError::MultipleSupervisors { role, .. } => (
                "SA005",
                format!("spec/roles/{role}"),
                "mark exactly one process per role as the supervisor",
            ),
            SpecError::BadDowntimeFactor { role, process, .. } => (
                "SA008",
                proc_path(role, process),
                "use a finite factor ≥ 0 (1.0 = baseline, 10.0 = 10x the downtime)",
            ),
            _ => ("SA001", "spec".to_owned(), "fix the spec"),
        };
        r.push(Diagnostic::error(code, path, e.to_string(), hint));
    }
    for role in &spec.roles {
        let role_path = format!("spec/roles/{}", role.name);
        for sup in role
            .processes
            .iter()
            .filter(|p| p.is_supervisor && p.restart == RestartMode::Auto)
        {
            r.push(Diagnostic::warn(
                "SA005",
                format!("{role_path}/processes/{}", sup.name),
                "supervisor is marked auto-restart",
                "the paper's Table II models supervisors as manual-restart \
                 (nothing supervises the supervisor); use restart = manual",
            ));
        }
        let has_auto = role
            .processes
            .iter()
            .any(|p| p.restart == RestartMode::Auto && !p.is_supervisor);
        if has_auto && role.supervisor().is_none() {
            r.push(Diagnostic::warn(
                "SA005",
                role_path,
                format!(
                    "role {:?} has auto-restart processes but no supervisor",
                    role.name
                ),
                "auto restart in §III is performed by the role's supervisor; \
                 add a supervisor process or mark the processes manual-restart",
            ));
        }
    }
    r
}

/// Lints a topology against a spec: every [`Topology::violations`]
/// finding (SA012: missing assignments, dangling VMs, roles that are not
/// controller roles of the spec, out-of-range nodes), then whether the
/// Table III quorum counts are satisfiable by the instances the topology
/// actually provides (SA003).
#[must_use]
pub fn audit_topology(spec: &ControllerSpec, topo: &Topology) -> AuditReport {
    let mut r = AuditReport::new();
    let path = |rest: &str| format!("topology/{}/{rest}", topo.name());

    for e in topo.violations(spec) {
        let entry = |role: &str, node: &u32| path(&format!("assignments/{role}/{node}"));
        let (at, hint) = match &e {
            TopologyError::MissingAssignment { role, node } => (
                entry(role, node),
                "assign every (controller role, node) pair to a VM",
            ),
            TopologyError::DanglingVm { role, node, .. } => {
                (entry(role, node), "point the assignment at an existing VM")
            }
            TopologyError::UnknownRole { role, node } => (
                entry(role, node),
                "fix the role name or add the role to the spec; per-host roles \
                 (the vRouter) run on every compute host and take no assignment",
            ),
            TopologyError::NodeOutOfRange { role, node, .. } => {
                (entry(role, node), "use node indices 0..nodes")
            }
            _ => (path("assignments"), "fix the topology"),
        };
        r.push(Diagnostic::error("SA012", at, e.to_string(), hint));
    }

    // Table III cross-check: each quorum must be satisfiable by the
    // instances this topology actually provides.
    for plane in [Plane::ControlPlane, Plane::DataPlane] {
        for req in spec.requirements(plane) {
            let role = &spec.roles[req.role_index];
            let provided = (0..spec.nodes)
                .filter(|&n| topo.vm_of(&role.name, n).is_some())
                .count();
            if req.required as usize > provided {
                r.push(Diagnostic::error(
                    "SA003",
                    path(&format!("quorums/{}/{}", role.name, req.label)),
                    format!(
                        "quorum needs {} of {} instances but the topology provides {provided}",
                        req.required, spec.nodes
                    ),
                    "assign the missing instances or relax the quorum",
                ));
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use sdnav_core::{ProcessSpec, RoleScope, RoleSpec};

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    #[test]
    fn sa001_zero_nodes_and_no_roles() {
        let empty = ControllerSpec {
            name: "X".into(),
            nodes: 0,
            roles: vec![],
            rates: None,
            consensus: None,
        };
        let r = audit_spec(&empty);
        assert_eq!(r.error_count(), 2);
        assert!(r.diagnostics().iter().all(|d| d.code == "SA001"));
    }

    #[test]
    fn sa001_bad_consensus_block() {
        let mut s = spec();
        let mut consensus = sdnav_core::ConsensusSpec::raft_defaults();
        consensus.cluster_size = 300;
        consensus.catch_up_ms = -200.0;
        s.consensus = Some(consensus);
        let r = audit_spec(&s);
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "SA001")
            .expect("SA001 reported");
        assert_eq!(d.path, "spec/consensus");
        assert_eq!(d.message, s.validate().unwrap_err().to_string());
    }

    #[test]
    fn sa002_duplicate_role_and_process() {
        let mut s = spec();
        let copy = s.roles[0].clone();
        s.roles.push(copy);
        let p = s.roles[1].processes[0].clone();
        s.roles[1].processes.push(p);
        let r = audit_spec(&s);
        assert!(r.has_code("SA002"));
        // One finding per duplicated name, not per occurrence.
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "SA002").count(),
            2
        );
    }

    #[test]
    fn sa003_quorum_exceeds_cluster() {
        let mut s = spec();
        s.roles[0].processes[0].cp_required = 4;
        let r = audit_spec(&s);
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "SA003")
            .expect("SA003 reported");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.path, "spec/roles/Config/processes/config-api");
        assert!(d.message.contains("cp_required = 4"));
    }

    #[test]
    fn sa003_per_host_bound_is_one() {
        let mut s = spec();
        let vrouter = s.roles.iter_mut().find(|r| r.name == "vRouter").unwrap();
        vrouter.processes[0].dp_required = 2;
        assert!(audit_spec(&s).has_code("SA003"));
    }

    #[test]
    fn sa004_inconsistent_group() {
        let mut s = spec();
        let control = s.roles.iter_mut().find(|r| r.name == "Control").unwrap();
        let dns = control
            .processes
            .iter_mut()
            .find(|p| p.name == "dns")
            .unwrap();
        dns.dp_required = 0;
        let r = audit_spec(&s);
        assert!(r.has_code("SA004"));
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA004" && d.path.ends_with("dns")));
    }

    #[test]
    fn sa005_multiple_supervisors_is_error() {
        let mut s = spec();
        s.roles[0].processes[0].is_supervisor = true;
        let r = audit_spec(&s);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA005" && d.severity == Severity::Error));
    }

    #[test]
    fn sa005_auto_supervisor_is_warning() {
        let mut s = spec();
        let sup = s.roles[0]
            .processes
            .iter_mut()
            .find(|p| p.is_supervisor)
            .unwrap();
        sup.restart = RestartMode::Auto;
        let r = audit_spec(&s);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA005" && d.severity == Severity::Warn));
        assert!(!r.has_errors());
    }

    #[test]
    fn sa005_auto_without_supervisor_is_warning() {
        let s = ControllerSpec {
            name: "X".into(),
            nodes: 3,
            roles: vec![RoleSpec::new(
                "Solo",
                RoleScope::Controller,
                vec![ProcessSpec::new("worker", RestartMode::Auto).cp(1)],
            )],
            rates: None,
            consensus: None,
        };
        let r = audit_spec(&s);
        assert!(r.diagnostics().iter().any(|d| d.code == "SA005"
            && d.severity == Severity::Warn
            && d.message.contains("no supervisor")));
    }

    #[test]
    fn sa008_bad_downtime_factor() {
        let mut s = spec();
        s.roles[0].processes[1].downtime_factor = f64::NAN;
        s.roles[0].processes[2].downtime_factor = -2.0;
        let r = audit_spec(&s);
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "SA008").count(),
            2
        );
    }

    #[test]
    fn collects_multiple_findings_in_one_pass() {
        let mut s = spec();
        s.roles[0].processes[0].cp_required = 9; // SA003
        s.roles[1].processes[0].downtime_factor = -1.0; // SA008
        s.roles[2].processes[0].is_supervisor = true; // SA005 (two supervisors)
        let r = audit_spec(&s);
        assert!(r.has_code("SA003") && r.has_code("SA008") && r.has_code("SA005"));
        assert!(r.error_count() >= 3);
    }

    #[test]
    fn sa012_missing_assignment() {
        let s = spec();
        let mut t = Topology::new("Partial");
        let rack = t.add_rack();
        let host = t.add_host(rack);
        // Assign every controller role except Database nodes 1 and 2.
        for (_, role) in s.controller_roles() {
            for node in 0..s.nodes {
                if role.name == "Database" && node > 0 {
                    continue;
                }
                let vm = t.add_vm(host);
                t.assign(vm, &role.name, node);
            }
        }
        let r = audit_topology(&s, &t);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA012" && d.path.contains("Database/2")));
        // Table III cross-check: the 2-of-3 Database quorums now have only
        // one instance, so they are unsatisfiable on this topology.
        assert!(r.has_code("SA003"));
    }

    #[test]
    fn sa012_unknown_role_and_out_of_range_node() {
        let s = spec();
        let mut t = Topology::small(&s);
        let rack = t.add_rack();
        let host = t.add_host(rack);
        let vm = t.add_vm(host);
        t.assign(vm, "Nonexistent", 0);
        t.assign(vm, "Config", 7);
        let r = audit_topology(&s, &t);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA012" && d.message.contains("unknown role")));
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA012" && d.message.contains("outside the 3-node cluster")));
    }

    #[test]
    fn sa012_dangling_vm_from_json() {
        let s = spec();
        let mut topo = Topology::small(&s);
        // Round-trip through JSON, then corrupt one assignment's VM index.
        let json = sdnav_json::to_string(&topo);
        let corrupted = json.replacen("\"vm\":0", "\"vm\":99", 1);
        topo = sdnav_json::from_str(&corrupted).unwrap();
        let r = audit_topology(&s, &topo);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == "SA012" && d.message.contains("VM 99")));
    }

    #[test]
    fn paper_topologies_audit_clean() {
        let s = spec();
        for t in [
            Topology::small(&s),
            Topology::medium(&s),
            Topology::large(&s),
            Topology::small_three_racks(&s),
        ] {
            let r = audit_topology(&s, &t);
            assert!(r.is_clean(), "{}:\n{}", t.name(), r.render());
        }
    }
}
