//! Behavioral regeneration of the paper's Table I.

use std::fmt;

use sdnav_core::{ControllerSpec, ElementRef, RoleScope, Scenario, SwParams, Topology};

use crate::Deployment;

/// One row of the regenerated Table I: a process and its derived quorum
/// class for each plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Role name.
    pub role: String,
    /// Process name.
    pub process: String,
    /// Control-plane quorum class, e.g. "1 of 3" ("0 of 3" = not required).
    pub cp: String,
    /// Data-plane quorum class.
    pub dp: String,
    /// Derived CP requirement `m`.
    pub cp_required: u32,
    /// Derived DP requirement `m`.
    pub dp_required: u32,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<24} {:>6}  {:>6}",
            self.role, self.process, self.cp, self.dp
        )
    }
}

/// Derives Table I from *behavior*: for each process, instances are failed
/// one node at a time (everything else healthy) until the plane goes down;
/// the quorum class "m of n" follows from the number of failures tolerated.
///
/// Uses the supervisor-not-required scenario so supervisors report their
/// §III "0 of 3" class. The topology is irrelevant (only process elements
/// are failed); the Large layout is used.
///
/// ```
/// use sdnav_core::ControllerSpec;
/// use sdnav_fmea::derive_table1;
///
/// let spec = ControllerSpec::opencontrail_3x();
/// let table = derive_table1(&spec);
/// let zk = table.iter().find(|r| r.process == "zookeeper").unwrap();
/// assert_eq!(zk.cp, "2 of 3");
/// assert_eq!(zk.dp, "0 of 3");
/// ```
#[must_use]
pub fn derive_table1(spec: &ControllerSpec) -> Vec<Table1Row> {
    let topology = Topology::large(spec);
    let deployment = Deployment::new(
        spec,
        &topology,
        SwParams::paper_defaults(),
        Scenario::SupervisorNotRequired,
    );
    let mut rows = Vec::new();
    for role in &spec.roles {
        let instances = match role.scope {
            RoleScope::Controller => spec.nodes,
            RoleScope::PerHost => 1,
        };
        for p in &role.processes {
            // The first `failures` instances of the process.
            let failed = |failures: u32| -> Vec<ElementRef> {
                (0..failures as usize)
                    .map(|node| match role.scope {
                        RoleScope::Controller => ElementRef::proc(&role.name, node, &p.name),
                        RoleScope::PerHost => ElementRef::vproc(0, &p.name),
                    })
                    .collect()
            };
            let cp_required = derive_requirement(instances, |n| deployment.cp_up(&failed(n)));
            let dp_required = derive_requirement(instances, |n| deployment.host_dp_up(&failed(n)));
            rows.push(Table1Row {
                role: role.name.clone(),
                process: p.name.clone(),
                cp: format!("{cp_required} of {instances}"),
                dp: format!("{dp_required} of {instances}"),
                cp_required,
                dp_required,
            });
        }
    }
    rows
}

/// Fails 1, 2, … instances of one process; the first count that downs the
/// plane (`plane_up(failures)` false) determines `m`
/// (`m = instances − failures + 1`); surviving all failures means `m = 0`.
fn derive_requirement(instances: u32, plane_up: impl Fn(u32) -> bool) -> u32 {
    for failures in 1..=instances {
        if !plane_up(failures) {
            return instances - failures + 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I, transcribed for comparison:
    /// (role, process, CP m, DP m).
    const PAPER_TABLE_1: &[(&str, &str, u32, u32)] = &[
        ("Config", "config-api", 1, 0),
        ("Config", "discovery", 1, 1),
        ("Config", "schema", 1, 0),
        ("Config", "svc-monitor", 1, 0),
        ("Config", "ifmap", 1, 0),
        ("Config", "device-manager", 1, 0),
        ("Control", "control", 1, 1),
        ("Control", "dns", 0, 1),
        ("Control", "named", 0, 1),
        ("Analytics", "analytics-api", 1, 0),
        ("Analytics", "alarm-gen", 1, 0),
        ("Analytics", "collector", 1, 0),
        ("Analytics", "query-engine", 1, 0),
        ("Analytics", "redis", 1, 0),
        ("Database", "cassandra-db-config", 2, 0),
        ("Database", "cassandra-db-analytics", 2, 0),
        ("Database", "kafka", 2, 0),
        ("Database", "zookeeper", 2, 0),
        ("vRouter", "vrouter-agent", 0, 1),
        ("vRouter", "vrouter-dpdk", 0, 1),
    ];

    #[test]
    fn derived_table_matches_paper_table_1() {
        let spec = ControllerSpec::opencontrail_3x();
        let table = derive_table1(&spec);
        for &(role, process, cp, dp) in PAPER_TABLE_1 {
            let row = table
                .iter()
                .find(|r| r.role == role && r.process == process)
                .unwrap_or_else(|| panic!("{role}/{process} missing"));
            assert_eq!(row.cp_required, cp, "{role}/{process} CP");
            assert_eq!(row.dp_required, dp, "{role}/{process} DP");
        }
    }

    #[test]
    fn supervisors_and_nodemgrs_are_zero_of_n() {
        // §III: "the supervisor is a '0 of 3' process" and "the nodemgr is
        // also a '0 of 3' process" (in the not-required scenario).
        let spec = ControllerSpec::opencontrail_3x();
        let table = derive_table1(&spec);
        for row in table
            .iter()
            .filter(|r| r.process == "supervisor" || r.process == "nodemgr")
        {
            assert_eq!(row.cp_required, 0, "{}/{} CP", row.role, row.process);
            if row.role == "vRouter" && row.process == "supervisor" {
                // Scenario 1: even the vRouter supervisor is not required.
                assert_eq!(row.dp_required, 0);
            }
        }
    }

    #[test]
    fn quorum_class_strings_are_well_formed() {
        let spec = ControllerSpec::opencontrail_3x();
        let table = derive_table1(&spec);
        let agent = table.iter().find(|r| r.process == "vrouter-agent").unwrap();
        assert_eq!(agent.dp, "1 of 1");
        assert_eq!(agent.cp, "0 of 1");
        let control = table.iter().find(|r| r.process == "control").unwrap();
        assert_eq!(control.cp, "1 of 3");
        assert!(control.to_string().contains("Control"));
    }

    #[test]
    fn row_count_covers_every_process() {
        let spec = ControllerSpec::opencontrail_3x();
        assert_eq!(derive_table1(&spec).len(), spec.process_count());
    }
}
