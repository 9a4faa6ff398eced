//! Pins the engine paths no other golden covers: Failover rediscovery,
//! latent reveals, maintenance windows and finite crew pools (FIFO and
//! priority), on Small/Medium/Large under both supervisor scenarios.
//!
//! Each row of `golden/engine_paths.golden.txt` is one seeded
//! `run_injected`: its event count, the bit patterns of the CP and DP
//! availabilities, the CP outage count, and the ledger's injected events,
//! revealed latents and CP outage-hours (bits). Any drift, even in the last
//! bit, means the engine changed a simulated statistic. Regenerate the file
//! only for a change that means to, with the command in its header.

use sdnav_core::{ControllerSpec, Scenario, Topology};
use sdnav_sim::{
    ConnectionModel, CrewDiscipline, CrewPool, InjectAction, InjectTarget, InjectionPlan,
    PlannedEvent, SimConfig, Simulation,
};

const GOLDEN: &str = include_str!("golden/engine_paths.golden.txt");

const HEADER: &str = "\
# Engine-path golden: Failover rediscovery, latent reveals, maintenance
# windows and crew pools (see crates/sim/tests/engine_paths.rs).
# Regenerate: SDNAV_UPDATE_GOLDEN=1 cargo test -p sdnav-sim --test engine_paths
# case topology scenario seed events cp_bits dp_bits cp_outages injected revealed cp_outage_hours_bits
";

const SEEDS: [u64; 2] = [1, 2];

/// One engine path under test.
#[derive(Clone, Copy)]
enum Case {
    /// Failover connections, organic failures only.
    Failover,
    /// Latents, maintenance windows and forced failures under one FIFO
    /// crew, analytic connections.
    Fifo,
    /// The same campaign under two priority crews with Failover
    /// connections.
    Priority,
}

impl Case {
    const ALL: [Case; 3] = [Case::Failover, Case::Fifo, Case::Priority];

    fn name(self) -> &'static str {
        match self {
            Case::Failover => "failover",
            Case::Fifo => "fifo",
            Case::Priority => "priority",
        }
    }

    fn config(self, scenario: Scenario) -> SimConfig {
        let mut c = SimConfig::paper_defaults(scenario).accelerated(200.0);
        c.horizon_hours = 2_000.0;
        c.compute_hosts = 3;
        if !matches!(self, Case::Fifo) {
            c.connection = ConnectionModel::Failover {
                rediscovery_hours: 0.5,
            };
        }
        c
    }

    fn plan(self, sim: &Simulation<'_>) -> InjectionPlan {
        let crews = match self {
            Case::Failover => return InjectionPlan::empty(),
            Case::Fifo => CrewPool {
                crews: 1,
                discipline: CrewDiscipline::Fifo,
            },
            Case::Priority => CrewPool {
                crews: 2,
                discipline: CrewDiscipline::Priority,
            },
        };
        let s = sim.structure();
        // Every seventh controller process carries a latent fault, armed
        // three times over the run so reveals recur.
        let latent: Vec<usize> = (0..)
            .step_by(7)
            .take_while(|&pid| s.process(pid).is_some())
            .collect();
        let mut events = Vec::new();
        let mut at = |time: f64, injection: usize, target: InjectTarget, action: InjectAction| {
            events.push(PlannedEvent {
                time,
                injection,
                target,
                action,
            });
        };
        for (k, &start) in [150.0, 800.0, 1_400.0].iter().enumerate() {
            for (i, &pid) in latent.iter().enumerate() {
                at(
                    start + i as f64 * 0.25,
                    0,
                    InjectTarget::Proc(pid),
                    InjectAction::Latent,
                );
            }
            at(
                start + 40.0 + k as f64,
                1,
                InjectTarget::Host(0),
                InjectAction::Maintenance {
                    duration_hours: 30.0,
                },
            );
        }
        let fail = |repair_hours| InjectAction::Fail { repair_hours };
        at(300.0, 2, InjectTarget::Vm(1), fail(Some(12.0)));
        at(
            500.0,
            3,
            InjectTarget::Rack(0),
            InjectAction::Maintenance {
                duration_hours: 6.0,
            },
        );
        // Overlapping windows on one element merge to the latest end.
        at(
            503.0,
            3,
            InjectTarget::Rack(0),
            InjectAction::Maintenance {
                duration_hours: 9.0,
            },
        );
        at(1_000.0, 4, InjectTarget::Host(1), fail(None));
        at(1_001.0, 4, InjectTarget::Vm(0), fail(None));
        at(1_002.0, 4, InjectTarget::Rack(0), fail(Some(20.0)));
        at(1_200.0, 5, InjectTarget::VProc(0, 0), fail(Some(3.0)));
        at(1_700.0, 2, InjectTarget::Vm(1), fail(None));
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        InjectionPlan {
            labels: [
                "latent",
                "maint-host0",
                "kill-vm1",
                "maint-rack0",
                "burst",
                "vproc",
            ]
            .map(String::from)
            .to_vec(),
            events,
            crews: Some(crews),
        }
    }
}

fn rows() -> String {
    let spec = ControllerSpec::opencontrail_3x();
    let mut out = String::from(HEADER);
    for topo in Topology::paper(&spec) {
        for (scenario, tag) in [
            (Scenario::SupervisorNotRequired, "not-required"),
            (Scenario::SupervisorRequired, "required"),
        ] {
            for case in Case::ALL {
                let sim = Simulation::try_new(&spec, &topo, case.config(scenario))
                    .expect("valid simulation");
                let plan = case.plan(&sim);
                for seed in SEEDS {
                    let r = sim.run_injected(seed, &plan);
                    let ledger = r.ledger.expect("injected runs record a ledger");
                    out.push_str(&format!(
                        "{} {} {tag} {seed} {} {:#018x} {:#018x} {} {} {} {:#018x}\n",
                        case.name(),
                        topo.name(),
                        r.events,
                        r.cp_availability.to_bits(),
                        r.dp_availability.to_bits(),
                        r.cp_outage_count,
                        ledger.injected_events,
                        ledger.revealed_latents,
                        ledger.cp_outage_hours().to_bits(),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn engine_paths_match_the_golden() {
    let rows = rows();
    if std::env::var_os("SDNAV_UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/engine_paths.golden.txt"
        );
        std::fs::write(path, &rows).expect("write the golden");
        return;
    }
    for (line, (want, got)) in GOLDEN.lines().zip(rows.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", line + 1);
    }
    assert_eq!(rows.lines().count(), GOLDEN.lines().count(), "row count");
}

#[test]
fn golden_exercises_every_path() {
    // A golden whose campaign never reveals a latent or never lands an
    // injection pins nothing about those paths.
    let data: Vec<Vec<&str>> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(' ').collect())
        .collect();
    assert_eq!(data.len(), 3 * 2 * Case::ALL.len() * SEEDS.len());
    for case in ["fifo", "priority"] {
        let rows: Vec<_> = data.iter().filter(|r| r[0] == case).collect();
        assert!(rows.iter().all(|r| r[8] != "0"), "{case}: injections land");
        assert!(
            rows.iter().any(|r| r[9] != "0"),
            "{case}: some latent is revealed"
        );
    }
    assert!(data.iter().any(|r| r[7] != "0"), "some CP outage occurs");
}
