//! SENS: parameter sensitivity rankings — "quantify sensitivity to
//! underlying platform and process resiliency" (the paper's stated goal),
//! answering which knob buys the most downtime reduction per topology,
//! plane, and scenario.

use sdnav_bench::{header, hw_params, spec, sw_params};
use sdnav_core::sensitivity::{hw, sw, SwMetric};
use sdnav_core::{Scenario, Topology};
use sdnav_report::Table;

fn main() {
    let spec = spec();

    header(
        "SENS-HW",
        "HW-centric: share of controller downtime attributable to each \
         parameter (∂U_sys/∂U_p · U_p/U_sys)",
    );
    let mut table = Table::new(vec![
        "topology",
        "parameter",
        "value",
        "dA/dA_p",
        "downtime share",
    ]);
    for topo in [
        Topology::small(&spec),
        Topology::medium(&spec),
        Topology::large(&spec),
    ] {
        for s in hw(&spec, &topo, hw_params()).expect("paper topology is enumerable") {
            table.row(vec![
                topo.name().to_owned(),
                s.parameter,
                format!("{:.5}", s.value),
                format!("{:.3}", s.derivative),
                format!("{:5.1}%", s.downtime_share * 100.0),
            ]);
        }
    }
    print!("{table}");

    println!();
    header(
        "SENS-SW",
        "SW-centric: the same ranking for the CP and per-host DP \
         (supervisor required)",
    );
    let mut table = Table::new(vec!["topology", "plane", "parameter", "downtime share"]);
    for topo in [Topology::small(&spec), Topology::large(&spec)] {
        for (plane, metric) in [
            ("CP", SwMetric::ControlPlane),
            ("DP", SwMetric::HostDataPlane),
        ] {
            for s in sw(
                &spec,
                &topo,
                sw_params(),
                Scenario::SupervisorRequired,
                metric,
            )
            .expect("paper topology is enumerable")
            {
                table.row(vec![
                    topo.name().to_owned(),
                    plane.to_owned(),
                    s.parameter,
                    format!("{:5.1}%", s.downtime_share * 100.0),
                ]);
            }
        }
    }
    print!("{table}");
    println!();
    println!(
        "Reading: Small CP downtime is a rack problem; Large CP downtime is\n\
         a software problem; host DP downtime is a vRouter-software problem\n\
         everywhere — the paper's conclusions, now with attribution\n\
         percentages."
    );
}
