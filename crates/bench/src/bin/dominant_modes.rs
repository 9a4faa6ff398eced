//! DOM: the §VI.G dominant-failure-mode analysis, computed by FMEA
//! enumeration at low / default / high process availability.

use sdnav_bench::{header, spec, sw_params};
use sdnav_core::{ElementRef, Scenario, Topology};
use sdnav_fmea::{dominant_modes, enumerate_filtered, Deployment};

fn main() {
    let spec = spec();
    let topo = Topology::large(&spec);

    header(
        "DOM",
        "dominant software failure modes (process + supervisor elements, \
         order ≤ 2, ranked by rare-event probability)",
    );

    for (label, delta) in [
        ("−1 OoM (A=0.9998)", 1.0),
        ("default (A=0.99998)", 0.0),
        ("+1 OoM (A=0.999998)", -1.0),
    ] {
        let params = sw_params().scale_process_downtime(delta);
        println!("\nprocess availability {label}:");
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            let dep = Deployment::new(&spec, &topo, params, scenario);
            let modes = enumerate_filtered(&dep, 2, |e| {
                matches!(e, ElementRef::Proc { .. } | ElementRef::VProc { .. })
            });
            println!("  {scenario:?}:");
            println!("    CP:");
            for m in dominant_modes(&modes, true, 3) {
                println!("      {m}");
            }
            println!("    DP:");
            for m in dominant_modes(&modes, false, 3) {
                println!("      {m}");
            }
        }
    }
    println!();
    println!(
        "paper §VI.G: supervisor required → dominant CP mode is one Database\n\
         supervisor + any Database process in another node; supervisor not\n\
         required → two failures of the same Database process in different\n\
         nodes. DP: the vRouter processes (and supervisor when required)."
    );
}
