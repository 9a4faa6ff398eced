//! A failure drill: interrogating the deployment's structure functions.
//!
//! Walks through the §III failure narratives as executable what-if
//! queries, then asks the FMEA engine for the failure modes an operations
//! team should drill for.
//!
//! Run with `cargo run --example failure_drill`.

use sdn_availability::fmea::{dominant_modes, enumerate_filtered};
use sdn_availability::{ControllerSpec, Deployment, ElementRef, Scenario, SwParams, Topology};

fn check(label: &str, cp: bool, dp: bool) {
    println!(
        "  {label:<62} CP {}  DP {}",
        if cp { "up  " } else { "DOWN" },
        if dp { "up  " } else { "DOWN" }
    );
}

fn main() {
    let spec = ControllerSpec::opencontrail_3x();
    let topo = Topology::small(&spec);
    let dep = Deployment::new(
        &spec,
        &topo,
        SwParams::paper_defaults(),
        Scenario::SupervisorNotRequired,
    );

    println!("§III narratives, replayed against the structure functions:\n");

    // "If control-1 fails ... every vrouter-agent will then be connected to
    // control-2 and control-3" — one control down, planes unaffected.
    let one = vec![ElementRef::proc("Control", 0, "control")];
    check("control-1 fails", dep.cp_up(&one), dep.host_dp_up(&one));

    // "If control-2 then fails, every vrouter-agent will then be connected
    // to only control-3" — still up.
    let two = vec![
        ElementRef::proc("Control", 0, "control"),
        ElementRef::proc("Control", 1, "control"),
    ];
    check(
        "control-1 and control-2 fail",
        dep.cp_up(&two),
        dep.host_dp_up(&two),
    );

    // "If control-3 subsequently fails, then every host DP will go down."
    let three = vec![
        ElementRef::proc("Control", 0, "control"),
        ElementRef::proc("Control", 1, "control"),
        ElementRef::proc("Control", 2, "control"),
    ];
    check(
        "all three control processes fail",
        dep.cp_up(&three),
        dep.host_dp_up(&three),
    );

    // "having only control-1 and dns-2 and named-3 available is not
    // sufficient for host DP availability."
    let scattered = vec![
        ElementRef::proc("Control", 0, "dns"),
        ElementRef::proc("Control", 0, "named"),
        ElementRef::proc("Control", 1, "control"),
        ElementRef::proc("Control", 1, "named"),
        ElementRef::proc("Control", 2, "control"),
        ElementRef::proc("Control", 2, "dns"),
    ];
    check(
        "only control-1, dns-2, named-3 left of the control block",
        dep.cp_up(&scattered),
        dep.host_dp_up(&scattered),
    );

    // "a lack of quorum of any of these [Database] processes only impacts
    // the SDN CP, not the host DP."
    let db = vec![
        ElementRef::proc("Database", 0, "zookeeper"),
        ElementRef::proc("Database", 2, "zookeeper"),
    ];
    check(
        "two of three zookeepers fail",
        dep.cp_up(&db),
        dep.host_dp_up(&db),
    );

    // "the supervisor is a '0 of 3' process" — scenario 1.
    let sups: Vec<ElementRef> = (0..3)
        .map(|n| ElementRef::proc("Database", n, "supervisor"))
        .collect();
    check(
        "all Database supervisors fail (not required)",
        dep.cp_up(&sups),
        dep.host_dp_up(&sups),
    );

    // Same failure under the supervisor-required scenario.
    let dep2 = Deployment::new(
        &spec,
        &topo,
        SwParams::paper_defaults(),
        Scenario::SupervisorRequired,
    );
    check(
        "all Database supervisors fail (required)",
        dep2.cp_up(&sups),
        dep2.host_dp_up(&sups),
    );

    // What should operations drill for? Rank software failure modes.
    println!("\nTop software failure modes to drill (supervisor required, order ≤ 2):");
    let modes = enumerate_filtered(&dep2, 2, |e| {
        matches!(e, ElementRef::Proc { .. } | ElementRef::VProc { .. })
    });
    for m in dominant_modes(&modes, true, 4) {
        println!("  CP: {m}");
    }
    for m in dominant_modes(&modes, false, 4) {
        println!("  DP: {m}");
    }

    println!(
        "\nThe per-host vRouter processes dominate: exactly the paper's\n\
         conclusion that the host data plane, not the distributed control\n\
         plane, is the availability bottleneck."
    );
}
