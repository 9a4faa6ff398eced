//! PLAN: the §V.D / §VII "cost : resiliency tradeoff before capital
//! investment occurs", as a Pareto analysis over topology × scenario ×
//! maintenance tier.

use sdnav_bench::{header, spec, sw_params};
use sdnav_core::planner::{cheapest_meeting, evaluate_candidates, pareto_frontier, CostModel};
use sdnav_report::Table;

fn main() {
    let spec = spec();
    let cost = CostModel::ballpark();
    let points =
        evaluate_candidates(&spec, sw_params(), &cost).expect("paper topologies are enumerable");

    header(
        "PLAN",
        "all deployment candidates (cost in arbitrary units; CP downtime \
         in minutes/year)",
    );
    let mut table = Table::new(vec![
        "topology",
        "scenario",
        "maintenance",
        "cost",
        "CP m/y",
    ]);
    for p in &points {
        table.row(vec![
            p.topology.clone(),
            format!("{:?}", p.scenario),
            p.tier.name().to_owned(),
            format!("{:.0}", p.cost),
            format!("{:.2}", p.cp_downtime_m_y),
        ]);
    }
    print!("{table}");

    println!();
    header(
        "PLAN-FRONTIER",
        "Pareto-optimal candidates (cheapest first)",
    );
    let frontier = pareto_frontier(&points);
    for p in &frontier {
        println!(
            "  cost {:>4.0}  CP {:>5.2} m/y  — {} / {:?} / {}",
            p.cost,
            p.cp_downtime_m_y,
            p.topology,
            p.scenario,
            p.tier.name()
        );
    }
    println!(
        "\nTwo structural results:\n\
         • Medium never appears — it costs more than Small and is slightly\n\
           less available: 'one rack or three, but not two'.\n\
         • The paper's Large topology never appears either: Small-3R (the\n\
           three consolidated GCAD VMs, one rack each) achieves the same\n\
           quorum protection — marginally better, since co-located roles\n\
           fail together onto nodes the quorum already tolerates — at ~30%\n\
           less hardware. The paper's own observations (consolidation is\n\
           availability-neutral; only three racks protect the quorum)\n\
           imply this layout, but its evaluation stops at the Small/Medium/\n\
           Large grid."
    );

    println!();
    header(
        "PLAN-TARGETS",
        "cheapest candidate meeting a CP downtime target",
    );
    for target in [30.0, 10.0, 5.0, 2.0, 1.0] {
        match cheapest_meeting(&points, target) {
            Some(p) => println!(
                "  ≤ {target:>4.1} m/y: cost {:>4.0} — {} / {:?} / {}",
                p.cost,
                p.topology,
                p.scenario,
                p.tier.name()
            ),
            None => println!("  ≤ {target:>4.1} m/y: not achievable with these candidates"),
        }
    }
}
