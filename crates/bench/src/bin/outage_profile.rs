//! PROFILE: the paper's fleet argument, quantified — "the single-rack
//! Small topology may experience no rack-related downtime for many years
//! followed by a highly-publicized extended outage" (§V.D / §VII).
//!
//! Equal *average* downtime can hide wildly different outage profiles.
//! This experiment simulates the Small and Large topologies and reports CP
//! outage frequency and duration percentiles, showing Small's downtime
//! arrives in rare, long, headline-grade events while Large's arrives in
//! frequent, short, sub-hour blips.

use sdnav_bench::{header, spec};
use sdnav_core::{Scenario, Topology};
use sdnav_report::{Binning, Histogram, Table};
use sdnav_sim::{percentile, InjectionPlan, OutageRecord, RestartModel, SimConfig, Simulation};

fn main() {
    let spec = spec();
    header(
        "PROFILE",
        "CP outage frequency/duration profile, Small vs Large \
         (accelerated ×20 rates, supervisor required, 2M simulated hours)",
    );

    let mut table = Table::new(vec![
        "topology",
        "availability",
        "outages",
        "MTBF (h)",
        "mean (h)",
        "p50 (h)",
        "p95 (h)",
        "max (h)",
    ]);
    let mut histograms = Vec::new();
    for topo in [Topology::small(&spec), Topology::large(&spec)] {
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorRequired).accelerated(20.0);
        cfg.horizon_hours = 2_000_000.0;
        cfg.compute_hosts = 1;
        cfg.restart_model = RestartModel::AnalyticIndependence;
        let r = Simulation::try_new(&spec, &topo, cfg)
            .expect("valid simulation")
            .run_injected(4242, &InjectionPlan::empty());
        let ledger = r.ledger.as_ref().expect("an injected run keeps a ledger");
        let mut durations: Vec<f64> = ledger
            .cp_outages
            .iter()
            .map(OutageRecord::duration)
            .collect();
        durations.sort_by(f64::total_cmp);
        let d = &durations;
        let row = if d.is_empty() {
            vec![
                topo.name().to_owned(),
                format!("{:.7}", r.cp_availability),
                "0".into(),
                "∞".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]
        } else {
            vec![
                topo.name().to_owned(),
                format!("{:.7}", r.cp_availability),
                r.cp_outage_count.to_string(),
                format!("{:.0}", r.cp_mtbf_hours),
                format!("{:.2}", r.cp_outage_mean_hours),
                format!("{:.2}", percentile(d, 0.50)),
                format!("{:.2}", percentile(d, 0.95)),
                format!("{:.2}", percentile(d, 1.0)),
            ]
        };
        table.row(row);
        if let Some(hist) = Histogram::new(d, 8, Binning::Logarithmic) {
            histograms.push((topo.name().to_owned(), hist));
        }
    }
    print!("{table}");
    for (name, hist) in &histograms {
        println!("\n{name} CP outage durations (hours, log-spaced bins):");
        print!("{hist}");
    }
    println!();
    println!(
        "Reading: bulk outages (p50/p95) look identical — process restarts.\n\
         The difference is the extreme tail: Small's worst outage is\n\
         rack-repair-sized (tens of hours; two *days* at unaccelerated\n\
         rates), while Large's worst is a host repair. A provider with\n\
         hundreds of sites sees the Small profile as recurring headline\n\
         outages even though the *average* downtime differs by only\n\
         ~5 minutes/year at paper rates."
    );
}
