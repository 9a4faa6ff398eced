//! CLM-CHAOS: the §V.D rack-count conclusion ("one rack or three, but not
//! two") re-tested under injected rack-level common-cause failures.
//!
//! The paper's HW-centric argument is structural: with two racks one rack
//! still holds a node majority, so rack faults hurt as much as having a
//! single rack — only the third rack buys containment. The analytic model
//! assumes independent rack faults; this experiment stresses the same
//! claim when a rack fault can *cascade* into other racks (shared power or
//! spine domains), the failure mode the chaos engine exists to model.
//!
//! Campaign: every rack receives a periodic fault (staggered, one per
//! 250 h per rack, fixed 24 h repair). Each fault is a common-cause group
//! whose members are one host in every *other* rack, each cascading with
//! probability 0.15. The cascade outcomes are resampled every replication
//! by re-seeding the campaign.
//!
//! Expected structure (per 250 h of exposure per rack):
//! - Small (1 rack): every fault takes the whole cluster down — 24 h.
//! - Medium (2 racks): the majority rack alone breaks quorum; the
//!   minority rack adds 24 h more with probability p. Strictly *worse*
//!   than Small for any p > 0.
//! - Large (3 racks): a lone rack fault is contained; quorum only breaks
//!   when a cascade fires (probability 1 − (1 − p)² per fault), which at
//!   p = 0.15 keeps Large well ahead of Small.
//!
//! The run also cross-checks the attribution ledger against the engine's
//! own outage statistics: the ledger must account for 100% of the
//! reported CP outage-hours in every replication, and the per-host DP
//! outage *windows* must reproduce the per-cause DP host-hours they
//! aggregate into.
//!
//! Replications execute on the work-stealing pool
//! ([`sdnav_grid::pool::execute`]); results fold in item order so the
//! output is thread-count invariant. The claims hold over all
//! replications, so a panicking replication aborts the experiment.

use sdnav_bench::{header, spec};
use sdnav_chaos::{ChaosSpec, InjectionKind, InjectionSpec, TargetRef};
use sdnav_core::{HostId, Scenario, Topology};
use sdnav_grid::pool;
use sdnav_sim::{SimConfig, Simulation, Welford};

const HORIZON_HOURS: f64 = 20_000.0;
const ACCELERATE: f64 = 200.0;
const REPLICATIONS: usize = 12;
const CASCADE_P: f64 = 0.15;
const REPAIR_HOURS: f64 = 24.0;
const PERIOD_HOURS: f64 = 250.0;

/// One periodic fault per rack; members are one host in each other rack.
fn rack_ccf_campaign(topo: &Topology) -> ChaosSpec {
    let racks = topo.rack_count();
    let first_host_of =
        |rack: usize| (0..topo.host_count()).find(|&h| topo.rack_of(HostId(h)).0 == rack);
    let mut injections = Vec::new();
    for rack in 0..racks {
        let members: Vec<TargetRef> = (0..racks)
            .filter(|&other| other != rack)
            .filter_map(first_host_of)
            .map(TargetRef::Host)
            .collect();
        // A single-rack deployment has no cascade targets: plain fault.
        let kind = if members.is_empty() {
            InjectionKind::Fail {
                target: TargetRef::Rack(rack),
                repair_hours: Some(REPAIR_HOURS),
            }
        } else {
            InjectionKind::CommonCause {
                trigger: TargetRef::Rack(rack),
                members,
                probability: CASCADE_P,
                repair_hours: Some(REPAIR_HOURS),
            }
        };
        injections.push(InjectionSpec {
            label: format!("rack-{rack}-ccf"),
            kind,
            // Stagger racks so their 24 h repair windows do not overlap by
            // construction; each rack still faults once per PERIOD_HOURS.
            at: 100.0 + 80.0 * rack as f64,
            every: Some(PERIOD_HOURS),
        });
    }
    ChaosSpec {
        name: format!("rack-ccf-{}", topo.name()),
        seed: 11,
        crews: None,
        injections,
    }
}

struct TopoResult {
    name: &'static str,
    cp: Welford,
    /// Largest gap between the ledger's outage-hours and the engine's own
    /// `mean × count` across the replications.
    max_ledger_gap: f64,
    /// Largest per-cause gap between the summed DP outage windows and the
    /// ledger's aggregated DP host-hours across the replications.
    max_window_gap: f64,
}

fn run_topology(topo: &Topology, name: &'static str) -> TopoResult {
    let s = spec();
    let config = SimConfig::builder(Scenario::SupervisorNotRequired)
        .horizon_hours(HORIZON_HOURS)
        .accelerate(ACCELERATE)
        .compute_hosts(2)
        .build()
        .expect("valid chaos bench config");
    let sim = Simulation::try_new(&s, topo, config).expect("valid simulation");
    let campaign = rack_ccf_campaign(topo);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps: Vec<usize> = (0..REPLICATIONS).collect();
    // Replications are independent; results are folded in item order below,
    // so the pool keeps the output thread-count invariant.
    let (cells, _) = pool::execute(threads, &reps, |_, &r| {
        // Re-seed so cascade outcomes are resampled each replication.
        let mut campaign = campaign.clone();
        campaign.seed = 11 + r as u64;
        let plan = sdnav_chaos::compile(&campaign, &sim).expect("campaign compiles");
        let result = sim.run_injected(1000 + r as u64, &plan);
        let ledger = result
            .ledger
            .as_ref()
            .expect("injected runs carry a ledger");
        let reported = if result.cp_outage_count == 0 {
            0.0
        } else {
            result.cp_outage_mean_hours * result.cp_outage_count as f64
        };
        let ledger_gap = (ledger.cp_outage_hours() - reported).abs();
        let window_gap = ledger
            .dp_window_hours_by_cause()
            .iter()
            .zip(&ledger.dp_down_host_hours)
            .fold(0.0_f64, |acc, (w, h)| acc.max((w - h).abs()));
        (result.cp_availability, ledger_gap, window_gap)
    });
    let mut cp = Welford::new();
    let mut max_ledger_gap: f64 = 0.0;
    let mut max_window_gap: f64 = 0.0;
    for (availability, ledger_gap, window_gap) in cells {
        cp.push(availability);
        max_ledger_gap = max_ledger_gap.max(ledger_gap);
        max_window_gap = max_window_gap.max(window_gap);
    }
    TopoResult {
        name,
        cp,
        max_ledger_gap,
        max_window_gap,
    }
}

fn main() {
    let s = spec();
    header(
        "CLM-CHAOS",
        "\"one rack or three, but not two\" under rack common-cause faults",
    );
    println!(
        "campaign: per-rack fault every {PERIOD_HOURS} h, {REPAIR_HOURS} h repair, \
         cross-rack cascade p={CASCADE_P}"
    );
    println!(
        "sim: {HORIZON_HOURS} h horizon, {ACCELERATE}x accelerated organics, \
         {REPLICATIONS} replications\n"
    );

    let results = [
        run_topology(&Topology::small(&s), "Small (1 rack)"),
        run_topology(&Topology::medium(&s), "Medium (2 racks)"),
        run_topology(&Topology::large(&s), "Large (3 racks)"),
    ];
    for r in &results {
        let e = r.cp.estimate();
        println!(
            "{:<18} CP availability: {:.6} ±{:.6}",
            r.name, e.mean, e.std_error
        );
    }

    let small = results[0].cp.estimate().mean;
    let medium = results[1].cp.estimate().mean;
    let large = results[2].cp.estimate().mean;
    let ledger_gap = results
        .iter()
        .fold(0.0_f64, |acc, r| acc.max(r.max_ledger_gap));
    let window_gap = results
        .iter()
        .fold(0.0_f64, |acc, r| acc.max(r.max_window_gap));

    println!("\nQualitative conclusions:");
    println!(
        "  '2 racks lose their availability advantage over 1 rack under rack CCF': {}",
        if medium <= small {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (Medium − Small = {:+.6})", medium - small);
    println!(
        "  '3 racks retain their availability advantage under rack CCF': {}",
        if large > small {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (Large − Small = {:+.6})", large - small);
    println!(
        "  'attribution ledger accounts for 100% of CP outage-hours': {}",
        if ledger_gap < 1e-6 {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (max |ledger − engine| across runs = {ledger_gap:.2e} h)");
    println!(
        "  'per-cause DP outage windows reproduce the DP host-hours': {}",
        if window_gap < 1e-6 {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (max per-cause |Σ windows − ledger| across runs = {window_gap:.2e} h)");
}
