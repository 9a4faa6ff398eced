//! CLM-FMEA-CHAOS: the FMEA→chaos→verdict loop closed end to end.
//!
//! `sdnav chaos generate` compiles each topology's dominant failure modes
//! into an injection campaign with per-mode expectation records, and
//! `sdnav chaos run --verdict` holds the simulation to those records:
//! every injected mode must either be survived or have its downtime 100%
//! attributed to its own injections, inside its own window. This
//! experiment runs that loop over all three paper topologies and checks
//! four claims:
//!
//! 1. **Survive-or-attribute holds everywhere.** The generated campaigns
//!    for Small, Medium, and Large pass the verdict gate with zero
//!    violations — injected downtime never leaks across mode windows and
//!    the attribution ledger explains the whole availability deficit.
//! 2. **"One rack or three, but not two", regenerated from FMEA.** The
//!    Small and Medium genspecs contain a single-rack failure mode (one
//!    rack is a SPOF, and with two racks the majority rack still is);
//!    the Large genspec contains none. Dynamically, the Medium rack
//!    injection produces an attributed CP outage while the same rack
//!    probe on Large leaves the control plane up.
//! 3. **The election-latency distribution matters.** Swapping RAFT's
//!    uniform timeout for the committed empirical failover table (mean
//!    ≈ 348.65 ms vs 225 ms) at identical seeds shifts the consensus
//!    DES's election fraction in the direction of the distribution mean.
//! 4. **Thread-count invariance.** Running the whole generate→verdict
//!    pipeline on the work-stealing pool with 1 thread and with 4 threads
//!    yields byte-identical verdict documents.
//!
//! Replications execute on the work-stealing pool
//! ([`sdnav_grid::pool::execute`]); results fold in item order so the
//! output is thread-count invariant, and a panicking verdict aborts the
//! experiment.

use sdnav_bench::{header, spec};
use sdnav_chaos::{
    generate, verdict, ChaosSpec, GenerateConfig, InjectionKind, InjectionSpec, ModeVerdict,
    TargetRef, VerdictConfig, VerdictReport,
};
use sdnav_consensus::{ConsensusParams, ConsensusSim};
use sdnav_core::{
    ConsensusSpec, ControllerSpec, ElectionLatency, ElementRef, HostId, Scenario, SwParams,
    Topology,
};
use sdnav_fmea::{enumerate_filtered, Deployment};
use sdnav_grid::pool;
use sdnav_sim::{SimConfig, Simulation};

const HORIZON_HOURS: f64 = 20_000.0;
const ACCELERATE: f64 = 100.0;
const SEED: u64 = 7;
const BASELINE_REPLICATIONS: usize = 3;
const TOPOLOGIES: [&str; 3] = ["Small", "Medium", "Large"];

fn topology(s: &ControllerSpec, name: &str) -> Topology {
    match name {
        "Small" => Topology::small(s),
        "Medium" => Topology::medium(s),
        _ => Topology::large(s),
    }
}

fn sim_config() -> SimConfig {
    SimConfig::builder(Scenario::SupervisorNotRequired)
        .horizon_hours(HORIZON_HOURS)
        .accelerate(ACCELERATE)
        .compute_hosts(3)
        .build()
        .expect("valid verdict config")
}

/// Generate→verdict for every topology on the work-stealing pool at the
/// given thread count; returns `(compact verdict doc, report)` per
/// topology, folded in item order.
fn run_verdicts(s: &ControllerSpec, threads: usize) -> Vec<(String, VerdictReport)> {
    let names: Vec<&str> = TOPOLOGIES.to_vec();
    let (verdicts, _) = pool::execute(threads, &names, |_, &name| {
        let topo = topology(s, name);
        let deployment = Deployment::new(
            s,
            &topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorNotRequired,
        );
        let generated =
            generate(&deployment, &GenerateConfig::default()).expect("paper topologies have modes");
        let sim = Simulation::try_new(s, &topo, sim_config()).expect("valid simulation");
        let report = verdict(
            &sim,
            &generated,
            SEED,
            &VerdictConfig {
                replications: BASELINE_REPLICATIONS,
                z: 1.96,
            },
        )
        .expect("generated campaign compiles");
        (report.to_doc().to_compact(), report)
    });
    verdicts
}

/// A hand-built one-mode genspec injecting rack 0 as a common-cause
/// group — the probe the Large topology must survive (CP-wise).
fn rack_probe(topo: &Topology) -> sdnav_chaos::GeneratedCampaign {
    let members: Vec<TargetRef> = (0..topo.host_count())
        .filter(|&h| topo.rack_of(HostId(h)).0 == 0)
        .map(|h| TargetRef::Element(ElementRef::Host(h)))
        .collect();
    let campaign = ChaosSpec::builder(format!("rack-probe-{}", topo.name()))
        .seed(SEED)
        .injection(InjectionSpec {
            label: "mode0-rack:0".to_owned(),
            kind: InjectionKind::CommonCause {
                trigger: TargetRef::Element(ElementRef::Rack(0)),
                members,
                probability: 1.0,
                repair_hours: Some(48.0),
            },
            at: 1000.0,
            every: None,
        })
        .build()
        .expect("valid probe campaign");
    sdnav_chaos::GeneratedCampaign {
        topology: topo.name().to_owned(),
        scenario: "not-required".to_owned(),
        top_k: 1,
        max_order: 1,
        stress: false,
        campaign,
        expectations: vec![sdnav_chaos::ModeExpectation {
            label: "mode0".to_owned(),
            impact: sdnav_fmea::PlaneImpact::Both,
            targets: vec!["rack:0".to_owned()],
            injection_labels: vec!["mode0-rack:0".to_owned()],
            probability: 0.0,
            order: 1,
            window_start_hours: 1000.0,
            window_end_hours: 3000.0,
        }],
    }
}

/// Paired-seed mean election fraction of a consensus DES arm.
fn mean_election_fraction(consensus: &ConsensusSpec) -> f64 {
    let params = ConsensusParams {
        node_mtbf_hours: 500.0,
        node_mttr_hours: 8.0,
        horizon_hours: 50_000.0,
    };
    let mut sum = 0.0;
    for seed in 1..=8u64 {
        let sim = ConsensusSim::try_new(consensus.clone(), params).expect("valid consensus sim");
        sum += sim.run(seed).election_fraction;
    }
    sum / 8.0
}

fn empirical_fixture() -> ElectionLatency {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/consensus/raft_failover_quantiles.json"
    );
    let text = std::fs::read_to_string(path).expect("committed quantile fixture");
    sdnav_json::from_str(&text).expect("fixture decodes")
}

fn confirmed(ok: bool) -> &'static str {
    if ok {
        "CONFIRMED"
    } else {
        "NOT CONFIRMED"
    }
}

fn main() {
    let s = spec();
    header(
        "CLM-FMEA-CHAOS",
        "FMEA-generated campaigns pass the survive-or-attribute verdict gate",
    );
    println!(
        "generate: top_k=5, max_order=2; verdict: {HORIZON_HOURS} h horizon, \
         {ACCELERATE}x organics, {BASELINE_REPLICATIONS} baseline replications, seed {SEED}\n"
    );

    // Fixed at 4 so the invariance arm is exercised even on small boxes —
    // the work-stealing pool tolerates more threads than cores.
    let threads = 4;
    let reports = run_verdicts(&s, threads);
    let single_threaded = run_verdicts(&s, 1);

    for (name, (_, report)) in TOPOLOGIES.iter().zip(&reports) {
        let attributed = report
            .modes
            .iter()
            .filter(|m| m.verdict == ModeVerdict::Attributed)
            .count();
        println!(
            "{name:<8} campaign {:?}: {} mode(s), {attributed} attributed, \
             baseline {:.6} ± {:.1e}, injected {:.6}, adjusted {:.6} — {}",
            report.campaign,
            report.modes.len(),
            report.baseline_mean,
            report.baseline_half_width,
            report.cp_availability,
            report.adjusted_cp_availability,
            if report.pass() { "pass" } else { "FAIL" },
        );
        for violation in &report.violations {
            println!("    violation: {violation}");
        }
    }

    // Claim 2, static half: which genspecs contain a rack mode, plus the
    // order-1 rack enumeration itself.
    let mut rack_mode_in_genspec = Vec::new();
    let mut rack_spof_count = Vec::new();
    for name in TOPOLOGIES {
        let topo = topology(&s, name);
        let deployment = Deployment::new(
            &s,
            &topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorNotRequired,
        );
        let generated = generate(&deployment, &GenerateConfig::default()).expect("modes exist");
        rack_mode_in_genspec.push(
            generated
                .expectations
                .iter()
                .any(|e| e.targets.iter().any(|t| t.starts_with("rack:"))),
        );
        rack_spof_count
            .push(enumerate_filtered(&deployment, 1, |e| matches!(e, ElementRef::Rack(_))).len());
    }

    // Claim 2, dynamic half: the Medium rack mode is an attributed CP
    // outage; the same probe on Large leaves the CP up.
    let medium_rack_attributed = reports[1]
        .1
        .modes
        .iter()
        .zip(
            // Pair mode outcomes with their expectations' targets by index.
            {
                let topo = topology(&s, "Medium");
                let deployment = Deployment::new(
                    &s,
                    &topo,
                    SwParams::paper_defaults(),
                    Scenario::SupervisorNotRequired,
                );
                generate(&deployment, &GenerateConfig::default())
                    .expect("modes exist")
                    .expectations
            },
        )
        .any(|(outcome, exp)| {
            exp.targets.iter().any(|t| t == "rack:0")
                && outcome.verdict == ModeVerdict::Attributed
                && outcome.attributed_cp_outages > 0
        });

    let large_topo = topology(&s, "Large");
    let probe = rack_probe(&large_topo);
    let large_sim = Simulation::try_new(&s, &large_topo, sim_config()).expect("valid simulation");
    let large_probe_report = verdict(
        &large_sim,
        &probe,
        SEED,
        &VerdictConfig {
            replications: BASELINE_REPLICATIONS,
            z: 1.96,
        },
    )
    .expect("probe compiles");
    let large_cp_survives = large_probe_report.pass()
        && large_probe_report
            .modes
            .iter()
            .all(|m| m.attributed_cp_outages == 0);

    // Claim 3: empirical vs uniform election latency, paired seeds.
    let uniform_spec = ConsensusSpec::raft_defaults();
    let mut empirical_spec = ConsensusSpec::raft_defaults();
    empirical_spec.election_latency = empirical_fixture();
    let uniform_fraction = mean_election_fraction(&uniform_spec);
    let empirical_fraction = mean_election_fraction(&empirical_spec);

    // Claim 4: byte-identity across thread counts.
    let docs_match = reports
        .iter()
        .zip(&single_threaded)
        .all(|((doc_n, _), (doc_1, _))| doc_n == doc_1);

    println!("\nQualitative conclusions:");
    let all_pass = reports.iter().all(|(_, r)| r.pass());
    println!(
        "  'every generated campaign passes survive-or-attribute': {}",
        confirmed(all_pass)
    );
    let some_attributed = reports
        .iter()
        .all(|(_, r)| r.modes.iter().any(|m| m.verdict == ModeVerdict::Attributed));
    println!(
        "  'each campaign registers at least one attributed mode': {}",
        confirmed(some_attributed)
    );
    println!(
        "  'FMEA regenerates \"one rack or three, but not two\"': {}",
        confirmed(rack_mode_in_genspec == [true, true, false] && rack_spof_count == [1, 1, 0])
    );
    println!(
        "    (rack mode in genspec: Small={} Medium={} Large={})",
        rack_mode_in_genspec[0], rack_mode_in_genspec[1], rack_mode_in_genspec[2]
    );
    println!(
        "  'Medium rack injection is an attributed CP outage': {}",
        confirmed(medium_rack_attributed)
    );
    println!(
        "  'Large contains the rack probe without CP loss': {}",
        confirmed(large_cp_survives)
    );
    println!(
        "  'empirical failover latency raises the election fraction': {}",
        confirmed(empirical_fraction > uniform_fraction)
    );
    println!(
        "    (uniform {:.3e}, empirical {:.3e}, mean {:.1} ms vs {:.1} ms)",
        uniform_fraction,
        empirical_fraction,
        uniform_spec.election_latency.mean_ms(),
        empirical_spec.election_latency.mean_ms()
    );
    println!(
        "  'verdict documents are byte-identical at 1 and {threads} threads': {}",
        confirmed(docs_match)
    );
}
