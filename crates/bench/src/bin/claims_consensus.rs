//! CLM-CONSENSUS: control-plane availability with explicit RAFT/BFT
//! dynamics, cross-validated DES vs CTMC.
//!
//! The paper's availability model gates the control plane on a static
//! k-of-n node count; this experiment replaces that gate with the
//! consensus subsystem's discrete-event simulator (randomized election
//! timeouts, leader failover latency, quorum-loss stalls, follower
//! catch-up) and its CTMC macro-state counterpart, and checks three
//! claims:
//!
//! 1. **Cross-validation.** For crash-only fault mixes the DES
//!    steady-state CP availability must agree with the CTMC macro-state
//!    model within the DES run's own 95% confidence half-width, for both
//!    a 3-node and a 5-node cluster. The two implementations share no
//!    code beyond the spec — agreement is evidence both are right.
//! 2. **"One rack or three, but not two"**, election-latency-aware. The
//!    §V.D placement conclusion is re-tested with rack common-cause
//!    outages driving the consensus DES, using paired seeds (common
//!    random numbers) so only the placement varies between arms.
//! 3. **Byzantine tolerance is costlier than crash tolerance.** With the
//!    adaptive-BFT quorum `2·F_bft + F_crash + 1`, tolerating one
//!    byzantine fault on 5 nodes (quorum 4) must cost availability
//!    relative to tolerating two crash faults on the same 5 nodes
//!    (quorum 3) in the same environment, paired seeds again.
//!
//! Replications execute on the work-stealing pool
//! ([`sdnav_grid::pool::execute`]); results fold in item order so the
//! output is thread-count invariant, and a panicking replication aborts
//! the experiment.

use sdnav_bench::header;
use sdnav_consensus::{ctmc_availability, ConsensusParams, ConsensusSim, RackConfig};
use sdnav_core::{ConsensusSpec, FaultMix};
use sdnav_grid::pool;
use sdnav_sim::Welford;

const REPLICATIONS: usize = 12;
const HORIZON_HOURS: f64 = 100_000.0;
/// Stressed environment: node availability μ/(λ+μ) ≈ 0.984, low enough
/// that quorum-loss states carry real probability mass inside the horizon.
const NODE_MTBF_HOURS: f64 = 500.0;
const NODE_MTTR_HOURS: f64 = 8.0;

struct CrossValidation {
    cluster_size: u32,
    des: Welford,
    ctmc: f64,
}

/// Runs `REPLICATIONS` DES replications of a crash-only cluster and the
/// closed-form CTMC for the same spec.
fn cross_validate(cluster_size: u32) -> CrossValidation {
    let mut spec = ConsensusSpec::raft_defaults();
    spec.cluster_size = cluster_size;
    spec.fault_mix = FaultMix::crash_only(1);
    let params = ConsensusParams {
        node_mtbf_hours: NODE_MTBF_HOURS,
        node_mttr_hours: NODE_MTTR_HOURS,
        horizon_hours: HORIZON_HOURS,
    };
    let ctmc = ctmc_availability(&spec, &params).expect("crash-only CTMC solves");
    let sim = ConsensusSim::try_new(spec, params).expect("valid consensus sim");

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps: Vec<usize> = (0..REPLICATIONS).collect();
    let (cells, _) = pool::execute(threads, &reps, |_, &r| sim.run(1 + r as u64).availability);
    let mut des = Welford::new();
    for availability in cells {
        des.push(availability);
    }
    CrossValidation {
        cluster_size,
        des,
        ctmc,
    }
}

/// Mean availability over paired seeds of a 3-node cluster whose
/// controllers sit in `placement` racks.
fn placement_availability(placement: &[usize]) -> f64 {
    let spec = ConsensusSpec::raft_defaults();
    let params = ConsensusParams {
        node_mtbf_hours: 2_000.0,
        node_mttr_hours: 1.0,
        horizon_hours: 200_000.0,
    };
    let mut sum = 0.0;
    for seed in 0..8u64 {
        let outcome = ConsensusSim::with_racks(
            spec.clone(),
            params,
            Some(RackConfig {
                placement: placement.to_vec(),
                rack_mtbf_hours: 4_000.0,
                rack_mttr_hours: 2.0,
            }),
        )
        .expect("valid rack config")
        .run(seed);
        sum += outcome.availability;
    }
    sum / 8.0
}

/// Mean availability over paired seeds of a 5-node cluster with `mix`.
fn mix_availability(mix: FaultMix) -> f64 {
    let mut spec = ConsensusSpec::raft_defaults();
    spec.cluster_size = 5;
    spec.fault_mix = mix;
    let params = ConsensusParams {
        node_mtbf_hours: NODE_MTBF_HOURS,
        node_mttr_hours: NODE_MTTR_HOURS,
        horizon_hours: HORIZON_HOURS,
    };
    let sim = ConsensusSim::try_new(spec, params).expect("valid consensus sim");
    let mut sum = 0.0;
    for seed in 0..8u64 {
        sum += sim.run(seed).availability;
    }
    sum / 8.0
}

fn main() {
    header(
        "CLM-CONSENSUS",
        "RAFT/BFT control-plane dynamics: DES vs CTMC cross-validation",
    );
    println!(
        "environment: node MTBF {NODE_MTBF_HOURS} h, MTTR {NODE_MTTR_HOURS} h, \
         {HORIZON_HOURS} h horizon, {REPLICATIONS} replications\n"
    );

    let mut cross_ok = true;
    for cv in [cross_validate(3), cross_validate(5)] {
        let e = cv.des.estimate();
        let half_width = 1.96 * e.std_error;
        let gap = (e.mean - cv.ctmc).abs();
        let ok = gap <= half_width;
        cross_ok &= ok;
        println!(
            "n={}  DES {:.6} ±{:.6}   CTMC {:.6}   |Δ| {:.2e} {} half-width {:.2e}",
            cv.cluster_size,
            e.mean,
            e.std_error,
            cv.ctmc,
            gap,
            if ok { "<=" } else { ">" },
            half_width,
        );
    }

    let one = placement_availability(&[0, 0, 0]);
    let two = placement_availability(&[0, 0, 1]);
    let three = placement_availability(&[0, 1, 2]);
    println!(
        "\nrack placement (paired seeds): 1 rack {one:.6}   2 racks {two:.6}   3 racks {three:.6}"
    );

    let crash = mix_availability(FaultMix::crash_only(2));
    let bft = mix_availability(FaultMix {
        byzantine: 1,
        crash: 0,
    });
    println!(
        "5-node fault mixes (paired seeds): crash-only 0:2 (quorum 3) {crash:.6}   \
         BFT 1:0 (quorum 4) {bft:.6}"
    );

    println!("\nQualitative conclusions:");
    println!(
        "  'DES steady-state CP availability matches the CTMC within the 95% CI': {}",
        if cross_ok {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!(
        "  '2-rack placement loses to 1 rack, election-latency aware': {}",
        if two <= one {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (2 racks − 1 rack = {:+.6})", two - one);
    println!(
        "  '3-rack placement beats 2 racks, election-latency aware': {}",
        if three > two {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (3 racks − 2 racks = {:+.6})", three - two);
    println!(
        "  'one byzantine fault costs more than two crash faults on 5 nodes': {}",
        if bft < crash {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    );
    println!("    (BFT − crash-only = {:+.6})", bft - crash);
}
