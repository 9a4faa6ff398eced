//! Harness-less timing benches for both discrete-event engines: the
//! availability simulator and the consensus DES.
//!
//! Run with `cargo bench -p sdnav-bench --bench simulator`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sdnav_consensus::{ConsensusParams, ConsensusSim, InjectTarget, Injection, RackConfig};
use sdnav_core::{ConsensusSpec, ControllerSpec, FaultMix, Scenario, Topology};
use sdnav_sim::{ConnectionModel, SimConfig, Simulation};

/// A short, busy configuration so each iteration processes a comparable,
/// non-trivial number of events.
fn busy_config(scenario: Scenario) -> SimConfig {
    let mut c = SimConfig::paper_defaults(scenario).accelerated(100.0);
    c.horizon_hours = 5_000.0;
    c.compute_hosts = 3;
    c
}

/// Runs seeds `1..=iters` and returns the wall time and the events those
/// runs processed (each seed runs a different number).
fn time_runs(sim: &Simulation<'_>, iters: u64) -> (Duration, u64) {
    let mut events = 0;
    let start = Instant::now();
    for seed in 1..=iters {
        events += black_box(sim.run(seed)).events;
    }
    (start.elapsed(), events)
}

fn bench_event_throughput() {
    let spec = ControllerSpec::opencontrail_3x();
    for topo in [Topology::small(&spec), Topology::large(&spec)] {
        let sim =
            Simulation::try_new(&spec, &topo, busy_config(Scenario::SupervisorRequired)).unwrap();
        let name = topo.name().to_lowercase();
        let iters = 20u64;
        let (elapsed, events) = time_runs(&sim, iters);
        let per_event = elapsed.as_nanos() as f64 / events as f64;
        println!(
            "simulator/run_5000h/{name:<8} {per_event:>8.1} ns/event  \
             ({events} events over {iters} runs, total {elapsed:.2?})"
        );
    }
}

/// One `sim_sweep` benchmark cell at the paper's process availability:
/// Large, supervisor required, ×200, 2 compute hosts, 10 000 h, and its 4
/// replications as seeds 1..=4.
fn bench_sim_sweep_cell() {
    let spec = ControllerSpec::opencontrail_3x();
    let topo = Topology::large(&spec);
    let cfg = SimConfig::builder(Scenario::SupervisorRequired)
        .accelerate(200.0)
        .horizon_hours(10_000.0)
        .compute_hosts(2)
        .build()
        .unwrap();
    let sim = Simulation::try_new(&spec, &topo, cfg).unwrap();
    let iters = 4u64;
    let (elapsed, events) = time_runs(&sim, iters);
    let per_event = elapsed.as_nanos() as f64 / events as f64;
    println!(
        "simulator/sim_sweep/large    {per_event:>8.1} ns/event  \
         ({events} events over {iters} runs, total {elapsed:.2?})"
    );
}

fn bench_failover_model() {
    let spec = ControllerSpec::opencontrail_3x();
    let topo = Topology::small(&spec);
    let mut cfg = busy_config(Scenario::SupervisorNotRequired);
    cfg.connection = ConnectionModel::Failover {
        rediscovery_hours: 1.0 / 60.0,
    };
    let sim = Simulation::try_new(&spec, &topo, cfg).unwrap();
    let iters = 20u64;
    let (elapsed, events) = time_runs(&sim, iters);
    let per_run = elapsed / iters as u32;
    let per_event = elapsed.as_nanos() as f64 / events as f64;
    println!(
        "simulator/failover_connection_model {per_run:>10.2?}/run {per_event:>8.1} ns/event  \
         ({events} events over {iters} runs)"
    );
}

/// Runs seeds `1..=iters` of `sim` under `injections` and prints the
/// consensus engine's cost per event and per election.
fn time_consensus(name: &str, sim: &ConsensusSim, injections: &[Injection], iters: u64) {
    let (mut events, mut elections) = (0, 0);
    let start = Instant::now();
    for seed in 1..=iters {
        let outcome = black_box(sim.run_injected(seed, injections).unwrap());
        events += outcome.events;
        elections += outcome.elections;
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64;
    println!(
        "consensus/{name:<26} {:>8.1} ns/event {:>8.1} ns/election  \
         ({events} events, {elections} elections over {iters} runs, total {elapsed:.2?})",
        ns / events as f64,
        ns / elections as f64,
    );
}

/// The consensus engine in both queue regimes. The first two cases keep
/// at most about 2n+1 events pending, so their queue stays a scanned
/// vector; the third opens with 40 kills pending, so its queue starts as
/// a heap and falls back to the vector as the kills fire.
fn bench_consensus() {
    let raft = |cluster_size, crash| ConsensusSpec {
        cluster_size,
        fault_mix: FaultMix::crash_only(crash),
        ..ConsensusSpec::raft_defaults()
    };

    // A 5-node RAFT cluster with node failures accelerated as in a grid
    // cell.
    let params = ConsensusParams::accelerated(250_000.0, 100.0);
    let sim = ConsensusSim::try_new(raft(5, 2), params).unwrap();
    time_consensus("raft5_250000h", &sim, &[], 20);

    // The `consensus_sweep` benchmark's 7-node crash-2 cell at its
    // 150 ms election-timeout floor.
    let params = ConsensusParams::accelerated(2_500_000.0, 200.0);
    let sim = ConsensusSim::try_new(raft(7, 2), params).unwrap();
    time_consensus("raft7_crash2_sweep_cell", &sim, &[], 2);

    // Five nodes split 3/2 over two racks, with forty leader kills one
    // every 97 hours.
    let params = ConsensusParams {
        node_mtbf_hours: 150.0,
        node_mttr_hours: 2.0,
        horizon_hours: 4_000.0,
    };
    let racks = RackConfig {
        placement: vec![0, 0, 0, 1, 1],
        rack_mtbf_hours: 400.0,
        rack_mttr_hours: 3.0,
    };
    let sim = ConsensusSim::with_racks(raft(5, 2), params, Some(racks)).unwrap();
    let kills: Vec<Injection> = (0..40)
        .map(|k| Injection {
            at_hours: 30.0 + 97.0 * f64::from(k),
            target: InjectTarget::Leader,
        })
        .collect();
    time_consensus("raft5_racks_40_leader_kills", &sim, &kills, 2_000);
}

fn main() {
    bench_event_throughput();
    bench_sim_sweep_cell();
    bench_failover_model();
    bench_consensus();
}
