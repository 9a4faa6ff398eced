//! Harness-less timing benches for both discrete-event engines: the
//! availability simulator and the consensus DES.
//!
//! Run with `cargo bench -p sdnav-bench --bench simulator`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sdnav_consensus::{ConsensusParams, ConsensusSim};
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

/// A 5-node RAFT cluster with node failures accelerated as in a grid
/// cell, over fixed seeds: the consensus engine's cost per event and per
/// election.
fn bench_consensus() {
    let spec = ConsensusSpec {
        cluster_size: 5,
        fault_mix: FaultMix::crash_only(2),
        ..ConsensusSpec::raft_defaults()
    };
    let params = ConsensusParams::accelerated(250_000.0, 100.0);
    let sim = ConsensusSim::try_new(spec, params).unwrap();
    let iters = 20u64;
    let (mut events, mut elections) = (0, 0);
    let start = Instant::now();
    for seed in 1..=iters {
        let outcome = black_box(sim.run(seed));
        events += outcome.events;
        elections += outcome.elections;
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64;
    println!(
        "consensus/raft5_250000h    {:>8.1} ns/event {:>8.1} ns/election  \
         ({events} events, {elections} elections over {iters} runs, total {elapsed:.2?})",
        ns / events as f64,
        ns / elections as f64,
    );
}

fn main() {
    bench_event_throughput();
    bench_failover_model();
    bench_consensus();
}
