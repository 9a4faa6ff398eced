//! Parallel independent replications.

use sdnav_core::{ControllerSpec, Topology};

use crate::{Estimate, SimConfig, Simulation, Welford};

/// Aggregated result of several independent replications.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedResult {
    /// Across-replication estimate of control-plane availability.
    pub cp: Estimate,
    /// Across-replication estimate of (per-host average) data-plane
    /// availability.
    pub dp: Estimate,
    /// Total events processed across replications.
    pub total_events: u64,
    /// Total simulated hours across replications.
    pub total_hours: f64,
    /// Total control-plane outages observed across replications.
    pub cp_outages: u64,
    /// Mean CP outage duration in hours across all observed outages
    /// (NaN if none occurred).
    pub cp_outage_mean_hours: f64,
}

/// Runs `replications` independent simulations (seeds `seed`,
/// `seed+1`, …, wrapping past `u64::MAX`) on at most one thread per
/// available CPU and aggregates their means.
///
/// # Panics
///
/// Panics if `replications` is zero or a worker thread panics.
#[must_use]
pub fn replicate(
    spec: &ControllerSpec,
    topology: &Topology,
    config: SimConfig,
    seed: u64,
    replications: usize,
) -> ReplicatedResult {
    assert!(replications > 0, "need at least one replication");
    let sim = Simulation::try_new(spec, topology, config).expect("valid simulation");
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(replications);
    // Worker `w` runs the contiguous seed block starting at `first(w)`. The
    // join loop folds the blocks in worker order, which is seed order, so
    // the Welford streams see a fixed sample order and the aggregate is
    // deterministic regardless of completion order or worker count.
    let (per, extra) = (replications / workers, replications % workers);
    let first = |w: usize| w * per + w.min(extra);
    let mut cp = Welford::new();
    let mut dp = Welford::new();
    let mut total_events = 0u64;
    let mut total_hours = 0.0f64;
    let mut cp_outages = 0u64;
    let mut outage_hours = 0.0f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let sim = &sim;
                let block = first(w)..first(w + 1);
                scope.spawn(move || {
                    block
                        .map(|i| sim.run(seed.wrapping_add(i as u64)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for r in h.join().expect("replication worker panicked") {
                cp.push(r.cp_availability);
                dp.push(r.dp_availability);
                total_events += r.events;
                total_hours += r.simulated_hours;
                cp_outages += r.cp_outage_count;
                if r.cp_outage_count > 0 {
                    outage_hours += r.cp_outage_mean_hours * r.cp_outage_count as f64;
                }
            }
        }
    });
    ReplicatedResult {
        cp: cp.estimate(),
        dp: dp.estimate(),
        total_events,
        total_hours,
        cp_outages,
        cp_outage_mean_hours: if cp_outages > 0 {
            outage_hours / cp_outages as f64
        } else {
            f64::NAN
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::Scenario;

    #[test]
    fn replications_aggregate() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired).accelerated(100.0);
        cfg.horizon_hours = 20_000.0;
        cfg.compute_hosts = 2;
        let r = replicate(&spec, &topo, cfg, 5, 4);
        assert_eq!(r.cp.samples, 4);
        assert!(r.total_events > 0);
        assert!((r.total_hours - 4.0 * 20_000.0).abs() < 1e-9);
        assert!(r.cp.mean > 0.9);
    }

    #[test]
    fn parallel_blocks_fold_in_seed_order() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired).accelerated(200.0);
        cfg.horizon_hours = 5_000.0;
        cfg.compute_hosts = 2;
        let r = replicate(&spec, &topo, cfg, 11, 7);

        let sim = Simulation::try_new(&spec, &topo, cfg).expect("valid simulation");
        let mut cp = Welford::new();
        let mut dp = Welford::new();
        let (mut events, mut outages, mut outage_hours) = (0u64, 0u64, 0.0f64);
        for seed in 11..18 {
            let run = sim.run(seed);
            cp.push(run.cp_availability);
            dp.push(run.dp_availability);
            events += run.events;
            outages += run.cp_outage_count;
            if run.cp_outage_count > 0 {
                outage_hours += run.cp_outage_mean_hours * run.cp_outage_count as f64;
            }
        }
        assert_eq!(r.cp, cp.estimate());
        assert_eq!(r.dp, dp.estimate());
        assert_eq!(r.total_events, events);
        assert_eq!(r.cp_outages, outages);
        assert!(outages > 0);
        assert_eq!(r.cp_outage_mean_hours, outage_hours / outages as f64);
    }

    #[test]
    fn replication_tightens_with_more_runs() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::small(&spec);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired).accelerated(200.0);
        cfg.horizon_hours = 10_000.0;
        cfg.compute_hosts = 2;
        let few = replicate(&spec, &topo, cfg, 1, 3);
        let many = replicate(&spec, &topo, cfg, 1, 12);
        // Not a strict theorem for one draw, but overwhelmingly likely with
        // 4x the samples; tolerate equality.
        assert!(many.cp.std_error <= few.cp.std_error * 1.5 + 1e-12);
    }
}
