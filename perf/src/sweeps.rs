//! `sim_sweep` and `consensus_sweep`: one supervised grid evaluation per
//! pass, on the path `sdnav sweep --format json` runs, encoded exactly as
//! that command prints it.
//!
//! The traced run decomposes each pass by replaying its cells through the
//! public calls the grid makes — `Simulation::try_new`/`run` at
//! `plan::item_seed` seeds, the analytic reference, `ConsensusSim::run`,
//! `ctmc_availability` — and checks every replayed count against the
//! engine's rows.

use sdnav_audit::SweepPlan;
use sdnav_consensus::{ctmc_availability, ConsensusParams, ConsensusSim};
use sdnav_core::{
    ConsensusSpec, ControllerSpec, FaultMix, ModelState, Scenario, SwModel, Topology,
};
use sdnav_grid::plan::{
    item_seed, plan_consensus_items, plan_items, Figure, SimTopology, WorkItem,
};
use sdnav_grid::{
    evaluate_incremental, evaluate_supervised, EvalGraph, GridResults, GridSpec, SuperviseOptions,
    SupervisedOutcome,
};
use sdnav_sim::{SimConfig, Simulation};

use crate::digest::sha256_hex;
use crate::metrics::{rate, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Outcome, Passes, Run};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sim,
    Consensus,
}

/// A grid and the spec it evaluates.
#[derive(Debug, Clone)]
pub struct Sweep {
    kind: Kind,
    spec: ControllerSpec,
    grid: GridSpec,
}

impl Sweep {
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Sweep {
        let builder = GridSpec::builder().threads(2).seed(seed);
        let grid = match kind {
            // Figs. 3-5 at 7 points plus 28 simulated cells of 4
            // replications each.
            Kind::Sim => builder
                .points(if smoke { 3 } else { 7 })
                .replications(if smoke { 1 } else { 4 })
                .sim_horizon_hours(if smoke { 2_000.0 } else { 10_000.0 })
                .sim_accelerate(200.0)
                .sim_compute_hosts(2),
            // Fig. 3 at one point plus 3 timeouts × 2 cluster sizes × 3
            // fault mixes of RAFT-default consensus cells, one DES
            // replication each.
            Kind::Consensus => {
                let (timeouts, sizes, mixes): (&[f64], &[u32], &[FaultMix]) = if smoke {
                    (&[150.0], &[5], &[FaultMix::crash_only(1)])
                } else {
                    (
                        &[150.0, 300.0, 600.0],
                        &[5, 7],
                        &[
                            FaultMix::crash_only(1),
                            FaultMix::crash_only(2),
                            FaultMix {
                                byzantine: 1,
                                crash: 0,
                            },
                        ],
                    )
                };
                builder
                    .figures(&[Figure::Fig3])
                    .points(1)
                    .replications(0)
                    .sim_horizon_hours(if smoke { 100_000.0 } else { 2_500_000.0 })
                    .consensus(ConsensusSpec::raft_defaults())
                    .consensus_election_timeouts_ms(timeouts)
                    .consensus_cluster_sizes(sizes)
                    .consensus_fault_mixes(mixes)
            }
        };
        Sweep {
            kind,
            spec: ControllerSpec::opencontrail_3x(),
            grid: grid.build().expect("benchmark grid is valid"),
        }
    }

    fn evaluate(&self) -> Result<SupervisedOutcome, String> {
        let outcome = evaluate_supervised(&self.spec, &self.grid, &SuperviseOptions::default())
            .map_err(|e| e.to_string())?;
        if outcome.interrupted || !outcome.quarantine.is_empty() {
            return Err("the sweep finished incomplete".to_owned());
        }
        Ok(outcome)
    }

    /// The analytic cells alone, on one thread: their cache misses are
    /// exactly the distinct sub-models the grid needs.
    fn figures_only(&self) -> GridSpec {
        GridSpec {
            replications: 0,
            threads: 1,
            consensus: None,
            ..self.grid.clone()
        }
    }
}

/// What `sdnav sweep --format json` prints for the same grid.
fn encode(results: &GridResults) -> String {
    format!("{}\n", sdnav_json::to_string_pretty(results))
}

impl Passes for Sweep {
    fn pass(&self, _index: usize) -> Result<String, String> {
        Ok(encode(&self.evaluate()?.results))
    }

    fn slot(&self, _index: usize) -> usize {
        0
    }
}

/// Counts one traced pass replays, for comparison across passes.
#[derive(Debug, Default, Clone, PartialEq)]
struct Replayed {
    /// Traced wall time of each replayed cell, seconds.
    cell_s: Vec<f64>,
    figure_misses: u64,
    sim_events: u64,
    sim_replications: u64,
    consensus_replications: u64,
    elections: u64,
    stalls: u64,
}

/// Mirrors the grid's simulated-cell configuration: every process
/// unavailability scales by 10^(−x) at the paper's fixed MTBF.
fn sim_cell_config(grid: &GridSpec, x: f64, scenario: Scenario) -> Result<SimConfig, String> {
    let defaults = SimConfig::paper_defaults(scenario);
    let mtbf = defaults.process_mtbf;
    let restart_for = |restart: f64| {
        let u = restart / (mtbf + restart) * 10f64.powf(-x);
        mtbf * u / (1.0 - u)
    };
    SimConfig::builder(scenario)
        .auto_restart(restart_for(defaults.auto_restart))
        .manual_restart(restart_for(defaults.manual_restart))
        .horizon_hours(grid.sim_horizon_hours)
        .compute_hosts(grid.sim_compute_hosts)
        .accelerate(grid.sim_accelerate)
        .build()
        .map_err(|e| e.to_string())
}

impl Sweep {
    /// Replays the pass whose engine results are `results`, recording a
    /// span per public call and a problem per disagreement.
    fn replay(
        &self,
        t: &mut Tracer,
        results: &GridResults,
        problems: &mut Vec<String>,
    ) -> Result<Replayed, String> {
        let mut out = Replayed::default();
        let state = ModelState::paper(self.spec.clone());
        let graph = EvalGraph::new();
        let figures = t
            .span("grid.evaluate_incremental", |_| {
                evaluate_incremental(&state, &self.figures_only(), &graph)
            })
            .map_err(|e| e.to_string())?;
        out.figure_misses = figures.metrics.cache_misses;
        if (
            &figures.results.fig3,
            &figures.results.fig4,
            &figures.results.fig5,
        ) != (&results.fig3, &results.fig4, &results.fig5)
        {
            problems.push("figure rows differ between the engine and a 1-thread replay".into());
        }
        match self.kind {
            Kind::Sim => self.replay_sim(t, results, problems, &mut out)?,
            Kind::Consensus => self.replay_consensus(t, results, problems, &mut out)?,
        }
        Ok(out)
    }

    fn replay_sim(
        &self,
        t: &mut Tracer,
        results: &GridResults,
        problems: &mut Vec<String>,
        out: &mut Replayed,
    ) -> Result<(), String> {
        let g = &self.grid;
        let small = Topology::small(&self.spec);
        let large = Topology::large(&self.spec);
        let cells = plan_items(&g.figures, g.points, g.replications)
            .into_iter()
            .filter(|item| matches!(item, WorkItem::SimPoint { .. }));
        let mut rows = results.sim.iter();
        for item in cells {
            let WorkItem::SimPoint {
                x,
                topology,
                scenario,
            } = item
            else {
                unreachable!("filtered to simulated cells");
            };
            let topo = match topology {
                SimTopology::Small => &small,
                SimTopology::Large => &large,
            };
            let config = sim_cell_config(g, x, scenario)?;
            let base = item_seed(g.seed, &item);
            let cell = t.spans().len();
            let (events, reference) = t.span("replay.cell", |t| {
                let sim = t.span("sim.build", |_| {
                    Simulation::try_new(&self.spec, topo, config)
                });
                let sim = sim.map_err(|e| e.to_string())?;
                let mut events = 0;
                for r in 0..g.replications {
                    events += t
                        .span("sim.run", |_| sim.run(base.wrapping_add(r as u64)))
                        .events;
                }
                let reference = t.span("core.sim_reference", |_| {
                    SwModel::try_new(&self.spec, topo, config.analytic_params(), scenario)
                        .map(|m| m.cp_availability())
                });
                Ok::<_, String>((events, reference.map_err(|e| e.to_string())?))
            })?;
            out.cell_s.push(t.spans()[cell].duration_ns() as f64 / 1e9);
            out.sim_events += events;
            out.sim_replications += g.replications as u64;
            match rows.next() {
                Some(row)
                    if row.events == events
                        && row.replications == g.replications
                        && row.analytic_cp.to_bits() == reference.to_bits() => {}
                Some(row) => problems.push(format!(
                    "sim cell {item:?}: engine {} events / {} replications, replay {events} / {}",
                    row.events, row.replications, g.replications
                )),
                None => problems.push(format!("sim cell {item:?} has no engine row")),
            }
        }
        if rows.next().is_some() {
            problems.push("the engine returned more sim rows than the plan has cells".into());
        }
        Ok(())
    }

    fn replay_consensus(
        &self,
        t: &mut Tracer,
        results: &GridResults,
        problems: &mut Vec<String>,
        out: &mut Replayed,
    ) -> Result<(), String> {
        let g = &self.grid;
        let base = g
            .consensus
            .as_ref()
            .expect("consensus grid has a base spec");
        // Node failure rates accelerate like the grid's consensus cells.
        let defaults = ConsensusParams::paper_defaults();
        let params = ConsensusParams {
            node_mtbf_hours: defaults.node_mtbf_hours / g.sim_accelerate,
            node_mttr_hours: defaults.node_mttr_hours,
            horizon_hours: g.sim_horizon_hours,
        };
        let replications = g.replications.max(1);
        let cells = plan_consensus_items(
            &g.consensus_election_timeouts_ms,
            &g.consensus_cluster_sizes,
            &g.consensus_fault_mixes,
        );
        let mut rows = results.consensus.iter();
        for item in cells {
            let WorkItem::ConsensusPoint {
                election_timeout_ms,
                cluster_size,
                fault_mix,
            } = item
            else {
                unreachable!("plan_consensus_items yields consensus cells");
            };
            let mut spec = base.clone();
            spec.election_latency = base.election_latency.with_floor_ms(election_timeout_ms);
            spec.cluster_size = cluster_size;
            spec.fault_mix = fault_mix;
            let seed = item_seed(g.seed, &item);
            let cell = t.spans().len();
            let (ctmc, elections, stalls) = t.span("replay.cell", |t| {
                let sim = t.span("consensus.build", |_| {
                    ConsensusSim::try_new(spec.clone(), params)
                });
                let sim = sim.map_err(|e| e.to_string())?;
                let ctmc = t.span("markov.ctmc_availability", |_| {
                    ctmc_availability(&spec, &params)
                });
                let (mut elections, mut stalls) = (0, 0);
                for r in 0..replications {
                    let outcome = t.span("consensus.run", |_| sim.run(seed.wrapping_add(r as u64)));
                    elections += outcome.elections;
                    stalls += outcome.stalls;
                }
                Ok::<_, String>((ctmc.map_err(|e| e.to_string())?, elections, stalls))
            })?;
            out.cell_s.push(t.spans()[cell].duration_ns() as f64 / 1e9);
            out.consensus_replications += replications as u64;
            out.elections += elections;
            out.stalls += stalls;
            match rows.next() {
                Some(row)
                    if row.elections == elections
                        && row.replications == replications
                        && row.ctmc_availability.to_bits() == ctmc.to_bits() => {}
                Some(row) => problems.push(format!(
                    "consensus cell {item:?}: engine {} elections / {} replications, replay \
                     {elections} / {replications}",
                    row.elections, row.replications
                )),
                None => problems.push(format!("consensus cell {item:?} has no engine row")),
            }
        }
        if rows.next().is_some() {
            problems.push("the engine returned more consensus rows than the plan has cells".into());
        }
        Ok(())
    }
}

/// The traced run: passes until `run.seconds` have elapsed, each an
/// engine evaluation plus its encoding (root span `pass`) followed by the
/// cell-by-cell replay (root span `replay`).
pub fn traced(sweep: &Sweep, run: &Run, t: &mut Tracer) -> Result<Outcome, String> {
    let plan = SweepPlan::predict(&sweep.spec, &sweep.grid);
    let mut outcome = Outcome::new(crate::metrics::PER_LAYER);
    let mut first: Option<(String, Replayed)> = None;
    let (mut steals, mut serial_pct, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    let (mut efficiency, mut speedup) = (Vec::new(), Vec::new());
    let (mut bytes, mut events, mut elections) = (0.0, 0.0, 0.0);
    let (mut ratio_min, mut ratio_max) = (f64::INFINITY, 0.0f64);
    for index in run.pacer() {
        t.set_request(index as u64);
        let mut problems = Vec::new();
        let (engine, json) = t.span("pass", |t| {
            let engine = t.span("grid.evaluate_supervised", |_| sweep.evaluate())?;
            let json = t.span("json.encode", |_| encode(&engine.results));
            Ok::<_, String>((engine, json))
        })?;
        run.check_digest(0, &sha256_hex(json.as_bytes()), &mut problems);
        let replayed = t.span("replay", |t| {
            sweep.replay(t, &engine.results, &mut problems)
        })?;

        let m = &engine.metrics;
        if replayed.figure_misses != plan.cache.misses as u64 {
            problems.push(format!(
                "a 1-thread evaluation missed {} times, SweepPlan::predict says {}",
                replayed.figure_misses, plan.cache.misses
            ));
        }
        if replayed.sim_events != m.sim_events {
            problems.push(format!(
                "replayed cells processed {} events, the engine reports {}",
                replayed.sim_events, m.sim_events
            ));
        }
        if m.items != plan.cells.len() {
            problems.push(format!(
                "the engine ran {} items, SweepPlan::predict plans {}",
                m.items,
                plan.cells.len()
            ));
        }
        match &first {
            None => {
                // The static cost model's ledger: measured ÷ predicted
                // events per simulated cell.
                let sim_cells = plan.cells.iter().filter(|c| c.kind == "sim");
                for (cell, row) in sim_cells.zip(&engine.results.sim) {
                    let ratio = row.events as f64 / cell.predicted_events;
                    ratio_min = ratio_min.min(ratio);
                    ratio_max = ratio_max.max(ratio);
                    outcome.notes.push(format!(
                        "audit.cell_events_ratio {ratio} ratio ({})",
                        cell.label
                    ));
                }
                first = Some((json.clone(), replayed.clone()));
            }
            Some((json0, replayed0)) => {
                if json0 != &json {
                    problems.push(format!("pass {index} output differs from pass 0"));
                }
                if (replayed0.sim_events, replayed0.elections, replayed0.stalls)
                    != (replayed.sim_events, replayed.elections, replayed.stalls)
                {
                    problems.push(format!("pass {index} replay counts differ from pass 0"));
                }
            }
        }

        let work: f64 = replayed.cell_s.iter().sum();
        let critical = replayed.cell_s.iter().copied().fold(0.0, f64::max);
        let threads = m.threads as f64;
        let total_ms = m.stages.total_ms();
        steals.push(m.steals as f64);
        misses.push(m.cache_misses as f64);
        serial_pct.push(100.0 * (m.stages.plan_ms + m.stages.aggregate_ms) / total_ms);
        efficiency.push(rate(work * 1e3, threads * m.stages.execute_ms));
        speedup.push(rate(work, critical.max(work / threads)));
        bytes += json.len() as f64;
        events += replayed.sim_events as f64;
        elections += replayed.elections as f64;
        outcome.record(problems);
    }
    let (json0, replayed0) = first.ok_or("no traced pass ran")?;

    let r: &mut Report = &mut outcome.report;
    r.set("trace.pass_ms", median(&t.durations_ms("pass")));
    r.set("json.bytes", json0.len() as f64);
    r.set(
        "json.encode_mb_per_s",
        rate(bytes / 1e6, t.busy_s("json.encode")),
    );
    r.set("grid.items", plan.cells.len() as f64);
    r.set("grid.steals", median(&steals));
    r.set("grid.serial_pct", median(&serial_pct));
    r.set("grid.parallel_efficiency", median(&efficiency));
    r.set("grid.speedup_bound", median(&speedup));
    r.set("grid.cache.lookups", plan.cache.lookups as f64);
    r.set("grid.cache.unique", replayed0.figure_misses as f64);
    r.set("grid.cache.misses", median(&misses));
    r.set(
        "grid.cache.duplicate_computes",
        median(&misses) - replayed0.figure_misses as f64,
    );
    r.set(
        "grid.eval_cold_per_s",
        rate(
            1.0,
            median(&t.durations_ms("grid.evaluate_incremental")) / 1e3,
        ),
    );
    r.set(
        "core.reference_solves_per_s",
        t.calls_per_s("core.sim_reference"),
    );
    r.set("sim.events", replayed0.sim_events as f64);
    r.set("sim.replications", replayed0.sim_replications as f64);
    r.set("sim.events_per_s", rate(events, t.busy_s("sim.run")));
    r.set("sim.builds_per_s", t.calls_per_s("sim.build"));
    if ratio_max > 0.0 {
        r.set("audit.events_ratio_min", ratio_min);
        r.set("audit.events_ratio_max", ratio_max);
    }
    r.set(
        "consensus.replications",
        replayed0.consensus_replications as f64,
    );
    r.set("consensus.elections", replayed0.elections as f64);
    r.set("consensus.stalls", replayed0.stalls as f64);
    r.set(
        "consensus.elections_per_s",
        rate(elections, t.busy_s("consensus.run")),
    );
    r.set(
        "markov.ctmc_solves_per_s",
        t.calls_per_s("markov.ctmc_availability"),
    );
    Ok(outcome)
}
