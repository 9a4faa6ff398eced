//! Static sweep-grid analysis (SA030–SA032) and cost prediction
//! (`sdnav-sweep-plan/v1`).
//!
//! A sweep grid is itself a model — of the *work* a study will do — and it
//! can be analyzed without running a single cell. [`SweepPlan::predict`]
//! expands a [`GridSpec`] into its work items exactly as the executor
//! would and walks them in plan order through the sub-model keys each one
//! reads ([`SubModelKey::of`], the executor's own list), so it knows,
//! before any evaluation:
//!
//! * which cache lookups each cell performs and which of them hit (the
//!   memoization the executor shares between Fig. 4 and Fig. 5); the
//!   totals equal a 1-thread run's by construction,
//! * a relative cost per cell: one unit per memoized analytic model
//!   evaluation, and a predicted event count for every simulated cell
//!   (`2 × replications × horizon × acceleration × Σ 1/MTBF` over the
//!   simulator's own element table, [`Structure`], with its MTBF rule,
//!   [`SimConfig::mtbf`]: an order-of-magnitude estimator of
//!   discrete-event work),
//! * which cells are fully served from cache ("skippable": running them
//!   costs no model evaluations at all).
//!
//! [`audit_grid`] turns the same expansion into diagnostics: grid
//! violations and byte-identical duplicate cells (SA030), chaos crew-count
//! axis values provably equivalent to each other (SA031), and a predicted
//! event budget large enough to deserve a `--dry-run` look first (SA032).

use std::collections::BTreeSet;
use std::collections::HashSet;

use sdnav_chaos::MAX_OCCURRENCES;
use sdnav_consensus::ConsensusParams;
use sdnav_core::{ControllerSpec, Scenario, Structure, Topology};
use sdnav_grid::cache::SubModelKey;
use sdnav_grid::plan::{item_seed, plan_grid, SimTopology, WorkItem};
use sdnav_grid::GridSpec;
use sdnav_json::{Json, ToJson};
use sdnav_sim::SimConfig;

use crate::{AuditReport, Diagnostic};

/// Predicted events above which SA032 flags the grid as a cost blowup.
const EVENT_BUDGET: f64 = 1e9;

/// Predicted sub-model cache behavior of a whole grid run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePrediction {
    /// Total sub-model cache lookups across all analytic cells.
    pub lookups: usize,
    /// Lookups predicted to hit (the key was computed by an earlier cell).
    pub hits: usize,
    /// Lookups predicted to miss (first computation of the key).
    pub misses: usize,
}

impl CachePrediction {
    /// Predicted hit rate in `[0, 1]`; zero for a grid with no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One work item of the plan with its predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCell {
    /// Cell kind: `fig3`, `fig4`, `fig5`, `sim`, or `chaos`.
    pub kind: &'static str,
    /// Human-readable cell coordinates.
    pub label: String,
    /// The cell's identity-derived RNG seed.
    pub seed: u64,
    /// Sub-model cache lookups this cell performs.
    pub cache_lookups: usize,
    /// Lookups predicted to hit.
    pub cache_hits: usize,
    /// Predicted discrete-event count (0 for analytic cells).
    pub predicted_events: f64,
    /// Relative cost units: cache misses for analytic cells, scaled
    /// predicted events for simulated cells.
    pub cost: f64,
}

/// The full static prediction for one grid: every cell with its cost, the
/// aggregate cache behavior, and the number of cells served entirely from
/// cache. Serializes as `sdnav-sweep-plan/v1`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Cells in canonical plan order.
    pub cells: Vec<PlanCell>,
    /// Aggregate predicted cache behavior.
    pub cache: CachePrediction,
    /// Analytic cells whose every lookup hits: running them computes
    /// nothing new.
    pub skippable_cells: usize,
    /// Sum of all predicted event counts (simulated cells).
    pub predicted_events: f64,
    /// Sum of all relative cost units.
    pub total_cost: f64,
}

/// Relative cost of one predicted discrete event, in units of one analytic
/// model evaluation. Events are orders of magnitude cheaper than a full
/// closed-form solve; 1e-3 keeps the two cost families comparable.
const EVENT_COST: f64 = 1e-3;

/// Number of injection occurrences a campaign schedules inside the horizon:
/// the compiler's own expansion ([`sdnav_chaos::InjectionSpec::occurrences`]),
/// capped at [`MAX_OCCURRENCES`]. An injection with a non-finite start,
/// which the compiler rejects, schedules none.
fn campaign_occurrences(grid: &GridSpec) -> usize {
    let Some(campaign) = &grid.chaos_campaign else {
        return 0;
    };
    campaign
        .injections
        .iter()
        .filter(|inj| inj.at.is_finite())
        .map(|inj| {
            inj.occurrences(grid.sim_horizon_hours)
                .take(MAX_OCCURRENCES)
                .count()
        })
        .sum()
}

/// A canonical identity string for duplicate detection — bit-exact on
/// every floating-point coordinate.
fn cell_identity(item: &WorkItem) -> String {
    match item {
        WorkItem::Fig3Point { a_c } => format!("fig3:{:016x}", a_c.to_bits()),
        WorkItem::SwPoint { figure, x } => format!("{}:{:016x}", figure.name(), x.to_bits()),
        WorkItem::SimPoint {
            x,
            topology,
            scenario,
        } => format!(
            "sim:{:016x}:{}:{}",
            x.to_bits(),
            topology.name(),
            *scenario == Scenario::SupervisorRequired
        ),
        WorkItem::ChaosPoint {
            crew_count,
            ccf_probability,
            topology,
        } => format!(
            "chaos:{crew_count}:{:016x}:{}",
            ccf_probability.to_bits(),
            topology.name()
        ),
        WorkItem::ConsensusPoint {
            election_timeout_ms,
            cluster_size,
            fault_mix,
        } => format!(
            "consensus:{:016x}:{cluster_size}:{}",
            election_timeout_ms.to_bits(),
            fault_mix.label()
        ),
    }
}

impl SweepPlan {
    /// Statically predicts the cost of evaluating `grid` against `spec`,
    /// without evaluating anything.
    #[must_use]
    pub fn predict(spec: &ControllerSpec, grid: &GridSpec) -> SweepPlan {
        let small = Topology::small(spec);
        let large = Topology::large(spec);
        // Failures per hour of every element the simulator carries on a
        // layout, at the paper's rates: its own element table and MTBF
        // rule. A layout the element table rejects runs no events.
        let failure_rate = |topology: SimTopology, scenario: Scenario| -> f64 {
            let topo = match topology {
                SimTopology::Small => &small,
                SimTopology::Large => &large,
            };
            let config = SimConfig::paper_defaults(scenario);
            Structure::new(spec, topo, scenario, grid.sim_compute_hosts).map_or(0.0, |s| {
                (0..s.len())
                    .map(|e| 1.0 / config.mtbf(s.component(e)))
                    .sum()
            })
        };
        let items = plan_grid(grid);
        let occurrences = campaign_occurrences(grid);

        let mut seen: BTreeSet<SubModelKey> = BTreeSet::new();
        let mut cells = Vec::with_capacity(items.len());
        let mut cache = CachePrediction {
            lookups: 0,
            hits: 0,
            misses: 0,
        };
        let mut skippable = 0usize;
        for item in &items {
            // The executor's own key list: a key seen before is a hit.
            let keys = SubModelKey::of(item);
            let lookups = keys.len();
            let misses = keys.into_iter().filter(|&key| seen.insert(key)).count();
            let hits = lookups - misses;
            cache.lookups += lookups;
            cache.hits += hits;
            cache.misses += misses;
            if lookups > 0 && misses == 0 {
                skippable += 1;
            }

            let (kind, label, predicted_events) = match item {
                WorkItem::Fig3Point { a_c } => ("fig3", format!("fig3 a_c={a_c}"), 0.0),
                WorkItem::SwPoint { figure, x } => {
                    (figure.name(), format!("{} x={x}", figure.name()), 0.0)
                }
                WorkItem::SimPoint {
                    x,
                    topology,
                    scenario,
                } => {
                    let events = 2.0
                        * grid.replications as f64
                        * grid.sim_horizon_hours
                        * grid.sim_accelerate
                        * failure_rate(*topology, *scenario);
                    (
                        "sim",
                        format!(
                            "sim x={x} {} {}",
                            topology.name(),
                            if *scenario == Scenario::SupervisorRequired {
                                "sup"
                            } else {
                                "no-sup"
                            }
                        ),
                        events,
                    )
                }
                WorkItem::ChaosPoint {
                    crew_count,
                    ccf_probability,
                    topology,
                } => {
                    let replications = grid.replications.max(1) as f64;
                    let organic = 2.0
                        * replications
                        * grid.sim_horizon_hours
                        * grid.sim_accelerate
                        * failure_rate(*topology, Scenario::SupervisorNotRequired);
                    let injected = 2.0 * replications * occurrences as f64;
                    (
                        "chaos",
                        format!(
                            "chaos crews={crew_count} ccf={ccf_probability} {}",
                            topology.name()
                        ),
                        organic + injected,
                    )
                }
                WorkItem::ConsensusPoint {
                    election_timeout_ms,
                    cluster_size,
                    fault_mix,
                } => {
                    // Fail/repair pairs per node dominate the consensus DES
                    // event stream (elections ride on top of failures).
                    let replications = grid.replications.max(1) as f64;
                    let node_rate =
                        grid.sim_accelerate / ConsensusParams::paper_defaults().node_mtbf_hours;
                    let events = 2.0
                        * replications
                        * grid.sim_horizon_hours
                        * f64::from(*cluster_size)
                        * node_rate;
                    (
                        "consensus",
                        format!(
                            "consensus et={election_timeout_ms}ms n={cluster_size} mix={}",
                            fault_mix.label()
                        ),
                        events,
                    )
                }
            };
            // A miss on a Fig. 3 key evaluates all three topologies; a miss
            // on an SW key evaluates one model.
            let miss_cost = if matches!(item, WorkItem::Fig3Point { .. }) {
                3.0
            } else {
                1.0
            };
            cells.push(PlanCell {
                kind,
                label,
                seed: item_seed(grid.seed, item),
                cache_lookups: lookups,
                cache_hits: hits,
                predicted_events,
                cost: misses as f64 * miss_cost + predicted_events * EVENT_COST,
            });
        }

        let predicted_events = cells.iter().map(|c| c.predicted_events).sum();
        let total_cost = cells.iter().map(|c| c.cost).sum();
        SweepPlan {
            cells,
            cache,
            skippable_cells: skippable,
            predicted_events,
            total_cost,
        }
    }
}

impl ToJson for SweepPlan {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(sdnav_json::schema::SWEEP_PLAN)),
            ("items", self.cells.len().to_json()),
            (
                "predicted_cache",
                Json::obj(vec![
                    ("lookups", self.cache.lookups.to_json()),
                    ("hits", self.cache.hits.to_json()),
                    ("misses", self.cache.misses.to_json()),
                    ("hit_rate", self.cache.hit_rate().to_json()),
                ]),
            ),
            ("skippable_cells", self.skippable_cells.to_json()),
            ("predicted_events", self.predicted_events.to_json()),
            ("total_cost", self.total_cost.to_json()),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("kind", Json::str(c.kind)),
                                ("label", Json::str(c.label.clone())),
                                ("seed", Json::str(c.seed.to_string())),
                                ("cache_lookups", c.cache_lookups.to_json()),
                                ("cache_hits", c.cache_hits.to_json()),
                                ("predicted_events", c.predicted_events.to_json()),
                                ("cost", c.cost.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Lints a sweep grid, reporting SA030–SA032.
///
/// | Code  | Severity | Check |
/// |-------|----------|-------|
/// | SA030 | error    | the grid fails validation (every [`GridSpec::violations`] finding; the checks below then do not run), or bit-identical duplicate work cells: an axis repeats a value, so identical work runs (and is double-counted) |
/// | SA031 | warn     | chaos crew-count values at or above the deployment's hardware element count are pairwise equivalent — the extra cells re-measure the same system |
/// | SA032 | warn     | predicted event count exceeds 1e9 — inspect the plan with `sweep --dry-run` before running |
#[must_use]
pub fn audit_grid(spec: &ControllerSpec, grid: &GridSpec) -> AuditReport {
    let mut report = AuditReport::new();
    for e in grid.violations() {
        report.push(Diagnostic::error(
            "SA030",
            "grid",
            e.to_string(),
            "fix the value: `sdnav sweep` and `POST /v1/eval` refuse a grid that fails validation",
        ));
    }
    // The checks below expand the grid's axes, which needs a grid that
    // validates: a zero-point axis has no samples to expand.
    if report.has_errors() {
        return report;
    }
    let items = plan_grid(grid);

    let mut seen: HashSet<String> = HashSet::new();
    let mut duplicates: BTreeSet<String> = BTreeSet::new();
    for item in &items {
        let id = cell_identity(item);
        if !seen.insert(id.clone()) {
            duplicates.insert(id);
        }
    }
    if !duplicates.is_empty() {
        let listed: Vec<String> = duplicates.iter().take(4).cloned().collect();
        report.push(Diagnostic::error(
            "SA030",
            "grid/axes",
            format!(
                "{} duplicate work cell(s): {}{} — an axis repeats a value bit-identically, so the same work runs twice and aggregates double-count it",
                duplicates.len(),
                listed.join(", "),
                if duplicates.len() > listed.len() {
                    ", …"
                } else {
                    ""
                },
            ),
            "deduplicate the repeated axis values (figures, crew counts, or probabilities)",
        ));
    }

    if grid.chaos_campaign.is_some() {
        let large = Topology::large(spec);
        // No more hardware elements than this can ever be under repair at
        // once, so crew counts at or past it behave as an unlimited pool.
        let hw_elements =
            large.rack_count() + large.host_count() + large.vm_count() + 2 * grid.sim_compute_hosts;
        let saturated: Vec<usize> = grid
            .chaos_crew_counts
            .iter()
            .copied()
            .filter(|&c| c >= hw_elements)
            .collect();
        if saturated.len() > 1 {
            report.push(Diagnostic::warn(
                "SA031",
                "grid/chaos_crew_counts",
                format!(
                    "crew counts {saturated:?} all meet or exceed the {hw_elements} hardware \
                     elements of the largest deployment — every crew is idle past that point, \
                     so these cells measure the same system",
                ),
                "keep one saturated crew count and drop the rest of the dominated cells",
            ));
        }
    }

    let plan = SweepPlan::predict(spec, grid);
    if plan.predicted_events > EVENT_BUDGET {
        report.push(Diagnostic::warn(
            "SA032",
            "grid",
            format!(
                "predicted {:.2e} discrete events exceed the {EVENT_BUDGET:.0e} budget — \
                 this sweep will run for a very long time",
                plan.predicted_events
            ),
            "inspect the plan with `sdnav sweep --dry-run`, then shrink the horizon, \
             acceleration, replications, or axes",
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_chaos::{ChaosSpec, InjectionKind, InjectionSpec, TargetRef};
    use sdnav_core::ElementRef;
    use sdnav_grid::plan::Figure;
    use sdnav_sim::Simulation;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    #[test]
    fn fig4_fig5_share_half_their_lookups() {
        let grid = GridSpec::builder()
            .figures(&[Figure::Fig4, Figure::Fig5])
            .points(11)
            .build()
            .unwrap();
        let plan = SweepPlan::predict(&spec(), &grid);
        assert_eq!(plan.cells.len(), 22);
        assert_eq!(plan.cache.lookups, 88);
        assert_eq!(plan.cache.misses, 44);
        assert_eq!(plan.cache.hits, 44);
        assert!((plan.cache.hit_rate() - 0.5).abs() < 1e-12);
        // Every Fig. 5 cell is fully served from Fig. 4's computations.
        assert_eq!(plan.skippable_cells, 11);
        assert_eq!(plan.predicted_events, 0.0);
    }

    #[test]
    fn predicted_cache_equals_a_one_thread_evaluation() {
        let every_figure = GridSpec::builder().points(7).threads(1).build().unwrap();
        let sw_figures = GridSpec::builder()
            .figures(&[Figure::Fig4, Figure::Fig5])
            .points(11)
            .threads(1)
            .build()
            .unwrap();
        for grid in [every_figure, sw_figures] {
            let plan = SweepPlan::predict(&spec(), &grid);
            let measured = sdnav_grid::evaluate(&spec(), &grid).unwrap().metrics;
            let (hits, misses) = (measured.cache_hits, measured.cache_misses);
            assert_eq!(plan.cache.lookups as u64, hits + misses, "{grid:?}");
            assert_eq!(plan.cache.hits as u64, hits, "{grid:?}");
            assert_eq!(plan.cache.misses as u64, misses, "{grid:?}");
        }
    }

    #[test]
    fn campaign_occurrences_follow_the_compiler() {
        // Both settings sit on a float boundary where the closed form
        // ceil((horizon − at)/every) miscounts: 2 + 490·10.2 is exactly
        // 5000.0, so no occurrence lands there, and 1.5 + 355·0.7 rounds
        // to just below 250, so one more does.
        let spec = spec();
        let small = Topology::small(&spec);
        for (at, every, horizon) in [(2.0, 10.2, 5_000.0), (1.5, 0.7, 250.0)] {
            let campaign = ChaosSpec {
                name: "repeat".into(),
                seed: 0,
                crews: None,
                injections: vec![InjectionSpec {
                    label: "kill".into(),
                    kind: InjectionKind::Fail {
                        target: TargetRef::Element(ElementRef::Rack(0)),
                        repair_hours: Some(0.1),
                    },
                    at,
                    every: Some(every),
                }],
            };
            let grid = GridSpec::builder()
                .sim_horizon_hours(horizon)
                .chaos_campaign(campaign.clone())
                .build()
                .unwrap();
            let config = SimConfig::builder(Scenario::SupervisorNotRequired)
                .horizon_hours(horizon)
                .build()
                .unwrap();
            let sim = Simulation::try_new(&spec, &small, config).unwrap();
            let compiled = sdnav_chaos::compile(&campaign, &sim).unwrap();
            assert_eq!(
                campaign_occurrences(&grid),
                compiled.events.len(),
                "at {at}, every {every}, horizon {horizon}"
            );
        }
    }

    #[test]
    fn sim_cells_dominate_predicted_cost() {
        let grid = GridSpec::builder()
            .figures(&[Figure::Fig4])
            .points(3)
            .replications(2)
            .build()
            .unwrap();
        let plan = SweepPlan::predict(&spec(), &grid);
        let sim_cost: f64 = plan
            .cells
            .iter()
            .filter(|c| c.kind == "sim")
            .map(|c| c.cost)
            .sum();
        let analytic_cost: f64 = plan
            .cells
            .iter()
            .filter(|c| c.kind != "sim")
            .map(|c| c.cost)
            .sum();
        assert!(
            sim_cost > analytic_cost,
            "sim {sim_cost} vs analytic {analytic_cost}"
        );
        // Large cells carry more elements, so more predicted events.
        let events_of = |label_frag: &str| -> f64 {
            plan.cells
                .iter()
                .filter(|c| c.kind == "sim" && c.label.contains(label_frag))
                .map(|c| c.predicted_events)
                .sum()
        };
        assert!(events_of("Large") > events_of("Small"));
    }

    #[test]
    fn plan_serializes_with_schema() {
        let grid = GridSpec::builder().points(2).build().unwrap();
        let plan = SweepPlan::predict(&spec(), &grid);
        let text = sdnav_json::to_string(&plan);
        let value = sdnav_json::Json::parse(&text).unwrap();
        assert_eq!(
            value.field("schema").unwrap().as_str().unwrap(),
            "sdnav-sweep-plan/v1"
        );
        assert_eq!(
            value.field("items").unwrap().as_usize().unwrap(),
            plan.cells.len()
        );
        assert!(value.field("cells").unwrap().as_arr().unwrap().len() == plan.cells.len());
    }

    #[test]
    fn sa030_duplicate_figures() {
        let mut grid = GridSpec::builder().points(3).build().unwrap();
        // The builder dedups figures; a hand-built (or decoded) spec can
        // still carry duplicates.
        grid.figures = vec![Figure::Fig3, Figure::Fig3];
        let r = audit_grid(&spec(), &grid);
        assert!(r.has_code("SA030"), "{}", r.render());
        assert!(r.has_errors());
    }

    #[test]
    fn sa030_reports_every_grid_violation_in_check_order() {
        let mut grid = GridSpec::builder().points(2).build().unwrap();
        grid.points = 0;
        grid.sim_horizon_hours = -5.0;
        grid.sim_compute_hosts = 0;
        let r = audit_grid(&spec(), &grid);
        let sa030: Vec<&str> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "SA030")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            sa030,
            [
                "invalid grid spec: points must be at least 1",
                "invalid grid spec: simulation horizon must be positive",
                "invalid grid spec: need at least one simulated compute host",
            ],
            "{}",
            r.render()
        );
    }

    #[test]
    fn sa031_dominated_crew_counts() {
        let campaign: sdnav_chaos::ChaosSpec = sdnav_json::from_str(
            r#"{"name": "x", "injections": [
                {"label": "kill", "kind": "fail", "target": "rack:0",
                 "at": 100.0, "repair_hours": 24.0}
            ]}"#,
        )
        .unwrap();
        let grid = GridSpec::builder()
            .points(2)
            .chaos_campaign(campaign)
            .chaos_crew_counts(&[1, 50, 100])
            .build()
            .unwrap();
        let r = audit_grid(&spec(), &grid);
        assert!(r.has_code("SA031"), "{}", r.render());
        // A single saturated value is fine: it is the "unlimited" probe.
        let mut thin = grid.clone();
        thin.chaos_crew_counts = vec![1, 100];
        assert!(!audit_grid(&spec(), &thin).has_code("SA031"));
    }

    #[test]
    fn sa032_cost_blowup() {
        let mut grid = GridSpec::builder()
            .figures(&[Figure::Fig4])
            .points(2)
            .replications(1000)
            .build()
            .unwrap();
        grid.sim_horizon_hours = 1e9;
        grid.sim_accelerate = 1e4;
        let r = audit_grid(&spec(), &grid);
        assert!(r.has_code("SA032"), "{}", r.render());
        // The smoke-grade default grid is far below the budget.
        let small = GridSpec::builder()
            .points(5)
            .replications(2)
            .build()
            .unwrap();
        assert!(!audit_grid(&spec(), &small).has_code("SA032"));
    }
}
