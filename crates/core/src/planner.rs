//! Deployment planning: the paper's "cost : resiliency tradeoff".
//!
//! §V.D motivates the HW-centric models as a way to evaluate "the
//! cost:resiliency tradeoff before capital investment occurs", and §VII
//! weighs "the space and expense of multiple racks ... against the
//! relatively modest improvement in availability". This module makes that
//! comparison executable: enumerate candidate deployments (topology ×
//! supervisor scenario × host-maintenance tier), price them with a simple
//! linear hardware-cost model, and return the Pareto frontier of
//! {cost, control-plane downtime}.
//!
//! ```
//! use sdnav_core::planner::{cheapest_meeting, evaluate_candidates, CostModel};
//! use sdnav_core::{ControllerSpec, SwParams};
//!
//! let spec = ControllerSpec::opencontrail_3x();
//! let points = evaluate_candidates(&spec, SwParams::paper_defaults(),
//!                                  &CostModel::ballpark()).expect("valid SW models");
//! // Meeting a 2 m/y control-plane target requires three-way rack
//! // separation — and the cheapest such layout is the consolidated
//! // Small-3R, not the paper's Large.
//! let pick = cheapest_meeting(&points, 2.0).unwrap();
//! assert_eq!(pick.topology, "Small-3R");
//! ```

use crate::{ControllerSpec, ModelError, Scenario, SwModel, SwParams, Topology};

/// Linear hardware cost model (arbitrary currency units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost per rack (space, power, ToR switching).
    pub per_rack: f64,
    /// Cost per host server.
    pub per_host: f64,
    /// Cost per VM (licensing/management overhead).
    pub per_vm: f64,
    /// Added cost of a Same-Day maintenance contract per host, relative to
    /// the cheapest tier.
    pub same_day_premium_per_host: f64,
    /// Added cost of a Next-Day contract per host.
    pub next_day_premium_per_host: f64,
}

impl CostModel {
    /// A ballpark model: a rack costs ~10 hosts, a VM is cheap, better
    /// maintenance contracts carry per-host premiums.
    #[must_use]
    pub fn ballpark() -> Self {
        CostModel {
            per_rack: 100.0,
            per_host: 10.0,
            per_vm: 1.0,
            same_day_premium_per_host: 4.0,
            next_day_premium_per_host: 1.0,
        }
    }
}

/// §V.D's host maintenance tiers and their `A_H` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceTier {
    /// Same Day (4 h MTTR): `A_H = 0.9999`.
    SameDay,
    /// Next Day (24 h MTTR): `A_H = 0.9995`.
    NextDay,
    /// Next Business Day (48 h MTTR): `A_H = 0.9990`.
    NextBusinessDay,
}

impl MaintenanceTier {
    /// All tiers, cheapest last.
    pub const ALL: [MaintenanceTier; 3] = [
        MaintenanceTier::SameDay,
        MaintenanceTier::NextDay,
        MaintenanceTier::NextBusinessDay,
    ];

    /// The tier's host availability (§V.D).
    #[must_use]
    pub fn a_h(self) -> f64 {
        match self {
            MaintenanceTier::SameDay => 0.9999,
            MaintenanceTier::NextDay => 0.9995,
            MaintenanceTier::NextBusinessDay => 0.9990,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MaintenanceTier::SameDay => "Same Day",
            MaintenanceTier::NextDay => "Next Day",
            MaintenanceTier::NextBusinessDay => "Next Business Day",
        }
    }
}

/// One evaluated deployment candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPoint {
    /// Layout name (`Small` / `Medium` / `Large`).
    pub topology: String,
    /// Supervisor mode of operation.
    pub scenario: Scenario,
    /// Host maintenance tier.
    pub tier: MaintenanceTier,
    /// Hardware + contract cost under the cost model.
    pub cost: f64,
    /// Control-plane availability.
    pub cp_availability: f64,
    /// Control-plane downtime in minutes/year.
    pub cp_downtime_m_y: f64,
}

fn cost_of(topology: &Topology, tier: MaintenanceTier, cost: &CostModel) -> f64 {
    let premium = match tier {
        MaintenanceTier::SameDay => cost.same_day_premium_per_host,
        MaintenanceTier::NextDay => cost.next_day_premium_per_host,
        MaintenanceTier::NextBusinessDay => 0.0,
    };
    cost.per_rack * topology.rack_count() as f64
        + (cost.per_host + premium) * topology.host_count() as f64
        + cost.per_vm * topology.vm_count() as f64
}

/// Evaluates every candidate (4 topologies — the paper's three plus the
/// rack-separated Small — × 2 scenarios × 3 tiers) at the given base
/// parameters, sorted by cost then downtime.
///
/// # Errors
///
/// The first candidate's [`ModelError`] from [`SwModel::try_new`].
pub fn evaluate_candidates(
    spec: &ControllerSpec,
    base: SwParams,
    cost: &CostModel,
) -> Result<Vec<PlanPoint>, ModelError> {
    let mut out = Vec::new();
    for topology in [
        Topology::small(spec),
        Topology::small_three_racks(spec),
        Topology::medium(spec),
        Topology::large(spec),
    ] {
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            for tier in MaintenanceTier::ALL {
                let params = SwParams {
                    a_h: tier.a_h(),
                    ..base
                };
                let model = SwModel::try_new(spec, &topology, params, scenario)?;
                let cp = model.cp_availability();
                out.push(PlanPoint {
                    topology: topology.name().to_owned(),
                    scenario,
                    tier,
                    cost: cost_of(&topology, tier, cost),
                    cp_availability: cp,
                    cp_downtime_m_y: (1.0 - cp) * 525_960.0,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.cp_downtime_m_y
                    .partial_cmp(&b.cp_downtime_m_y)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    Ok(out)
}

/// Filters `points` (any order) down to the Pareto frontier of
/// {minimize cost, minimize CP downtime}, returned cheapest-first.
///
/// A point survives if no other point is at most as expensive *and*
/// strictly less down (or strictly cheaper and at most as down).
#[must_use]
pub fn pareto_frontier(points: &[PlanPoint]) -> Vec<PlanPoint> {
    let mut frontier: Vec<PlanPoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                (q.cost < p.cost && q.cp_downtime_m_y <= p.cp_downtime_m_y)
                    || (q.cost <= p.cost && q.cp_downtime_m_y < p.cp_downtime_m_y)
            })
        })
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    frontier.dedup_by(|a, b| a.cost == b.cost && a.cp_downtime_m_y == b.cp_downtime_m_y);
    frontier
}

/// The cheapest candidate meeting a CP downtime target, if any.
#[must_use]
pub fn cheapest_meeting(points: &[PlanPoint], max_downtime_m_y: f64) -> Option<PlanPoint> {
    points
        .iter()
        .filter(|p| p.cp_downtime_m_y <= max_downtime_m_y)
        .min_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<PlanPoint> {
        evaluate_candidates(
            &ControllerSpec::opencontrail_3x(),
            SwParams::paper_defaults(),
            &CostModel::ballpark(),
        )
        .unwrap()
    }

    #[test]
    fn evaluates_all_candidates() {
        assert_eq!(points().len(), 4 * 2 * 3);
    }

    #[test]
    fn rack_separated_small_dominates_large() {
        // The framework's own finding: Small-3R gets the Large topology's
        // quorum protection (slightly better, via failure correlation)
        // from a third of the hardware, so Large is dominated off the
        // frontier entirely.
        let pts = points();
        let frontier = pareto_frontier(&pts);
        assert!(frontier.iter().any(|p| p.topology == "Small-3R"));
        assert!(
            frontier.iter().all(|p| p.topology != "Large"),
            "{frontier:#?}"
        );
        // And directly: same scenario/tier, Small-3R is cheaper and at
        // least as available.
        let pick = |name: &str| {
            pts.iter()
                .find(|p| {
                    p.topology == name
                        && p.scenario == Scenario::SupervisorRequired
                        && p.tier == MaintenanceTier::SameDay
                })
                .unwrap()
        };
        let s3r = pick("Small-3R");
        let large = pick("Large");
        assert!(s3r.cost < large.cost);
        assert!(s3r.cp_availability >= large.cp_availability - 1e-9);
    }

    #[test]
    fn frontier_is_nondominated_and_sorted() {
        let pts = points();
        let frontier = pareto_frontier(&pts);
        assert!(!frontier.is_empty());
        for w in frontier.windows(2) {
            assert!(w[0].cost < w[1].cost);
            assert!(w[0].cp_downtime_m_y > w[1].cp_downtime_m_y);
        }
        // Every frontier point is actually nondominated.
        for f in &frontier {
            for p in &pts {
                assert!(
                    !(p.cost < f.cost && p.cp_downtime_m_y < f.cp_downtime_m_y),
                    "{f:?} dominated by {p:?}"
                );
            }
        }
    }

    #[test]
    fn frontier_ends_with_the_best_availability() {
        let pts = points();
        let frontier = pareto_frontier(&pts);
        let best = pts
            .iter()
            .map(|p| p.cp_downtime_m_y)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(frontier.last().unwrap().cp_downtime_m_y, best);
        // Which is the rack-separated Small with the best tier: quorum
        // protection at consolidated-hardware cost beats even Large.
        let last = frontier.last().unwrap();
        assert_eq!(last.topology, "Small-3R");
        assert_eq!(last.tier, MaintenanceTier::SameDay);
    }

    #[test]
    fn medium_is_never_on_the_frontier() {
        // "One rack or three, but not two": Medium costs more than Small
        // and is (slightly) less available, so it can never be Pareto
        // optimal under any positive rack cost.
        let frontier = pareto_frontier(&points());
        assert!(
            frontier.iter().all(|p| p.topology != "Medium"),
            "{frontier:#?}"
        );
    }

    #[test]
    fn cheapest_meeting_targets() {
        let pts = points();
        // A loose target is met by the cheapest configuration overall.
        let loose = cheapest_meeting(&pts, 60.0).unwrap();
        let min_cost = pts.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
        assert_eq!(loose.cost, min_cost);
        // A tight target forces three-way rack separation — and the
        // cheapest such layout is the consolidated Small-3R, not Large.
        let tight = cheapest_meeting(&pts, 2.0).unwrap();
        assert_eq!(tight.topology, "Small-3R");
        // An impossible target yields None.
        assert!(cheapest_meeting(&pts, 0.0).is_none());
    }

    #[test]
    fn maintenance_tier_values_match_section_5d() {
        assert_eq!(MaintenanceTier::SameDay.a_h(), 0.9999);
        assert_eq!(MaintenanceTier::NextDay.a_h(), 0.9995);
        assert_eq!(MaintenanceTier::NextBusinessDay.a_h(), 0.9990);
        assert_eq!(MaintenanceTier::SameDay.name(), "Same Day");
    }

    #[test]
    fn cost_reflects_hardware_counts() {
        let pts = points();
        let small_nbd = pts
            .iter()
            .find(|p| p.topology == "Small" && p.tier == MaintenanceTier::NextBusinessDay)
            .unwrap();
        // 1 rack + 3 hosts + 3 VMs at ballpark prices.
        assert_eq!(small_nbd.cost, 100.0 + 30.0 + 3.0);
        let large_sd = pts
            .iter()
            .find(|p| p.topology == "Large" && p.tier == MaintenanceTier::SameDay)
            .unwrap();
        assert_eq!(large_sd.cost, 300.0 + 12.0 * 14.0 + 12.0);
    }
}
