//! Grid expansion: turning a [`crate::GridSpec`] into independent work
//! items with deterministic, identity-derived seeds.

use sdnav_core::hash::splitmix64;
use sdnav_core::sweep::linspace;
use sdnav_core::{FaultMix, Scenario};

use crate::GridSpec;

/// One of the paper's swept figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Figure {
    /// Fig. 3: HW-centric availability vs role availability `A_C`.
    Fig3,
    /// Fig. 4: SW-centric control-plane availability vs process downtime.
    Fig4,
    /// Fig. 5: SW-centric per-host data-plane availability.
    Fig5,
}

impl Figure {
    /// Parses the CLI spelling (`fig3` | `fig4` | `fig5`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Figure> {
        match text {
            "fig3" => Some(Figure::Fig3),
            "fig4" => Some(Figure::Fig4),
            "fig5" => Some(Figure::Fig5),
            _ => None,
        }
    }

    /// The CLI/JSON spelling.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Figure::Fig3 => "fig3",
            Figure::Fig4 => "fig4",
            Figure::Fig5 => "fig5",
        }
    }
}

/// Reference topology a simulation item runs on (the paper's §VI options
/// simulate the Small and Large deployments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimTopology {
    /// The 1-rack, 3-host Small deployment.
    Small,
    /// The 3-rack Large deployment.
    Large,
}

impl SimTopology {
    /// Display/JSON name, matching [`sdnav_core::Topology::name`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SimTopology::Small => "Small",
            SimTopology::Large => "Large",
        }
    }
}

/// One independently executable unit of a grid run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkItem {
    /// One Fig. 3 x-position: HW availabilities of all three topologies.
    Fig3Point {
        /// Role availability `A_C` at this grid position.
        a_c: f64,
    },
    /// One Fig. 4 or Fig. 5 x-position: the four §VI options.
    SwPoint {
        /// Which figure's metric to extract.
        figure: Figure,
        /// Orders of magnitude of process downtime removed.
        x: f64,
    },
    /// One simulated scenario point: all replications of one
    /// `(x, topology, scenario)` cell, run sequentially inside the item so
    /// the streamed aggregation order is fixed.
    SimPoint {
        /// Orders of magnitude of process downtime removed.
        x: f64,
        /// Deployment to simulate.
        topology: SimTopology,
        /// Supervisor mode of operation.
        scenario: Scenario,
    },
    /// One chaos-campaign cell: the base campaign re-parameterized to this
    /// crew count and common-cause probability, all replications run
    /// sequentially inside the item.
    ChaosPoint {
        /// Repair crews available in this cell.
        crew_count: usize,
        /// Probability applied to every common-cause group member.
        ccf_probability: f64,
        /// Deployment to simulate.
        topology: SimTopology,
    },
    /// One consensus-dynamics cell: the base [`sdnav_core::ConsensusSpec`]
    /// re-parameterized to this election-timeout floor, cluster size, and
    /// fault mix, all DES replications run sequentially inside the item.
    ConsensusPoint {
        /// Election-timeout floor (ms); the randomized window keeps the
        /// base spec's width above it.
        election_timeout_ms: f64,
        /// Consensus participants in this cell.
        cluster_size: u32,
        /// Declared byzantine/crash fault mix.
        fault_mix: FaultMix,
    },
}

/// Expands the chaos campaign axes (crew count × common-cause probability ×
/// topology, in that nesting order) appended after [`plan_items`]'s output.
#[must_use]
pub fn plan_chaos_items(crew_counts: &[usize], ccf_probabilities: &[f64]) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for &crew_count in crew_counts {
        for &ccf_probability in ccf_probabilities {
            for topology in [SimTopology::Small, SimTopology::Large] {
                items.push(WorkItem::ChaosPoint {
                    crew_count,
                    ccf_probability,
                    topology,
                });
            }
        }
    }
    items
}

/// Expands the consensus axes (election timeout × cluster size × fault
/// mix, in that nesting order), appended after the chaos cells.
#[must_use]
pub fn plan_consensus_items(
    election_timeouts_ms: &[f64],
    cluster_sizes: &[u32],
    fault_mixes: &[FaultMix],
) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for &election_timeout_ms in election_timeouts_ms {
        for &cluster_size in cluster_sizes {
            for &fault_mix in fault_mixes {
                items.push(WorkItem::ConsensusPoint {
                    election_timeout_ms,
                    cluster_size,
                    fault_mix,
                });
            }
        }
    }
    items
}

/// Expands the grid axes into the canonical work-item order: Fig. 3 points,
/// then Fig. 4, then Fig. 5 (each x ascending), then the simulation cells
/// (x-major, then topology, then scenario). Aggregation relies on this
/// order, and it is what makes result files reproducible run to run.
#[must_use]
pub fn plan_items(figures: &[Figure], points: usize, replications: usize) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for figure in figures {
        match figure {
            Figure::Fig3 => {
                // The paper's Fig. 3 x-range (§V.D: A_C = 0.9995 ± 0.0005).
                items.extend(
                    linspace(0.999, 1.0, points)
                        .into_iter()
                        .map(|a_c| WorkItem::Fig3Point { a_c }),
                );
            }
            Figure::Fig4 | Figure::Fig5 => {
                items.extend(
                    linspace(-1.0, 1.0, points)
                        .into_iter()
                        .map(|x| WorkItem::SwPoint { figure: *figure, x }),
                );
            }
        }
    }
    if replications > 0 {
        for x in linspace(-1.0, 1.0, points) {
            for topology in [SimTopology::Small, SimTopology::Large] {
                for scenario in [
                    Scenario::SupervisorNotRequired,
                    Scenario::SupervisorRequired,
                ] {
                    items.push(WorkItem::SimPoint {
                        x,
                        topology,
                        scenario,
                    });
                }
            }
        }
    }
    items
}

/// Expands a whole grid into the canonical work-item order: the figure and
/// simulation cells of [`plan_items`], then the chaos cells when a campaign
/// is set, then the consensus cells when a base consensus spec is set. The
/// executor and the static cost model both walk this one expansion.
#[must_use]
pub fn plan_grid(grid: &GridSpec) -> Vec<WorkItem> {
    let mut items = plan_items(&grid.figures, grid.points, grid.replications);
    if grid.chaos_campaign.is_some() {
        items.extend(plan_chaos_items(
            &grid.chaos_crew_counts,
            &grid.chaos_ccf_probabilities,
        ));
    }
    if grid.consensus.is_some() {
        items.extend(plan_consensus_items(
            &grid.consensus_election_timeouts_ms,
            &grid.consensus_cluster_sizes,
            &grid.consensus_fault_mixes,
        ));
    }
    items
}

/// Deterministic per-item RNG seed, derived from the base seed and the
/// item's *identity* (its grid coordinates), never its position or the
/// executing thread. The same `(x, topology, scenario)` cell therefore
/// replays identical replication streams whatever else the grid contains
/// and however many threads run it.
#[must_use]
pub fn item_seed(base: u64, item: &WorkItem) -> u64 {
    let tag = match item {
        WorkItem::Fig3Point { a_c } => splitmix64(a_c.to_bits()),
        WorkItem::SwPoint { figure, x } => splitmix64(x.to_bits() ^ (*figure as u64) << 1),
        WorkItem::SimPoint {
            x,
            topology,
            scenario,
        } => {
            let topo_bit = match topology {
                SimTopology::Small => 0u64,
                SimTopology::Large => 1,
            };
            let scen_bit = match scenario {
                Scenario::SupervisorNotRequired => 0u64,
                Scenario::SupervisorRequired => 1,
            };
            splitmix64(x.to_bits() ^ (topo_bit << 1) ^ (scen_bit << 2) ^ (1 << 3))
        }
        WorkItem::ChaosPoint {
            crew_count,
            ccf_probability,
            topology,
        } => {
            let topo_bit = match topology {
                SimTopology::Small => 0u64,
                SimTopology::Large => 1,
            };
            splitmix64(
                ccf_probability.to_bits()
                    ^ ((*crew_count as u64) << 1)
                    ^ (topo_bit << 40)
                    ^ (1 << 41),
            )
        }
        WorkItem::ConsensusPoint {
            election_timeout_ms,
            cluster_size,
            fault_mix,
        } => splitmix64(
            election_timeout_ms.to_bits()
                ^ (u64::from(*cluster_size) << 1)
                ^ (u64::from(fault_mix.byzantine) << 14)
                ^ (u64::from(fault_mix.crash) << 27)
                ^ (1 << 42),
        ),
    };
    splitmix64(base ^ tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_figures_then_sim() {
        let items = plan_items(&[Figure::Fig3, Figure::Fig4, Figure::Fig5], 3, 2);
        // 3 fig3 + 3 fig4 + 3 fig5 + 3 x-points × 2 topologies × 2 scenarios.
        assert_eq!(items.len(), 9 + 12);
        assert!(matches!(items[0], WorkItem::Fig3Point { .. }));
        assert!(matches!(
            items[3],
            WorkItem::SwPoint {
                figure: Figure::Fig4,
                ..
            }
        ));
        assert!(matches!(items[9], WorkItem::SimPoint { .. }));
    }

    #[test]
    fn no_replications_means_no_sim_items() {
        let items = plan_items(&[Figure::Fig4], 5, 0);
        assert_eq!(items.len(), 5);
        assert!(items.iter().all(|i| matches!(i, WorkItem::SwPoint { .. })));
    }

    #[test]
    fn item_seeds_depend_on_identity_not_position() {
        let small = plan_items(&[Figure::Fig4], 3, 1);
        let full = plan_items(&[Figure::Fig3, Figure::Fig4, Figure::Fig5], 3, 1);
        // The same sim cell appears at different positions in the two plans
        // but must seed identically.
        let cell = |items: &[WorkItem]| {
            items
                .iter()
                .find(|i| matches!(i, WorkItem::SimPoint { .. }))
                .copied()
                .unwrap()
        };
        assert_eq!(item_seed(42, &cell(&small)), item_seed(42, &cell(&full)));
        // Different cells must not collide.
        let sims: Vec<u64> = full
            .iter()
            .filter(|i| matches!(i, WorkItem::SimPoint { .. }))
            .map(|i| item_seed(42, i))
            .collect();
        let mut dedup = sims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sims.len(), "seed collision in {sims:?}");
    }

    #[test]
    fn figure_parse_round_trips() {
        for figure in [Figure::Fig3, Figure::Fig4, Figure::Fig5] {
            assert_eq!(Figure::parse(figure.name()), Some(figure));
        }
        assert_eq!(Figure::parse("fig6"), None);
    }
}
