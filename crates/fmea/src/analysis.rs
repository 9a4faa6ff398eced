//! Failure-mode enumeration and dominant-mode ranking.

use std::fmt;

use crate::{Deployment, Element};

/// Which plane(s) a failure mode takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaneImpact {
    /// Only the SDN control plane goes down.
    ControlPlaneOnly,
    /// Only the (every-host) data plane goes down.
    DataPlaneOnly,
    /// Both planes go down.
    Both,
}

impl PlaneImpact {
    /// Whether the control plane is impacted.
    #[must_use]
    pub fn hits_cp(self) -> bool {
        matches!(self, PlaneImpact::ControlPlaneOnly | PlaneImpact::Both)
    }

    /// Whether the data plane is impacted.
    #[must_use]
    pub fn hits_dp(self) -> bool {
        matches!(self, PlaneImpact::DataPlaneOnly | PlaneImpact::Both)
    }
}

impl fmt::Display for PlaneImpact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaneImpact::ControlPlaneOnly => write!(f, "CP down"),
            PlaneImpact::DataPlaneOnly => write!(f, "DP down"),
            PlaneImpact::Both => write!(f, "CP+DP down"),
        }
    }
}

/// A minimal combination of element failures that takes a plane down.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureMode {
    /// The failed elements.
    pub elements: Vec<Element>,
    /// Which plane(s) go down.
    pub impact: PlaneImpact,
    /// Rare-event probability: the product of the elements' steady-state
    /// unavailabilities (the fraction of time this exact combination is
    /// simultaneously down, to first order).
    pub probability: f64,
}

impl FailureMode {
    /// Number of simultaneously failed elements (the mode's order).
    #[must_use]
    pub fn order(&self) -> usize {
        self.elements.len()
    }
}

impl fmt::Display for FailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.elements.iter().map(Element::to_string).collect();
        write!(
            f,
            "{{{}}} → {} (p≈{:.3e})",
            names.join(", "),
            self.impact,
            self.probability
        )
    }
}

/// Enumerates all *minimal* failure modes of `deployment` up to
/// `max_order` simultaneous element failures.
///
/// A combination is reported only if it downs a plane and no proper subset
/// does (for that same plane). Modes are returned sorted by descending
/// probability.
#[must_use]
pub fn enumerate(deployment: &Deployment<'_>, max_order: usize) -> Vec<FailureMode> {
    enumerate_filtered(deployment, max_order, |_| true)
}

/// [`enumerate`] restricted to elements accepted by `filter` — e.g. only
/// software processes, to reproduce the paper's "dominant SW failure mode"
/// discussion without rack/host hardware drowning it out.
#[must_use]
pub fn enumerate_filtered(
    deployment: &Deployment<'_>,
    max_order: usize,
    filter: impl Fn(&Element) -> bool,
) -> Vec<FailureMode> {
    // `elements()` lists the element table in index order.
    let elements = deployment.elements();
    let picked: Vec<usize> = (0..elements.len())
        .filter(|&i| filter(&elements[i]))
        .collect();
    let weights: Vec<f64> = picked
        .iter()
        .map(|&i| deployment.unavailability(&elements[i]))
        .collect();
    let mut up = deployment.structure().up_state();
    let n = picked.len();
    let mut cp_cuts: Vec<Vec<usize>> = Vec::new();
    let mut dp_cuts: Vec<Vec<usize>> = Vec::new();
    let mut out = Vec::new();

    for order in 1..=max_order.min(n) {
        let mut indices: Vec<usize> = (0..order).collect();
        'combos: loop {
            let cp_superset = cp_cuts
                .iter()
                .any(|cut| cut.iter().all(|i| indices.contains(i)));
            let dp_superset = dp_cuts
                .iter()
                .any(|cut| cut.iter().all(|i| indices.contains(i)));
            if !(cp_superset && dp_superset) {
                for &i in &indices {
                    up.set(picked[i], false);
                }
                let cp_down = !cp_superset && !up.cp_up();
                let dp_down = !dp_superset && !up.host_dp_up(0);
                for &i in &indices {
                    up.set(picked[i], true);
                }
                if cp_down {
                    cp_cuts.push(indices.clone());
                }
                if dp_down {
                    dp_cuts.push(indices.clone());
                }
                let impact = match (cp_down, dp_down) {
                    (true, true) => Some(PlaneImpact::Both),
                    (true, false) => Some(PlaneImpact::ControlPlaneOnly),
                    (false, true) => Some(PlaneImpact::DataPlaneOnly),
                    (false, false) => None,
                };
                if let Some(impact) = impact {
                    out.push(FailureMode {
                        elements: indices
                            .iter()
                            .map(|&i| elements[picked[i]].clone())
                            .collect(),
                        impact,
                        probability: indices.iter().map(|&i| weights[i]).product(),
                    });
                }
            }
            // Advance combination.
            let mut i = order;
            loop {
                if i == 0 {
                    break 'combos;
                }
                i -= 1;
                if indices[i] != i + n - order {
                    indices[i] += 1;
                    for j in (i + 1)..order {
                        indices[j] = indices[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
    // Equal-probability modes must not depend on enumeration order:
    // generated chaos campaigns key off this ranking, so ties break by
    // order (fewer elements first), then lexicographic element identity.
    out.sort_by(|a, b| {
        b.probability
            .total_cmp(&a.probability)
            .then_with(|| a.elements.len().cmp(&b.elements.len()))
            .then_with(|| a.elements.cmp(&b.elements))
    });
    out
}

/// The most probable failure modes hitting the requested plane.
#[must_use]
pub fn dominant_modes(modes: &[FailureMode], cp: bool, top: usize) -> Vec<FailureMode> {
    modes
        .iter()
        .filter(|m| {
            if cp {
                m.impact.hits_cp()
            } else {
                m.impact.hits_dp()
            }
        })
        .take(top)
        .cloned()
        .collect()
}

/// Rare-event estimate of a plane's unavailability: the sum of the minimal
/// failure modes' probabilities (first-order inclusion–exclusion).
///
/// With `max_order ≥ 2` enumeration this reproduces the exact
/// [`sdnav_core::SwModel`] unavailabilities to within a few percent at
/// paper-grade element availabilities — a useful independent cross-check
/// and a fast approximation for what-if loops.
#[must_use]
pub fn estimate_unavailability(modes: &[FailureMode], cp: bool) -> f64 {
    modes
        .iter()
        .filter(|m| {
            if cp {
                m.impact.hits_cp()
            } else {
                m.impact.hits_dp()
            }
        })
        .map(|m| m.probability)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElementKind;
    use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};

    fn fixtures() -> (ControllerSpec, SwParams) {
        (
            ControllerSpec::opencontrail_3x(),
            SwParams::paper_defaults(),
        )
    }

    #[test]
    fn no_single_process_downs_the_cp() {
        let (spec, params) = fixtures();
        let topo = Topology::large(&spec);
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            let d = Deployment::new(&spec, &topo, params, scenario);
            let modes = enumerate_filtered(&d, 1, |e| {
                matches!(e.kind(), ElementKind::Process | ElementKind::Supervisor)
            });
            assert!(
                modes.iter().all(|m| !m.impact.hits_cp()),
                "{scenario:?}: {:?}",
                modes
                    .iter()
                    .find(|m| m.impact.hits_cp())
                    .map(ToString::to_string)
            );
        }
    }

    #[test]
    fn vrouter_processes_are_the_only_sw_dp_spofs_in_scenario_1() {
        let (spec, params) = fixtures();
        let topo = Topology::large(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorNotRequired);
        let modes = enumerate_filtered(&d, 1, |e| {
            matches!(e.kind(), ElementKind::Process | ElementKind::Supervisor)
        });
        let dp_spofs: Vec<String> = modes
            .iter()
            .filter(|m| m.impact.hits_dp())
            .map(|m| m.elements[0].to_string())
            .collect();
        assert_eq!(
            dp_spofs,
            vec!["compute-host/vrouter-agent", "compute-host/vrouter-dpdk"]
        );
    }

    #[test]
    fn vrouter_supervisor_becomes_a_dp_spof_in_scenario_2() {
        let (spec, params) = fixtures();
        let topo = Topology::large(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorRequired);
        let modes = enumerate_filtered(&d, 1, |e| matches!(e, Element::HostProcess { .. }));
        let dp_spofs: Vec<String> = modes
            .iter()
            .filter(|m| m.impact.hits_dp())
            .map(|m| m.elements[0].to_string())
            .collect();
        assert!(dp_spofs.contains(&"compute-host/supervisor".to_owned()));
        assert_eq!(dp_spofs.len(), 3);
    }

    #[test]
    fn rack_is_a_spof_in_small_but_not_large() {
        let (spec, params) = fixtures();
        let small = Topology::small(&spec);
        let d = Deployment::new(&spec, &small, params, Scenario::SupervisorNotRequired);
        let modes = enumerate_filtered(&d, 1, |e| e.kind() == ElementKind::Rack);
        assert_eq!(modes.len(), 1);
        assert_eq!(modes[0].impact, PlaneImpact::Both);

        let large = Topology::large(&spec);
        let d = Deployment::new(&spec, &large, params, Scenario::SupervisorNotRequired);
        let modes = enumerate_filtered(&d, 1, |e| e.kind() == ElementKind::Rack);
        assert!(modes.is_empty());
    }

    #[test]
    fn dominant_sw_cp_mode_scenario_1_is_a_database_pair() {
        // §VI.G: "When supervisor is not required, the dominant failure
        // mode is: two failures of the same Database process in different
        // nodes."
        let (spec, params) = fixtures();
        let topo = Topology::large(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorNotRequired);
        let modes = enumerate_filtered(&d, 2, |e| {
            matches!(e.kind(), ElementKind::Process | ElementKind::Supervisor)
        });
        let top = dominant_modes(&modes, true, 1);
        assert_eq!(top.len(), 1);
        let elements = &top[0].elements;
        assert_eq!(elements.len(), 2);
        for e in elements {
            match e {
                Element::Process { role, process, .. } => {
                    assert_eq!(role, "Database");
                    assert_ne!(process, "supervisor");
                }
                other => panic!("unexpected element {other}"),
            }
        }
    }

    #[test]
    fn dominant_sw_cp_mode_scenario_2_involves_a_db_supervisor() {
        // §VI.G: "When supervisor is required, the dominant failure mode
        // is: one Database supervisor failure and any Database process
        // failure in another node."
        let (spec, params) = fixtures();
        let topo = Topology::large(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorRequired);
        let modes = enumerate_filtered(&d, 2, |e| {
            matches!(e.kind(), ElementKind::Process | ElementKind::Supervisor)
        });
        // Aggregate probability by "mode class": supervisor-involved pairs
        // must outweigh pure process pairs.
        let cp_pairs: Vec<&FailureMode> = modes
            .iter()
            .filter(|m| m.impact.hits_cp() && m.order() == 2)
            .collect();
        let with_supervisor: f64 = cp_pairs
            .iter()
            .filter(|m| {
                m.elements
                    .iter()
                    .any(|e| e.kind() == ElementKind::Supervisor)
            })
            .map(|m| m.probability)
            .sum();
        let without_supervisor: f64 = cp_pairs
            .iter()
            .filter(|m| {
                m.elements
                    .iter()
                    .all(|e| e.kind() != ElementKind::Supervisor)
            })
            .map(|m| m.probability)
            .sum();
        assert!(
            with_supervisor > without_supervisor,
            "sup={with_supervisor:e} plain={without_supervisor:e}"
        );
        // And the supervisor pairs are Database supervisor + Database process.
        let top_sup = cp_pairs
            .iter()
            .find(|m| {
                m.elements
                    .iter()
                    .any(|e| e.kind() == ElementKind::Supervisor)
            })
            .unwrap();
        for e in &top_sup.elements {
            if let Element::Process { role, .. } = e {
                assert_eq!(role, "Database");
            }
        }
    }

    #[test]
    fn minimality_no_mode_contains_another() {
        let (spec, params) = fixtures();
        let topo = Topology::small(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorRequired);
        let modes = enumerate(&d, 2);
        for (i, a) in modes.iter().enumerate() {
            for (j, b) in modes.iter().enumerate() {
                if i == j || a.order() >= b.order() {
                    continue;
                }
                let subset = a.elements.iter().all(|e| b.elements.contains(e));
                if subset {
                    // A smaller mode inside a bigger one is only allowed if
                    // they hit different planes.
                    assert!(
                        (a.impact.hits_cp() != b.impact.hits_cp())
                            || (a.impact.hits_dp() != b.impact.hits_dp()),
                        "{a} ⊂ {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn probabilities_are_products_of_unavailabilities() {
        let (spec, params) = fixtures();
        let topo = Topology::small(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorNotRequired);
        let modes = enumerate_filtered(&d, 1, |e| e.kind() == ElementKind::Rack);
        assert!((modes[0].probability - (1.0 - params.a_r)).abs() < 1e-15);
    }

    #[test]
    fn rare_event_estimate_tracks_exact_model() {
        use sdnav_core::SwModel;
        let (spec, params) = fixtures();
        // Supervisors are found by `is_supervisor`, never by name.
        let mut renamed = spec.clone();
        for p in renamed
            .roles
            .iter_mut()
            .flat_map(|r| r.processes.iter_mut())
        {
            if p.is_supervisor {
                p.name = "supervisord".to_owned();
            }
        }
        for (spec, topo) in [
            (spec.clone(), Topology::small(&spec)),
            (spec.clone(), Topology::large(&spec)),
            (renamed.clone(), Topology::small(&renamed)),
            (renamed.clone(), Topology::large(&renamed)),
        ] {
            for scenario in [
                Scenario::SupervisorNotRequired,
                Scenario::SupervisorRequired,
            ] {
                let d = Deployment::new(&spec, &topo, params, scenario);
                let modes = enumerate(&d, 2);
                let model =
                    SwModel::try_new(&spec, &topo, params, scenario).expect("valid SW model");
                let cp_exact = 1.0 - model.cp_availability();
                let cp_est = estimate_unavailability(&modes, true);
                assert!(
                    (cp_est - cp_exact).abs() / cp_exact < 0.05,
                    "{} {:?} CP: est={cp_est:e} exact={cp_exact:e}",
                    topo.name(),
                    scenario
                );
                let dp_exact = 1.0 - model.host_dp_availability();
                let dp_est = estimate_unavailability(&modes, false);
                assert!(
                    (dp_est - dp_exact).abs() / dp_exact < 0.05,
                    "{} {:?} DP: est={dp_est:e} exact={dp_exact:e}",
                    topo.name(),
                    scenario
                );
            }
        }
    }

    #[test]
    fn equal_probability_modes_rank_deterministically() {
        // Regression: `dominant_modes` used to cut the top-K at whatever
        // enumeration order produced for equal-probability modes, so the
        // K-th slot of a generated chaos campaign could silently swap
        // contents. Ties must break by order, then element identity.
        let (spec, params) = fixtures();
        let topo = Topology::large(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorNotRequired);
        let modes = enumerate(&d, 2);

        let mut ties = 0;
        for pair in modes.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.probability == b.probability {
                ties += 1;
                assert!(
                    (a.order(), &a.elements) < (b.order(), &b.elements),
                    "tied modes out of order: {a} before {b}"
                );
            }
        }
        // The paper deployment has whole families of identically-rated
        // pairs (e.g. Database replicas): the tie-break must actually be
        // exercised, not vacuously pass.
        assert!(ties >= 3, "expected tied probabilities, found {ties}");

        // The top-K cut is therefore reproducible: ranking twice (fresh
        // enumeration) yields element-identical dominant modes.
        let again = enumerate(&d, 2);
        for cp in [true, false] {
            let first: Vec<Vec<Element>> = dominant_modes(&modes, cp, 5)
                .into_iter()
                .map(|m| m.elements)
                .collect();
            let second: Vec<Vec<Element>> = dominant_modes(&again, cp, 5)
                .into_iter()
                .map(|m| m.elements)
                .collect();
            assert_eq!(first, second);
        }
    }

    #[test]
    fn display_renders_mode() {
        let (spec, params) = fixtures();
        let topo = Topology::small(&spec);
        let d = Deployment::new(&spec, &topo, params, Scenario::SupervisorNotRequired);
        let modes = enumerate_filtered(&d, 1, |e| e.kind() == ElementKind::Rack);
        let s = modes[0].to_string();
        assert!(s.contains("rack-1"));
        assert!(s.contains("CP+DP down"));
    }
}
