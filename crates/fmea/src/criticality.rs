//! Element criticality ranking from failure-mode enumerations.
//!
//! The paper concludes that "identifying these process weak links allows
//! service provider operations to develop automation to reduce downtime
//! ... and provides the Open Source community with focus areas for code
//! improvements." This module produces that priority list: given the
//! minimal failure modes of a deployment, each element is scored by the
//! total (rare-event) probability of the modes it participates in —
//! i.e. its share of expected plane downtime.

use std::collections::BTreeMap;

use sdnav_core::ElementRef;

use crate::FailureMode;

/// An element's share of plane-impacting failure-mode probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementCriticality {
    /// The element.
    pub element: ElementRef,
    /// Sum of probabilities of CP-impacting modes containing the element.
    pub cp_contribution: f64,
    /// That contribution as a fraction of all CP-impacting mode
    /// probability (0 when there are no CP modes).
    pub cp_share: f64,
    /// Sum of probabilities of DP-impacting modes containing the element.
    pub dp_contribution: f64,
    /// Fraction of all DP-impacting mode probability.
    pub dp_share: f64,
}

/// Ranks every element appearing in `modes` by its combined contribution
/// (CP share + DP share, descending).
///
/// Pass the output of [`crate::enumerate`] or
/// [`crate::enumerate_filtered`]; the ranking inherits whatever scope that
/// enumeration used.
#[must_use]
pub fn rank_elements(modes: &[FailureMode]) -> Vec<ElementCriticality> {
    let mut cp_total = 0.0;
    let mut dp_total = 0.0;
    let mut acc: BTreeMap<ElementRef, (f64, f64)> = BTreeMap::new();
    for mode in modes {
        if mode.impact.hits_cp() {
            cp_total += mode.probability;
        }
        if mode.impact.hits_dp() {
            dp_total += mode.probability;
        }
        for e in &mode.elements {
            let entry = acc.entry(e.clone()).or_insert((0.0, 0.0));
            if mode.impact.hits_cp() {
                entry.0 += mode.probability;
            }
            if mode.impact.hits_dp() {
                entry.1 += mode.probability;
            }
        }
    }
    let mut out: Vec<ElementCriticality> = acc
        .into_iter()
        .map(|(element, (cp, dp))| ElementCriticality {
            element,
            cp_contribution: cp,
            cp_share: if cp_total > 0.0 { cp / cp_total } else { 0.0 },
            dp_contribution: dp,
            dp_share: if dp_total > 0.0 { dp / dp_total } else { 0.0 },
        })
        .collect();
    out.sort_by(|a, b| {
        (b.cp_share + b.dp_share)
            .partial_cmp(&(a.cp_share + a.dp_share))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_filtered, Deployment};
    use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};

    fn ranking(scenario: Scenario) -> Vec<ElementCriticality> {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::large(&spec);
        let dep = Deployment::new(&spec, &topo, SwParams::paper_defaults(), scenario);
        let modes = enumerate_filtered(&dep, 2, |e| {
            matches!(e, ElementRef::Proc { .. } | ElementRef::VProc { .. })
        });
        rank_elements(&modes)
    }

    #[test]
    fn vrouter_supervisor_tops_dp_when_required() {
        let ranking = ranking(Scenario::SupervisorRequired);
        let top_dp = ranking
            .iter()
            .max_by(|a, b| a.dp_share.partial_cmp(&b.dp_share).unwrap())
            .unwrap();
        assert_eq!(top_dp.element, ElementRef::vproc(0, "supervisor"));
        // A_S is 10x worse than A, so the supervisor owns most DP risk.
        assert!(top_dp.dp_share > 0.5, "{top_dp:?}");
    }

    #[test]
    fn database_elements_dominate_cp() {
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            let ranking = ranking(scenario);
            let top_cp = ranking
                .iter()
                .max_by(|a, b| a.cp_share.partial_cmp(&b.cp_share).unwrap())
                .unwrap();
            match &top_cp.element {
                ElementRef::Proc { role, .. } => assert_eq!(role, "Database", "{scenario:?}"),
                other => panic!("unexpected top element {other}"),
            }
        }
    }

    #[test]
    fn supervisors_irrelevant_to_cp_in_scenario_1() {
        let spec = ControllerSpec::opencontrail_3x();
        let topo = Topology::large(&spec);
        let scenario = Scenario::SupervisorNotRequired;
        let dep = Deployment::new(&spec, &topo, SwParams::paper_defaults(), scenario);
        for c in &ranking(scenario) {
            if dep.is_supervisor(&c.element) {
                assert_eq!(c.cp_contribution, 0.0, "{c:?}");
            }
        }
    }

    #[test]
    fn shares_are_normalized() {
        let ranking = ranking(Scenario::SupervisorRequired);
        for c in &ranking {
            assert!((0.0..=1.0).contains(&c.cp_share));
            assert!((0.0..=1.0).contains(&c.dp_share));
        }
        // Order-2 modes have two elements, so CP shares sum to ≈ 2 when
        // all CP modes are pairs (each mode counted once per element).
        let total_cp: f64 = ranking.iter().map(|c| c.cp_share).sum();
        assert!(total_cp > 1.0 && total_cp <= 2.0 + 1e-9, "{total_cp}");
    }

    #[test]
    fn empty_modes_rank_nothing() {
        assert!(rank_elements(&[]).is_empty());
    }
}
