//! Property-based tests for the FMEA engine.

use proptest::prelude::*;

use sdnav_core::{ControllerSpec, ElementRef, Scenario, SwParams, Topology};
use sdnav_fmea::Deployment;

fn spec() -> ControllerSpec {
    ControllerSpec::opencontrail_3x()
}

/// Strategy over arbitrary subsets of a deployment's elements.
fn arb_failure_set(elements: Vec<ElementRef>) -> impl Strategy<Value = Vec<ElementRef>> {
    let n = elements.len();
    prop::collection::vec(0..n, 0..8)
        .prop_map(move |idx| idx.into_iter().map(|i| elements[i].clone()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn failures_are_monotone(
        seed_failures in arb_failure_set(
            Deployment::new(
                &spec(),
                &Topology::small(&spec()),
                SwParams::paper_defaults(),
                Scenario::SupervisorRequired,
            )
            .elements(),
        ),
        extra in 0usize..80,
    ) {
        // Adding one more failed element can never bring a plane back up.
        let spec = spec();
        let topo = Topology::small(&spec);
        let dep = Deployment::new(&spec, &topo, SwParams::paper_defaults(),
                                  Scenario::SupervisorRequired);
        let elements = dep.elements();
        let added = elements[extra % elements.len()].clone();
        let mut more = seed_failures.clone();
        more.push(added);

        let cp_before = dep.cp_up(&seed_failures);
        let cp_after = dep.cp_up(&more);
        prop_assert!(cp_before || !cp_after, "CP resurrected by adding a failure");

        let dp_before = dep.host_dp_up(&seed_failures);
        let dp_after = dep.host_dp_up(&more);
        prop_assert!(dp_before || !dp_after, "DP resurrected by adding a failure");
    }

    #[test]
    fn scenario_two_is_never_more_tolerant(
        failures in arb_failure_set(
            Deployment::new(
                &spec(),
                &Topology::large(&spec()),
                SwParams::paper_defaults(),
                Scenario::SupervisorRequired,
            )
            .elements(),
        ),
    ) {
        // Any failure set survivable under supervisor-required is also
        // survivable when the supervisor is not required.
        let spec = spec();
        let topo = Topology::large(&spec);
        let strict = Deployment::new(&spec, &topo, SwParams::paper_defaults(),
                                     Scenario::SupervisorRequired);
        let lenient = Deployment::new(&spec, &topo, SwParams::paper_defaults(),
                                      Scenario::SupervisorNotRequired);
        if strict.cp_up(&failures) {
            prop_assert!(lenient.cp_up(&failures));
        }
        if strict.host_dp_up(&failures) {
            prop_assert!(lenient.host_dp_up(&failures));
        }
    }

    #[test]
    fn duplicate_failures_are_idempotent(
        failures in arb_failure_set(
            Deployment::new(
                &spec(),
                &Topology::medium(&spec()),
                SwParams::paper_defaults(),
                Scenario::SupervisorNotRequired,
            )
            .elements(),
        ),
    ) {
        let spec = spec();
        let topo = Topology::medium(&spec);
        let dep = Deployment::new(&spec, &topo, SwParams::paper_defaults(),
                                  Scenario::SupervisorNotRequired);
        let mut doubled = failures.clone();
        doubled.extend(failures.iter().cloned());
        prop_assert_eq!(dep.cp_up(&failures), dep.cp_up(&doubled));
        prop_assert_eq!(dep.host_dp_up(&failures), dep.host_dp_up(&doubled));
    }
}
