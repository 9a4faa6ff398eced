//! Property-based tests for the CTMC substrate.

use proptest::prelude::*;

use sdnav_markov::repairable::KOfNRepairable;
use sdnav_markov::supervisor::{scenario1, scenario2, SupervisorParams};
use sdnav_markov::Ctmc;

/// Random irreducible CTMC: a cycle guaranteeing irreducibility plus random
/// extra transitions.
fn arb_irreducible_ctmc() -> impl Strategy<Value = Ctmc> {
    (2usize..7)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(0.01f64..10.0, n),
                prop::collection::vec((0usize..n, 0usize..n, 0.0f64..10.0), 0..12),
            )
        })
        .prop_map(|(n, cycle_rates, extras)| {
            let mut c = Ctmc::new(n);
            for (i, rate) in cycle_rates.iter().enumerate() {
                c.add_transition(i, (i + 1) % n, *rate);
            }
            for (from, to, rate) in extras {
                if from != to && rate > 0.0 {
                    c.add_transition(from, to, rate);
                }
            }
            c
        })
}

proptest! {
    #[test]
    fn steady_state_is_a_distribution(c in arb_irreducible_ctmc()) {
        let pi = c.steady_state().unwrap();
        prop_assert_eq!(pi.len(), c.len());
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert!(pi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn steady_state_satisfies_global_balance(c in arb_irreducible_ctmc()) {
        let pi = c.steady_state().unwrap();
        // For every state: inflow == outflow.
        for j in 0..c.len() {
            let inflow: f64 = (0..c.len())
                .filter(|&i| i != j)
                .map(|i| pi[i] * c.rate(i, j))
                .sum();
            let outflow = pi[j] * c.exit_rate(j);
            prop_assert!((inflow - outflow).abs() < 1e-9,
                "state {}: in={} out={}", j, inflow, outflow);
        }
    }

    #[test]
    fn repairable_availability_increases_with_crews(
        k in 1u32..4,
        extra in 0u32..3,
        lambda in 0.001f64..1.0,
        mu in 0.1f64..10.0
    ) {
        let n = k + extra;
        let mut last = 0.0;
        for crews in 1..=n {
            let a = KOfNRepairable::new(k, n, lambda, mu, crews).availability().unwrap();
            prop_assert!(a >= last - 1e-12, "crews={} a={} last={}", crews, a, last);
            last = a;
        }
    }

    #[test]
    fn repairable_availability_decreases_with_quorum(
        n in 2u32..6,
        lambda in 0.001f64..1.0,
        mu in 0.1f64..10.0
    ) {
        let mut last = 1.0;
        for k in 1..=n {
            let a = KOfNRepairable::new(k, n, lambda, mu, n).availability().unwrap();
            prop_assert!(a <= last + 1e-12);
            last = a;
        }
    }

    #[test]
    fn supervisor_scenario1_bounded_by_auto_and_manual(
        mtbf in 100.0f64..100_000.0,
        auto in 0.01f64..1.0,
        manual_extra in 0.0f64..10.0,
        window in 0.0f64..100.0
    ) {
        let p = SupervisorParams { mtbf, auto_restart: auto, manual_restart: auto + manual_extra };
        let eff = scenario1(p, window);
        prop_assert!(eff.availability <= p.auto_availability() + 1e-12);
        prop_assert!(eff.availability >= p.manual_availability() - 1e-12);
    }

    #[test]
    fn supervisor_scenario2_never_better_than_auto(
        mtbf in 100.0f64..100_000.0,
        auto in 0.01f64..1.0,
        manual_extra in 0.0f64..10.0
    ) {
        let p = SupervisorParams { mtbf, auto_restart: auto, manual_restart: auto + manual_extra };
        prop_assert!(scenario2(p).availability <= p.auto_availability() + 1e-12);
    }
}
