//! Property-based tests for the RBD substrate.

use proptest::prelude::*;

use sdnav_blocks::kofn::{binomial, k_of_n, k_of_n_heterogeneous};
use sdnav_blocks::Block;

fn availability_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..=1.0,
        // Heavily weight the high-availability regime the paper studies.
        0.999..=1.0,
    ]
}

/// Availability of the named leaf unit, found by tree walk.
fn leaf_availability(block: &Block, target: &str) -> f64 {
    match block {
        Block::Unit { name, availability } => {
            if name == target {
                *availability
            } else {
                f64::NAN
            }
        }
        Block::Series { children }
        | Block::Parallel { children }
        | Block::KOfN { children, .. } => children
            .iter()
            .map(|c| leaf_availability(c, target))
            .find(|v| !v.is_nan())
            .unwrap_or(f64::NAN),
    }
}

/// Random small block diagrams with unique unit names.
fn arb_block() -> impl Strategy<Value = Block> {
    let leaf_counter = std::sync::atomic::AtomicUsize::new(0);
    let leaf_counter = std::sync::Arc::new(leaf_counter);
    let counter = leaf_counter.clone();
    let leaf = availability_value().prop_map(move |a| {
        let id = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Block::unit(format!("u{id}"), a)
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Block::series),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Block::parallel),
            (prop::collection::vec(inner, 1..4), 0u32..4)
                .prop_map(|(children, k)| Block::k_of_n(k, children)),
        ]
    })
}

proptest! {
    #[test]
    fn k_of_n_in_unit_interval(m in 0u32..8, n in 0u32..8, a in availability_value()) {
        let v = k_of_n(m, n, a);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn k_of_n_monotone_in_alpha(m in 1u32..6, n in 1u32..6, a in 0.0f64..1.0, d in 0.0f64..0.5) {
        prop_assume!(m <= n);
        let b = (a + d).min(1.0);
        prop_assert!(k_of_n(m, n, a) <= k_of_n(m, n, b) + 1e-12);
    }

    #[test]
    fn k_of_n_monotone_decreasing_in_m(m in 0u32..6, n in 1u32..6, a in availability_value()) {
        prop_assume!(m < n);
        prop_assert!(k_of_n(m + 1, n, a) <= k_of_n(m, n, a) + 1e-12);
    }

    #[test]
    fn adding_a_replica_never_hurts(m in 1u32..5, n in 1u32..6, a in availability_value()) {
        prop_assume!(m <= n);
        prop_assert!(k_of_n(m, n + 1, a) >= k_of_n(m, n, a) - 1e-12);
    }

    #[test]
    fn heterogeneous_matches_identical(k in 0usize..6, n in 0usize..6, a in availability_value()) {
        let het = k_of_n_heterogeneous(k, &vec![a; n]);
        let hom = k_of_n(k as u32, n as u32, a);
        prop_assert!((het - hom).abs() < 1e-10);
    }

    #[test]
    fn block_availability_in_unit_interval(block in arb_block()) {
        let a = block.availability();
        prop_assert!((0.0..=1.0).contains(&a), "a={}", a);
    }

    #[test]
    fn block_availability_matches_state_enumeration(block in arb_block()) {
        // Exact check: sum of P(state) over all up states equals availability.
        let names = block.unit_names();
        prop_assume!(names.len() <= 10);
        let avails: Vec<f64> = names.iter().map(|n| leaf_availability(&block, n)).collect();
        let mut total = 0.0;
        for mask in 0u32..(1 << names.len()) {
            let mut p = 1.0;
            for (i, a) in avails.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= a;
                } else {
                    p *= 1.0 - a;
                }
            }
            if p == 0.0 {
                continue;
            }
            let up = block.is_up(&mut |name| {
                let idx = names.iter().position(|n| n == name).unwrap();
                mask & (1 << idx) != 0
            });
            if up {
                total += p;
            }
        }
        prop_assert!((total - block.availability()).abs() < 1e-9,
            "enumerated={} direct={}", total, block.availability());
    }

    #[test]
    fn pinning_up_never_decreases_availability(block in arb_block()) {
        let base = block.availability();
        for name in block.unit_names() {
            let up = block.availability_pinned(&mut |n| (n == name).then_some(true));
            let down = block.availability_pinned(&mut |n| (n == name).then_some(false));
            prop_assert!(up >= base - 1e-12);
            prop_assert!(down <= base + 1e-12);
        }
    }

    #[test]
    fn binomial_row_sums_to_power_of_two(n in 0u32..30) {
        let sum: f64 = (0..=n).map(|k| binomial(n, k)).sum();
        prop_assert_eq!(sum, 2f64.powi(n as i32));
    }
}
