//! `k`-of-`n` availability: the paper's Eq. (1) and generalizations.
//!
//! Eq. (1) of the paper gives the availability of an `m`-of-`n` block of
//! *identical* independent elements with per-element availability `α`:
//!
//! ```text
//! A_{m/n}(α) = Σ_{i=0}^{n-m} C(n, i) α^{n-i} (1-α)^i     for m ≤ n
//!            = 0                                          for m > n
//! ```
//!
//! [`k_of_n`] implements that formula exactly. [`k_of_n_heterogeneous`]
//! generalizes it to elements with distinct availabilities via a standard
//! O(n²) dynamic program over the distribution of the number of elements up.

/// Exact binomial coefficient `C(n, k)` as an `f64`.
///
/// Computed multiplicatively to stay exact for all values representable in
/// an `f64` mantissa (all `n ≤ 57`, and far beyond for small `k`).
///
/// ```
/// use sdnav_blocks::kofn::binomial;
/// assert_eq!(binomial(3, 2), 3.0);
/// assert_eq!(binomial(10, 5), 252.0);
/// assert_eq!(binomial(5, 0), 1.0);
/// assert_eq!(binomial(4, 7), 0.0);
/// ```
#[must_use]
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0_f64;
    for i in 0..k {
        acc = acc * f64::from(n - i) / f64::from(i + 1);
    }
    acc.round()
}

/// The paper's Eq. (1): availability of an `m`-of-`n` block of identical
/// independent elements, each with availability `alpha`.
///
/// At least `m` of the `n` elements must be up for the block to be up.
/// Degenerate cases follow the formula: `m = 0` yields `1.0` (the block needs
/// nothing), and `m > n` yields `0.0` (the block can never be satisfied).
///
/// ```
/// use sdnav_blocks::kofn::k_of_n;
///
/// // "2 of 3" database quorum at α = 0.9998:
/// let a = k_of_n(2, 3, 0.9998);
/// assert!((1.0 - a - 3.0 * 2e-4_f64.powi(2) + 2.0 * 2e-4_f64.powi(3)).abs() < 1e-15);
///
/// assert_eq!(k_of_n(0, 3, 0.5), 1.0); // "0 of 3" processes (supervisor, nodemgr)
/// assert_eq!(k_of_n(4, 3, 0.9), 0.0); // impossible quorum
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `[0, 1]`.
#[must_use]
pub fn k_of_n(m: u32, n: u32, alpha: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "alpha must lie in [0, 1], got {alpha}"
    );
    if m > n {
        return 0.0;
    }
    if m == 0 {
        return 1.0;
    }
    // Σ_{i=0}^{n-m} C(n,i) α^{n-i} (1-α)^i, summed from the largest term
    // (i = 0) down so the partial sums stay well conditioned.
    let q = 1.0 - alpha;
    let mut total = 0.0_f64;
    for i in 0..=(n - m) {
        total += binomial(n, i) * alpha.powi((n - i) as i32) * q.powi(i as i32);
    }
    total.clamp(0.0, 1.0)
}

/// Availability of a `k`-of-`n` block of *heterogeneous* independent
/// elements with availabilities `alphas` (so `n = alphas.len()`).
///
/// Uses the standard dynamic program over "number of elements up", O(n²)
/// time and O(n) space. Reduces to [`k_of_n`] when all availabilities are
/// equal.
///
/// ```
/// use sdnav_blocks::kofn::k_of_n_heterogeneous;
///
/// // 1-of-2 with distinct elements = parallel pair.
/// let a = k_of_n_heterogeneous(1, &[0.9, 0.8]);
/// assert!((a - (1.0 - 0.1 * 0.2)).abs() < 1e-12);
///
/// // 2-of-2 = series.
/// let a = k_of_n_heterogeneous(2, &[0.9, 0.8]);
/// assert!((a - 0.72).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if any availability is outside `[0, 1]`.
#[must_use]
pub fn k_of_n_heterogeneous(k: usize, alphas: &[f64]) -> f64 {
    for &a in alphas {
        assert!(
            (0.0..=1.0).contains(&a),
            "availability must lie in [0, 1], got {a}"
        );
    }
    if k > alphas.len() {
        return 0.0;
    }
    if k == 0 {
        return 1.0;
    }
    // dist[j] = P(exactly j of the elements considered so far are up).
    let mut dist = vec![0.0_f64; alphas.len() + 1];
    dist[0] = 1.0;
    for (idx, &a) in alphas.iter().enumerate() {
        for j in (0..=idx).rev() {
            let p = dist[j];
            dist[j + 1] += p * a;
            dist[j] = p * (1.0 - a);
        }
    }
    dist[k..].iter().sum::<f64>().clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(3, 0), 1.0);
        assert_eq!(binomial(3, 1), 3.0);
        assert_eq!(binomial(3, 3), 1.0);
        assert_eq!(binomial(12, 6), 924.0);
        assert_eq!(binomial(2, 3), 0.0);
    }

    #[test]
    fn binomial_is_symmetric() {
        for n in 0..20u32 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn binomial_pascal_identity() {
        for n in 1..30u32 {
            for k in 1..n {
                assert_eq!(
                    binomial(n, k),
                    binomial(n - 1, k - 1) + binomial(n - 1, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn one_of_one_is_alpha() {
        assert!((k_of_n(1, 1, 0.37) - 0.37).abs() < EPS);
    }

    #[test]
    fn n_of_n_is_power() {
        assert!((k_of_n(3, 3, 0.9) - 0.9f64.powi(3)).abs() < EPS);
    }

    #[test]
    fn one_of_n_is_parallel() {
        let expected = 1.0 - 0.1f64.powi(3);
        assert!((k_of_n(1, 3, 0.9) - expected).abs() < EPS);
    }

    #[test]
    fn two_of_three_closed_form() {
        // A_{2/3} = 3α² − 2α³ = α²(3 − 2α), the paper's conclusion formula.
        for &a in &[0.0, 0.3, 0.9, 0.9995, 1.0] {
            let expected = a * a * (3.0 - 2.0 * a);
            assert!((k_of_n(2, 3, a) - expected).abs() < EPS, "alpha={a}");
        }
    }

    #[test]
    fn one_of_three_closed_form() {
        // A_{1/3} = 3α − 3α² + α³... equivalently 1 − (1−α)³.
        for &a in &[0.0f64, 0.25, 0.999, 1.0] {
            let expected = 1.0 - (1.0 - a).powi(3);
            assert!((k_of_n(1, 3, a) - expected).abs() < EPS, "alpha={a}");
        }
    }

    #[test]
    fn degenerate_cases_follow_eq1() {
        assert_eq!(k_of_n(0, 3, 0.0), 1.0);
        assert_eq!(k_of_n(0, 0, 0.5), 1.0);
        assert_eq!(k_of_n(4, 3, 1.0), 0.0);
        assert_eq!(k_of_n(1, 3, 0.0), 0.0);
        assert_eq!(k_of_n(3, 3, 1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in [0, 1]")]
    fn k_of_n_rejects_bad_alpha() {
        let _ = k_of_n(1, 2, 1.5);
    }

    // The four structural edge cases the `sdnav-audit` SA006 check reasons
    // about, pinned here for every k-of-n entry point so the lint rules and
    // the math can never drift apart.

    #[test]
    fn edge_k_zero_is_always_up() {
        for &a in &[0.0, 0.5, 1.0] {
            for n in [0u32, 1, 5] {
                assert_eq!(k_of_n(0, n, a), 1.0, "n={n} a={a}");
            }
        }
        assert_eq!(k_of_n_heterogeneous(0, &[0.2, 0.9]), 1.0);
    }

    #[test]
    fn edge_k_equals_n_is_series() {
        for &a in &[0.0f64, 0.3, 0.999, 1.0] {
            for n in [1u32, 2, 5] {
                let expected = a.powi(n as i32);
                assert!((k_of_n(n, n, a) - expected).abs() < EPS, "n={n} a={a}");
            }
        }
        let alphas = [0.9, 0.8, 0.7];
        let expected: f64 = alphas.iter().product();
        assert!((k_of_n_heterogeneous(3, &alphas) - expected).abs() < EPS);
    }

    #[test]
    fn edge_k_exceeds_n_is_never_up() {
        for &a in &[0.0, 0.5, 1.0] {
            assert_eq!(k_of_n(4, 3, a), 0.0, "a={a}");
            assert_eq!(k_of_n(1, 0, a), 0.0, "a={a}");
        }
        assert_eq!(k_of_n_heterogeneous(3, &[0.9, 0.9]), 0.0);
    }

    #[test]
    fn edge_empty_set_follows_k() {
        // n = 0: a 0-of-0 block is vacuously up, anything else impossible.
        assert_eq!(k_of_n(0, 0, 0.7), 1.0);
        assert_eq!(k_of_n(1, 0, 0.7), 0.0);
    }

    #[test]
    fn heterogeneous_reduces_to_identical() {
        for k in 0..=5usize {
            for &a in &[0.1, 0.7, 0.999] {
                let hom = k_of_n(k as u32, 5, a);
                let het = k_of_n_heterogeneous(k, &[a; 5]);
                assert!((hom - het).abs() < EPS, "k={k} a={a}");
            }
        }
    }

    #[test]
    fn heterogeneous_empty_set() {
        assert_eq!(k_of_n_heterogeneous(0, &[]), 1.0);
        assert_eq!(k_of_n_heterogeneous(1, &[]), 0.0);
    }

    #[test]
    fn heterogeneous_brute_force_check() {
        // Compare against 2^n enumeration for a small mixed system.
        let alphas = [0.9, 0.5, 0.75, 0.99];
        for k in 0..=4usize {
            let mut expected = 0.0;
            for mask in 0u32..16 {
                let mut p = 1.0;
                let mut up = 0;
                for (i, &a) in alphas.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        p *= a;
                        up += 1;
                    } else {
                        p *= 1.0 - a;
                    }
                }
                if up >= k {
                    expected += p;
                }
            }
            let got = k_of_n_heterogeneous(k, &alphas);
            assert!((got - expected).abs() < EPS, "k={k}");
        }
    }
}
