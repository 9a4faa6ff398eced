//! Repairable-system birth–death models.
//!
//! The paper's Eq. (1) treats each element of an `m`-of-`n` block as an
//! independent alternating-renewal component. That is exact when every
//! failed element is repaired concurrently (one crew per element). With a
//! *shared* repair crew, repairs queue and the true availability is lower.
//! [`KOfNRepairable`] makes both regimes computable so the independence
//! assumption can be checked quantitatively (DESIGN.md ablation 3).

use crate::{Ctmc, CtmcError};

/// A repairable `k`-of-`n` group of identical components with exponential
/// failure and repair times and a configurable number of repair crews.
///
/// The state of the underlying birth–death CTMC is the number of *failed*
/// components: failure rate from state `j` is `(n−j)·λ`, repair rate is
/// `min(j, crews)·μ`.
///
/// ```
/// use sdnav_markov::repairable::KOfNRepairable;
///
/// // 2-of-3 quorum, MTBF 5000 h, MTTR 1 h, one shared repair crew.
/// let group = KOfNRepairable::new(2, 3, 1.0 / 5000.0, 1.0, 1);
/// let a = group.availability().unwrap();
/// assert!(a > 0.9999988 && a < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KOfNRepairable {
    n: u32,
    k: u32,
    /// Per-component failure rate λ = 1/MTBF.
    failure_rate: f64,
    /// Per-crew repair rate μ = 1/MTTR.
    repair_rate: f64,
    /// Number of concurrent repair crews (1 ..= n).
    crews: u32,
}

impl KOfNRepairable {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k > n`, `crews == 0` or `crews > n`, or if the
    /// rates are not positive and finite.
    #[must_use]
    pub fn new(k: u32, n: u32, failure_rate: f64, repair_rate: f64, crews: u32) -> Self {
        assert!(n > 0, "need at least one component");
        assert!(k <= n, "cannot require {k} of {n}");
        assert!((1..=n).contains(&crews), "crews must be in 1..=n");
        assert!(
            failure_rate.is_finite() && failure_rate > 0.0,
            "failure rate must be positive"
        );
        assert!(
            repair_rate.is_finite() && repair_rate > 0.0,
            "repair rate must be positive"
        );
        KOfNRepairable {
            n,
            k,
            failure_rate,
            repair_rate,
            crews,
        }
    }

    /// Convenience: one crew per component (fully concurrent repair), the
    /// regime in which the group behaves as `n` independent components.
    #[must_use]
    pub fn with_dedicated_crews(k: u32, n: u32, failure_rate: f64, repair_rate: f64) -> Self {
        KOfNRepairable::new(k, n, failure_rate, repair_rate, n)
    }

    /// The underlying birth–death CTMC (state = number failed).
    #[must_use]
    pub fn ctmc(&self) -> Ctmc {
        let n = self.n as usize;
        let mut c = Ctmc::new(n + 1);
        for j in 0..n {
            let failed = j as f64;
            c.add_transition(j, j + 1, (self.n as f64 - failed) * self.failure_rate);
            let crews = ((j + 1).min(self.crews as usize)) as f64;
            c.add_transition(j + 1, j, crews * self.repair_rate);
        }
        c
    }

    /// Steady-state availability: probability that at least `k` components
    /// are up (at most `n − k` failed).
    ///
    /// # Errors
    ///
    /// Propagates [`CtmcError`] (cannot occur for valid parameters, since a
    /// birth–death chain with positive rates is irreducible).
    pub fn availability(&self) -> Result<f64, CtmcError> {
        let pi = self.ctmc().steady_state()?;
        let max_failed = (self.n - self.k) as usize;
        Ok(pi[..=max_failed].iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. (1) of the paper, restated locally to avoid a circular dev-dependency.
    fn k_of_n_binomial(m: u32, n: u32, alpha: f64) -> f64 {
        fn binom(n: u32, k: u32) -> f64 {
            let k = k.min(n - k);
            let mut acc = 1.0;
            for i in 0..k {
                acc = acc * f64::from(n - i) / f64::from(i + 1);
            }
            acc.round()
        }
        (0..=(n - m))
            .map(|i| binom(n, i) * alpha.powi((n - i) as i32) * (1.0 - alpha).powi(i as i32))
            .sum()
    }

    #[test]
    fn dedicated_crews_match_binomial_formula() {
        // With one crew per component the components are independent and the
        // birth-death steady state is Binomial(n, A) — i.e. the paper's Eq. (1).
        let (lambda, mu) = (1.0 / 5000.0, 1.0 / 0.1);
        let a = mu / (lambda + mu); // single-component availability
        for (k, n) in [(1u32, 3u32), (2, 3), (3, 3), (2, 5)] {
            let model = KOfNRepairable::with_dedicated_crews(k, n, lambda, mu);
            let got = model.availability().unwrap();
            let expected = k_of_n_binomial(k, n, a);
            assert!(
                (got - expected).abs() < 1e-12,
                "k={k} n={n}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn shared_crew_is_never_better() {
        let (lambda, mu) = (0.01, 0.1);
        for crews in 1..=3u32 {
            let shared = KOfNRepairable::new(2, 3, lambda, mu, crews)
                .availability()
                .unwrap();
            let dedicated = KOfNRepairable::with_dedicated_crews(2, 3, lambda, mu)
                .availability()
                .unwrap();
            assert!(
                shared <= dedicated + 1e-15,
                "crews={crews}: {shared} > {dedicated}"
            );
        }
    }

    #[test]
    fn shared_crew_gap_vanishes_at_high_availability() {
        // In the paper's regime (MTTR << MTBF) repair contention is rare, so
        // Eq. (1) is an excellent approximation even with one crew.
        let (lambda, mu) = (1.0 / 5000.0, 1.0 / 0.1);
        let one_crew = KOfNRepairable::new(2, 3, lambda, mu, 1)
            .availability()
            .unwrap();
        let dedicated = KOfNRepairable::with_dedicated_crews(2, 3, lambda, mu)
            .availability()
            .unwrap();
        let gap = dedicated - one_crew;
        assert!(gap >= 0.0);
        assert!(gap < 1e-8, "gap={gap}");
    }

    #[test]
    fn shared_crew_gap_is_material_at_low_availability() {
        let (lambda, mu) = (0.5, 1.0);
        let one_crew = KOfNRepairable::new(2, 3, lambda, mu, 1)
            .availability()
            .unwrap();
        let dedicated = KOfNRepairable::with_dedicated_crews(2, 3, lambda, mu)
            .availability()
            .unwrap();
        assert!(dedicated - one_crew > 0.01);
    }

    #[test]
    fn k_zero_is_always_available() {
        let model = KOfNRepairable::new(0, 3, 0.5, 1.0, 1);
        assert!((model.availability().unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "cannot require")]
    fn rejects_impossible_quorum() {
        let _ = KOfNRepairable::new(4, 3, 0.1, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "crews must be in 1..=n")]
    fn rejects_zero_crews() {
        let _ = KOfNRepairable::new(2, 3, 0.1, 1.0, 0);
    }
}
