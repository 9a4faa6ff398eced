//! General finite continuous-time Markov chains.

use std::error::Error;
use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

/// 2^-512 (the literal is 2^512 exactly): what [`Ctmc::steady_state`]
/// scales its weights by when the next one overflows.
const SCALE_DOWN: f64 = 1.0 / 1.340_780_792_994_259_7e154;

/// 2^-16: what [`Ctmc::steady_state`] scales its weights by when only their
/// sum overflows.
const TOTAL_SCALE_DOWN: f64 = 1.0 / 65_536.0;

/// A finite continuous-time Markov chain, described by its off-diagonal
/// transition rates.
///
/// States are indexed `0..n`. Diagonal entries of the generator are implied
/// (`q_ii = -Σ_{j≠i} q_ij`). Build the chain with [`Ctmc::add_transition`],
/// then solve [`Ctmc::steady_state`] for the stationary distribution with the
/// subtraction-free GTH algorithm (stable even when some states have
/// probability `1e-12`).
#[derive(Debug, Clone)]
pub struct Ctmc {
    n: usize,
    /// Row-major off-diagonal rate matrix; `rates[i][j]` is the rate from
    /// `i` to `j`. `rates[i][i]` is kept at zero.
    rates: Vec<Vec<f64>>,
}

impl Ctmc {
    /// Creates a chain with `n` states and no transitions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a CTMC needs at least one state");
        Ctmc {
            n,
            rates: vec![vec![0.0; n]; n],
        }
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the chain has exactly one state (and thus trivial dynamics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // a CTMC always has ≥ 1 state; kept for clippy's len/is_empty pairing
    }

    /// Adds `rate` to the transition rate from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or equal, or if `rate` is
    /// negative or non-finite.
    pub fn add_transition(&mut self, from: usize, to: usize, rate: f64) {
        assert!(from < self.n && to < self.n, "state index out of range");
        assert_ne!(from, to, "self-transitions have no effect in a CTMC");
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and non-negative, got {rate}"
        );
        self.rates[from][to] += rate;
    }

    /// The transition rate from `from` to `to`.
    #[must_use]
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        self.rates[from][to]
    }

    /// Total exit rate of a state.
    #[must_use]
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.rates[state].iter().sum()
    }

    /// Stationary distribution via the Grassmann–Taksar–Heyman algorithm.
    ///
    /// GTH performs state elimination using only additions, multiplications,
    /// and divisions of non-negative quantities, so the result carries full
    /// relative precision even for states visited with probability `1e-15` —
    /// exactly the regime of high-availability models.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotIrreducible`] if the chain is reducible (some
    /// state cannot reach the rest), which GTH detects as a zero elimination
    /// denominator.
    pub fn steady_state(&self) -> Result<Vec<f64>, CtmcError> {
        let n = self.n;
        if n == 1 {
            return Ok(vec![1.0]);
        }
        let mut q = self.rates.clone();
        // Eliminate states n-1 down to 1.
        for k in (1..n).rev() {
            let s: f64 = q[k][..k].iter().sum();
            if s <= 0.0 {
                return Err(CtmcError::NotIrreducible { state: k });
            }
            let row_k: Vec<f64> = q[k][..k].to_vec();
            for (i, row) in q.iter_mut().enumerate().take(k) {
                let factor = row[k] / s;
                row[k] = factor;
                for (j, &rate_kj) in row_k.iter().enumerate() {
                    if j != i {
                        row[j] += factor * rate_kj;
                    }
                }
            }
        }
        // Back-substitute unnormalized stationary weights. A weight can
        // outgrow f64 when state 0 is far less likely than later states
        // (an all-down state at high availability); then the weights so
        // far are scaled by 2^-512 and it is recomputed. Power-of-two
        // scaling is exact, so the ratios are kept, and a chain whose
        // weights stay finite takes the plain arithmetic.
        let weight = |pi: &[f64], k: usize| {
            let mut acc = 0.0;
            for i in 0..k {
                acc += pi[i] * q[i][k];
            }
            acc
        };
        let mut pi = vec![0.0; n];
        pi[0] = 1.0;
        for k in 1..n {
            pi[k] = weight(&pi, k);
            if !pi[k].is_finite() {
                for p in &mut pi[..k] {
                    *p *= SCALE_DOWN;
                }
                pi[k] = weight(&pi, k);
            }
        }
        let mut total: f64 = pi.iter().sum();
        if total == f64::INFINITY {
            // Every weight is finite but their sum is not.
            for p in &mut pi {
                *p *= TOTAL_SCALE_DOWN;
            }
            total = pi.iter().sum();
        }
        if !(total.is_finite() && total > 0.0) {
            return Err(CtmcError::NotIrreducible { state: 0 });
        }
        for p in &mut pi {
            *p /= total;
        }
        Ok(pi)
    }
}

impl ToJson for Ctmc {
    /// Sparse wire format: `{"states": n, "transitions": [{"from", "to",
    /// "rate"}, …]}` with zero-rate entries omitted.
    fn to_json(&self) -> Json {
        let mut transitions = Vec::new();
        for (from, row) in self.rates.iter().enumerate() {
            for (to, &rate) in row.iter().enumerate() {
                if rate != 0.0 {
                    transitions.push(Json::obj(vec![
                        ("from", Json::Num(from as f64)),
                        ("to", Json::Num(to as f64)),
                        ("rate", Json::Num(rate)),
                    ]));
                }
            }
        }
        Json::obj(vec![
            ("states", Json::Num(self.n as f64)),
            ("transitions", Json::Arr(transitions)),
        ])
    }
}

impl FromJson for Ctmc {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let n = value
            .field("states")?
            .as_usize()
            .map_err(|e| e.ctx("states"))?;
        if n == 0 {
            return Err(JsonError::decode("a CTMC needs at least one state").ctx("states"));
        }
        let mut ctmc = Ctmc::new(n);
        for (i, t) in value
            .field("transitions")?
            .as_arr()
            .map_err(|e| e.ctx("transitions"))?
            .iter()
            .enumerate()
        {
            let ctx = |e: JsonError| e.ctx(&format!("transitions[{i}]"));
            let from = t.field("from").map_err(ctx)?.as_usize().map_err(ctx)?;
            let to = t.field("to").map_err(ctx)?.as_usize().map_err(ctx)?;
            let rate = t.field("rate").map_err(ctx)?.as_f64().map_err(ctx)?;
            if from >= n || to >= n {
                return Err(ctx(JsonError::decode(format!(
                    "state index out of range (states = {n})"
                ))));
            }
            if from == to {
                return Err(ctx(JsonError::decode(
                    "self-transitions have no effect in a CTMC",
                )));
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(ctx(JsonError::decode(format!(
                    "rate must be finite and non-negative, got {rate}"
                ))));
            }
            ctmc.add_transition(from, to, rate);
        }
        Ok(ctmc)
    }
}

/// Errors from CTMC analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtmcError {
    /// The chain is not irreducible, so the requested quantity is undefined.
    NotIrreducible {
        /// A state implicated in the reducibility (e.g. one with no path to
        /// lower-numbered states during GTH elimination).
        state: usize,
    },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::NotIrreducible { state } => {
                write!(f, "chain is not irreducible (detected at state {state})")
            }
        }
    }
}

impl Error for CtmcError {}

impl From<CtmcError> for sdnav_core::SdnavError {
    fn from(e: CtmcError) -> Self {
        sdnav_core::SdnavError::analysis(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(fail: f64, repair: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, fail);
        c.add_transition(1, 0, repair);
        c
    }

    #[test]
    fn two_state_steady_state_matches_formula() {
        let mtbf = 5000.0;
        let mttr = 0.1;
        let c = two_state(1.0 / mtbf, 1.0 / mttr);
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - mtbf / (mtbf + mttr)).abs() < 1e-14);
        assert!((pi[0] + pi[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn gth_keeps_precision_for_rare_states() {
        // Availability 1 - 1e-12: the down-state probability must retain
        // full relative precision.
        let c = two_state(1e-12, 1.0);
        let pi = c.steady_state().unwrap();
        let expected = 1e-12 / (1.0 + 1e-12);
        assert!((pi[1] - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::new(1);
        assert_eq!(c.steady_state().unwrap(), vec![1.0]);
    }

    #[test]
    fn reducible_chain_is_rejected() {
        // State 1 has no outgoing transitions at all: absorbing, reducible.
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, 1.0);
        assert_eq!(
            c.steady_state().unwrap_err(),
            CtmcError::NotIrreducible { state: 1 }
        );
    }

    #[test]
    fn three_state_cycle() {
        // Uniform cycle: stationary distribution is uniform.
        let mut c = Ctmc::new(3);
        c.add_transition(0, 1, 2.0);
        c.add_transition(1, 2, 2.0);
        c.add_transition(2, 0, 2.0);
        let pi = c.steady_state().unwrap();
        for p in pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn birth_death_detailed_balance() {
        // M/M/1/3 queue: π_k ∝ (λ/μ)^k.
        let lambda = 0.7;
        let mu = 1.3;
        let mut c = Ctmc::new(4);
        for k in 0..3 {
            c.add_transition(k, k + 1, lambda);
            c.add_transition(k + 1, k, mu);
        }
        let pi = c.steady_state().unwrap();
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..4).map(|k| rho.powi(k)).sum();
        for (k, p) in pi.iter().enumerate() {
            assert!((p - rho.powi(k as i32) / norm).abs() < 1e-14, "k={k}");
        }
    }

    #[test]
    fn birth_death_weights_beyond_f64_range_still_solve() {
        // π_k ∝ 20^k over 300 states: anchored at state 0 the weights reach
        // 20^299 ≈ 1e389, past f64. Checked against the closed form in log
        // space; the states it puts below f64's normal range may read 0.
        const N: usize = 300;
        let mut c = Ctmc::new(N);
        for k in 0..N - 1 {
            c.add_transition(k, k + 1, 20.0);
            c.add_transition(k + 1, k, 1.0);
        }
        let pi = c.steady_state().unwrap();
        let ln_ratio = 20f64.ln();
        // ln of each weight over the largest, and of their sum.
        let ln_rel = |k: usize| (k as f64 - (N - 1) as f64) * ln_ratio;
        let ln_norm = (0..N).map(|k| ln_rel(k).exp()).sum::<f64>().ln();
        for (k, &p) in pi.iter().enumerate() {
            let want = (ln_rel(k) - ln_norm).exp();
            assert!(
                (p - want).abs() <= 1e-12 * want + f64::MIN_POSITIVE,
                "k={k}: {p} vs {want}"
            );
        }
    }

    #[test]
    fn weights_whose_sum_overflows_still_normalize() {
        // π ∝ (1, 1e308, 1e308): each weight is finite, their sum is not.
        let mut c = Ctmc::new(3);
        c.add_transition(0, 1, 1e300);
        c.add_transition(1, 0, 1e-8);
        c.add_transition(1, 2, 1.0);
        c.add_transition(2, 1, 1.0);
        let pi = c.steady_state().unwrap();
        assert!((pi[1] - 0.5).abs() < 1e-15 && (pi[2] - 0.5).abs() < 1e-15);
        assert!(pi[0] < 1e-307);
    }

    #[test]
    #[should_panic(expected = "self-transitions")]
    fn rejects_self_transition() {
        let mut c = Ctmc::new(2);
        c.add_transition(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be finite and non-negative")]
    fn rejects_negative_rate() {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, -1.0);
    }

    #[test]
    fn json_round_trips_and_rejects_malformed() {
        let c = two_state(1.0 / 5000.0, 10.0);
        let text = sdnav_json::to_string(&c);
        let back: Ctmc = sdnav_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.rate(0, 1), c.rate(0, 1));
        assert_eq!(back.rate(1, 0), c.rate(1, 0));

        for (bad, what) in [
            (r#"{"states": 0, "transitions": []}"#, "at least one state"),
            (
                r#"{"states": 2, "transitions": [{"from": 0, "to": 2, "rate": 1.0}]}"#,
                "out of range",
            ),
            (
                r#"{"states": 2, "transitions": [{"from": 1, "to": 1, "rate": 1.0}]}"#,
                "self-transitions",
            ),
            (
                r#"{"states": 2, "transitions": [{"from": 0, "to": 1, "rate": -1.0}]}"#,
                "non-negative",
            ),
        ] {
            let err = sdnav_json::from_str::<Ctmc>(bad).unwrap_err().to_string();
            assert!(err.contains(what), "{bad}: {err}");
        }
    }

    #[test]
    fn accumulates_parallel_transitions() {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, 1.0);
        c.add_transition(0, 1, 2.0);
        assert_eq!(c.rate(0, 1), 3.0);
        assert_eq!(c.exit_rate(0), 3.0);
    }
}
