//! Parameter sweeps regenerating the paper's Figs. 3–5.

use sdnav_json::{Json, ToJson};

use crate::{ControllerSpec, HwModel, HwParams, Scenario, SwModel, SwParams, Topology};

/// `count` evenly spaced points covering `[start, end]` inclusive.
///
/// ```
/// use sdnav_core::sweep::linspace;
/// assert_eq!(linspace(0.0, 1.0, 5), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// assert_eq!(linspace(2.0, 2.0, 1), vec![2.0]);
/// ```
///
/// # Panics
///
/// Panics if `count == 0`.
#[must_use]
pub fn linspace(start: f64, end: f64, count: usize) -> Vec<f64> {
    assert!(count > 0, "need at least one point");
    if count == 1 {
        return vec![start];
    }
    (0..count)
        .map(|i| start + (end - start) * i as f64 / (count - 1) as f64)
        .collect()
}

/// One point of the Fig. 3 sweep: HW-centric controller availability vs the
/// role availability `A_C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Role availability `A_C` (the x-axis).
    pub a_c: f64,
    /// Small-topology controller availability.
    pub small: f64,
    /// Medium-topology controller availability.
    pub medium: f64,
    /// Large-topology controller availability.
    pub large: f64,
}

impl ToJson for Fig3Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("a_c", Json::Num(self.a_c)),
            ("small", Json::Num(self.small)),
            ("medium", Json::Num(self.medium)),
            ("large", Json::Num(self.large)),
        ])
    }
}

/// Regenerates Fig. 3: sweeps `A_C` over `[0.999, 1.0]` (the paper's
/// `0.9995 ± 0.0005`) with `points` samples at the given base parameters.
#[must_use]
pub fn fig3(spec: &ControllerSpec, base: HwParams, points: usize) -> Vec<Fig3Row> {
    let small = Topology::small(spec);
    let medium = Topology::medium(spec);
    let large = Topology::large(spec);
    linspace(0.999, 1.0, points)
        .into_iter()
        .map(|a_c| {
            let p = base.with_a_c(a_c);
            Fig3Row {
                a_c,
                small: HwModel::try_new(spec, &small, p)
                    .expect("valid HW model")
                    .availability(),
                medium: HwModel::try_new(spec, &medium, p)
                    .expect("valid HW model")
                    .availability(),
                large: HwModel::try_new(spec, &large, p)
                    .expect("valid HW model")
                    .availability(),
            }
        })
        .collect()
}

/// One point of the Fig. 4 / Fig. 5 sweeps: the four §VI options at one
/// x-axis position.
///
/// The x-axis follows the paper: `x = 0` is the default (`A = 0.99998`,
/// `A_S = 0.9998`); `x = −1` is one order of magnitude *more* downtime
/// (less reliable); `x = +1` is one order of magnitude *less* downtime.
/// `A` and `A_S` vary in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwSweepRow {
    /// Figure x-axis value in `[−1, 1]` (orders of magnitude of downtime
    /// *removed*).
    pub x: f64,
    /// The auto-restart process availability `A` at this point.
    pub a: f64,
    /// Option 1S: Small topology, supervisor not required.
    pub small_no_sup: f64,
    /// Option 2S: Small topology, supervisor required.
    pub small_sup: f64,
    /// Option 1L: Large topology, supervisor not required.
    pub large_no_sup: f64,
    /// Option 2L: Large topology, supervisor required.
    pub large_sup: f64,
}

impl ToJson for SwSweepRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("x", Json::Num(self.x)),
            ("a", Json::Num(self.a)),
            ("small_no_sup", Json::Num(self.small_no_sup)),
            ("small_sup", Json::Num(self.small_sup)),
            ("large_no_sup", Json::Num(self.large_no_sup)),
            ("large_sup", Json::Num(self.large_sup)),
        ])
    }
}

fn sw_sweep(
    spec: &ControllerSpec,
    base: SwParams,
    points: usize,
    metric: impl Fn(&SwModel<'_>) -> f64,
) -> Vec<SwSweepRow> {
    let small = Topology::small(spec);
    let large = Topology::large(spec);
    linspace(-1.0, 1.0, points)
        .into_iter()
        .map(|x| {
            // Figure x = +1 means 10× LESS downtime → scale by 10^(−x).
            let params = base.scale_process_downtime(-x);
            let eval = |topo: &Topology, scenario| {
                metric(&SwModel::try_new(spec, topo, params, scenario).expect("valid SW model"))
            };
            SwSweepRow {
                x,
                a: params.process.auto,
                small_no_sup: eval(&small, Scenario::SupervisorNotRequired),
                small_sup: eval(&small, Scenario::SupervisorRequired),
                large_no_sup: eval(&large, Scenario::SupervisorNotRequired),
                large_sup: eval(&large, Scenario::SupervisorRequired),
            }
        })
        .collect()
}

/// Regenerates Fig. 4: SDN control-plane availability `A_CP` for the four
/// options as process availability sweeps ±1 order of magnitude of
/// downtime.
#[must_use]
pub fn fig4(spec: &ControllerSpec, base: SwParams, points: usize) -> Vec<SwSweepRow> {
    sw_sweep(spec, base, points, |m| m.cp_availability())
}

/// Regenerates Fig. 5: per-host data-plane availability `A_DP` for the four
/// options.
#[must_use]
pub fn fig5(spec: &ControllerSpec, base: SwParams, points: usize) -> Vec<SwSweepRow> {
    sw_sweep(spec, base, points, |m| m.host_dp_availability())
}

/// Finds the root of a monotone function on `[lo, hi]` by bisection.
///
/// `f` must be non-decreasing; returns `None` if `f` does not change sign
/// on the interval. Converges to ~1e-12 interval width.
///
/// ```
/// use sdnav_core::sweep::bisect;
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0).unwrap();
/// assert!((root - 2.0f64.sqrt()).abs() < 1e-9);
/// assert!(bisect(|x| x + 10.0, 0.0, 1.0).is_none());
/// ```
pub fn bisect(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> Option<f64> {
    let (mut lo, mut hi) = (lo, hi);
    let f_lo = f(lo);
    let f_hi = f(hi);
    if f_lo == 0.0 {
        return Some(lo);
    }
    if f_hi == 0.0 {
        return Some(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return None;
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        let v = f(mid);
        if v == 0.0 || hi - lo < 1e-12 {
            return Some(mid);
        }
        if v.signum() == f_lo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// The inverse planning question: what auto-restart process availability
/// `A` (with `A_S` scaled in lock-step, as in Figs. 4–5) is needed to meet
/// a control-plane downtime target on the given deployment?
///
/// Returns `None` when the target is unreachable even with perfect
/// processes (e.g. a Small-topology target below the ~5.26 m/y rack floor)
/// or when it is already met at 10× worse processes (no hardening needed
/// anywhere in the modeled range).
#[must_use]
pub fn required_process_availability(
    spec: &ControllerSpec,
    topology: &Topology,
    base: SwParams,
    scenario: Scenario,
    target_minutes_per_year: f64,
) -> Option<f64> {
    let target_u = target_minutes_per_year / 525_960.0;
    let downtime_at = |delta: f64| {
        let params = base.scale_process_downtime(delta);
        let model = SwModel::try_new(spec, topology, params, scenario).expect("valid SW model");
        (1.0 - model.cp_availability()) - target_u
    };
    // delta < 0 = better processes. Search over ±1 order of magnitude each
    // way, the figures' range.
    let delta = bisect(downtime_at, -3.0, 1.0)?;
    Some(base.scale_process_downtime(delta).process.auto)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = linspace(-1.0, 1.0, 21);
        assert_eq!(v.len(), 21);
        assert_eq!(v[0], -1.0);
        assert_eq!(v[20], 1.0);
        assert!((v[10] - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn linspace_rejects_zero_points() {
        let _ = linspace(0.0, 1.0, 0);
    }

    #[test]
    fn fig3_covers_paper_range_and_ordering() {
        let s = spec();
        let rows = fig3(&s, HwParams::paper_defaults(), 11);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].a_c, 0.999);
        assert_eq!(rows[10].a_c, 1.0);
        for r in &rows {
            // Fig. 3 shape: Large strictly above Small; Medium at or just
            // below Small.
            assert!(r.large > r.small, "a_c={}", r.a_c);
            assert!(r.medium <= r.small + 1e-12, "a_c={}", r.a_c);
        }
    }

    #[test]
    fn fig3_quoted_ranges() {
        // §V.D: Small/Medium range 0.999986–0.999990; Large
        // 0.999996–0.9999990 over A_C ∈ [0.999, 1.0].
        let s = spec();
        let rows = fig3(&s, HwParams::paper_defaults(), 3);
        let lo = &rows[0];
        let hi = &rows[2];
        assert!((lo.small - 0.999986).abs() < 2e-6, "{:.7}", lo.small);
        assert!((hi.small - 0.999990).abs() < 2e-6, "{:.7}", hi.small);
        assert!((lo.large - 0.999996).abs() < 2e-6, "{:.7}", lo.large);
        assert!(hi.large > 0.999998, "{:.7}", hi.large);
    }

    #[test]
    fn fig4_center_matches_defaults() {
        let s = spec();
        let rows = fig4(&s, SwParams::paper_defaults(), 3);
        let center = &rows[1];
        assert!((center.x).abs() < 1e-12);
        assert!((center.a - 0.99998).abs() < 1e-12);
        // Ordering at the default point: 1L best, then 2L, 1S, 2S.
        assert!(center.large_no_sup > center.large_sup);
        assert!(center.large_sup > center.small_no_sup);
        assert!(center.small_no_sup > center.small_sup);
    }

    #[test]
    fn fig4_monotone_in_x() {
        // More reliable processes (larger x) never decrease availability.
        let s = spec();
        let rows = fig4(&s, SwParams::paper_defaults(), 9);
        for w in rows.windows(2) {
            assert!(w[1].small_sup >= w[0].small_sup);
            assert!(w[1].large_no_sup >= w[0].large_no_sup);
        }
    }

    #[test]
    fn bisect_finds_monotone_roots() {
        let r = bisect(|x| x - 0.25, 0.0, 1.0).unwrap();
        assert!((r - 0.25).abs() < 1e-10);
        assert_eq!(bisect(|_| 1.0, 0.0, 1.0), None);
        assert_eq!(bisect(|x| x, 0.0, 1.0), Some(0.0));
    }

    #[test]
    fn required_availability_inverse_round_trips() {
        // Ask for exactly the downtime the defaults produce: the answer is
        // the default A.
        let s = spec();
        let topo = Topology::large(&s);
        let base = SwParams::paper_defaults();
        let model = SwModel::try_new(&s, &topo, base, Scenario::SupervisorRequired)
            .expect("valid SW model");
        let target = (1.0 - model.cp_availability()) * 525_960.0;
        let a =
            required_process_availability(&s, &topo, base, Scenario::SupervisorRequired, target)
                .unwrap();
        assert!((a - base.process.auto).abs() < 1e-7, "a={a}");
    }

    #[test]
    fn required_availability_tighter_target_needs_better_processes() {
        let s = spec();
        let topo = Topology::large(&s);
        let base = SwParams::paper_defaults();
        let relaxed =
            required_process_availability(&s, &topo, base, Scenario::SupervisorRequired, 2.0)
                .unwrap();
        let strict =
            required_process_availability(&s, &topo, base, Scenario::SupervisorRequired, 0.5)
                .unwrap();
        assert!(strict > relaxed, "strict={strict} relaxed={relaxed}");
    }

    #[test]
    fn required_availability_detects_rack_floor() {
        // The Small topology cannot beat its single-rack ~5.26 m/y floor no
        // matter how good the processes are.
        let s = spec();
        let topo = Topology::small(&s);
        let impossible = required_process_availability(
            &s,
            &topo,
            SwParams::paper_defaults(),
            Scenario::SupervisorRequired,
            2.0,
        );
        assert_eq!(impossible, None);
    }

    #[test]
    fn fig5_supervisor_gap_dominates() {
        // Fig. 5 shape: the supervisor-required curves sit well below the
        // not-required curves at every x (the vRouter supervisor SPOF).
        let s = spec();
        let rows = fig5(&s, SwParams::paper_defaults(), 9);
        for r in &rows {
            assert!(r.small_no_sup > r.small_sup, "x={}", r.x);
            assert!(r.large_no_sup > r.large_sup, "x={}", r.x);
        }
    }

    #[test]
    fn fig5_small_and_large_nearly_identical() {
        // §VI.G: "there is little difference between the Small and Large
        // topologies" for the DP (the 5 m/y rack term only).
        let s = spec();
        let rows = fig5(&s, SwParams::paper_defaults(), 5);
        for r in &rows {
            let gap = (r.small_sup - r.large_sup).abs() * 525_960.0;
            assert!(gap < 7.0, "x={}: gap {gap:.1} m/y", r.x);
        }
    }
}
