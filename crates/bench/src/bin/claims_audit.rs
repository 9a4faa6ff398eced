//! CLM-AUDIT: the static cost model (`sdnav sweep --dry-run`) cross-checked
//! against the real executor.
//!
//! [`sdnav_audit::SweepPlan::predict`] walks the same work items the grid
//! executor evaluates, but simulates only the *bookkeeping*: which cache
//! keys each cell touches (in plan order) and how many discrete events the
//! simulated cells should generate from the configured horizon,
//! acceleration, and element rates. If the prediction is any good it must
//! agree with measurement, so this experiment runs both sides:
//!
//! 1. **Cache hits and misses.** On the Fig. 4/5 software grid every x
//!    point touches the same four `(topology, scenario, x)` keys for both
//!    figures, so the static model predicts a 50% hit rate. It walks the
//!    executor's own key list (`SubModelKey::of`), so on one thread the
//!    measured executor cache (RunMetrics) must report exactly the
//!    predicted hits and misses.
//! 2. **Event count.** For the simulated scenario cells the predicted
//!    organic event count (2 events per failure/repair cycle at the
//!    accelerated rates) must land within 3x of the events the
//!    discrete-event engine actually processed.
//! 3. **Cost ranking.** The per-cell cost units must reproduce the obvious
//!    structure: Large-deployment sim cells cost more than Small ones, and
//!    any sim cell dwarfs any analytic cell.

use sdnav_audit::SweepPlan;
use sdnav_bench::{header, spec};
use sdnav_grid::plan::Figure;
use sdnav_grid::{evaluate, GridSpec};

fn verdict(ok: bool) -> &'static str {
    if ok {
        "CONFIRMED"
    } else {
        "NOT CONFIRMED"
    }
}

fn main() {
    let s = spec();
    header(
        "CLM-AUDIT",
        "static sweep cost model vs the measured grid executor",
    );

    // --- 1. cache hit rate on the paper's Fig. 4/5 grid -----------------
    let sw_grid: GridSpec = GridSpec::builder()
        .figures(&[Figure::Fig4, Figure::Fig5])
        .points(11)
        .replications(0)
        .threads(1)
        .build()
        .expect("valid software grid");
    let plan = SweepPlan::predict(&s, &sw_grid);
    let predicted_rate = plan.cache.hit_rate();
    let outcome = evaluate(&s, &sw_grid).expect("software grid evaluates");
    let (hits, misses) = (outcome.metrics.cache_hits, outcome.metrics.cache_misses);
    let measured_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "fig4+fig5 x11: predicted cache hit rate {:.1}% ({} of {} lookups), \
         measured {:.1}% ({} of {})",
        100.0 * predicted_rate,
        plan.cache.hits,
        plan.cache.lookups,
        100.0 * measured_rate,
        hits,
        hits + misses,
    );
    println!(
        "  'predicted cache hits and misses equal measured': {}",
        verdict(plan.cache.hits as u64 == hits && plan.cache.misses as u64 == misses),
    );

    // --- 2. simulated event count --------------------------------------
    let sim_grid: GridSpec = GridSpec::builder()
        .figures(&[Figure::Fig4])
        .points(3)
        .replications(4)
        .sim_horizon_hours(2_000.0)
        .sim_accelerate(500.0)
        .threads(1)
        .build()
        .expect("valid sim grid");
    let plan = SweepPlan::predict(&s, &sim_grid);
    let outcome = evaluate(&s, &sim_grid).expect("sim grid evaluates");
    let predicted = plan.predicted_events;
    let measured = outcome.metrics.sim_events as f64;
    let ratio = predicted / measured.max(1.0);
    println!(
        "\nsim x3 r4: predicted {predicted:.3e} organic events, engine processed {measured:.3e} \
         (ratio {ratio:.2})"
    );
    println!(
        "  'predicted event count within 3x of measured': {}",
        verdict((1.0 / 3.0..=3.0).contains(&ratio)),
    );

    // --- 3. cost ranking -------------------------------------------------
    let large: f64 = plan
        .cells
        .iter()
        .filter(|c| c.kind == "sim" && c.label.contains("Large"))
        .map(|c| c.cost)
        .sum();
    let small: f64 = plan
        .cells
        .iter()
        .filter(|c| c.kind == "sim" && c.label.contains("Small"))
        .map(|c| c.cost)
        .sum();
    let max_analytic = plan
        .cells
        .iter()
        .filter(|c| c.kind != "sim")
        .map(|c| c.cost)
        .fold(0.0_f64, f64::max);
    let min_sim = plan
        .cells
        .iter()
        .filter(|c| c.kind == "sim")
        .map(|c| c.cost)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\ncost units: Large sim cells {large:.1}, Small sim cells {small:.1}, \
         cheapest sim cell {min_sim:.1}, dearest analytic cell {max_analytic:.1}"
    );
    println!(
        "  'Large deployments predicted costlier than Small': {}",
        verdict(large > small),
    );
    println!(
        "  'every sim cell predicted costlier than any analytic cell': {}",
        verdict(min_sim > max_analytic),
    );
}
