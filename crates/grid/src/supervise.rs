//! Supervised execution: panic isolation, quarantine, checkpoint/resume,
//! and graceful-shutdown partial results.
//!
//! The paper's §VI argues that a supervised process barely dents
//! availability while an unsupervised one dominates downtime. The same
//! holds for the analysis machinery itself: one panicking grid cell (or an
//! interrupted CI job) must not throw away hours of Monte-Carlo work. This
//! module wraps the work-stealing pool ([`crate::pool`]) in a supervisor,
//! and every grid entry point evaluates through it:
//!
//! * every work item runs once under [`std::panic::catch_unwind`], and a
//!   panicking item is quarantined into a structured [`QuarantineReport`]
//!   instead of killing the pool. There is no retry: a cell is a pure
//!   function of the model state, the grid and its identity-derived seed,
//!   so a second attempt would panic the same way;
//! * completed cell outputs are journaled to an fsync'd checkpoint WAL
//!   ([`crate::checkpoint`]) so a killed run resumes without recomputing;
//! * a shutdown flag (wired to SIGINT/SIGTERM by the CLI) drains in-flight
//!   cells, seals the WAL, and still emits the partial results.
//!
//! Because per-item seeds are identity-derived ([`crate::plan::item_seed`]),
//! a resumed run is byte-identical to an uninterrupted one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sdnav_core::{ControllerSpec, ModelState};

use crate::cache::EvalGraph;
use crate::checkpoint::{fingerprint, CheckpointWal};
use crate::metrics::{RunMetrics, StageTimings};
use crate::plan::{item_seed, plan_grid, WorkItem};
use crate::quarantine::{QuarantineRecord, QuarantineReport};
use crate::{pool, GridError, GridResults, GridSpec, ItemOutput};

/// Extracts a displayable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Options for [`evaluate_supervised`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SuperviseOptions<'a> {
    /// Journal completed cells to this WAL path.
    pub checkpoint: Option<&'a std::path::Path>,
    /// Replay journaled cells from the WAL before executing the rest.
    pub resume: bool,
    /// Externally owned shutdown flag (the CLI wires SIGINT/SIGTERM to
    /// it). Once set, not-yet-started cells are skipped; in-flight cells
    /// drain normally.
    pub shutdown: Option<&'a AtomicBool>,
    /// Test/CI hook: the item at this plan index panics.
    pub inject_panic: Option<usize>,
    /// Test/CI hook: request shutdown after this many freshly computed
    /// cells, simulating an interrupt at a deterministic point.
    pub cancel_after_cells: Option<usize>,
}

/// What a supervised grid run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedOutcome {
    /// Aggregated results; [`GridResults::incomplete`] is set when any
    /// cell was skipped (shutdown) or quarantined.
    pub results: GridResults,
    /// Run metrics, including supervision counters.
    pub metrics: RunMetrics,
    /// Quarantined cells (empty on a clean run).
    pub quarantine: QuarantineReport,
    /// Whether a shutdown request cut the run short.
    pub interrupted: bool,
}

/// What the supervising closure reports per cell.
enum EvalCell {
    /// Freshly computed (journaled to the WAL when one is open).
    Fresh(Result<ItemOutput, GridError>),
    /// Replayed from the checkpoint WAL; not recomputed or re-journaled.
    Restored(ItemOutput),
    /// Skipped because shutdown was requested before the cell started.
    Skipped,
    /// Panicked, so quarantined (cells are never retried).
    Panicked(QuarantineRecord),
}

/// Evaluates a grid under supervision (see the module docs) on the
/// paper-default parameters and a fresh [`EvalGraph`]. This is the path
/// `sdnav sweep` runs on; it shares its code path with
/// [`crate::evaluate_incremental`].
///
/// # Errors
///
/// Returns the first [`GridError`] in plan order — unlike a panic, a model
/// error is not quarantined — or a [`GridError::Checkpoint`] if the WAL
/// cannot be written or replayed.
pub fn evaluate_supervised(
    spec: &ControllerSpec,
    grid: &GridSpec,
    opts: &SuperviseOptions<'_>,
) -> Result<SupervisedOutcome, GridError> {
    let state = ModelState::paper(spec.clone());
    evaluate_with(&state, grid, &EvalGraph::new(), opts)
}

/// The one grid evaluator: plans the items, executes them on the pool under
/// supervision, journals them to the optional WAL, folds the outputs in
/// plan order and reports this run's metrics, with `graph`'s hit/miss
/// deltas rather than its lifetime totals.
///
/// The WAL fingerprint covers the spec and the grid, not the HW/SW
/// parameter sets, so only [`evaluate_supervised`]'s paper-default state
/// journals.
pub(crate) fn evaluate_with(
    state: &ModelState,
    grid: &GridSpec,
    graph: &EvalGraph,
    opts: &SuperviseOptions<'_>,
) -> Result<SupervisedOutcome, GridError> {
    let threads = crate::resolve_threads(grid);
    let (hits0, misses0) = (graph.hits(), graph.misses());

    let plan_start = Instant::now(); // detlint::allow(DL002): stage timing feeds the stderr metrics channel, never results
    let items = plan_grid(grid);
    let ctx = crate::build_ctx(state, grid, graph, &items)?;

    let mut restored_cells: Vec<Option<ItemOutput>> = Vec::new();
    restored_cells.resize_with(items.len(), || None);
    let mut wal = None;
    if let Some(path) = opts.checkpoint {
        let stamp = fingerprint(&state.spec, grid);
        if opts.resume {
            let (handle, journaled) = CheckpointWal::resume(path, stamp)?;
            for (index, output) in journaled {
                if index < items.len() {
                    restored_cells[index] = Some(output);
                }
            }
            wal = Some(handle);
        } else {
            wal = Some(CheckpointWal::create(path, stamp)?);
        }
    }
    let restored_count = restored_cells.iter().filter(|c| c.is_some()).count();
    let restored: Vec<Mutex<Option<ItemOutput>>> =
        restored_cells.into_iter().map(Mutex::new).collect();
    let wal = wal.map(Mutex::new);
    let fresh_done = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let plan_ms = plan_start.elapsed().as_secs_f64() * 1e3;

    let shutting_down = || {
        cancelled.load(Ordering::Relaxed)
            || opts
                .shutdown
                .is_some_and(|flag| flag.load(Ordering::Relaxed))
    };

    let execute_start = Instant::now(); // detlint::allow(DL002): stage timing feeds the stderr metrics channel, never results
    let cell = |index: usize, item: &WorkItem| {
        if let Some(output) = restored[index].lock().expect("restored slot lock").take() {
            return EvalCell::Restored(output);
        }
        if shutting_down() {
            return EvalCell::Skipped;
        }
        if opts.inject_panic == Some(index) {
            panic!("injected panic in work item {index}");
        }
        let result = ctx.eval(item);
        if let (Ok(output), Some(wal)) = (&result, &wal) {
            if let Err(e) = wal.lock().expect("wal lock").append_cell(index, output) {
                return EvalCell::Fresh(Err(e));
            }
        }
        if result.is_ok() {
            let done = fresh_done.fetch_add(1, Ordering::SeqCst) + 1;
            if opts.cancel_after_cells.is_some_and(|k| done >= k) {
                cancelled.store(true, Ordering::SeqCst);
            }
        }
        EvalCell::Fresh(result)
    };
    let (cells, stats) = pool::execute(threads, &items, |index, item| {
        catch_unwind(AssertUnwindSafe(|| cell(index, item))).unwrap_or_else(|payload| {
            EvalCell::Panicked(QuarantineRecord {
                index,
                label: format!("item {index}: {item:?}"),
                seed: item_seed(grid.seed, item),
                panic_message: panic_message(payload.as_ref()),
            })
        })
    });
    let execute_ms = execute_start.elapsed().as_secs_f64() * 1e3;

    let aggregate_start = Instant::now(); // detlint::allow(DL002): stage timing feeds the stderr metrics channel, never results
    let mut results = GridResults::default();
    let mut quarantine = QuarantineReport::default();
    let mut skipped = 0usize;
    let mut journaled_cells = 0u64;
    let mut first_error = None;
    for cell in cells {
        match cell {
            EvalCell::Fresh(Ok(output)) | EvalCell::Restored(output) => {
                journaled_cells += 1;
                crate::fold_output(&mut results, output);
            }
            EvalCell::Fresh(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            EvalCell::Skipped => skipped += 1,
            EvalCell::Panicked(record) => quarantine.records.push(record),
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let interrupted = skipped > 0;
    results.incomplete = interrupted || !quarantine.is_empty();

    if let Some(wal) = wal {
        let reason = if interrupted {
            "interrupted"
        } else if quarantine.is_empty() {
            "complete"
        } else {
            "partial"
        };
        wal.into_inner()
            .expect("wal lock")
            .seal(reason, journaled_cells)?;
    }
    let aggregate_ms = aggregate_start.elapsed().as_secs_f64() * 1e3;

    let metrics = RunMetrics::from_run(
        &results,
        items.len(),
        StageTimings {
            plan_ms,
            execute_ms,
            aggregate_ms,
        },
        stats,
        (graph.hits() - hits0, graph.misses() - misses0),
        (quarantine.len() as u64, restored_count as u64),
    );

    Ok(SupervisedOutcome {
        results,
        metrics,
        quarantine,
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Figure;
    use std::path::PathBuf;

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    fn small_grid(threads: usize) -> GridSpec {
        GridSpec::builder()
            .figures(&[Figure::Fig4])
            .points(2)
            .replications(1)
            .threads(threads)
            .sim_horizon_hours(2_000.0)
            .sim_accelerate(500.0)
            .sim_compute_hosts(2)
            .build()
            .unwrap()
    }

    fn temp_wal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sdnav-supervise-{tag}-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn supervised_matches_plain_evaluate_byte_for_byte() {
        let s = spec();
        let grid = small_grid(2);
        let plain = crate::evaluate(&s, &grid).unwrap();
        let supervised = evaluate_supervised(&s, &grid, &SuperviseOptions::default()).unwrap();
        assert_eq!(
            sdnav_json::to_string(&supervised.results),
            sdnav_json::to_string(&plain.results)
        );
        assert!(!supervised.interrupted);
        assert!(supervised.quarantine.is_empty());
        assert_eq!(supervised.metrics.quarantined, 0);
    }

    #[test]
    fn both_evaluators_count_consensus_replications() {
        // Fig. 3 is analytic and `replications` stays 0, so every DES
        // replication here is a consensus one: 2 timeouts × 2 sizes, one
        // replication per cell.
        let s = spec();
        let grid = GridSpec::builder()
            .figures(&[Figure::Fig3])
            .points(1)
            .threads(2)
            .sim_horizon_hours(5_000.0)
            .sim_accelerate(500.0)
            .consensus(sdnav_core::ConsensusSpec::raft_defaults())
            .consensus_election_timeouts_ms(&[150.0, 600.0])
            .consensus_cluster_sizes(&[3, 5])
            .build()
            .unwrap();
        let plain = crate::evaluate(&s, &grid).unwrap();
        let supervised = evaluate_supervised(&s, &grid, &SuperviseOptions::default()).unwrap();
        let rows = &supervised.results.consensus;
        assert_eq!(rows.len(), 4);
        let replications: u64 = rows.iter().map(|r| r.replications as u64).sum();
        assert_eq!(replications, 4);
        assert_eq!(plain.metrics.sim_replications, replications);
        assert_eq!(supervised.metrics.sim_replications, replications);
    }

    #[test]
    fn panicking_item_is_quarantined_without_killing_pool() {
        let s = spec();
        let grid = small_grid(2);
        let opts = SuperviseOptions {
            inject_panic: Some(1),
            ..SuperviseOptions::default()
        };
        let outcome = evaluate_supervised(&s, &grid, &opts).unwrap();
        // 2 fig4 + 8 sim cells planned; all but the quarantined fig4 cell
        // completed.
        assert_eq!(outcome.results.fig4.len(), 1);
        assert_eq!(outcome.results.sim.len(), 8);
        assert_eq!(outcome.quarantine.len(), 1);
        let record = &outcome.quarantine.records[0];
        assert_eq!(record.index, 1);
        assert!(record.panic_message.contains("injected panic"));
        assert_eq!(outcome.metrics.quarantined, 1);
        assert!(outcome.results.incomplete);
        assert!(!outcome.interrupted, "quarantine is not an interrupt");
        let json = sdnav_json::to_string(&outcome.results);
        assert!(json.contains("\"incomplete\":true"));
    }

    #[test]
    fn supervision_on_a_warm_graph_serves_every_surviving_cell_from_cache() {
        use sdnav_json::to_string as json;
        let state = ModelState::paper(spec());
        let grid = small_grid(2);
        let graph = EvalGraph::new();
        let cold = crate::evaluate_incremental(&state, &grid, &graph).unwrap();
        let opts = SuperviseOptions {
            inject_panic: Some(0),
            ..SuperviseOptions::default()
        };
        let warm = evaluate_with(&state, &grid, &graph, &opts).unwrap();
        assert_eq!(warm.quarantine.len(), 1);
        assert_eq!(warm.quarantine.records[0].index, 0);
        assert_eq!(warm.metrics.cache_misses, 0);
        assert!(warm.metrics.cache_hits > 0);
        // Item 0 is the first Fig. 4 cell. Rows compare as JSON because a
        // one-replication `Estimate` has a NaN standard error.
        assert_eq!(warm.results.fig4.len(), cold.results.fig4.len() - 1);
        for (w, c) in warm.results.fig4.iter().zip(&cold.results.fig4[1..]) {
            assert_eq!(json(w), json(c));
        }
        assert_eq!(warm.results.sim.len(), cold.results.sim.len());
        for (w, c) in warm.results.sim.iter().zip(&cold.results.sim) {
            assert_eq!(json(w), json(c));
        }
    }

    #[test]
    fn shutdown_flag_skips_remaining_cells_and_marks_incomplete() {
        let s = spec();
        let grid = small_grid(1);
        let flag = AtomicBool::new(true); // Shutdown requested before start.
        let opts = SuperviseOptions {
            shutdown: Some(&flag),
            ..SuperviseOptions::default()
        };
        let outcome = evaluate_supervised(&s, &grid, &opts).unwrap();
        assert!(outcome.interrupted);
        assert!(outcome.results.incomplete);
        assert!(outcome.results.fig4.is_empty());
        assert!(outcome.quarantine.is_empty());
    }

    #[test]
    fn cancelled_run_resumes_to_byte_identical_results() {
        let s = spec();
        let path = temp_wal("resume");
        std::fs::remove_file(&path).ok();
        let reference =
            sdnav_json::to_string(&crate::evaluate(&s, &small_grid(1)).unwrap().results);

        let grid = small_grid(1);
        let partial_opts = SuperviseOptions {
            checkpoint: Some(&path),
            cancel_after_cells: Some(2),
            ..SuperviseOptions::default()
        };
        let partial = evaluate_supervised(&s, &grid, &partial_opts).unwrap();
        assert!(partial.interrupted);
        assert!(partial.results.incomplete);

        // Resume on a different thread count: byte-identical completion.
        let resumed_opts = SuperviseOptions {
            checkpoint: Some(&path),
            resume: true,
            ..SuperviseOptions::default()
        };
        let resumed = evaluate_supervised(&s, &small_grid(4), &resumed_opts).unwrap();
        assert!(!resumed.interrupted);
        assert!(resumed.metrics.restored >= 2);
        assert_eq!(sdnav_json::to_string(&resumed.results), reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_with_changed_grid_is_refused() {
        let s = spec();
        let path = temp_wal("refuse");
        std::fs::remove_file(&path).ok();
        let opts = SuperviseOptions {
            checkpoint: Some(&path),
            ..SuperviseOptions::default()
        };
        evaluate_supervised(&s, &small_grid(1), &opts).unwrap();

        let mut reseeded = small_grid(1);
        reseeded.seed = 999;
        let resume_opts = SuperviseOptions {
            checkpoint: Some(&path),
            resume: true,
            ..SuperviseOptions::default()
        };
        let err = evaluate_supervised(&s, &reseeded, &resume_opts).unwrap_err();
        assert!(matches!(err, GridError::Checkpoint(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }
}
