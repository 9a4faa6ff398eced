//! CLM-DETLINT: the determinism lint's suppression budget, held as a
//! ratchet.
//!
//! `sdnav lint --source` scans every workspace member for the DL001-DL010
//! determinism/concurrency hazards. The codebase's acceptance bar is not
//! just "zero findings" — it is "zero findings *and* a suppression set
//! that can only shrink": every inline `detlint::allow` must carry a
//! reason and match a live finding, and every `detlint.allow` baseline
//! entry must still suppress something. This experiment re-runs the exact
//! workspace scan CI gates on and pins the budget:
//!
//! 1. **Clean scan.** Zero unsuppressed findings across the workspace
//!    (stale allows and malformed baseline entries surface as DL000, so
//!    they fail this claim too).
//! 2. **No dead weight.** Every committed baseline entry suppressed at
//!    least one finding — the allowlist holds no stale entries.
//! 3. **Budget ratchet.** The baseline holds at most [`BASELINE_BUDGET`]
//!    entries. Fixing a suppressed site should lower the constant, never
//!    raise it.
//! 4. **Reportable.** The scan's report round-trips through the SARIF
//!    encoder and passes the offline schema validator, so the CI
//!    code-scanning upload cannot be the first place a bad report shows.

use std::path::Path;

use sdnav_bench::header;

/// The committed `detlint.allow` entry count. Shrink freely; growing it
/// needs a reason in the PR that grows it.
const BASELINE_BUDGET: usize = 1;

fn verdict(ok: bool) -> &'static str {
    if ok {
        "CONFIRMED"
    } else {
        "NOT CONFIRMED"
    }
}

fn main() {
    header(
        "CLM-DETLINT",
        "workspace determinism lint stays clean under a fixed suppression budget",
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    let summary = sdnav_detlint::scan_workspace(root).expect("workspace scan");

    println!(
        "scanned {} source files: {} finding(s), {} baseline-suppressed, \
         baseline entries used {}/{}",
        summary.files_scanned,
        summary.report.error_count(),
        summary.suppressed_baseline,
        summary.baseline_entries_used,
        summary.baseline_entries,
    );
    if !summary.report.is_clean() {
        println!("{}", summary.report.render());
    }

    println!(
        "  'workspace source scan is clean': {}",
        verdict(summary.report.is_clean()),
    );
    println!(
        "  'every detlint.allow entry suppresses a live finding': {}",
        verdict(summary.baseline_entries_used == summary.baseline_entries),
    );
    println!(
        "  'baseline holds at most {BASELINE_BUDGET} entries': {}",
        verdict(summary.baseline_entries <= BASELINE_BUDGET),
    );

    let sarif = sdnav_audit::to_sarif(&summary.report, None);
    let valid = sdnav_audit::validate_sarif(&sarif).is_ok();
    println!(
        "  'scan report round-trips through the SARIF validator': {}",
        verdict(valid),
    );
}
