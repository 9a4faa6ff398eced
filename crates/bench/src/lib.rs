//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures. The timing benches under `benches/` are
//! harness-less `std::time::Instant` loops and do not use them.
//!
//! Each binary under `src/bin/` reproduces one artifact (see the experiment
//! index in DESIGN.md) and prints both the measured values and, where the
//! paper quotes numbers, the paper's values side by side.

use sdnav_core::{ControllerSpec, HwParams, SwParams};

/// Minutes in the mean year, for m/y conversions.
pub const MINUTES_PER_YEAR: f64 = 525_960.0;

/// Downtime in minutes/year at a given availability.
#[must_use]
pub fn downtime_m_y(availability: f64) -> f64 {
    (1.0 - availability) * MINUTES_PER_YEAR
}

/// The reference controller spec used by every experiment.
#[must_use]
pub fn spec() -> ControllerSpec {
    ControllerSpec::opencontrail_3x()
}

/// HW-centric defaults (§V.D).
#[must_use]
pub fn hw_params() -> HwParams {
    HwParams::paper_defaults()
}

/// SW-centric defaults (§VI.A).
#[must_use]
pub fn sw_params() -> SwParams {
    SwParams::paper_defaults()
}

/// Prints a standard experiment header.
pub fn header(id: &str, description: &str) {
    println!("==============================================================");
    println!("{id}: {description}");
    println!("==============================================================");
}

/// Formats a paper-vs-measured comparison line.
#[must_use]
pub fn compare(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<46} paper: {paper:>12}   measured: {measured:>12}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_conversion() {
        assert!((downtime_m_y(0.99999) - 5.2596).abs() < 1e-3);
        assert_eq!(downtime_m_y(1.0), 0.0);
    }

    #[test]
    fn fixtures_are_consistent() {
        assert_eq!(spec().name, "OpenContrail 3.x");
        assert_eq!(hw_params().a_h, 0.99999);
        assert_eq!(sw_params().a_h, 0.99990);
    }

    #[test]
    fn compare_lines_up() {
        let line = compare("x", "1", "2");
        assert!(line.contains("paper:"));
        assert!(line.contains("measured:"));
    }
}
