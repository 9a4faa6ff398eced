//! The metric catalogue and the per-run report.
//!
//! Every workload reports every metric of a catalogue, so a metric means
//! the same thing on each workload. A layer a workload never enters reads
//! 0. That is why layer costs are rates (calls, events or megabytes per
//! second of that layer's busy time) and shares rather than times: a 0 rate
//! says "not exercised" where a 0 time would claim "free".

use sdnav_json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of each workload sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("pass_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single-layer numbers from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("trace.pass_ms", "ms", "lower"),
    m("json.bytes", "count", "lower"),
    m("json.encode_mb_per_s", "MB/s", "higher"),
    m("json.decodes_per_s", "1/s", "higher"),
    m("grid.items", "count", "lower"),
    m("grid.steals", "count", "lower"),
    m("grid.serial_pct", "%", "lower"),
    m("grid.parallel_efficiency", "ratio", "higher"),
    m("grid.speedup_bound", "ratio", "higher"),
    m("grid.cache.lookups", "count", "lower"),
    m("grid.cache.unique", "count", "lower"),
    m("grid.cache.misses", "count", "lower"),
    m("grid.cache.duplicate_computes", "count", "lower"),
    m("grid.cache.invalidated_sw", "count", "lower"),
    m("grid.cache.invalidated_spec", "count", "lower"),
    m("grid.cache.misses_cold", "count", "lower"),
    m("grid.cache.misses_sw_patch", "count", "lower"),
    m("grid.cache.misses_warm", "count", "lower"),
    m("grid.eval_cold_per_s", "1/s", "higher"),
    m("grid.eval_sw_patch_per_s", "1/s", "higher"),
    m("grid.eval_warm_per_s", "1/s", "higher"),
    m("core.reference_solves_per_s", "1/s", "higher"),
    m("core.patches_per_s", "1/s", "higher"),
    m("sim.events", "count", "lower"),
    m("sim.replications", "count", "lower"),
    m("sim.events_per_s", "1/s", "higher"),
    m("sim.builds_per_s", "1/s", "higher"),
    m("audit.events_ratio_min", "ratio", "higher"),
    m("audit.events_ratio_max", "ratio", "lower"),
    m("consensus.replications", "count", "lower"),
    m("consensus.elections", "count", "lower"),
    m("consensus.stalls", "count", "lower"),
    m("consensus.elections_per_s", "1/s", "higher"),
    m("markov.ctmc_solves_per_s", "1/s", "higher"),
    m("fmea.enumerations_per_s", "1/s", "higher"),
    m("chaos.generates_per_s", "1/s", "higher"),
    m("chaos.compiles_per_s", "1/s", "higher"),
    m("chaos.modes", "count", "lower"),
    m("chaos.injected_events", "count", "lower"),
    m("chaos.verdicts_passed", "count", "higher"),
    m("chaos.ledger_cost_ratio", "ratio", "lower"),
    m("chaos.verdict_self_pct", "%", "lower"),
    m("serve.overhead_pct_cold", "%", "lower"),
    m("serve.overhead_pct_sw_patch", "%", "lower"),
    m("serve.overhead_pct_warm", "%", "lower"),
    m("serve.overhead_pct_patch", "%", "lower"),
];

/// `count` events per `seconds` of busy time; 0 for a layer never entered.
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// Values for one catalogue, in catalogue order.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    catalogue: &'static [Metric],
    values: Vec<f64>,
}

impl Report {
    pub fn new(catalogue: &'static [Metric]) -> Self {
        Report {
            catalogue,
            values: vec![0.0; catalogue.len()],
        }
    }

    /// Sets a metric. Panics on a name outside the catalogue or a
    /// non-finite value, both bugs in this harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.catalogue.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(m, v)| {
                    (
                        m.name.to_owned(),
                        Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Json, key: &str) -> Vec<Metric> {
        doc.field(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| -> &'static str {
                    m.field(k).unwrap().as_str().unwrap().to_owned().leak()
                };
                Metric {
                    name: text("name"),
                    unit: text("unit"),
                    better: text("better"),
                }
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), END_TO_END);
        assert_eq!(listed(&doc, "per_layer"), PER_LAYER);
    }

    #[test]
    fn unset_metrics_read_zero_and_json_keeps_catalogue_order() {
        let mut r = Report::new(END_TO_END);
        r.set("pass_s", 1.25);
        let json = r.to_json().to_compact();
        assert_eq!(
            json,
            r#"{"setup_s":{"value":0,"unit":"s"},"pass_s":{"value":1.25,"unit":"s"},"peak_rss_mb":{"value":0,"unit":"MB"}}"#
        );
        assert_eq!(rate(10.0, 0.0), 0.0);
        assert_eq!(rate(10.0, 2.0), 5.0);
    }
}
