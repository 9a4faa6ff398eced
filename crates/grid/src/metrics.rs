//! Run observability: per-stage timings, cache counters, throughput.

use sdnav_json::{Json, ToJson};

/// Wall-clock time spent in each engine stage, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Expanding the grid spec into work items.
    pub plan_ms: f64,
    /// Executing the items on the pool.
    pub execute_ms: f64,
    /// Assembling per-item results into figure/simulation tables.
    pub aggregate_ms: f64,
}

impl StageTimings {
    /// Sum of all stages.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.plan_ms + self.execute_ms + self.aggregate_ms
    }
}

/// The metrics block emitted by one grid run.
///
/// Serialized as `sdnav-sweep-metrics/v1` (see DESIGN.md for the schema).
/// Timings and steal counts vary run to run; everything under the result
/// payload stays byte-identical across thread counts — which is why the
/// metrics travel in their own block, not inside the results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Worker threads used by the execute stage.
    pub threads: usize,
    /// Work items executed.
    pub items: usize,
    /// Per-stage wall-clock timings.
    pub stages: StageTimings,
    /// Items per second over the execute stage.
    pub items_per_sec: f64,
    /// Memoized sub-model lookups served from the cache.
    pub cache_hits: u64,
    /// Memoized sub-model lookups that had to evaluate.
    pub cache_misses: u64,
    /// Work items executed by a worker that stole them.
    pub steals: u64,
    /// Total simulation replications run.
    pub sim_replications: u64,
    /// Total simulation events processed.
    pub sim_events: u64,
    /// Items quarantined because their evaluation panicked.
    pub quarantined: u64,
    /// Items restored from the checkpoint WAL instead of recomputed.
    pub restored: u64,
}

impl RunMetrics {
    /// Human-readable one-block rendering (for stderr).
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "sweep metrics:\n  \
             threads          : {}\n  \
             items            : {} ({:.1} items/s)\n  \
             stage plan       : {:.2} ms\n  \
             stage execute    : {:.2} ms\n  \
             stage aggregate  : {:.2} ms\n  \
             cache            : {} hits / {} misses\n  \
             steals           : {}\n  \
             sim              : {} replications, {} events\n  \
             supervision      : {} quarantined, {} restored\n",
            self.threads,
            self.items,
            self.items_per_sec,
            self.stages.plan_ms,
            self.stages.execute_ms,
            self.stages.aggregate_ms,
            self.cache_hits,
            self.cache_misses,
            self.steals,
            self.sim_replications,
            self.sim_events,
            self.quarantined,
            self.restored,
        )
    }
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(sdnav_json::schema::SWEEP_METRICS)),
            ("threads", Json::Num(self.threads as f64)),
            ("items", Json::Num(self.items as f64)),
            (
                "stages",
                Json::obj(vec![
                    ("plan_ms", Json::Num(self.stages.plan_ms)),
                    ("execute_ms", Json::Num(self.stages.execute_ms)),
                    ("aggregate_ms", Json::Num(self.stages.aggregate_ms)),
                    ("total_ms", Json::Num(self.stages.total_ms())),
                ]),
            ),
            ("items_per_sec", Json::Num(self.items_per_sec)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Num(self.cache_hits as f64)),
                    ("misses", Json::Num(self.cache_misses as f64)),
                ]),
            ),
            ("steals", Json::Num(self.steals as f64)),
            (
                "sim",
                Json::obj(vec![
                    ("replications", Json::Num(self.sim_replications as f64)),
                    ("events", Json::Num(self.sim_events as f64)),
                ]),
            ),
            (
                "supervision",
                Json::obj(vec![
                    ("quarantined", Json::Num(self.quarantined as f64)),
                    ("restored", Json::Num(self.restored as f64)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            threads: 4,
            items: 63,
            stages: StageTimings {
                plan_ms: 0.5,
                execute_ms: 120.0,
                aggregate_ms: 1.5,
            },
            items_per_sec: 525.0,
            cache_hits: 84,
            cache_misses: 88,
            steals: 3,
            sim_replications: 40,
            sim_events: 123_456,
            quarantined: 1,
            restored: 5,
        }
    }

    #[test]
    fn renders_every_counter() {
        let text = sample().render();
        for needle in [
            "threads",
            "cache",
            "84 hits",
            "88 misses",
            "steals",
            "replications",
            "1 quarantined",
            "5 restored",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn json_has_schema_and_stage_block() {
        let json = sdnav_json::to_string(&sample());
        assert!(json.contains("sdnav-sweep-metrics/v1"));
        for field in [
            "plan_ms",
            "execute_ms",
            "aggregate_ms",
            "total_ms",
            "hits",
            "misses",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn stage_total_sums() {
        assert!((sample().stages.total_ms() - 122.0).abs() < 1e-12);
    }
}
