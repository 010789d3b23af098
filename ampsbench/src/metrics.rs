//! The metric tables: the end-to-end metrics an untraced run prints and
//! the per-layer metrics a traced run prints. `BENCHMARK.json` at the
//! repository root describes the same tables; a test keeps them equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `a` is strictly better than `b`.
    pub fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// An end-to-end metric with the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Wall-clock and simulated metrics are kept apart: the first four are
/// how fast (times at reference speed, see `calib`) and how large the
/// program runs, the last two are what the simulated deployment costs and
/// how long its requests take.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.1),
    e2e("op_ms_p95", "ms", Better::Lower, 0.15),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("sim_usd_per_1k", "USD", Better::Lower, 0.05),
    e2e("sim_latency_s_mean", "s", Better::Lower, 0.05),
];

/// Per-layer metrics of a traced run: `(name, unit, better)`. Names start
/// with the layer (crate module) they measure.
pub const PER_LAYER: [(&str, &str, Better); 36] = [
    ("model.graph_build_ms", "ms", Better::Lower),
    ("profiler.profile_ms", "ms", Better::Lower),
    ("cuts.enumerate_ms", "ms", Better::Lower),
    ("cuts.count", "count", Better::Lower),
    ("cuts.spine_span_hit_ratio", "ratio", Better::Higher),
    ("miqp_build.columns_ms", "ms", Better::Lower),
    ("miqp_build.build_ms", "ms", Better::Lower),
    ("colcache.hit_ratio", "ratio", Better::Higher),
    ("colcache.node_memo_hit_ratio", "ratio", Better::Higher),
    ("solver.bb_ms", "ms", Better::Lower),
    ("solver.bb_nodes", "count", Better::Lower),
    ("solver.qp_relaxations", "count", Better::Lower),
    ("solver.warm_start_ratio", "ratio", Better::Higher),
    ("solver.miqps_solved", "count", Better::Lower),
    ("solver.miqps_pruned", "count", Better::Higher),
    ("optimizer.plan_ms", "ms", Better::Lower),
    ("optimizer.pass1_ms", "ms", Better::Lower),
    ("optimizer.pass2_ms", "ms", Better::Lower),
    ("optimizer.dag_search_ms", "ms", Better::Lower),
    ("optimizer.unattributed_ms", "ms", Better::Lower),
    ("optimizer.dag_trials", "count", Better::Lower),
    ("optimizer.thread_speedup", "ratio", Better::Higher),
    ("loadgen.arrivals_ms", "ms", Better::Lower),
    ("loadgen.fold_ms", "ms", Better::Lower),
    ("coordinator.deploy_ms", "ms", Better::Lower),
    ("coordinator.serve_trace_ms", "ms", Better::Lower),
    ("coordinator.ns_per_invocation", "ns", Better::Lower),
    ("coordinator.thread_speedup", "ratio", Better::Higher),
    ("coordinator.invoke_share", "ratio", Better::Higher),
    ("coordinator.retained_kb_per_req", "KB", Better::Lower),
    (
        "coordinator.useful_invocation_ratio",
        "ratio",
        Better::Higher,
    ),
    ("faas.invoke_warm_ns", "ns", Better::Lower),
    ("faas.invoke_cold_ns", "ns", Better::Lower),
    ("faas.store_put_get_ns", "ns", Better::Lower),
    ("faas.cold_start_ratio", "ratio", Better::Lower),
    ("trace_overhead_frac", "ratio", Better::Lower),
];

/// Unit of a metric by name, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Json;
    use crate::workload::Kind;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(m: &'a Json, key: &str) -> &'a str {
        m.get(key).and_then(Json::as_str).expect("string field")
    }

    #[test]
    fn benchmark_json_describes_these_tables() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, kinds);

        let e2e = b
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let layers = b
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), *name);
            assert_eq!(field(j, "unit"), *unit);
            assert_eq!(field(j, "better"), better.label());
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
