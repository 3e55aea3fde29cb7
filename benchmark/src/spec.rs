//! The benchmark's vocabulary: workload names and the metric tables.
//!
//! `BENCHMARK.json` at the repository root repeats these names for the
//! driver and alone holds each end-to-end metric's regression bound; the
//! test at the bottom keeps the two from drifting apart.

/// Seconds one run measures for (the `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 28;

pub const DEFAULT_SEED: u64 = 42;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// `(name, why)`, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("aids_cfql", "1 000 small sparse graphs (AIDS-like, L2-resident), index-free CFQL: the vcFV pruning filter does almost all the work, enumeration none; Grapes must give the same answers"),
    ("dense_cfql", "40 few-label dense graphs where nothing prunes: candidate-space build, ordering, enumeration and intersection kernels dominate; a pruning index is pure overhead here"),
    ("serve_open", "QueryService over 1 000 graphs under a fixed-rate open loop, then saturated: admission, queueing and thread hand-offs are half of each query (traced run: also a 2-shard cluster)"),
    ("dyn_mixed", "update batches on one ContinuousService, each followed by snapshot reads; the op is the cycle: overlay apply, standing-query repair, compaction, overlay enumeration; no vcFV filter"),
];

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports all of them.
pub const END_TO_END: &[MetricSpec] = &[
    m("qps", "1/s", Higher),
    m("query_p50_ms", "ms", Lower),
    m("query_p95_ms", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// Single-layer metrics of the traced run. A workload reports the ones its
/// layers produce; the rest are written as 0 on that workload.
pub const PER_LAYER: &[MetricSpec] = &[
    m("datagen.db_gen_ms", "ms", Lower),
    m("datagen.query_gen_ms", "ms", Lower),
    m("graph.db_heap_mb", "MB", Lower),
    m("graph.binio_encode_ms", "ms", Lower),
    m("graph.binio_decode_ms", "ms", Lower),
    m("graph.nlf_dominated_ns", "ns", Lower),
    m("graph.intersect_ns_per_elem", "ns", Lower),
    m("graph.dyn_apply_ms_p50", "ms", Lower),
    m("graph.compact_ms_mean", "ms", Lower),
    m("graph.compact_ms_max", "ms", Lower),
    m("graph.compactions", "count", Lower),
    m("matching.filter_ms", "ms", Lower),
    m("matching.filter_calls", "count", Lower),
    m("matching.filter_ns_per_call", "ns", Lower),
    m("matching.filter_survivor_frac", "ratio", Lower),
    m("matching.filter_precision", "ratio", Higher),
    m("matching.verify_ms", "ms", Lower),
    m("matching.verify_calls", "count", Lower),
    m("matching.verify_ns_per_call", "ns", Lower),
    m("matching.candidates_per_space", "count", Lower),
    m("matching.aux_bytes_peak", "B", Lower),
    m("matching.kernel_intersections", "count", Lower),
    m("matching.kernel_gallop_hits", "count", Higher),
    m("matching.kernel_simd_hits", "count", Higher),
    m("matching.kernel_bitmap_probes", "count", Lower),
    m("matching.vf2_verify_ms", "ms", Lower),
    m("matching.vf2_verify_calls", "count", Lower),
    m("matching.overlay_enum_ms_p50", "ms", Lower),
    m("index.build_ms", "ms", Lower),
    m("index.heap_mb", "MB", Lower),
    m("index.lookup_us_p50", "us", Lower),
    m("index.candidates_per_query", "count", Lower),
    m("index.precision", "ratio", Higher),
    m("core.engine_overhead_frac", "ratio", Lower),
    m("core.runner_overhead_us", "us", Lower),
    m("core.pool_speedup", "ratio", Higher),
    m("core.dispatch_overhead_us", "us", Lower),
    m("core.queueing_ms_p95", "ms", Lower),
    m("core.admitted", "count", Higher),
    m("core.shed_frac", "ratio", Lower),
    m("core.wire_encode_us", "us", Lower),
    m("core.wire_decode_us", "us", Lower),
    m("core.wire_bytes_per_query", "B", Lower),
    m("core.cluster_overhead_ms", "ms", Lower),
    m("core.cluster_paced_overhead_ms", "ms", Lower),
    m("core.shard_retries", "count", Lower),
    m("core.shard_unavailable", "count", Lower),
    m("core.repair_ms_p50", "ms", Lower),
    m("core.repair_embeddings_per_batch", "count", Lower),
    m("core.standing_embeddings", "count", Lower),
    m("driver.lateness_ms_p95", "ms", Lower),
    m("driver.lateness_ms_max", "ms", Lower),
    m("driver.span_coverage", "ratio", Higher),
    m("driver.trace_overhead_frac", "ratio", Lower),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_metrics(listed: &[Json], specs: &[MetricSpec], with_bound: bool) {
        assert_eq!(listed.len(), specs.len());
        for (j, s) in listed.iter().zip(specs) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(s.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(s.unit));
            let better = if s.better == Lower { "lower" } else { "higher" };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better), "{}", s.name);
            let bound = j.get("bound").and_then(Json::as_f64);
            assert_eq!(bound.is_some(), with_bound, "{}", s.name);
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", s.name);
        }
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_code_reports() {
        let doc = manifest();
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        check_metrics(doc.get("end_to_end").and_then(Json::as_arr).unwrap(), END_TO_END, true);
        check_metrics(doc.get("per_layer").and_then(Json::as_arr).unwrap(), PER_LAYER, false);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|s| s.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
