//! The names the benchmark emits: workloads, end-to-end metrics and
//! per-layer metrics, each declared once here and mirrored in
//! `BENCHMARK.json` (a test holds the two equal).

use std::collections::BTreeMap;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 5] = [
    WorkloadDecl {
        name: "live_serial",
        why: "MiniVM programs run straight into the serial engine: interpreter emit + Algorithm 1 + signature probe, footprint far below the slots; no decode, queue, frame or socket.",
    },
    WorkloadDecl {
        name: "replay_parallel",
        why: "A recorded DPTR trace replayed through the parallel pipeline: the only workload where trace decode, router, chunk pool, SPSC queue and merge run at all.",
    },
    WorkloadDecl {
        name: "zipf_serial",
        why: "Same engine layers as live_serial used the other way: signature past saturation, an eviction and a dependence record per access, a large dependence store.",
    },
    WorkloadDecl {
        name: "served_sparse",
        why: "Loop-heavy streams pushed over loopback TCP: ~2-event frames, so per-frame cost (chunker, frame alloc, one write and three read syscalls) dominates and the engine is a small share.",
    },
    WorkloadDecl {
        name: "served_dense_watch",
        why: "Dense 512-event frames with Sync and --watch queries: per-byte frame work and the online-analysis query path carry the cost; a per-frame optimisation should not move it.",
    },
];

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better }
}

/// What a user of the profiler sees. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDecl; 3] = [
    m("cost_x", "ratio", "lower"),
    m("mem_bytes_per_addr", "bytes", "lower"),
    m("setup_s", "s", "lower"),
];

/// One layer each (layer = crate, the prefix of the name). A metric of a
/// layer that is not on a workload's path reads 0 on that workload.
pub const PER_LAYER: [MetricDecl; 60] = [
    m("trace.interp.ns_per_event", "ns", "lower"),
    m("trace.interp_native.ns_per_event", "ns", "lower"),
    m("trace.decode.ns_per_event", "ns", "lower"),
    m("trace.decode.bytes_per_event", "bytes", "lower"),
    m("trace.chunker.ns_per_event", "ns", "lower"),
    m("trace.chunker.events_per_frame", "count", "higher"),
    m("types.frame_encode.ns_per_event", "ns", "lower"),
    m("types.frame_encode.ns_per_frame", "ns", "lower"),
    m("types.frame.bytes_per_event", "bytes", "lower"),
    m("types.frame_decode.ns_per_event", "ns", "lower"),
    m("types.frame_decode.ns_per_frame", "ns", "lower"),
    m("sig.probe.ns_per_access", "ns", "lower"),
    m("sig.evictions", "count", "lower"),
    m("sig.occupancy_pct", "%", "lower"),
    m("sig.est_fpr_pct", "%", "lower"),
    m("sig.fpr_pct", "%", "lower"),
    m("sig.fnr_pct", "%", "lower"),
    m("sig.bytes", "bytes", "lower"),
    m("queue.spsc.ns_per_event", "ns", "lower"),
    m("queue.chunks_pushed", "count", "lower"),
    m("queue.push_fulls", "count", "lower"),
    m("queue.mem_high_water_bytes", "bytes", "lower"),
    m("core.algo.ns_per_event", "ns", "lower"),
    m("core.algo_perfect.ns_per_event", "ns", "lower"),
    m("core.session_feed.ns_per_event", "ns", "lower"),
    m("core.router.ns_per_event", "ns", "lower"),
    m("core.finish.ms", "ms", "lower"),
    m("core.store.deps_built", "count", "lower"),
    m("core.store.deps_merged", "count", "lower"),
    m("core.store.insert_ns_per_dep", "ns", "lower"),
    m("core.store.merge_ns_per_dep", "ns", "lower"),
    m("core.report_render.ms", "ms", "lower"),
    m("core.report.bytes", "bytes", "lower"),
    m("core.checkpoint.ms", "ms", "lower"),
    m("core.checkpoint.bytes", "bytes", "lower"),
    m("core.mem_total_bytes", "bytes", "lower"),
    m("analysis.posthoc.ms", "ms", "lower"),
    m("analysis.online_fold.ms", "ms", "lower"),
    m("analysis.report.bytes", "bytes", "lower"),
    m("server.engine_handle.ns_per_event", "ns", "lower"),
    m("server.engine_handle.ns_per_frame", "ns", "lower"),
    m("server.socket.ns_per_event", "ns", "lower"),
    m("server.socket.ns_per_frame", "ns", "lower"),
    m("server.frames", "count", "lower"),
    m("server.bytes_sent", "bytes", "lower"),
    m("server.sync_rtt_p50_us", "us", "lower"),
    m("server.sync_rtt_hi_us", "us", "lower"),
    m("server.sync_samples", "count", "higher"),
    m("server.query_rtt_p50_us", "us", "lower"),
    m("server.query_rtt_hi_us", "us", "lower"),
    m("server.query_samples", "count", "higher"),
    m("server.query_total_ms", "ms", "lower"),
    m("server.finish_to_report_ms", "ms", "lower"),
    m("bench.ns_per_event", "ns", "lower"),
    m("bench.reference.ns_per_event", "ns", "lower"),
    m("bench.ledger_coverage", "ratio", "higher"),
    m("bench.client_side_ns_per_event", "ns", "lower"),
    m("bench.server_side_ns_per_event", "ns", "lower"),
    m("bench.trace_overhead_pct", "%", "lower"),
    m("bench.slowdown_x", "ratio", "lower"),
];

/// Metric values of one run, by declared name.
pub type Values = BTreeMap<&'static str, f64>;

/// A [`Values`] holding 0 for every per-layer metric: the reading of a
/// layer the workload never enters.
pub fn per_layer_zeroes() -> Values {
    PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
}

/// Panics unless `values` holds exactly the names `decls` declares: a
/// metric must not be added or dropped silently.
pub fn assert_declared(values: &Values, decls: &[MetricDecl]) {
    let got: Vec<&str> = values.keys().copied().collect();
    let mut want: Vec<&str> = decls.iter().map(|d| d.name).collect();
    want.sort_unstable();
    assert_eq!(got, want, "emitted metric names differ from the declared set");
}

/// The result line of one run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(values: &Values, decls: &[MetricDecl], attempted: u64, failed: u64) -> String {
    assert_declared(values, decls);
    let metrics: Vec<String> = decls
        .iter()
        .map(|d| {
            let value = values[d.name];
            assert!(value.is_finite(), "{} is {value}, which JSON cannot hold", d.name);
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed() {
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(d.name, 64, "_.-"), "{}", d.name);
            assert!(well_formed(d.unit, 16, "_/%.-"), "{}: unit {}", d.name, d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        all.extend(WORKLOADS.iter().map(|w| w.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc = manifest();
        let workloads = doc.get("workloads").and_then(Value::as_array).expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
        for (key, decls) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), decls.len(), "{key}: count");
            for (got, want) in listed.iter().zip(decls) {
                assert_eq!(field(got, "name"), want.name, "{key}");
                assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
                assert_eq!(field(got, "better"), want.better, "{}", want.name);
            }
        }
        for e in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", field(e, "name"));
        }
    }

    #[test]
    fn result_line_is_valid_json_with_the_four_keys() {
        let mut values = Values::new();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.insert(d.name, 1.5 + i as f64);
        }
        let doc = json::parse(&result_line(&values, &END_TO_END, 7, 0)).unwrap();
        let Value::Object(map) = &doc else { panic!("not an object") };
        assert_eq!(map.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let cost = doc.get("metrics").unwrap().get("cost_x").unwrap();
        assert_eq!(cost.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(cost.get("unit").unwrap().as_str(), Some("ratio"));
        assert!(result_line(&values, &END_TO_END, 7, 1).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "differ from the declared set")]
    fn an_undeclared_metric_is_refused() {
        let mut values = per_layer_zeroes();
        values.insert("core.surprise", 1.0);
        assert_declared(&values, &PER_LAYER);
    }
}
