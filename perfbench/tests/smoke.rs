//! Smoke tests at tiny sizes: every workload emits every metric it
//! promises, finite and with its unit, checks out with no failed
//! operation, and the traced run's self times are not materially negative.

use perfbench::{run, RunConfig, RunResult, Scale, Workload};

/// End-to-end metrics with their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("keys_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 38] = [
    ("engine.splitters_ms", "ms"),
    ("engine.shard_scatter_ms", "ms"),
    ("engine.lane_sort_ms_max", "ms"),
    ("engine.lane_sort_ms_sum", "ms"),
    ("engine.merge_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.shard_imbalance", "ratio"),
    ("ooc.chunks", "count"),
    ("ooc.partition_ms", "ms"),
    ("ooc.chunk_sort_ms_sum", "ms"),
    ("ooc.merge_ms", "ms"),
    ("ooc.self_ms", "ms"),
    ("core.sort_ms", "ms"),
    ("core.hist_pass0_ms", "ms"),
    ("core.hist_pass0_atomics_ms", "ms"),
    ("core.scatter_pass0_ms", "ms"),
    ("core.rest_ms", "ms"),
    ("core.passes", "count"),
    ("core.pass_keys_per_key", "ratio"),
    ("core.local_keys_frac", "ratio"),
    ("core.computed_bytes_per_key", "B/key"),
    ("core.fanouts_per_sort", "ratio"),
    ("core.worker_busy_frac", "ratio"),
    ("core.arena_mb", "MiB"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.dispatch_to_done_ms_p50", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("service.requests_per_batch", "ratio"),
    ("service.flush_linger_frac", "ratio"),
    ("service.flush_bytes_frac", "ratio"),
    ("service.rejected", "count"),
    ("baseline.std_keys_per_s", "1/s"),
    ("baseline.lsd_keys_per_s", "1/s"),
    ("baseline.hrs_vs_std", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.keys_per_s", "1/s"),
    ("trace.untraced_keys_per_s", "1/s"),
];

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.02,
        trace,
        scale: Scale::tiny(),
    })
}

fn assert_emits(result: &RunResult, expected: &[(&str, &str)], what: &str) {
    assert_eq!(result.failed, 0, "{what}: failed operations");
    assert!(result.attempted > 0, "{what}: nothing attempted");
    assert_eq!(result.metrics.len(), expected.len(), "{what}: metric count");
    for (name, unit) in expected {
        let m = result
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(m.unit, *unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
    let json = result.to_json();
    assert!(json.starts_with("{\"correct\": true, "), "{what}: {json}");
}

fn value(result: &RunResult, name: &str) -> f64 {
    result.get(name).expect("metric emitted").value
}

#[test]
fn end_to_end_metrics_on_every_workload() {
    for w in Workload::ALL {
        let result = tiny(w, 1, false);
        assert_emits(&result, &END_TO_END, w.name());
        for (name, _) in END_TO_END {
            assert!(value(&result, name) > 0.0, "{}: {name} is 0", w.name());
        }
    }
}

#[test]
fn per_layer_metrics_on_every_workload() {
    for w in Workload::ALL {
        let result = tiny(w, 1, true);
        assert_emits(&result, &PER_LAYER, w.name());
        // A self time may dip below zero by timer noise, not by a phase
        // the decomposition double-counts.
        let not_materially_negative = |self_name: &str, parent: f64| {
            let v = value(&result, self_name);
            assert!(
                v >= -0.25 * parent - 0.5,
                "{}: {self_name} = {v} ms against {parent} ms",
                w.name()
            );
        };
        let engine_parts: f64 = [
            "engine.splitters_ms",
            "engine.shard_scatter_ms",
            "engine.lane_sort_ms_sum",
            "engine.merge_ms",
        ]
        .iter()
        .map(|n| value(&result, n))
        .sum();
        not_materially_negative("engine.self_ms", engine_parts);
        let ooc_parts: f64 = ["ooc.partition_ms", "ooc.chunk_sort_ms_sum", "ooc.merge_ms"]
            .iter()
            .map(|n| value(&result, n))
            .sum();
        not_materially_negative("ooc.self_ms", ooc_parts);
        not_materially_negative("core.rest_ms", value(&result, "core.sort_ms"));
        assert!(
            value(&result, "engine.lane_sort_ms_max") <= value(&result, "engine.lane_sort_ms_sum")
        );
    }
}

#[test]
fn second_seed_also_checks_out() {
    for w in [Workload::BulkUniformU32, Workload::ServiceMixed] {
        let a = tiny(w, 1, false);
        let b = tiny(w, 2, false);
        assert_eq!(a.failed + b.failed, 0, "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_every_metric_and_known_workloads() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json next to the package");
    // Every registered workload is one the benchmark runs.
    let workloads = json
        .split("\"workloads\": [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("a workloads array");
    let registered: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(registered.len() >= 2, "{registered:?}");
    for name in registered {
        assert!(
            Workload::from_name(name).is_some(),
            "unknown workload {name}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} not listed with unit {unit}");
    }
}

/// The guard against simulated time: no source line of this crate (outside
/// comments and string literals) names the GPU model's time types or a
/// report's time fields.
#[test]
fn no_simulated_time_in_sources() {
    let forbidden = [
        "SimTime",
        "SimBreakdown",
        ".simulated",
        ".critical_path",
        ".end_to_end",
        ".timeline",
        ".measured_",
        ".gpu_sort",
        ".latency_p",
        ".recovery_p",
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    for entry in std::fs::read_dir(dir).expect("src directory") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("source file");
        for (i, line) in text.lines().enumerate() {
            // Code only: drop comments, then the contents of string
            // literals (metric names).
            let code = line.split("//").next().unwrap_or("");
            let code: String = code.split('"').step_by(2).collect();
            for word in forbidden {
                assert!(
                    !code.contains(word),
                    "{}:{}: `{word}` in `{line}`",
                    path.display(),
                    i + 1
                );
            }
        }
    }
}
