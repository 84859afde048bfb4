//! CI gate over the artifacts: every file named must parse back into an
//! inspection tree.  A bench or lint artifact (a root with a `bench`
//! property) must hold at least one row in every table, and every row of a
//! table must have the first row's keys.  Any other file is a telemetry
//! snapshot (`TELEMETRY_snapshot.json`) and must contain the expected
//! top-level layers with non-trivial counters.
//!
//! ```text
//! cargo run --release --bin telemetry_check [-- <path>...]
//! ```
//!
//! Exits non-zero (panics) when a file is missing, malformed, or breaks its
//! checks — catching regressions where an instrumentation point silently
//! stops reporting or a bench row loses a column.

use telemetry::{InspectNode, Inspector, MetricKind};

/// Registration-time self-check: re-registering a path with a different
/// instrument kind must surface as a typed error, not silently alias the
/// path to a detached handle (the failure mode that used to freeze
/// metrics).  Runs on a fresh registry so it cannot disturb the snapshot
/// under test.
fn check_kind_mismatch_is_typed() {
    const PATH: &str = "check/kind";
    let inspector = Inspector::new();
    let counter = inspector.counter(PATH);
    let err = inspector
        .try_gauge(PATH)
        .expect_err("kind mismatch must be an error, not a detached alias");
    assert_eq!(err.path, PATH);
    assert_eq!(err.existing, MetricKind::Counter);
    assert_eq!(err.requested, MetricKind::Gauge);
    // Idempotent same-kind registration still works after the failure.
    assert!(inspector
        .try_counter(PATH)
        .expect("same-kind re-registration stays idempotent")
        .same_as(&counter));
}

/// Schema check of a bench artifact: every table (the root, or each of
/// its sections) holds rows, each with the first row's keys.
fn check_bench(path: &str, root: &InspectNode) -> usize {
    let sectioned = root.children.iter().any(|c| !c.children.is_empty());
    let tables = if sectioned {
        root.children.iter().collect()
    } else {
        vec![root]
    };
    let keys = |row: &InspectNode| -> Vec<String> {
        row.properties.iter().map(|(k, _)| k.clone()).collect()
    };
    let mut rows = 0;
    for table in tables {
        let first = table.children.first().map(keys).filter(|k| !k.is_empty());
        let first = first.unwrap_or_else(|| panic!("{path}: `{}` has no rows", table.name));
        for (i, row) in table.children.iter().enumerate() {
            let name = &table.name;
            assert_eq!(
                keys(row),
                first,
                "{path}: row {i} of `{name}` has other keys than the first row"
            );
        }
        rows += table.children.len();
    }
    rows
}

fn main() {
    check_kind_mismatch_is_typed();
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        paths.push("TELEMETRY_snapshot.json".to_string());
    }
    for path in &paths {
        let json =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let root = InspectNode::from_json(&json)
            .unwrap_or_else(|e| panic!("{path} is not a valid inspection tree: {e:?}"));
        if root.property("bench").is_some() {
            let rows = check_bench(path, &root);
            println!("bench artifact ok: {path} ({rows} rows)");
        } else {
            check_snapshot(path, &root);
        }
    }
}

/// The snapshot checks: every instrumented layer reported.
fn check_snapshot(path: &str, snap: &InspectNode) {
    let mut checked = 0usize;
    for (node, counter) in [
        ("service", "requests"),
        ("service", "batches"),
        ("multi_gpu", "sorts"),
        ("multi_gpu", "keys"),
    ] {
        let n = snap
            .node(node)
            .unwrap_or_else(|| panic!("snapshot lacks the `{node}` layer"));
        let v = n
            .uint(counter)
            .unwrap_or_else(|| panic!("`{node}` lacks the `{counter}` counter"));
        assert!(v > 0, "`{node}/{counter}` is zero — instrumentation dead?");
        checked += 1;
    }
    // The fault-handling subtree must be registered even on a clean run —
    // a missing probe here means a device failure in production would go
    // uncounted.  Zero is fine; absent is not.
    let faults = snap
        .node("multi_gpu/faults")
        .expect("snapshot lacks the `multi_gpu/faults` subtree");
    for counter in [
        "device_failures",
        "shard_corruptions",
        "transfer_stalls",
        "requeued_elements",
    ] {
        assert!(
            faults.uint(counter).is_some(),
            "`multi_gpu/faults` lacks the `{counter}` counter"
        );
        checked += 1;
    }
    assert!(
        faults.node("recovery_ns").is_some(),
        "`multi_gpu/faults` lacks the `recovery_ns` histogram"
    );
    // At least one per-device core sorter must have reported underneath.
    assert!(
        snap.node("core/dev0").is_some(),
        "snapshot lacks the per-device `core/dev0` subtree"
    );
    // The write-combining scatter metrics register on every core probe;
    // like the fault subtree, a zero reading is legal (staging may be off
    // or lines may not fill) but absence is a regression.
    let scatter = snap
        .node("core/dev0/scatter")
        .expect("snapshot lacks the `core/dev0/scatter` subtree");
    for counter in ["staged_lines", "partial_flushes"] {
        assert!(
            scatter.uint(counter).is_some(),
            "`core/dev0/scatter` lacks the `{counter}` counter"
        );
        checked += 1;
    }
    // The latency histograms must have absorbed the resolved requests.
    let lat = snap
        .node("service/class/u32/latency_ns")
        .expect("snapshot lacks the u32 latency histogram");
    assert!(lat.uint("count").unwrap_or(0) > 0, "no latency samples");

    println!(
        "telemetry snapshot ok: {path} ({checked} counters checked, \
         {} top-level layers)",
        snap.children.len()
    );
}
