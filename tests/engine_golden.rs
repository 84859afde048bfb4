//! Golden reports of the sharded engine: every fault-free sort below must
//! reproduce, byte for byte, the report fingerprint recorded in
//! `tests/golden/engine_reports.txt`.
//!
//! A fingerprint is the `{:?}` of every simulated or structural field of a
//! [`ShardedReport`]: sizes, the per-shard table, splitters, the critical
//! path, the combined core report, every timeline event, and the
//! out-of-core chunk bookkeeping.  Measured
//! wall-clock fields (`measured_partition`, `measured_merge`,
//! `end_to_end`, `measured_sort`) and the out-of-core `host merge` events
//! (sized from the measured merge) vary run to run and are left out.

use hybrid_radix_sort::gpu_sim::DeviceSpec;
use hybrid_radix_sort::multi_gpu::{DevicePool, OocConfig, ShardedSorter, SimDevice};
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::uniform_keys;
use std::fmt::Write;

const FIXTURE: &str = include_str!("golden/engine_reports.txt");

fn fingerprint(report: &ShardedReport) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "n={:?} key_bytes={:?} value_bytes={:?}",
        report.n, report.key_bytes, report.value_bytes
    ));
    for (i, s) in report.shards.iter().enumerate() {
        line(format!(
            "shard {i}: device={:?} link={:?} n={:?} range={:?} upload={:?} gpu_sort={:?} download={:?} finish={:?}",
            s.device, s.link, s.n, s.range, s.upload, s.gpu_sort, s.download, s.finish
        ));
        line(format!("shard {i} report: {:?}", s.report));
    }
    line(format!("splitters={:?}", report.splitters));
    line(format!("critical_path={:?}", report.critical_path));
    line(format!("combined={:?}", report.combined));
    for e in report.timeline.events() {
        if !e.label.starts_with("host merge") {
            line(format!("event {e:?}"));
        }
    }
    line(format!("ooc_chunks={:?}", report.ooc_chunks));
    out
}

/// The recorded fingerprint of case `name`: the lines between its
/// `== name` header and the next header.
fn recorded(name: &str) -> String {
    let header = format!("== {name}\n");
    let start = FIXTURE
        .find(&header)
        .unwrap_or_else(|| panic!("no golden entry for {name}"))
        + header.len();
    let rest = &FIXTURE[start..];
    let end = rest.find("\n== ").map_or(rest.len(), |i| i + 1);
    rest[..end].to_string()
}

fn check(name: &str, report: &ShardedReport) {
    let got = fingerprint(report);
    let want = recorded(name);
    if got != want {
        let mut diff = String::new();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                let _ = writeln!(diff, "line {i}:\n  want {w}\n  got  {g}");
                break;
            }
        }
        panic!(
            "{name}: fingerprint differs from the recorded report ({} vs {} lines)\n{diff}",
            got.lines().count(),
            want.lines().count()
        );
    }
}

fn titan(p: usize) -> ShardedSorter {
    ShardedSorter::new(DevicePool::titan_cluster(p))
}

/// Two devices with 1 MiB of memory each, so test-sized inputs stream out
/// of core in several chunks.
fn tiny_memory() -> ShardedSorter {
    let mut spec = DeviceSpec::titan_x_pascal();
    spec.device_memory_bytes = 1 << 20;
    ShardedSorter::new(DevicePool::homogeneous(2, SimDevice::on_pcie3(spec)))
}

#[test]
fn host_merge_keys() {
    let mut keys = uniform_keys::<u64>(60_000, 1);
    check("host_merge_keys", &titan(3).sort(&mut keys));
}

#[test]
fn host_merge_pairs() {
    let mut keys = uniform_keys::<u32>(50_000, 2);
    let mut vals: Vec<u32> = (0..50_000).collect();
    check(
        "host_merge_pairs",
        &titan(3).sort_pairs(&mut keys, &mut vals),
    );
}

#[test]
fn host_merge_batch() {
    let mut keys = uniform_keys::<u64>(45_000, 3);
    check("host_merge_batch", &titan(3).sort(&mut keys));
}

#[test]
fn out_of_core_default_chunking() {
    let mut keys = uniform_keys::<u64>(200_000, 7);
    check(
        "out_of_core_default_chunking",
        &tiny_memory().sort_out_of_core(&mut keys),
    );
}

#[test]
fn out_of_core_four_chunks_per_device() {
    let mut keys = uniform_keys::<u64>(100_000, 8);
    let mut vals: Vec<u32> = (0..100_000).collect();
    let report = tiny_memory()
        .with_ooc_config(OocConfig::default().with_chunks_per_device(4))
        .sort_out_of_core_pairs(&mut keys, &mut vals);
    check("out_of_core_four_chunks_per_device", &report);
}

#[test]
fn empty_input() {
    let mut keys: Vec<u64> = Vec::new();
    check("empty_input", &titan(3).sort(&mut keys));
}

#[test]
fn three_key_input() {
    let mut keys = vec![9u64, 1, 5];
    check("three_key_input", &titan(3).sort(&mut keys));
}
