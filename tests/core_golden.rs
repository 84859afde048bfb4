//! Golden reports of the single-device sorter: every sort below must
//! reproduce, byte for byte, the report recorded in
//! `tests/golden/core_reports.txt`.
//!
//! A fingerprint is the `{:?}` of every field of a [`SortReport`]: the
//! per-pass statistics (histogram and scatter atomic counts, look-ahead
//! blocks, staged lines), the local-sort statistics and the simulated
//! breakdown.  The reports hold no measured wall-clock field, so the whole
//! report is pinned.  Every case runs on the sequential executor and on two
//! worker threads, and both runs must match the one recorded fingerprint.
//!
//! The cases cover 32- and 64-bit keys and pairs; uniform, Zipf, the five
//! lowest-entropy rungs of the paper's AND ladder and constant inputs (the
//! skewed ones switch the scatter look-ahead on); the defaults and every
//! ablation variant; and digit widths whose final digit is narrower.

use hybrid_radix_sort::hrs_core::SortValue;
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::uniform_keys;
use std::fmt::Write;

const FIXTURE: &str = include_str!("golden/core_reports.txt");

/// Keys per case: several blocks per bucket and, for the skewed inputs,
/// several counting passes.
const N: usize = 40_000;

fn fingerprint(report: &SortReport) -> String {
    // Destructured so that a new report field cannot go unpinned.
    let SortReport {
        n,
        key_bytes,
        value_bytes,
        passes,
        local,
        total_sub_buckets,
        max_live_buckets,
        fallback_comparison_sort,
        simulated,
    } = report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "n={n:?} key_bytes={key_bytes:?} value_bytes={value_bytes:?} total_sub_buckets={total_sub_buckets:?} max_live_buckets={max_live_buckets:?} fallback={fallback_comparison_sort:?}"
    );
    for p in passes {
        let _ = writeln!(out, "pass {p:?}");
    }
    let _ = writeln!(out, "local {local:?}");
    for (label, timing) in &simulated.kernels {
        let _ = writeln!(out, "kernel {label:?} {timing:?}");
    }
    let _ = writeln!(
        out,
        "traffic={:?} total={:?} rate={:?}",
        simulated.traffic, simulated.total, simulated.sorting_rate
    );
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

fn check(name: &str, report: &SortReport) {
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

#[derive(Debug, Clone, Copy)]
enum Input {
    Uniform,
    Zipf,
    /// The AND-ladder rung with this many AND operations.
    Entropy(u32),
    Constant,
}

const INPUTS: [Input; 8] = [
    Input::Uniform,
    Input::Zipf,
    Input::Entropy(1),
    Input::Entropy(2),
    Input::Entropy(3),
    Input::Entropy(4),
    Input::Entropy(5),
    Input::Constant,
];

impl Input {
    fn label(self) -> String {
        match self {
            Input::Uniform => "uniform".into(),
            Input::Zipf => "zipf".into(),
            Input::Entropy(a) => format!("entropy{a}"),
            Input::Constant => "constant".into(),
        }
    }

    fn keys<K: SortKey>(self, seed: u64) -> Vec<K> {
        match self {
            Input::Uniform => uniform_keys(N, seed),
            Input::Zipf => ZipfGenerator::paper_keys(N, seed),
            Input::Entropy(a) => EntropyLevel::with_and_count(a).generate(N, seed),
            Input::Constant => EntropyLevel::constant().generate(N, seed),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    KeysU32,
    KeysU64,
    PairsU32,
    PairsU64,
}

const SHAPES: [Shape; 4] = [
    Shape::KeysU32,
    Shape::KeysU64,
    Shape::PairsU32,
    Shape::PairsU64,
];

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::KeysU32 => "keys_u32",
            Shape::KeysU64 => "keys_u64",
            Shape::PairsU32 => "pairs_u32",
            Shape::PairsU64 => "pairs_u64",
        }
    }

    /// Sorts the case's input with `sorter`, checks the output against the
    /// standard library and returns the report.
    fn sort(self, sorter: &HybridRadixSorter, input: Input, seed: u64) -> SortReport {
        match self {
            Shape::KeysU32 => sort_keys::<u32>(sorter, input.keys(seed)),
            Shape::KeysU64 => sort_keys::<u64>(sorter, input.keys(seed)),
            Shape::PairsU32 => sort_pairs::<u32, u32>(sorter, input.keys(seed), |i| i as u32),
            Shape::PairsU64 => sort_pairs::<u64, u64>(sorter, input.keys(seed), |i| i as u64),
        }
    }
}

fn sort_keys<K: SortKey + Ord>(sorter: &HybridRadixSorter, mut keys: Vec<K>) -> SortReport {
    let mut expect = keys.clone();
    expect.sort_unstable();
    let report = sorter.sort(&mut keys);
    assert!(keys == expect, "keys not sorted");
    report
}

fn sort_pairs<K: SortKey + Ord, V: SortValue + Into<u64>>(
    sorter: &HybridRadixSorter,
    mut keys: Vec<K>,
    index: impl Fn(usize) -> V,
) -> SortReport {
    let original = keys.clone();
    let mut vals: Vec<V> = (0..keys.len()).map(index).collect();
    let report = sorter.sort_pairs(&mut keys, &mut vals);
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
    for (k, v) in keys.iter().zip(&vals) {
        let i: u64 = (*v).into();
        assert!(original[i as usize] == *k, "value does not follow its key");
    }
    report
}

/// Runs one case on the sequential executor and on two workers and checks
/// both reports against the recorded fingerprint.
fn case(
    shape: Shape,
    input: Input,
    variant: &str,
    opts: Optimizations,
    config: Option<SortConfig>,
) {
    let name = format!("{} {} {variant}", shape.label(), input.label());
    for exec in [Executor::Sequential, Executor::with_workers(2)] {
        let sorter = HybridRadixSorter::with_defaults()
            .with_optimizations(opts)
            .with_executor(exec);
        let sorter = match &config {
            Some(c) => sorter.with_config(c.clone()),
            None => sorter,
        };
        check(&name, &shape.sort(&sorter, input, 7));
    }
}

#[test]
fn defaults_on_every_input_and_shape() {
    for shape in SHAPES {
        for input in INPUTS {
            case(shape, input, "defaults", Optimizations::all_on(), None);
        }
    }
}

#[test]
fn ablation_variants() {
    for (label, opts) in Optimizations::ablation_variants() {
        for shape in [Shape::KeysU32, Shape::PairsU64] {
            for input in [Input::Zipf, Input::Entropy(4), Input::Constant] {
                case(shape, input, label, opts, None);
            }
        }
    }
}

#[test]
fn staged_scatter_off() {
    for input in [Input::Uniform, Input::Entropy(3), Input::Constant] {
        case(
            Shape::PairsU32,
            input,
            "no staged scatter",
            Optimizations::no_staged_scatter(),
            None,
        );
    }
}

#[test]
fn narrower_final_digit() {
    // 32 = 6 × 5 + 2 and 64 = 5 × 11 + 9: the last pass partitions on a
    // narrower digit than the others.
    let five = SortConfig {
        digit_bits: 5,
        ..SortConfig::keys_32()
    };
    let eleven = SortConfig {
        digit_bits: 11,
        ..SortConfig::keys_64()
    };
    for input in [Input::Uniform, Input::Entropy(3), Input::Entropy(5)] {
        case(
            Shape::KeysU32,
            input,
            "digit_bits 5",
            Optimizations::all_on(),
            Some(five.clone()),
        );
        case(
            Shape::KeysU64,
            input,
            "digit_bits 11",
            Optimizations::all_on(),
            Some(eleven.clone()),
        );
        case(
            Shape::PairsU32,
            input,
            "digit_bits 11",
            Optimizations::all_on(),
            Some(eleven.clone()),
        );
    }
}
