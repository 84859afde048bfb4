//! Multi-GPU scaling study: sorts the same input over 1/2/4/8 simulated
//! Titan X (Pascal) devices for uniform / Zipfian / pre-sorted workloads in
//! key-only and key-value shapes, and reports the critical-path simulated
//! time and speedup of every configuration.
//!
//! ```text
//! cargo run --release --bin fig_multi_gpu_scaling [-- --n <keys>]
//! ```
//!
//! The default input size is 2^26 keys; pass a smaller `--n` for a quick
//! look.

use experiments::artifact::flag;
use experiments::format_table;
use experiments::multi_gpu_scaling::{
    scaling_keys_u64, scaling_pairs_u32, scaling_workloads, speedup_series, ScalingCurve,
    DEVICE_COUNTS,
};
use hrs_core::HybridRadixSorter;

fn print_curve(curve: &ScalingCurve) {
    println!("### {} / {}", curve.workload, curve.shape);
    println!("devices | critical path (ms) | end-to-end (ms) | speedup");
    for p in &curve.points {
        println!(
            "{:>7} | {:>18.3} | {:>15.3} | {:>7.2}x",
            p.devices,
            p.critical_path_s * 1e3,
            p.end_to_end_s * 1e3,
            p.speedup
        );
    }
    if curve.workload == "uniform" && !curve.speedup_is_monotonic() {
        println!("!! speedup is NOT monotonic over the device count");
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = flag(&args, "--n").unwrap_or(1 << 26);
    println!("# Multi-GPU sharded sort scaling ({n} keys per run)\n");
    let template = HybridRadixSorter::with_defaults();

    let mut curves = Vec::new();
    for (name, dist) in scaling_workloads(n) {
        curves.push(scaling_keys_u64(&name, dist, n, &DEVICE_COUNTS, &template));
        print_curve(curves.last().unwrap());
    }
    // Key-value runs: 32-bit keys with a 32-bit row-id payload.
    for (name, dist) in scaling_workloads(n) {
        curves.push(scaling_pairs_u32(&name, dist, n, &DEVICE_COUNTS, &template));
        print_curve(curves.last().unwrap());
    }

    println!(
        "{}",
        format_table(
            "Simulated speedup vs device count",
            "devices",
            &speedup_series(&curves)
        )
    );
}
