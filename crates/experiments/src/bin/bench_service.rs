//! Batch sort service throughput (real wall-clock): batched vs
//! one-request-per-batch scheduling over small/medium/mixed request mixes,
//! written to `BENCH_service.json`.
//!
//! ```text
//! cargo run --release --bin bench_service [-- --smoke] [--out <path>]
//!     [--telemetry-out <path>] [--requests 192] [--devices 4] [--linger-ms 2]
//! ```
//!
//! `--smoke` runs the CI-sized sweep.  Each point submits the whole request
//! sequence closed-loop and waits for every ticket; the headline is the
//! batched-over-unbatched requests/sec ratio per mix.  A live telemetry
//! snapshot of one instrumented session is written alongside the results
//! (`TELEMETRY_snapshot.json` by default) for the CI artifact.

use experiments::artifact::{self, flag};
use experiments::service_bench::{
    batching_speedups, run_service_sweep, service_artifact, telemetry_snapshot_json,
    ServiceBenchConfig,
};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        ServiceBenchConfig::smoke()
    } else {
        ServiceBenchConfig::full()
    };
    if let Some(requests) = flag(&args, "--requests") {
        cfg.requests = requests;
    }
    if let Some(devices) = flag(&args, "--devices") {
        cfg.devices = devices;
    }
    if let Some(ms) = flag::<f64>(&args, "--linger-ms") {
        cfg.linger = Duration::from_secs_f64(ms / 1e3);
    }
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_service.json".to_string());

    println!(
        "# Batch sort service sweep ({} requests/point, {} devices, linger {:?})\n",
        cfg.requests, cfg.devices, cfg.linger
    );
    let points = run_service_sweep(&cfg);
    let tree = service_artifact(&points);
    println!("{}", artifact::table(&tree.children));

    // Headline: what coalescing buys per mix.  Device throughput is the
    // scheduling-quality metric (the pool is simulated); wall-clock on a
    // single-core host tracks total CPU work and stays roughly neutral.
    for (mix, sim, wall) in batching_speedups(&points) {
        println!(
            "mix {mix}: batched/unbatched device throughput {sim:.2}x (host wall-clock {wall:.2}x)"
        );
    }

    println!();
    artifact::write(&out_path, &tree);

    let telemetry_path =
        flag(&args, "--telemetry-out").unwrap_or_else(|| "TELEMETRY_snapshot.json".to_string());
    std::fs::write(&telemetry_path, telemetry_snapshot_json(&cfg))
        .unwrap_or_else(|e| panic!("cannot write {telemetry_path}: {e}"));
    println!("wrote {telemetry_path}");
}
