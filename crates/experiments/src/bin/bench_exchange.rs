//! Recombination-strategy benchmark: host p-way merge vs peer-to-peer
//! bucket exchange over the device count (2–8) on NVLink-mesh and
//! PCIe-through-host topologies, written to `BENCH_exchange.json`.
//!
//! ```text
//! cargo run --release --bin bench_exchange [-- --smoke] [--out <path>]
//!     [--keys 400000]
//! ```
//!
//! `--smoke` runs the CI-sized sweep (same device counts — the acceptance
//! gate needs the 8-device NVLink point — with a smaller input).

use experiments::artifact::{self, flag};
use experiments::exchange_bench::{exchange_artifact, run_exchange_sweep, ExchangeBenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        ExchangeBenchConfig::smoke()
    } else {
        ExchangeBenchConfig::full()
    };
    if let Some(keys) = flag(&args, "--keys") {
        cfg.keys = keys;
    }
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_exchange.json".to_string());

    println!(
        "# Recombination: host merge vs peer exchange ({} keys per run)\n",
        cfg.keys
    );
    let points = run_exchange_sweep(&cfg);
    let tree = exchange_artifact(&points);
    println!("{}", artifact::table(&tree.children));
    if let Some(best) = points.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)) {
        println!(
            "best: {:.2}x on {} with {} devices",
            best.speedup, best.topology, best.devices
        );
    }

    println!();
    artifact::write(&out_path, &tree);
}
