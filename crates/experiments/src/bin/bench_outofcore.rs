//! Out-of-core lane benchmark: in-core vs out-of-core crossover through
//! the sort service, plus the per-device chunk-count sweep (Figure 8
//! composed over a pool), written to `BENCH_outofcore.json`.
//!
//! ```text
//! cargo run --release --bin bench_outofcore [-- --smoke] [--out <path>]
//!     [--devices 2] [--memory-mib 4]
//! ```
//!
//! `--smoke` runs the CI-sized sweep.  The pool's device memories are
//! deliberately shrunken (`--memory-mib`) so requests cross the admission
//! budget at container-friendly sizes; the schedule arithmetic is the same
//! one a 12 GB device would see at paper scale.

use experiments::artifact::{self, flag};
use experiments::outofcore_bench::{
    crossover_boundary, outofcore_artifact, run_chunk_sweep, run_crossover_sweep, OocBenchConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        OocBenchConfig::smoke()
    } else {
        OocBenchConfig::full()
    };
    if let Some(devices) = flag(&args, "--devices") {
        cfg.devices = devices;
    }
    if let Some(mib) = flag::<u64>(&args, "--memory-mib") {
        cfg.device_memory = mib << 20;
    }
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_outofcore.json".to_string());

    println!(
        "# Out-of-core lane sweep ({} devices × {} MiB device memory)\n",
        cfg.devices,
        cfg.device_memory >> 20
    );

    let crossover = run_crossover_sweep(&cfg);
    let chunks = run_chunk_sweep(&cfg);
    let tree = outofcore_artifact(&crossover, &chunks);

    println!("## In-core / out-of-core crossover (service, OutOfCore policy)\n");
    println!("{}", artifact::table(&tree.children[0].children));
    match crossover_boundary(&crossover) {
        Some((last_in, first_out)) => println!(
            "crossover: batching lane up to {last_in} keys, out-of-core lane from {first_out} keys\n"
        ),
        None => println!("sweep did not straddle the admission budget\n"),
    }

    println!("## Chunk-count sweep (Figure 8 over the pool)\n");
    println!("{}", artifact::table(&tree.children[1].children));
    if let (Some(first), Some(best)) = (
        chunks.first(),
        chunks
            .iter()
            .min_by(|a, b| a.overlap_ratio.total_cmp(&b.overlap_ratio)),
    ) {
        println!(
            "overlap: {:.3}x of the serial bound at {} chunks/device (vs {:.3}x unchunked)",
            best.overlap_ratio, best.chunks_per_device, first.overlap_ratio
        );
    }

    println!();
    artifact::write(&out_path, &tree);
}
