//! Wall-clock throughput of the execution backends (real time, not
//! simulated): keys/sec for the sequential baseline and the threaded
//! backend over worker counts × workloads × input sizes × shapes (u32
//! keys, u32 + u32 pairs, u64 + u32 pairs), written to
//! `BENCH_wallclock.json`.
//!
//! ```text
//! cargo run --release --bin bench_wallclock [-- --smoke] [--out <path>]
//!     [--sizes 20,22,24,26] [--workers 1,2,4,8] [--reps 3]
//! ```
//!
//! `--smoke` runs the CI-sized sweep (2^20 keys, 1/2/4 workers, 1 rep).
//! `--sizes` takes base-2 exponents.  Every point measures the staged
//! write-combining scatter plus an unstaged (direct-scatter) reference.
//! Every timed run follows a warm-up sort, so the scratch arena is hot and
//! the numbers measure the algorithm, not the allocator.

use experiments::artifact::{self, flag, flag_list};
use experiments::wallclock::{run_wallclock_sweep, wallclock_artifact, WallclockConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        WallclockConfig::smoke()
    } else {
        WallclockConfig::full()
    };
    if let Some(sizes) = flag_list(&args, "--sizes") {
        cfg.sizes = sizes.into_iter().map(|e| 1usize << e).collect();
    }
    if let Some(workers) = flag_list(&args, "--workers") {
        cfg.worker_counts = workers;
    }
    if let Some(reps) = flag(&args, "--reps") {
        cfg.reps = reps;
    }
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_wallclock.json".to_string());

    println!(
        "# Execution-backend wall-clock sweep (sizes {:?}, workers {:?}, {} rep(s))",
        cfg.sizes, cfg.worker_counts, cfg.reps
    );
    println!(
        "# note: on single-core containers the threaded backends time-slice one CPU, so\n\
         # speedup and staged-vs-unstaged columns underestimate multi-core gains\n"
    );
    let points = run_wallclock_sweep(&cfg);
    let tree = wallclock_artifact(&points);
    println!("{}", artifact::table(&tree.children));

    // Headline: best threaded speedup per size on the uniform key-only
    // workload — the number the perf trajectory tracks.
    for &n in &cfg.sizes {
        let best = points
            .iter()
            .filter(|p| p.workload == "uniform" && p.shape == "u32 keys" && p.n == n)
            .map(|p| p.speedup_vs_seq)
            .fold(0.0f64, f64::max);
        println!("uniform u32 keys, n = {n}: best threaded speedup {best:.2}x");
    }
    for &n in &cfg.sizes {
        let best = points
            .iter()
            .filter(|p| p.workload == "uniform" && p.shape == "u32 keys" && p.n == n)
            .map(|p| p.staged_vs_unstaged)
            .fold(0.0f64, f64::max);
        println!("uniform u32 keys, n = {n}: best staged-vs-unstaged {best:.2}x");
    }

    println!();
    artifact::write(&out_path, &tree);
}
