//! Wall-clock throughput of the execution backends (real time, not
//! simulated): keys/sec for the sequential baseline and the threaded
//! backend over worker counts × workloads × input sizes × shapes, written
//! to `BENCH_wallclock.json`.
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

use experiments::wallclock::{
    run_wallclock_sweep, wallclock_table, wallclock_to_json, WallclockConfig,
};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} expects a value"))
            .clone()
    })
}

fn parse_list(raw: &str, flag: &str) -> Vec<usize> {
    raw.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| panic!("{flag} expects comma-separated integers, got {v:?}"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        WallclockConfig::smoke()
    } else {
        WallclockConfig::full()
    };
    if let Some(sizes) = arg_value(&args, "--sizes") {
        cfg.sizes = parse_list(&sizes, "--sizes")
            .into_iter()
            .map(|e| 1usize << e)
            .collect();
    }
    if let Some(workers) = arg_value(&args, "--workers") {
        cfg.worker_counts = parse_list(&workers, "--workers");
    }
    if let Some(reps) = arg_value(&args, "--reps") {
        cfg.reps = reps
            .parse()
            .unwrap_or_else(|_| panic!("--reps expects an integer"));
    }
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_wallclock.json".to_string());

    println!(
        "# Execution-backend wall-clock sweep (sizes {:?}, workers {:?}, {} rep(s))",
        cfg.sizes, cfg.worker_counts, cfg.reps
    );
    println!(
        "# note: on single-core containers the threaded backends time-slice one CPU, so\n\
         # speedup and staged-vs-unstaged columns underestimate multi-core gains\n"
    );
    let points = run_wallclock_sweep(&cfg);
    println!("{}", wallclock_table(&points));

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

    std::fs::write(&out_path, wallclock_to_json(&points))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
