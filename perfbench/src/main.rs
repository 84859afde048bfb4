//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the machine and build, every metric by name with its unit, and as
//! the last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::full(),
    })
}

/// Size of one cache level as the kernel reports it (e.g. `2048K`).
fn cache_size(level: &str) -> String {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let kind = std::fs::read_to_string(format!("{dir}/type")).ok()?;
            (lvl.trim() == level && kind.trim() != "Instruction")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
        })
        .map(|s| s.trim().to_string())
        .next()
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# machine: nproc={nproc} l2={} l3={}",
        cache_size("2"),
        cache_size("3")
    );
    println!(
        "# build: rustc={} commit={}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT")
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let result = run(&cfg);
    for m in &result.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>18.6} ratio ({} of {} operations failed)",
        "error_rate",
        result.error_rate(),
        result.failed,
        result.attempted
    );
    // A wrong output is reported through `correct`/`failed`, not the exit
    // code: the result line is the run's outcome either way.
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
