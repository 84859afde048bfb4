//! Metric values, summary statistics and the result line.
//!
//! Every time metric is built from a measured [`Duration`] — the only
//! constructors that produce `ms`/`s`/`1/s` values take `Duration`s — so no
//! simulated time from the GPU model (`SimTime`, `SimBreakdown`) can reach an
//! emitted number.  The `no_simulated_time_in_sources` test in
//! `tests/smoke.rs` additionally scans this crate's sources for those types.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label (`ms`, `s`, `1/s`, `MiB`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }

    /// A duration in milliseconds.
    pub fn ms(name: &str, d: Duration) -> Self {
        Metric::new(name, d.as_secs_f64() * 1e3, "ms")
    }

    /// A self time in milliseconds: the median over repetitions of each
    /// repetition's parent duration minus its timed children.  Pairing the
    /// two within a repetition cancels drift between repetitions.
    pub fn self_ms(name: &str, reps: &[(Duration, Duration)]) -> Self {
        let mut diffs: Vec<f64> = reps
            .iter()
            .map(|(parent, children)| (parent.as_secs_f64() - children.as_secs_f64()) * 1e3)
            .collect();
        assert!(!diffs.is_empty(), "self time of no repetitions");
        diffs.sort_by(f64::total_cmp);
        let m = diffs.len() / 2;
        let median = if diffs.len() % 2 == 1 {
            diffs[m]
        } else {
            (diffs[m - 1] + diffs[m]) / 2.0
        };
        Metric::new(name, median, "ms")
    }

    /// A duration in seconds.
    pub fn secs(name: &str, d: Duration) -> Self {
        Metric::new(name, d.as_secs_f64(), "s")
    }

    /// Keys per measured second.
    pub fn keys_per_s(name: &str, keys: u64, elapsed: Duration) -> Self {
        let secs = elapsed.as_secs_f64().max(1e-9);
        Metric::new(name, keys as f64 / secs, "1/s")
    }

    /// A whole-number count.
    pub fn count(name: &str, n: u64) -> Self {
        Metric::new(name, n as f64, "count")
    }

    /// A dimensionless ratio.
    pub fn ratio(name: &str, r: f64) -> Self {
        Metric::new(name, r, "ratio")
    }

    /// A byte amount in MiB.
    pub fn mib(name: &str, bytes: u64) -> Self {
        Metric::new(name, bytes as f64 / (1u64 << 20) as f64, "MiB")
    }

    /// Bytes per key.
    pub fn bytes_per_key(name: &str, bytes: f64) -> Self {
        Metric::new(name, bytes, "B/key")
    }
}

/// Median of `samples` (the mean of the two middle values for even counts).
pub fn median(samples: &[Duration]) -> Duration {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_unstable();
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("resident memory needs /proc/self/status (Linux)");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kib| kib * 1024)
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
}

/// Resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (sorts, or service requests).
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// Every emitted metric, in emission order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Records one operation and whether its output checked out.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        assert!(
            self.get(&metric.name).is_none(),
            "metric {} emitted twice",
            metric.name
        );
        self.metrics.push(metric);
    }

    /// The metric called `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that reads back to
            // the same f64, so every measured digit is kept.
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        let ms = |v: u64| Duration::from_millis(v);
        let s = [ms(5), ms(1), ms(3), ms(2)];
        assert_eq!(median(&s), Duration::from_micros(2500));
        assert_eq!(percentile(&s, 50.0), ms(2));
        assert_eq!(percentile(&s, 99.0), ms(5));
        let many: Vec<Duration> = (1..=1000).map(ms).collect();
        assert_eq!(percentile(&many, 99.0), ms(990));
    }

    #[test]
    fn json_line_shape() {
        let mut r = RunResult::default();
        r.record(true);
        r.push(Metric::ms("latency_p50_ms", Duration::from_micros(1500)));
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn peak_rss_covers_rss() {
        let rss = rss_bytes();
        assert!(rss > 0);
        assert!(peak_rss_bytes() >= rss);
    }
}
