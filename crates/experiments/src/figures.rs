//! Data generators for every table and figure of the paper.
//!
//! Each `figXX_*` function returns the series that the corresponding figure
//! plots; the experiment binaries render them with
//! [`crate::series::format_table`].  Functions that need the hybrid radix
//! sort run it functionally through [`crate::scale`]; the LSD/merge-sort
//! baselines are distribution-oblivious and therefore evaluated analytically
//! on the same device model.

use crate::scale::{run_hrs_scaled, KeyKind, PaperScale};
use crate::series::Series;
use baselines::{
    paradis_reported_seconds, GpuLsdRadixSort, GpuMergeSort, MultisplitRadixSort,
    ReportedDistribution,
};
use gpu_sim::{AtomicModel, DeviceSpec, HistogramStrategy, SimTime};
use hetero::HeterogeneousSorter;
use hrs_core::{AnalyticalModel, HybridRadixSorter, Optimizations, SortConfig};
use workloads::{Distribution, EntropyLevel, ENTROPY_LEVELS_32, ENTROPY_LEVELS_64};

/// The four input shapes of Figures 6 and 10–14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 32-bit keys, no values (Figure 6a).
    Keys32,
    /// 32-bit keys with 32-bit values (Figure 6b).
    Pairs32,
    /// 64-bit keys, no values (Figure 6c).
    Keys64,
    /// 64-bit keys with 64-bit values (Figure 6d).
    Pairs64,
}

impl Shape {
    /// All four shapes in figure order.
    pub fn all() -> [Shape; 4] {
        [Shape::Keys32, Shape::Pairs32, Shape::Keys64, Shape::Pairs64]
    }

    /// Key kind of the shape.
    pub fn kind(self) -> KeyKind {
        match self {
            Shape::Keys32 | Shape::Pairs32 => KeyKind::U32,
            Shape::Keys64 | Shape::Pairs64 => KeyKind::U64,
        }
    }

    /// Value width in bytes.
    pub fn value_bytes(self) -> u32 {
        match self {
            Shape::Keys32 | Shape::Keys64 => 0,
            Shape::Pairs32 => 4,
            Shape::Pairs64 => 8,
        }
    }

    /// Number of elements that make a 2 GB input of this shape.
    pub fn paper_n_2gb(self) -> u64 {
        2_000_000_000 / (self.kind().bytes() as u64 + self.value_bytes() as u64)
    }

    /// Entropy labels (x axis) used by the paper for this shape.
    pub fn entropy_labels(self) -> &'static [f64; 12] {
        match self.kind() {
            KeyKind::U32 => &ENTROPY_LEVELS_32,
            KeyKind::U64 => &ENTROPY_LEVELS_64,
        }
    }

    /// Human-readable description used in table titles.
    pub fn describe(self) -> &'static str {
        match self {
            Shape::Keys32 => "32-bit keys",
            Shape::Pairs32 => "32-bit keys with 32-bit values",
            Shape::Keys64 => "64-bit keys",
            Shape::Pairs64 => "64-bit keys with 64-bit values",
        }
    }
}

fn entropy_label(v: f64) -> String {
    format!("{v:.2}")
}

// --------------------------------------------------------------------------
// Figure 2
// --------------------------------------------------------------------------

/// Figure 2: memory-bandwidth utilisation of the histogram kernel over the
/// number of distinct digit values, for the *atomics only* and the
/// *thread reduction & atomics* strategies.
pub fn fig02_histogram_utilisation() -> Vec<Series> {
    let device = DeviceSpec::titan_x_pascal();
    let model = AtomicModel::titan_x_pascal();
    let qs = [1u32, 2, 3, 4, 5, 6, 8, 16, 64, 256];
    let mut atomics = Series::new("atomics only");
    let mut reduction = Series::new("thread reduction & atomics");
    for q in qs {
        atomics.push(
            q.to_string(),
            model.bandwidth_utilisation(&device, HistogramStrategy::AtomicsOnly, q, 4) * 100.0,
        );
        reduction.push(
            q.to_string(),
            model.bandwidth_utilisation(&device, HistogramStrategy::ThreadReduction, q, 4) * 100.0,
        );
    }
    vec![atomics, reduction]
}

// --------------------------------------------------------------------------
// Figure 6 (and the hybrid-sort series reused by Figures 10–14)
// --------------------------------------------------------------------------

/// The entropy ladder paired with its paper labels for a shape.
pub fn entropy_ladder(shape: Shape) -> Vec<(String, EntropyLevel)> {
    shape
        .entropy_labels()
        .iter()
        .zip(EntropyLevel::ladder())
        .map(|(&label, level)| (entropy_label(label), level))
        .collect()
}

/// Sorting rate (GB/s) of the hybrid radix sort over the entropy ladder.
pub fn hrs_series(shape: Shape, opts: Optimizations, scale: &PaperScale) -> Series {
    let mut s = Series::new("hybrid radix sort");
    for (label, level) in entropy_ladder(shape) {
        let dist = Distribution::Entropy(level);
        let run = run_hrs_scaled(
            &dist,
            shape.kind(),
            shape.value_bytes(),
            shape.paper_n_2gb(),
            opts,
            scale,
        );
        s.push(label, run.rate_gb_s);
    }
    s
}

fn flat_series(label: &str, xs: &[(String, EntropyLevel)], rate: f64) -> Series {
    let mut s = Series::new(label);
    for (x, _) in xs {
        s.push(x.clone(), rate);
    }
    s
}

/// Figure 6: sorting rates over the entropy ladder for the hybrid radix
/// sort and the GPU baselines, for a 2 GB input of the given shape.
pub fn fig06_on_gpu(shape: Shape, scale: &PaperScale) -> Vec<Series> {
    let n = shape.paper_n_2gb();
    let kb = shape.kind().bits();
    let vb = shape.value_bytes();
    let ladder = entropy_ladder(shape);

    let hrs = hrs_series(shape, Optimizations::all_on(), scale);
    // The LSD and merge baselines are oblivious to the distribution.
    let cub = GpuLsdRadixSort::cub_1_5_1().simulate(n, kb, vb);
    let thrust = GpuLsdRadixSort::thrust().simulate(n, kb, vb);
    let mgpu = GpuMergeSort::mgpu().simulate(n, kb, vb);
    let satish = GpuLsdRadixSort::satish().simulate(n, kb, vb);

    let mut out = vec![
        hrs,
        flat_series("CUB", &ladder, cub.sorting_rate.gb_per_s()),
        flat_series("Thrust", &ladder, thrust.sorting_rate.gb_per_s()),
        flat_series("MGPU", &ladder, mgpu.sorting_rate.gb_per_s()),
    ];
    // The paper only shows Satish et al. for the 32-bit shapes.
    if shape.kind() == KeyKind::U32 {
        out.push(flat_series(
            "Satish et al.",
            &ladder,
            satish.sorting_rate.gb_per_s(),
        ));
    }
    out
}

// --------------------------------------------------------------------------
// Figure 7
// --------------------------------------------------------------------------

/// Input sizes (in elements) evaluated by Figure 7 for the given shape,
/// from 250 000 elements up to the 2 GB point.
pub fn fig07_sizes(shape: Shape) -> Vec<u64> {
    let max = shape.paper_n_2gb();
    let mut sizes = vec![250_000u64, 1_000_000, 4_000_000, 16_000_000, 64_000_000];
    sizes.push(max);
    sizes.retain(|&s| s <= max);
    sizes
}

/// Figure 7: sorting rate over the input size for the hybrid radix sort,
/// CUB and MGPU, for the entropies 51.92/34.79/0.00 bits (64-bit keys) or
/// their 32-bit counterparts.
pub fn fig07_input_size(shape: Shape, scale: &PaperScale) -> Vec<Series> {
    let kb = shape.kind().bits();
    let vb = shape.value_bytes();
    let levels = [
        (EntropyLevel::with_and_count(1), "51.92 bit"),
        (EntropyLevel::with_and_count(2), "34.79 bit"),
        (EntropyLevel::constant(), "0.00 bit"),
    ];
    let sizes = fig07_sizes(shape);
    let mut out = Vec::new();
    for (level, label) in levels {
        let mut hrs = Series::new(format!("HRS - {label}"));
        for &n in &sizes {
            let run = run_hrs_scaled(
                &Distribution::Entropy(level),
                shape.kind(),
                vb,
                n,
                Optimizations::all_on(),
                scale,
            );
            hrs.push(size_label(n, shape), run.rate_gb_s);
        }
        out.push(hrs);
    }
    let mut cub = Series::new("CUB");
    let mut mgpu = Series::new("MGPU");
    for &n in &sizes {
        cub.push(
            size_label(n, shape),
            GpuLsdRadixSort::cub_1_5_1()
                .simulate(n, kb, vb)
                .sorting_rate
                .gb_per_s(),
        );
        mgpu.push(
            size_label(n, shape),
            GpuMergeSort::mgpu()
                .simulate(n, kb, vb)
                .sorting_rate
                .gb_per_s(),
        );
    }
    out.push(cub);
    out.push(mgpu);
    out
}

fn size_label(n: u64, shape: Shape) -> String {
    let bytes = n * (shape.kind().bytes() as u64 + shape.value_bytes() as u64);
    format!("{} MB", bytes / 1_000_000)
}

// --------------------------------------------------------------------------
// Figure 8
// --------------------------------------------------------------------------

/// One bar of Figure 8, broken into the stacked components the paper shows.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Bar {
    /// Bar label (`"CUB"`, `"HRS"`, `"s=4"`, …).
    pub label: String,
    /// PCIe host-to-device time (naive bars only), seconds.
    pub pcie_htod: f64,
    /// On-GPU sorting time (naive bars only), seconds.
    pub on_gpu_sort: f64,
    /// PCIe device-to-host time (naive bars only), seconds.
    pub pcie_dtoh: f64,
    /// Chunked-sort time (heterogeneous bars only), seconds.
    pub chunked_sort: f64,
    /// CPU merging time (heterogeneous bars only), seconds.
    pub cpu_merging: f64,
}

impl Fig8Bar {
    /// Total height of the bar in seconds.
    pub fn total(&self) -> f64 {
        self.pcie_htod + self.on_gpu_sort + self.pcie_dtoh + self.chunked_sort + self.cpu_merging
    }
}

/// Model of the CPU multiway-merge throughput of the paper's six-core host
/// (Section 5 / Figure 8): roughly 11 GB/s of merged output for up to four
/// runs, degrading as the number of runs doubles until it reaches the
/// ~6.9 GB/s implied by the 9.3 s merge of 64 GB in sixteen runs.  The
/// paper-scale figures use this model because the container CPU this
/// reproduction runs on differs from the paper's host; the real parallel
/// multiway-merge implementation is exercised by the tests, the
/// `out_of_core` example and the `bench_hetero` benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuMergeModel {
    /// Merge throughput (bytes/s) at up to `reference_runs` runs.
    pub base_bytes_per_sec: f64,
    /// Multiplicative throughput factor applied per doubling of the run
    /// count beyond `reference_runs`.
    pub degradation_per_doubling: f64,
    /// Number of runs the six-core host merges at full speed.
    pub reference_runs: usize,
}

impl Default for CpuMergeModel {
    fn default() -> Self {
        CpuMergeModel {
            base_bytes_per_sec: 11e9,
            degradation_per_doubling: 0.78,
            reference_runs: 4,
        }
    }
}

impl CpuMergeModel {
    /// Effective merge throughput for `runs` sorted runs.
    pub fn bytes_per_sec(&self, runs: usize) -> f64 {
        if runs <= 1 {
            return f64::INFINITY;
        }
        if runs <= self.reference_runs {
            // Fewer runs merge marginally faster.
            let doublings = (self.reference_runs as f64 / runs as f64).log2();
            return self.base_bytes_per_sec / self.degradation_per_doubling.powf(doublings * 0.5);
        }
        let doublings = (runs as f64 / self.reference_runs as f64).log2();
        self.base_bytes_per_sec * self.degradation_per_doubling.powf(doublings)
    }

    /// Seconds needed to merge `bytes` bytes spread over `runs` runs.
    pub fn merge_seconds(&self, bytes: u64, runs: usize) -> f64 {
        if runs <= 1 {
            0.0
        } else {
            bytes as f64 / self.bytes_per_sec(runs)
        }
    }
}

/// Figure 8: end-to-end time for sorting 375 million 64-bit/64-bit pairs
/// (6 GB) with the naive approaches and with the heterogeneous sort for
/// several chunk counts.
pub fn fig08_chunks(scale: &PaperScale) -> Vec<Fig8Bar> {
    let input_bytes = 6_000_000_000u64;
    let n = 375_000_000u64;
    let sorter = HeterogeneousSorter::with_defaults();

    // On-GPU sorting times for the whole 6 GB input.
    let hrs_run = run_hrs_scaled(
        &Distribution::Uniform,
        KeyKind::U64,
        8,
        n,
        Optimizations::all_on(),
        scale,
    );
    let cub = GpuLsdRadixSort::cub_1_5_1().simulate(n, 64, 8);

    let mut bars = Vec::new();
    for (name, sort_time) in [("CUB", cub.total), ("HRS", hrs_run.total)] {
        let naive = sorter.naive(name, input_bytes, sort_time);
        bars.push(Fig8Bar {
            label: name.to_string(),
            pcie_htod: naive.htod.secs(),
            on_gpu_sort: naive.gpu_sort.secs(),
            pcie_dtoh: naive.dtoh.secs(),
            chunked_sort: 0.0,
            cpu_merging: 0.0,
        });
    }

    // Heterogeneous sort with s chunks: the GPU time scales linearly with
    // the chunk size; the CPU merge time comes from the six-core host model
    // (it degrades as the number of runs grows).
    let merge_model = CpuMergeModel::default();
    for s in [2usize, 3, 4, 8, 16] {
        let merge_time = merge_model.merge_seconds(input_bytes, s);
        let breakdown = sorter.simulate_end_to_end(
            input_bytes,
            s,
            hrs_run.total,
            SimTime::from_secs(merge_time),
        );
        bars.push(Fig8Bar {
            label: format!("s={s}"),
            pcie_htod: 0.0,
            on_gpu_sort: 0.0,
            pcie_dtoh: 0.0,
            chunked_sort: breakdown.chunked_sort.secs(),
            cpu_merging: breakdown.cpu_merge.secs(),
        });
    }
    bars
}

// --------------------------------------------------------------------------
// Figure 9
// --------------------------------------------------------------------------

/// Figure 9: end-to-end duration of the heterogeneous sort (chunked sort +
/// CPU merging) and the reported PARADIS runtimes, for inputs of 4–64 GB of
/// 64-bit/64-bit pairs.
pub fn fig09_paradis(dist: ReportedDistribution, scale: &PaperScale) -> Vec<Series> {
    let sorter = HeterogeneousSorter::with_defaults();
    let workload = match dist {
        ReportedDistribution::Uniform => Distribution::Uniform,
        ReportedDistribution::Zipf075 => Distribution::paper_zipf(1_000_000),
    };
    // Per-GB on-GPU sorting time from a scaled 4 GB-equivalent run.
    let per_chunk_n = 250_000_000u64; // 4 GB of 64+64 pairs
    let chunk_run = run_hrs_scaled(
        &workload,
        KeyKind::U64,
        8,
        per_chunk_n,
        Optimizations::all_on(),
        scale,
    );
    let gpu_secs_per_gb = chunk_run.total.secs() / 4.0;

    let mut chunked = Series::new("chunked sort");
    let mut merging = Series::new("CPU merging");
    let mut total = Series::new("heterogeneous sort");
    let mut paradis = Series::new("PARADIS (reported)");
    let merge_model = CpuMergeModel::default();

    for &gb in &baselines::reference::FIGURE_9_SIZES_GB {
        let input_bytes = gb * 1_000_000_000;
        let chunks = (gb as usize / 4).max(1);
        let merge_time = merge_model.merge_seconds(input_bytes, chunks);
        let breakdown = sorter.simulate_end_to_end(
            input_bytes,
            chunks,
            SimTime::from_secs(gpu_secs_per_gb * gb as f64),
            SimTime::from_secs(merge_time),
        );
        let label = format!("{gb} GB");
        chunked.push(label.clone(), breakdown.chunked_sort.secs());
        merging.push(label.clone(), breakdown.cpu_merge.secs());
        total.push(label.clone(), breakdown.end_to_end.secs());
        if let Some(p) = paradis_reported_seconds(gb, dist) {
            paradis.push(label, p);
        }
    }
    vec![chunked, merging, total, paradis]
}

// --------------------------------------------------------------------------
// Figure 10
// --------------------------------------------------------------------------

/// Figure 10 (Appendix A): the hybrid radix sort against CUB 1.5.1,
/// CUB 1.6.4 and GPU Multisplit.
pub fn fig10_latest(shape: Shape, scale: &PaperScale) -> Vec<Series> {
    let n = shape.paper_n_2gb();
    let kb = shape.kind().bits();
    let vb = shape.value_bytes();
    let ladder = entropy_ladder(shape);
    let hrs = hrs_series(shape, Optimizations::all_on(), scale);
    let cub_old = GpuLsdRadixSort::cub_1_5_1().simulate(n, kb, vb);
    let cub_new = GpuLsdRadixSort::cub_1_6_4().simulate(n, kb, vb);
    let multisplit = MultisplitRadixSort::paper().simulate(n, kb, vb);
    vec![
        hrs,
        flat_series("CUB, v. 1.5.1", &ladder, cub_old.sorting_rate.gb_per_s()),
        flat_series("CUB, v. 1.6.4", &ladder, cub_new.sorting_rate.gb_per_s()),
        flat_series("Multisplit", &ladder, multisplit.sorting_rate.gb_per_s()),
    ]
}

// --------------------------------------------------------------------------
// Figures 11–14 (ablation)
// --------------------------------------------------------------------------

/// Figures 11–14: relative performance change (in percent, negative =
/// slower) when disabling individual optimisations, over the entropy
/// ladder of the given shape.
pub fn ablation(
    shape: Shape,
    scale: &PaperScale,
    levels: &[(String, EntropyLevel)],
) -> Vec<Series> {
    let baseline: Vec<(String, f64)> = levels
        .iter()
        .map(|(label, level)| {
            let run = run_hrs_scaled(
                &Distribution::Entropy(*level),
                shape.kind(),
                shape.value_bytes(),
                shape.paper_n_2gb(),
                Optimizations::all_on(),
                scale,
            );
            (label.clone(), run.rate_gb_s)
        })
        .collect();

    let mut out = Vec::new();
    for (name, opts) in Optimizations::ablation_variants() {
        let mut series = Series::new(name);
        for ((label, level), (_, base_rate)) in levels.iter().zip(baseline.iter()) {
            let run = run_hrs_scaled(
                &Distribution::Entropy(*level),
                shape.kind(),
                shape.value_bytes(),
                shape.paper_n_2gb(),
                opts,
                scale,
            );
            let change = (run.rate_gb_s - base_rate) / base_rate * 100.0;
            series.push(label.clone(), change);
        }
        out.push(series);
    }
    out
}

// --------------------------------------------------------------------------
// Tables 2 and 3, analytical model
// --------------------------------------------------------------------------

/// Table 2: the worked 16-key example (4-bit keys, 2-bit digits, ∂̂ = 3),
/// rendered as a step-by-step trace.
pub fn table2_trace() -> String {
    let mut cfg = SortConfig::keys_32();
    cfg.digit_bits = 2;
    cfg.local_sort_threshold = 3;
    cfg.merge_threshold = 3;
    cfg.keys_per_block = 16;
    cfg.local_sort_classes = SortConfig::default_classes(3);
    let sorter = HybridRadixSorter::new(cfg);
    // The keys of Table 2 in base-4 notation: 31 12 01 23 12 22 12 00 11 10
    // 10 31 03 13 12 03.
    let mut keys: Vec<u8> = vec![
        0b1101, 0b0110, 0b0001, 0b1011, 0b0110, 0b1010, 0b0110, 0b0000, 0b0101, 0b0100, 0b0100,
        0b1101, 0b0011, 0b0111, 0b0110, 0b0011,
    ];
    let (_, trace) = sorter.sort_traced(&mut keys, 64);
    let mut out = trace.render(4, 2);
    out.push_str(&format!(
        "final: {}\n",
        keys.iter()
            .map(|&k| format!("{}{}", (k >> 2) & 3, k & 3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

/// Table 3: the default configurations.
pub fn table3_text() -> String {
    let rows = [
        ("32-bit keys", SortConfig::keys_32()),
        ("64-bit keys", SortConfig::keys_64()),
        ("32-bit/32-bit pairs", SortConfig::pairs_32_32()),
        ("64-bit/64-bit pairs", SortConfig::pairs_64_64()),
    ];
    let mut out =
        String::from("key/value size        |   KPB | threads | KPT |  local sort threshold\n");
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for (name, cfg) in rows {
        out.push_str(&format!(
            "{:<21} | {:>5} | {:>7} | {:>3} | {:>21}\n",
            name,
            cfg.keys_per_block,
            cfg.threads_per_block,
            cfg.keys_per_thread,
            cfg.local_sort_threshold
        ));
    }
    out
}

/// The Section 4.5 analytical-model report for the paper's example
/// configuration at several input sizes.
pub fn model_bounds_text() -> String {
    let mut out = String::new();
    for n in [1_000_000u64, 500_000_000, 2_000_000_000] {
        out.push_str(&AnalyticalModel::paper_example(n).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> PaperScale {
        PaperScale::fast()
    }

    #[test]
    fn shapes_cover_the_four_figures() {
        assert_eq!(Shape::all().len(), 4);
        assert_eq!(Shape::Keys32.paper_n_2gb(), 500_000_000);
        assert_eq!(Shape::Pairs64.paper_n_2gb(), 125_000_000);
        assert_eq!(Shape::Pairs32.value_bytes(), 4);
        assert!(Shape::Keys64.describe().contains("64-bit"));
    }

    #[test]
    fn fig02_shows_the_contention_drop_and_its_mitigation() {
        let series = fig02_histogram_utilisation();
        assert_eq!(series.len(), 2);
        let atomics = &series[0];
        let reduction = &series[1];
        // Atomics only: ~50 % at q = 1, near 100 % at q ≥ 3.
        assert!(atomics.get("1").unwrap() < 60.0);
        assert!(atomics.get("4").unwrap() > 95.0);
        // Thread reduction: high everywhere.
        assert!(reduction.min() > 85.0);
    }

    #[test]
    fn fig06_shape_for_64bit_keys() {
        let series = fig06_on_gpu(Shape::Keys64, &scale());
        let hrs = &series[0];
        let cub = &series[1];
        // HRS beats CUB everywhere; the uniform end shows the largest gap.
        for (x, y) in &hrs.points {
            assert!(*y > cub.get(x).unwrap(), "entropy {x}");
        }
        let uniform_speedup = hrs.get("64.00").unwrap() / cub.get("64.00").unwrap();
        let constant_speedup = hrs.get("0.00").unwrap() / cub.get("0.00").unwrap();
        assert!(uniform_speedup > 2.0, "uniform speed-up {uniform_speedup}");
        assert!(
            constant_speedup > 1.3 && constant_speedup < 2.2,
            "constant speed-up {constant_speedup}"
        );
        assert!(uniform_speedup > constant_speedup);
    }

    #[test]
    fn table2_trace_matches_the_paper_walkthrough() {
        let t = table2_trace();
        assert!(t.contains("histogram  4 8 2 2"), "{t}");
        assert!(t.contains("prefix-sum 0 4 12 14"), "{t}");
        assert!(
            t.contains("final: 00 01 03 03 10 10 11 12 12 12 12 13 22 23 31 31"),
            "{t}"
        );
    }

    #[test]
    fn table3_lists_all_configurations() {
        let t = table3_text();
        for needle in ["6912", "3456", "2304", "9216", "4224", "5760", "3840"] {
            assert!(t.contains(needle), "missing {needle} in\n{t}");
        }
    }

    #[test]
    fn model_bounds_text_reports_overhead() {
        let t = model_bounds_text();
        assert!(t.contains("bookkeeping overhead"));
    }

    #[test]
    fn fig09_series_are_monotone_in_input_size() {
        let series = fig09_paradis(ReportedDistribution::Uniform, &scale());
        for s in &series {
            let ys: Vec<f64> = s.points.iter().map(|(_, y)| *y).collect();
            for w in ys.windows(2) {
                assert!(w[1] >= w[0] * 0.95, "{}: {:?}", s.label, ys);
            }
        }
    }
}
