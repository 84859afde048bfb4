//! The set of simulated devices a sharded sort runs on.
//!
//! Each device couples a [`DeviceSpec`] (the analytical GPU model) with the
//! [`LinkSpec`] of its own host↔device interconnect.  Links are independent:
//! shard uploads to different devices overlap fully, which is what makes
//! range-partitioned multi-GPU sorting scale in the first place (Arkhipov et
//! al., *Sorting with GPUs: A Survey*).

use gpu_sim::{DeviceMemoryPlanner, DeviceSpec, LinkSpec};
use hrs_core::Executor;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How a pool device actually executes its shard sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceBackend {
    /// A simulated GPU: the shard is sorted functionally on the host and
    /// its kernel/transfer times come from the analytical model.
    SimulatedGpu,
    /// A real CPU socket: the shard is sorted by the threaded
    /// [`Executor`] backend with this many workers, and the *measured*
    /// wall-clock time enters the schedule instead of a simulated time.
    CpuSocket {
        /// Worker threads driving the shard's hybrid radix sort.
        workers: usize,
    },
}

impl DeviceBackend {
    /// The executor a shard sort on this backend should use.
    pub fn executor(&self) -> Executor {
        match *self {
            DeviceBackend::SimulatedGpu => Executor::Sequential,
            DeviceBackend::CpuSocket { workers } => Executor::with_workers(workers),
        }
    }

    /// Whether this backend's sort time is measured rather than simulated.
    pub fn is_measured(&self) -> bool {
        matches!(self, DeviceBackend::CpuSocket { .. })
    }
}

/// One device of the pool (a simulated GPU or a real CPU socket) and the
/// link that attaches it to the host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimDevice {
    /// Hardware model of the device.
    pub spec: DeviceSpec,
    /// The device's own host link.
    pub link: LinkSpec,
    /// How the device executes its shard.
    pub backend: DeviceBackend,
}

impl SimDevice {
    /// A device on a PCIe 3.0 ×16 link (the paper's configuration).
    pub fn on_pcie3(spec: DeviceSpec) -> Self {
        SimDevice {
            spec,
            link: LinkSpec::pcie_gen3_x16(),
            backend: DeviceBackend::SimulatedGpu,
        }
    }

    /// A device on an NVLink 2.0 link.
    pub fn on_nvlink2(spec: DeviceSpec) -> Self {
        SimDevice {
            spec,
            link: LinkSpec::nvlink2(),
            backend: DeviceBackend::SimulatedGpu,
        }
    }

    /// A CPU socket with `workers` hardware threads, sorted for real by
    /// the threaded executor.  Its "link" is a host-memory memcpy.
    pub fn cpu_socket(workers: usize) -> Self {
        SimDevice {
            spec: DeviceSpec::cpu_socket(workers),
            link: LinkSpec::host_memory(),
            backend: DeviceBackend::CpuSocket {
                workers: workers.max(1),
            },
        }
    }

    /// The weight used for capacity-proportional shard sizing: the device's
    /// achievable memory bandwidth.  The hybrid radix sort is bandwidth
    /// bound (Section 4 of the paper), so a device with twice the bandwidth
    /// finishes a shard of twice the size in the same simulated time.
    pub fn capacity_weight(&self) -> f64 {
        self.spec.effective_bandwidth.gb_per_s()
    }
}

/// Shared per-device liveness flags.  Clones of a pool share one set of
/// flags (an `Arc`), so a device the sharded engine marks dead mid-sort is
/// immediately dead for the service front end doing admission control with
/// its own clone of the pool.
#[derive(Debug, Clone, Default)]
struct PoolHealth {
    alive: Arc<Vec<AtomicBool>>,
}

impl PoolHealth {
    fn new(n: usize) -> Self {
        PoolHealth {
            alive: Arc::new((0..n).map(|_| AtomicBool::new(true)).collect()),
        }
    }

    /// A fresh flag set of size `n`, carrying over the state of existing
    /// flags (used when builder methods grow the pool).
    fn grown(&self, n: usize) -> Self {
        let alive = (0..n)
            .map(|i| AtomicBool::new(self.alive.get(i).is_none_or(|a| a.load(Ordering::Acquire))))
            .collect();
        PoolHealth {
            alive: Arc::new(alive),
        }
    }

    fn alive(&self, i: usize) -> bool {
        self.alive.get(i).is_none_or(|a| a.load(Ordering::Acquire))
    }

    fn mark_dead(&self, i: usize) {
        if let Some(flag) = self.alive.get(i) {
            flag.store(false, Ordering::Release);
        }
    }
}

/// An ordered collection of simulated devices.
///
/// The pool also tracks per-device *liveness*: [`DevicePool::mark_dead`]
/// removes a failed device from every capacity computation
/// ([`DevicePool::capacity_weights`], [`DevicePool::batch_budget_bytes`],
/// [`DevicePool::chunk_budget_bytes`]) without renumbering the survivors.
/// Liveness is shared across clones, so the engine that detects a failure
/// and the service that admits work against the pool always agree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DevicePool {
    devices: Vec<SimDevice>,
    health: PoolHealth,
}

/// Pools compare by configuration *and* current liveness: a pool with a
/// dead device is not equal to its fully-healthy twin.
impl PartialEq for DevicePool {
    fn eq(&self, other: &Self) -> bool {
        self.devices == other.devices
            && (0..self.devices.len()).all(|i| self.alive(i) == other.alive(i))
    }
}

impl DevicePool {
    /// A pool from explicit devices.  Panics on an empty list.
    pub fn new(devices: Vec<SimDevice>) -> Self {
        assert!(!devices.is_empty(), "device pool must not be empty");
        let health = PoolHealth::new(devices.len());
        DevicePool { devices, health }
    }

    /// `n` identical devices.
    pub fn homogeneous(n: usize, device: SimDevice) -> Self {
        assert!(n > 0, "device pool must not be empty");
        DevicePool {
            devices: vec![device; n],
            health: PoolHealth::new(n),
        }
    }

    /// `n` Titan X (Pascal) cards, each on its own PCIe 3.0 ×16 link — the
    /// paper's device, scaled out.
    pub fn titan_cluster(n: usize) -> Self {
        DevicePool::homogeneous(n, SimDevice::on_pcie3(DeviceSpec::titan_x_pascal()))
    }

    /// A deliberately heterogeneous demo pool: a Tesla P100 on NVLink, two
    /// Titan X (Pascal) on PCIe 3.0 and a GTX 980 on PCIe 3.0.  Shard sizes
    /// follow each device's bandwidth, so the P100 takes the largest range
    /// and the GTX 980 the smallest.
    pub fn mixed_demo() -> Self {
        DevicePool::new(vec![
            SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
            SimDevice::on_pcie3(DeviceSpec::titan_x_pascal()),
            SimDevice::on_pcie3(DeviceSpec::titan_x_pascal()),
            SimDevice::on_pcie3(DeviceSpec::gtx_980()),
        ])
    }

    /// Adds a device to the pool (builder style).
    pub fn with_device(mut self, device: SimDevice) -> Self {
        self.devices.push(device);
        self.health = self.health.grown(self.devices.len());
        self
    }

    /// Registers a CPU socket with `workers` hardware threads as an
    /// additional pool device.  Its shard is sorted *for real* by the
    /// threaded execution backend — this is what turns a GPU pool into a
    /// true hybrid CPU+GPU fleet.
    pub fn add_cpu_socket(self, workers: usize) -> Self {
        self.with_device(SimDevice::cpu_socket(workers))
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The devices in shard order.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// Whether device `i` is still alive (in-range unknown indices count as
    /// alive; out-of-range ones too, vacuously).
    pub fn alive(&self, i: usize) -> bool {
        self.health.alive(i)
    }

    /// Marks device `i` dead.  Takes `&self`: liveness is atomic and shared
    /// across clones, so the engine can fail a device mid-sort while the
    /// admission front end holds its own clone of the pool.  From this
    /// point the device's capacity weight is 0 and it no longer constrains
    /// (or contributes to) any budget.
    pub fn mark_dead(&self, i: usize) {
        self.health.mark_dead(i);
    }

    /// How many devices are still alive.
    pub fn alive_count(&self) -> usize {
        (0..self.devices.len()).filter(|&i| self.alive(i)).count()
    }

    /// Whether any device has been marked dead.
    pub fn any_dead(&self) -> bool {
        self.alive_count() < self.devices.len()
    }

    /// Whether the pool is *degraded*: more than half its devices are dead.
    /// Degraded pools shed load at admission instead of queueing work they
    /// can no longer serve at a useful rate.
    pub fn is_degraded(&self) -> bool {
        self.alive_count() * 2 < self.devices.len()
    }

    /// Indices of the devices still alive, in shard order.
    pub fn alive_indices(&self) -> Vec<usize> {
        (0..self.devices.len()).filter(|&i| self.alive(i)).collect()
    }

    /// Capacity weights of all devices, in shard order.  Dead devices weigh
    /// 0.0 — they take no shard and never bound a budget.
    pub fn capacity_weights(&self) -> Vec<f64> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                if self.alive(i) {
                    d.capacity_weight()
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Total device-memory capacity of the pool in bytes.
    pub fn total_device_memory(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.spec.device_memory_bytes)
            .sum()
    }

    /// The largest input payload (keys + values, in bytes) a single sharded
    /// sort over this pool can admit without any device exceeding its
    /// memory budget.
    ///
    /// Shard sizes are capacity-proportional, so device `i` receives a
    /// `weight_i / Σ weights` fraction of the input; its
    /// [`DeviceMemoryPlanner::sort_budget_bytes`] (double buffering plus
    /// bookkeeping overhead) bounds that fraction, and the pool-wide budget
    /// is the tightest such bound.  Admission control in the sort service
    /// layers an extra slack factor on top for splitter imbalance.
    ///
    /// A device with a non-positive weight receives (essentially) no data,
    /// so it never constrains the budget — but a pool with *no*
    /// positive-weight device can sort nothing, and its budget is 0.  (It
    /// used to resolve to `u64::MAX`, which made admission control wave
    /// arbitrarily large requests into a pool that could not run them.)
    pub fn batch_budget_bytes(&self) -> u64 {
        let weights = self.capacity_weights();
        let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
        if total <= 0.0 {
            return 0;
        }
        self.devices
            .iter()
            .zip(&weights)
            .map(|(d, &w)| {
                let budget = DeviceMemoryPlanner::for_device(&d.spec).sort_budget_bytes() as f64;
                if w <= 0.0 {
                    u64::MAX
                } else {
                    (budget * total / w) as u64
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// The tightest per-device out-of-core *chunk* budget in bytes: the
    /// largest chunk (keys + values) every device of the pool can stream
    /// through the Section 5 pipeline with the given slot strategy.  The
    /// out-of-core planner sizes per-shard chunk counts against each
    /// device's own budget; this pool-wide minimum is the conservative
    /// single number admission layers may reason with.
    /// Dead devices stream no chunks, so they are excluded from the
    /// minimum; a pool with no live device has a 0 budget.
    pub fn chunk_budget_bytes(&self, in_place_replacement: bool) -> u64 {
        self.devices
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.alive(i))
            .map(|(_, d)| {
                DeviceMemoryPlanner::for_device(&d.spec).chunk_budget_bytes(in_place_replacement)
            })
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_cluster_is_homogeneous() {
        let pool = DevicePool::titan_cluster(4);
        assert_eq!(pool.len(), 4);
        let w = pool.capacity_weights();
        assert!(w.windows(2).all(|x| (x[0] - x[1]).abs() < 1e-12));
    }

    #[test]
    fn mixed_pool_weights_follow_bandwidth() {
        let pool = DevicePool::mixed_demo();
        let w = pool.capacity_weights();
        // P100 > Titan X > GTX 980.
        assert!(w[0] > w[1]);
        assert_eq!(w[1], w[2]);
        assert!(w[2] > w[3]);
    }

    #[test]
    fn pool_memory_adds_up() {
        let pool = DevicePool::titan_cluster(2);
        assert_eq!(
            pool.total_device_memory(),
            2 * DeviceSpec::titan_x_pascal().device_memory_bytes
        );
    }

    #[test]
    fn batch_budget_follows_the_tightest_device() {
        // Homogeneous pools: the budget is the whole pool's aggregate
        // sortable payload (p devices, each holding its 1/p fraction).
        let one = DevicePool::titan_cluster(1).batch_budget_bytes();
        let four = DevicePool::titan_cluster(4).batch_budget_bytes();
        assert!(four > 3 * one && four < 5 * one, "{one} vs {four}");
        // A heterogeneous pool is bounded by whichever device's
        // budget-per-weight-fraction is smallest, never by the sum.
        let mixed = DevicePool::mixed_demo();
        assert!(mixed.batch_budget_bytes() < mixed.total_device_memory());
        assert!(mixed.batch_budget_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_pool_panics() {
        DevicePool::new(Vec::new());
    }

    fn zero_weight_device() -> SimDevice {
        let mut spec = DeviceSpec::titan_x_pascal();
        spec.effective_bandwidth = gpu_sim::Bandwidth::from_gb_per_s(0.0);
        SimDevice::on_pcie3(spec)
    }

    #[test]
    fn all_zero_weight_pool_has_zero_budget() {
        // Regression: a pool whose every device has a non-positive capacity
        // weight used to resolve to a u64::MAX budget (each device mapped
        // to "unconstrained" before the min), so admission control admitted
        // arbitrarily large requests into a pool that can sort nothing.
        let pool = DevicePool::new(vec![zero_weight_device(), zero_weight_device()]);
        assert_eq!(pool.batch_budget_bytes(), 0);
        assert_eq!(
            DevicePool::new(vec![zero_weight_device()]).batch_budget_bytes(),
            0
        );
    }

    #[test]
    fn zero_weight_device_does_not_unbound_a_mixed_pool() {
        // One dead device next to a healthy one: the budget must stay
        // finite and within the healthy pool's own bound.
        let healthy = DevicePool::titan_cluster(1).batch_budget_bytes();
        let mixed = DevicePool::titan_cluster(1)
            .with_device(zero_weight_device())
            .batch_budget_bytes();
        assert!(mixed > 0);
        assert!(mixed != u64::MAX);
        assert!(
            mixed <= healthy,
            "dead device raised the budget: {mixed} vs {healthy}"
        );
    }

    #[test]
    fn chunk_budget_is_the_tightest_device() {
        let pool = DevicePool::mixed_demo();
        let min_dev = pool
            .devices()
            .iter()
            .map(|d| DeviceMemoryPlanner::for_device(&d.spec).chunk_budget_bytes(true))
            .min()
            .unwrap();
        assert_eq!(pool.chunk_budget_bytes(true), min_dev);
        // In-place replacement (3 slots) always allows larger chunks.
        assert!(pool.chunk_budget_bytes(true) > pool.chunk_budget_bytes(false));
    }

    #[test]
    fn mark_dead_recomputes_weights_and_budgets_coherently() {
        let pool = DevicePool::mixed_demo();
        let healthy_batch = pool.batch_budget_bytes();
        let healthy_chunk = pool.chunk_budget_bytes(true);
        assert!(!pool.any_dead());
        assert_eq!(pool.alive_count(), 4);

        // Kill the GTX 980 — the weakest device, which was the tightest
        // chunk bound.  Its weight drops to zero and both budgets must be
        // recomputed over the three survivors only.
        pool.mark_dead(3);
        assert!(pool.any_dead());
        assert!(!pool.alive(3));
        assert_eq!(pool.alive_count(), 3);
        assert_eq!(pool.alive_indices(), vec![0, 1, 2]);
        assert_eq!(pool.capacity_weights()[3], 0.0);
        assert!(pool.capacity_weights()[0] > 0.0);
        let degraded_batch = pool.batch_budget_bytes();
        assert!(degraded_batch > 0 && degraded_batch != u64::MAX);
        assert!(
            pool.chunk_budget_bytes(true) >= healthy_chunk,
            "dead device must not constrain the chunk budget"
        );
        // Exactly the budget a pool of just the three survivors would
        // compute.  (It may legitimately *exceed* the healthy budget: the
        // GTX 980 was the tightest bound, and it is gone.)
        let survivors = DevicePool::new(pool.devices()[..3].to_vec());
        assert_eq!(degraded_batch, survivors.batch_budget_bytes());
        assert_eq!(
            pool.chunk_budget_bytes(true),
            survivors.chunk_budget_bytes(true)
        );
        assert!(healthy_batch > 0);

        // Kill everything: a pool with no live device can sort nothing.
        for i in 0..pool.len() {
            pool.mark_dead(i);
        }
        assert_eq!(pool.alive_count(), 0);
        assert_eq!(pool.batch_budget_bytes(), 0);
        assert_eq!(pool.chunk_budget_bytes(true), 0);
    }

    #[test]
    fn health_is_shared_across_clones_and_gates_degraded_mode() {
        let pool = DevicePool::titan_cluster(3);
        let clone = pool.clone();
        assert!(!pool.is_degraded());
        pool.mark_dead(0);
        // The clone observes the death immediately (shared flags)...
        assert!(!clone.alive(0));
        // ...but 2 of 3 alive is not yet degraded (more than half dead).
        assert!(!clone.is_degraded());
        clone.mark_dead(1);
        assert!(pool.is_degraded());
        assert_eq!(pool.alive_indices(), vec![2]);
        // Liveness participates in equality.
        assert_ne!(pool, DevicePool::titan_cluster(3));
        assert_eq!(pool, clone);
    }

    #[test]
    fn growing_a_pool_preserves_marked_deaths() {
        let pool = DevicePool::titan_cluster(2);
        pool.mark_dead(1);
        let grown = pool.with_device(SimDevice::cpu_socket(4));
        assert!(grown.alive(0));
        assert!(!grown.alive(1), "with_device must carry liveness over");
        assert!(grown.alive(2));
        assert_eq!(grown.capacity_weights()[1], 0.0);
    }

    #[test]
    fn cpu_socket_joins_the_pool_with_a_small_weight() {
        let pool = DevicePool::titan_cluster(2).add_cpu_socket(8);
        assert_eq!(pool.len(), 3);
        let cpu = &pool.devices()[2];
        assert_eq!(cpu.backend, DeviceBackend::CpuSocket { workers: 8 });
        assert!(cpu.backend.is_measured());
        assert_eq!(cpu.backend.executor().workers(), 8);
        // The socket's capacity weight must be far below a Titan X's.
        let w = pool.capacity_weights();
        assert!(w[2] < w[0] / 10.0, "cpu weight {} vs gpu {}", w[2], w[0]);
        // GPU backends stay simulated and sequential.
        assert_eq!(pool.devices()[0].backend, DeviceBackend::SimulatedGpu);
        assert!(!pool.devices()[0].backend.is_measured());
    }
}
