//! GPU hardware model configuration.

use std::fmt;

use crate::time::SimTime;

/// Normalized per-SM capacity units.
///
/// An SM has `SM_CAPACITY_UNITS` units; a thread block of a kernel with
/// occupancy `o` consumes `SM_CAPACITY_UNITS / o` units. 720720 is divisible
/// by every integer in `1..=16`, so any documented occupancy divides exactly
/// and co-residency of blocks from different kernels is modeled without
/// rounding.
pub const SM_CAPACITY_UNITS: u32 = 720_720;

/// Maximum thread blocks resident per SM on the architectures we model.
pub const MAX_OCCUPANCY: u32 = 16;

/// Parameters of the simulated GPU.
///
/// All latency constants are in cycles of the SM clock unless stated
/// otherwise; see the field docs for the provenance of each default. Presets
/// for the GPUs used in the paper are provided by [`GpuConfig::tesla_v100`]
/// (the evaluation machine) and [`GpuConfig::ampere_a100`].
///
/// # Examples
///
/// ```
/// use cusync_sim::GpuConfig;
///
/// let gpu = GpuConfig::tesla_v100();
/// assert_eq!(gpu.num_sms, 80);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name of the modeled GPU.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SM clock frequency in Hz.
    pub clock_hz: f64,
    /// Peak f16 tensor-core throughput per SM, in FLOP per cycle.
    /// V100: 8 tensor cores x 64 FMA x 2 = 1024 FLOP/cycle/SM.
    pub tensor_flop_per_cycle_sm: f64,
    /// Peak f32 FMA throughput per SM, in FLOP per cycle (64 cores x 2).
    pub fma_flop_per_cycle_sm: f64,
    /// Aggregate DRAM bandwidth in bytes per second.
    pub dram_bytes_per_sec: f64,
    /// Total DRAM (HBM) capacity in bytes. Capacity, unlike bandwidth, is a
    /// hard resource: the serving layer carves per-device KV-cache block
    /// pools out of a share of it (see [`crate::kv::KvPool`]), and a decode
    /// step that cannot get blocks must evict or preempt.
    pub dram_capacity_bytes: u64,
    /// Fraction of peak compute throughput a well-tuned tiled kernel
    /// sustains. CUTLASS GeMMs reach 70-90% of peak on V100.
    pub compute_efficiency: f64,
    /// Global memory access latency in cycles (uncontended).
    pub global_latency_cycles: u64,
    /// Latency of a global-memory atomic add in cycles.
    pub atomic_latency_cycles: u64,
    /// Latency of one semaphore poll (volatile global read) in cycles.
    pub poll_latency_cycles: u64,
    /// Cost of `__threadfence_system` in cycles.
    pub fence_cycles: u64,
    /// Cost of `__syncthreads` in cycles.
    pub syncthreads_cycles: u64,
    /// How strongly a block speeds up when its SM is under-occupied, in
    /// `[0, 1]`. A block owns only its own warps, so a lone block on an SM
    /// tuned for occupancy 2 does not run 2x faster; it gains only reduced
    /// contention for tensor cores, L1 and scheduler slots. 0 = no effect,
    /// 1 = fully proportional speedup. Calibrated so partial-wave kernels
    /// run ~15-25% faster per block when alone, consistent with CUTLASS
    /// occupancy sweeps on V100.
    pub residency_boost: f64,
    /// Deterministic per-block duration variance, as a fraction. Real
    /// thread blocks of one kernel differ by several percent (DRAM bank
    /// conflicts, L2 hit rates, scheduler interleaving); each block's
    /// timed operations are scaled by a hash-derived factor in
    /// `[1-jitter, 1+jitter]`. This staggers a wave's completions — the
    /// stream of early-finished tiles that fine-grained synchronization
    /// consumes. 0 disables (lockstep waves).
    pub block_jitter: f64,
    /// Fraction of the GPU's SM capacity whose memory requests suffice to
    /// saturate DRAM. On V100 roughly half the SMs streaming already reach
    /// the 900 GB/s peak, so sparse grids get proportionally more
    /// bandwidth per block down to this floor.
    pub dram_saturation_fraction: f64,
    /// CPU-side cost of enqueueing one kernel launch; consecutive launches
    /// from the host are separated by at least this much.
    pub host_launch_gap: SimTime,
    /// GPU-side latency from a kernel becoming ready (its stream
    /// predecessors finished and the host has issued it) to its first thread
    /// block starting. Together with `host_launch_gap` this reproduces the
    /// ~6us kernel invocation time the paper measures (Section V-E1).
    pub kernel_dispatch_latency: SimTime,
}

impl GpuConfig {
    /// The NVIDIA Tesla V100 (SXM2 32GB) used throughout the paper's
    /// evaluation: 80 SMs at 1.38 GHz boost, 125 TFLOP/s f16 tensor peak,
    /// 900 GB/s HBM2.
    pub fn tesla_v100() -> Self {
        GpuConfig {
            name: "Tesla V100",
            num_sms: 80,
            clock_hz: 1.38e9,
            tensor_flop_per_cycle_sm: 1024.0,
            fma_flop_per_cycle_sm: 128.0,
            dram_bytes_per_sec: 900e9,
            dram_capacity_bytes: 32 << 30,
            compute_efficiency: 0.72,
            global_latency_cycles: 450,
            atomic_latency_cycles: 350,
            poll_latency_cycles: 250,
            fence_cycles: 400,
            syncthreads_cycles: 40,
            residency_boost: 0.35,
            block_jitter: 0.10,
            dram_saturation_fraction: 0.5,
            host_launch_gap: SimTime::from_micros(1.2),
            kernel_dispatch_latency: SimTime::from_micros(4.8),
        }
    }

    /// An NVIDIA A100 (SXM4 80GB): 108 SMs at 1.41 GHz, 312 TFLOP/s f16
    /// tensor peak, ~2 TB/s HBM2e. Used to check that policy rankings carry
    /// across architectures (the paper notes the best policy is
    /// architecture-dependent).
    pub fn ampere_a100() -> Self {
        GpuConfig {
            name: "A100",
            num_sms: 108,
            clock_hz: 1.41e9,
            tensor_flop_per_cycle_sm: 2048.0,
            fma_flop_per_cycle_sm: 128.0,
            dram_bytes_per_sec: 2.0e12,
            dram_capacity_bytes: 80 << 30,
            compute_efficiency: 0.70,
            global_latency_cycles: 500,
            atomic_latency_cycles: 350,
            poll_latency_cycles: 250,
            fence_cycles: 400,
            syncthreads_cycles: 40,
            residency_boost: 0.35,
            block_jitter: 0.10,
            dram_saturation_fraction: 0.5,
            host_launch_gap: SimTime::from_micros(1.2),
            kernel_dispatch_latency: SimTime::from_micros(4.0),
        }
    }

    /// A small 4-SM GPU matching the worked example of Fig. 1, handy for
    /// unit tests and for reproducing the paper's introduction figure.
    pub fn toy(num_sms: u32) -> Self {
        GpuConfig {
            name: "Toy",
            num_sms,
            ..GpuConfig::tesla_v100()
        }
    }

    /// Converts a cycle count into simulated time at this GPU's clock.
    pub fn cycles(&self, cycles: u64) -> SimTime {
        SimTime::from_cycles(cycles, self.clock_hz)
    }

    /// Time to move `bytes` through this GPU's DRAM, assuming each SM gets a
    /// uniform `1/num_sms` share of the aggregate bandwidth. A deliberate
    /// simplification: tiled ML kernels keep all SMs loaded, so the uniform
    /// share is the steady-state rate; modeling transient bandwidth
    /// redistribution would add noise without changing any ranking.
    pub fn mem_time_per_block(&self, bytes: u64) -> SimTime {
        self.mem_time(bytes, 1)
    }

    /// Per-block memory time at the given occupancy: the `occupancy`
    /// blocks resident on an SM contend for that SM's bandwidth share, so
    /// each sees `dram_bw / (num_sms * occupancy)`.
    pub fn mem_time(&self, bytes: u64, occupancy: u32) -> SimTime {
        let share = self.dram_bytes_per_sec / (self.num_sms as f64 * occupancy.max(1) as f64);
        SimTime::from_picos_rounded((bytes as f64) / share * 1e12)
    }

    /// Capacity units consumed per block of a kernel with `occupancy` blocks
    /// per SM.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is zero or exceeds [`MAX_OCCUPANCY`].
    pub fn units_per_block(&self, occupancy: u32) -> u32 {
        assert!(
            (1..=MAX_OCCUPANCY).contains(&occupancy),
            "occupancy {occupancy} outside 1..={MAX_OCCUPANCY}"
        );
        SM_CAPACITY_UNITS / occupancy
    }

    /// Thread blocks that fit in one full wave for a kernel with the given
    /// occupancy: `occupancy x num_sms` (Section II-A).
    pub fn blocks_per_wave(&self, occupancy: u32) -> u64 {
        occupancy as u64 * self.num_sms as u64
    }
}

/// A hardware-model field outside the range the simulator is defined on,
/// returned by [`GpuConfig::validate`] and [`ClusterConfig::validate`]
/// (and by compile and run as [`SimError::Config`](crate::SimError)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The field, prefixed `devices[i].` for a device of a cluster.
    pub field: String,
    /// The range the field must lie in.
    pub bound: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid hardware model: `{}` must be {}",
            self.field, self.bound
        )
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when `ok` holds, else the error naming `field` and `bound`.
fn check(ok: bool, field: &str, bound: &'static str) -> Result<(), ConfigError> {
    if ok {
        return Ok(());
    }
    Err(ConfigError {
        field: field.to_owned(),
        bound,
    })
}

/// Most SMs one device may have: far beyond any real GPU, and small enough
/// that the engine's per-SM arrays stay small.
const MAX_SMS: u32 = 1 << 16;

/// Longest fixed latency, as cycles or as a [`SimTime`]: a second at
/// 1 GHz. Sums of many such latencies stay far inside the picosecond
/// clock's range (about 213 days).
const MAX_LATENCY_CYCLES: u64 = 1_000_000_000;
const MAX_LATENCY: SimTime = SimTime::from_picos(1_000_000_000_000);
const MAX_LATENCY_BOUND: &str = "at most 1e9 cycles";
const MAX_TIME_BOUND: &str = "at most 1 s";

/// Clock range: a cycle is at least the clock's one-picosecond resolution
/// and at most a microsecond.
const CLOCK_HZ: (f64, f64) = (1e6, 1e12);
/// Bandwidth range (DRAM and links), bytes per second.
const BYTES_PER_SEC: (f64, f64) = (1e6, 1e15);

/// `lo <= v <= hi`, false for NaN.
fn within(v: f64, (lo, hi): (f64, f64)) -> bool {
    lo <= v && v <= hi
}

impl GpuConfig {
    /// Checks every field the timing model divides by, scales with or adds
    /// against the range it is defined on:
    ///
    /// - `num_sms` is in `[1, 65536]`;
    /// - `clock_hz` is in `[1e6, 1e12]`, and `dram_bytes_per_sec` in
    ///   `[1e6, 1e15]`;
    /// - `tensor_flop_per_cycle_sm` and `fma_flop_per_cycle_sm` are in
    ///   `[1, 1e6]`, and `compute_efficiency` in `[0.01, 1]`;
    /// - `block_jitter` is in `[0, 1)`, so every block's factor is
    ///   positive;
    /// - `residency_boost` is in `[0, 1]`, so residency scales lie in
    ///   `[0, 1]` and grow with occupancy;
    /// - `dram_saturation_fraction` is in `(0, 1]`;
    /// - the five latency fields in cycles are at most 1e9, and
    ///   `host_launch_gap` and `kernel_dispatch_latency` at most 1 s.
    ///
    /// The ranges are orders of magnitude wider than any real GPU. Out of
    /// them, a run would return a plausible wrong answer (a negative
    /// bandwidth makes DRAM free, a NaN clock prices nothing, a zero or
    /// vanishing clock, efficiency or bandwidth saturates every op),
    /// overflow the picosecond clock with one latency, or size the
    /// per-SM arrays from a hostile `num_sms`.
    ///
    /// # Errors
    ///
    /// The first field out of range, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(
            (1..=MAX_SMS).contains(&self.num_sms),
            "num_sms",
            "in [1, 65536]",
        )?;
        check(
            within(self.clock_hz, CLOCK_HZ),
            "clock_hz",
            "in [1e6, 1e12]",
        )?;
        for (v, field) in [
            (self.tensor_flop_per_cycle_sm, "tensor_flop_per_cycle_sm"),
            (self.fma_flop_per_cycle_sm, "fma_flop_per_cycle_sm"),
        ] {
            check(within(v, (1.0, 1e6)), field, "in [1, 1e6]")?;
        }
        check(
            within(self.dram_bytes_per_sec, BYTES_PER_SEC),
            "dram_bytes_per_sec",
            "in [1e6, 1e15]",
        )?;
        check(
            within(self.compute_efficiency, (0.01, 1.0)),
            "compute_efficiency",
            "in [0.01, 1]",
        )?;
        for (v, field) in [
            (self.global_latency_cycles, "global_latency_cycles"),
            (self.atomic_latency_cycles, "atomic_latency_cycles"),
            (self.poll_latency_cycles, "poll_latency_cycles"),
            (self.fence_cycles, "fence_cycles"),
            (self.syncthreads_cycles, "syncthreads_cycles"),
        ] {
            check(v <= MAX_LATENCY_CYCLES, field, MAX_LATENCY_BOUND)?;
        }
        check(
            within(self.residency_boost, (0.0, 1.0)),
            "residency_boost",
            "in [0, 1]",
        )?;
        check(
            (0.0..1.0).contains(&self.block_jitter),
            "block_jitter",
            "in [0, 1)",
        )?;
        check(
            self.dram_saturation_fraction > 0.0 && self.dram_saturation_fraction <= 1.0,
            "dram_saturation_fraction",
            "in (0, 1]",
        )?;
        check(
            self.host_launch_gap <= MAX_LATENCY,
            "host_launch_gap",
            MAX_TIME_BOUND,
        )?;
        check(
            self.kernel_dispatch_latency <= MAX_LATENCY,
            "kernel_dispatch_latency",
            MAX_TIME_BOUND,
        )
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::tesla_v100()
    }
}

/// Hardware model of a multi-GPU node: per-device [`GpuConfig`]s plus the
/// point-to-point interconnect (NVLink-class) linking them in a ring.
///
/// Every single-GPU workload is the 1-device special case
/// ([`ClusterConfig::single`]); the link parameters are then unused. The
/// interconnect model is deliberately simple and deterministic:
///
/// - [`Op::LinkSend`](crate::Op::LinkSend) charges pure **wire time**
///   (`bytes / link_bytes_per_sec`) on the sending block, unscaled by
///   SM residency or jitter — link bandwidth is not an SM resource.
/// - The **post → observe** edge of a cross-device semaphore pays
///   [`ClusterConfig::link_latency`] once: a post to an array homed on a
///   remote device becomes visible `link_latency` later than a local
///   post, and a wait polling a remote array pays `link_latency` on top
///   of the local poll cost. This is the qualitative asymmetry between
///   intra- and inter-device synchronization reported by Zhang et al.
///   ("A Study of Single and Multi-device Synchronization Methods in
///   Nvidia GPUs").
///
/// # Examples
///
/// ```
/// use cusync_sim::ClusterConfig;
///
/// let node = ClusterConfig::dgx_v100(4);
/// assert_eq!(node.num_devices(), 4);
/// assert_eq!(node.total_sms(), 4 * 80);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Hardware model of each device. Device ids are indexes into this
    /// vector; device 0 is the default target of the single-GPU API.
    pub devices: Vec<GpuConfig>,
    /// One-way propagation latency of the inter-device link, paid by the
    /// post→observe edge of every cross-device semaphore operation.
    pub link_latency: SimTime,
    /// Per-direction wire bandwidth of one inter-device link, bytes/s.
    pub link_bytes_per_sec: f64,
}

impl ClusterConfig {
    /// Peak NVLink ring bandwidth per GPU on a DGX-2 class machine.
    pub const NVLINK_BYTES_PER_SEC: f64 = 130e9;

    /// End-to-end cost of one cross-device signal hop on a DGX-class
    /// machine, in nanoseconds: what NCCL-style collectives observe per
    /// ring step. [`ClusterConfig::dgx_v100`] calibrates
    /// [`ClusterConfig::link_latency`] so that `fence + post + link +
    /// observe-poll` adds up to this figure.
    pub const DGX_HOP_NANOS: u64 = 4_000;

    /// A single-device cluster (the degenerate case every pre-cluster
    /// workload runs as).
    pub fn single(gpu: GpuConfig) -> Self {
        ClusterConfig {
            devices: vec![gpu],
            link_latency: SimTime::ZERO,
            link_bytes_per_sec: Self::NVLINK_BYTES_PER_SEC,
        }
    }

    /// `n` identical devices on a ring with the given link parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn homogeneous(
        n: u32,
        gpu: GpuConfig,
        link_latency: SimTime,
        link_bytes_per_sec: f64,
    ) -> Self {
        assert!(n > 0, "a cluster needs at least one device");
        ClusterConfig {
            devices: vec![gpu; n as usize],
            link_latency,
            link_bytes_per_sec,
        }
    }

    /// `n` copies of `gpu` on an NVLink ring, with the link latency
    /// calibrated so one signal hop (`fence + post + link + observe-poll`,
    /// at `gpu`'s clock) costs [`ClusterConfig::DGX_HOP_NANOS`] end to end
    /// — the per-hop constant of the analytic allreduce model this
    /// simulator's ring collective is regression-tested against.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn nvlink_ring(n: u32, gpu: GpuConfig) -> Self {
        // The measured hop constant includes the software signaling around
        // the link: the sender's fence + atomic post and the receiver's
        // observing poll. The raw propagation latency is what remains.
        // Each cost is rounded to picoseconds separately, exactly as the
        // engine charges them.
        let signaling = gpu.cycles(gpu.fence_cycles)
            + gpu.cycles(gpu.atomic_latency_cycles)
            + gpu.cycles(gpu.poll_latency_cycles);
        let link_latency = SimTime::from_nanos(Self::DGX_HOP_NANOS).saturating_sub(signaling);
        Self::homogeneous(n, gpu, link_latency, Self::NVLINK_BYTES_PER_SEC)
    }

    /// A DGX-class node of `n` V100s on an NVLink ring (see
    /// [`ClusterConfig::nvlink_ring`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn dgx_v100(n: u32) -> Self {
        Self::nvlink_ring(n, GpuConfig::tesla_v100())
    }

    /// Number of devices in the cluster.
    pub fn num_devices(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Hardware model of device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn device(&self, d: u32) -> &GpuConfig {
        &self.devices[d as usize]
    }

    /// Total SMs across all devices.
    pub fn total_sms(&self) -> u32 {
        self.devices.iter().map(|g| g.num_sms).sum()
    }

    /// Wire time of `bytes` over one link at
    /// [`ClusterConfig::link_bytes_per_sec`] (propagation latency not
    /// included; that is paid by the cross-device semaphore edge).
    pub fn link_wire_time(&self, bytes: u64) -> SimTime {
        SimTime::from_picos_rounded(bytes as f64 / self.link_bytes_per_sec * 1e12)
    }

    /// Checks the node: at least one device, `link_bytes_per_sec` in
    /// `[1e6, 1e15]`, `link_latency` at most 1 s, and every device per
    /// [`GpuConfig::validate`] (its fields named `devices[i].field`).
    ///
    /// # Errors
    ///
    /// The first field out of range, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(!self.devices.is_empty(), "devices", "non-empty")?;
        check(
            within(self.link_bytes_per_sec, BYTES_PER_SEC),
            "link_bytes_per_sec",
            "in [1e6, 1e15]",
        )?;
        check(
            self.link_latency <= MAX_LATENCY,
            "link_latency",
            MAX_TIME_BOUND,
        )?;
        for (i, gpu) in self.devices.iter().enumerate() {
            gpu.validate().map_err(|e| ConfigError {
                field: format!("devices[{i}].{}", e.field),
                ..e
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_units_divide_exactly_for_all_occupancies() {
        for occ in 1..=MAX_OCCUPANCY {
            assert_eq!(SM_CAPACITY_UNITS % occ, 0, "occupancy {occ}");
        }
    }

    /// `SimTime::from_cycles` and `GpuConfig::mem_time` price without
    /// libm `round`, bit-identically to the `.round() as u64` formulas
    /// they replaced, at every preset's clock and bandwidth.
    #[test]
    fn cycle_and_memory_pricing_match_libm_rounding() {
        let mut inputs = vec![0, 1, 2, 3, 1 << 20, (1 << 53) + 1, u64::MAX / 2, u64::MAX];
        let mut state = 0xC0FFEE_u64;
        for _ in 0..20_000 {
            state = crate::splitmix64(state);
            // Every magnitude from one to 2^64 - 1.
            inputs.push(state >> (state % 64));
        }
        for gpu in [
            GpuConfig::tesla_v100(),
            GpuConfig::ampere_a100(),
            GpuConfig::toy(4),
        ] {
            for &n in &inputs {
                let cycles = ((n as f64) * 1e12 / gpu.clock_hz).round() as u64;
                assert_eq!(gpu.cycles(n).as_picos(), cycles, "{} cycles={n}", gpu.name);
                for occupancy in [1, 3] {
                    let share = gpu.dram_bytes_per_sec / (gpu.num_sms as f64 * occupancy as f64);
                    let mem = ((n as f64) / share * 1e12).round() as u64;
                    assert_eq!(
                        gpu.mem_time(n, occupancy).as_picos(),
                        mem,
                        "{} bytes={n} occupancy={occupancy}",
                        gpu.name
                    );
                }
            }
        }
    }

    #[test]
    fn v100_preset_matches_paper_constants() {
        let gpu = GpuConfig::tesla_v100();
        assert_eq!(gpu.num_sms, 80);
        // 80 SMs x 16 blocks = 1280 blocks per wave at max occupancy,
        // the figure used in the Section V-D overhead experiment.
        assert_eq!(gpu.blocks_per_wave(MAX_OCCUPANCY), 1280);
    }

    #[test]
    fn units_per_block_scales_with_occupancy() {
        let gpu = GpuConfig::tesla_v100();
        assert_eq!(gpu.units_per_block(1), SM_CAPACITY_UNITS);
        assert_eq!(gpu.units_per_block(2) * 2, SM_CAPACITY_UNITS);
        assert_eq!(gpu.units_per_block(16) * 16, SM_CAPACITY_UNITS);
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn zero_occupancy_rejected() {
        GpuConfig::tesla_v100().units_per_block(0);
    }

    #[test]
    fn mem_time_uses_per_sm_share() {
        let gpu = GpuConfig::tesla_v100();
        // 900 GB/s over 80 SMs = 11.25 GB/s per block-share;
        // 11250 bytes should take exactly 1 us.
        let t = gpu.mem_time_per_block(11_250);
        assert!((t.as_micros() - 1.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn toy_gpu_has_requested_sms() {
        assert_eq!(GpuConfig::toy(4).num_sms, 4);
    }

    #[test]
    fn single_cluster_wraps_one_device() {
        let c = ClusterConfig::single(GpuConfig::toy(4));
        assert_eq!(c.num_devices(), 1);
        assert_eq!(c.total_sms(), 4);
        assert_eq!(c.link_latency, SimTime::ZERO);
    }

    #[test]
    fn dgx_hop_calibration_sums_to_the_measured_constant() {
        let c = ClusterConfig::dgx_v100(8);
        let gpu = c.device(0);
        let hop = c.link_latency
            + gpu.cycles(gpu.fence_cycles)
            + gpu.cycles(gpu.atomic_latency_cycles)
            + gpu.cycles(gpu.poll_latency_cycles);
        assert_eq!(
            hop,
            SimTime::from_nanos(ClusterConfig::DGX_HOP_NANOS),
            "signal hop must add up to the measured 4us"
        );
    }

    #[test]
    fn link_wire_time_scales_with_bytes() {
        let c = ClusterConfig::dgx_v100(2);
        // 130 GB/s: 130 bytes per nanosecond.
        assert_eq!(c.link_wire_time(130_000), SimTime::from_nanos(1_000));
        assert!(c.link_wire_time(1 << 20) > c.link_wire_time(1 << 10));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        ClusterConfig::homogeneous(0, GpuConfig::tesla_v100(), SimTime::ZERO, 1e9);
    }
}
