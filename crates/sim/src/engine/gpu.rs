//! The [`Gpu`] builder and the immutable [`PipelineDesc`] it builds, which
//! a [`CompiledPipeline`](crate::CompiledPipeline) freezes.

use std::fmt;
use std::sync::Arc;

use super::FixedCosts;
use crate::config::{ClusterConfig, GpuConfig};
use crate::dim::Dim3;
use crate::kernel::KernelSource;
use crate::mem::{BufferId, DType, GlobalMemory};
use crate::programs::Programs;
use crate::sem::{SemArrayId, SemTable};
use crate::time::SimTime;
use crate::trace::KernelId;

/// Identifier of a CUDA stream created on a [`Gpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(usize);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// One stream of the pipeline description: its device, priority and the
/// launch queue of kernel indexes (immutable after compile; the per-run
/// cursor lives in
/// [`RunState::stream_next`](super::RunState::stream_next)).
pub(crate) struct StreamDesc {
    pub(crate) device: u32,
    pub(crate) priority: i32,
    pub(crate) queue: Vec<usize>,
}

/// A launch prerequisite tying one kernel's dispatch to another kernel's
/// progress — the simulator's model of CUDA's Programmatic Dependent
/// Launch (PDL) family of grid-level ordering primitives.
///
/// A kernel with gates becomes dispatchable only once its stream reaches
/// it **and** every gate is satisfied. Until then it consumes no SM
/// capacity at all (unlike a busy-waiting block). Register gates with
/// [`Gpu::gate_launch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchGate {
    /// Satisfied when the target kernel's **final thread block becomes
    /// resident** on an SM — the hardware PDL trigger
    /// (`cudaTriggerProgrammaticLaunchCompletion`): the dependent grid
    /// launches while the producer's last wave is still executing, so its
    /// preamble overlaps the producer tail.
    AfterLaunchOf(KernelId),
    /// Satisfied when the target kernel has **fully completed** — stream
    /// serialization expressed across streams (the `StreamSerial` sync
    /// mechanism).
    AfterCompletionOf(KernelId),
}

impl LaunchGate {
    /// The kernel this gate observes.
    pub fn target(&self) -> KernelId {
        match *self {
            LaunchGate::AfterLaunchOf(k) | LaunchGate::AfterCompletionOf(k) => k,
        }
    }
}

/// The immutable, per-kernel half of what used to be `KernelState`:
/// everything fixed at launch/compile time.
pub(crate) struct KernelDesc {
    pub(crate) source: Arc<dyn KernelSource>,
    pub(crate) name: String,
    pub(crate) stream: usize,
    /// Device the owning stream lives on: this kernel's blocks only
    /// occupy that device's SMs.
    pub(crate) device: u32,
    pub(crate) priority: i32,
    pub(crate) host_ready: SimTime,
    pub(crate) grid: Dim3,
    pub(crate) total: u64,
    pub(crate) occupancy: u32,
    pub(crate) units: u32,
    /// Launch prerequisites beyond stream order (see [`LaunchGate`]).
    pub(crate) gates: Vec<LaunchGate>,
    /// Semaphore posts fired the instant this kernel's final block
    /// finishes (the producer half of a PDL edge; consumers park on the
    /// posted semaphore from their main body).
    pub(crate) completion_posts: Vec<(SemArrayId, u32)>,
}

/// The frozen description of a workload: hardware model, fixed op costs,
/// streams, and kernel registrations in launch order. Immutable after
/// compilation; every per-run mutable cell lives in
/// [`RunState`](super::RunState), and the pre-driven op programs live in
/// a (lazily built, then immutable) [`Programs`] at the compiled-pipeline
/// layer.
pub(crate) struct PipelineDesc {
    pub(crate) cluster: ClusterConfig,
    /// Fixed op costs per device, index-aligned with `cluster.devices`.
    pub(crate) costs: Vec<FixedCosts>,
    /// Global index of each device's first SM (devices own contiguous SM
    /// ranges of the flat per-SM arrays in
    /// [`RunState`](super::RunState)).
    pub(crate) sm_base: Vec<u32>,
    /// Owning device of each global SM index.
    pub(crate) device_of_sm: Vec<u32>,
    pub(crate) streams: Vec<StreamDesc>,
    pub(crate) kernels: Vec<KernelDesc>,
    /// Host-side launch cursor per device, only advanced while building.
    /// Each device's kernels are launched by its own host thread (the
    /// tensor-parallel ranks of a multi-GPU job), so launches to
    /// different devices do not serialize on one host queue.
    host_time: Vec<SimTime>,
    /// Reverse gate index: kernels gated [`LaunchGate::AfterLaunchOf`]
    /// each kernel, resolved once by [`PipelineDesc::finalize_gates`].
    pub(crate) launch_dependents: Vec<Vec<usize>>,
    /// Reverse gate index for [`LaunchGate::AfterCompletionOf`].
    pub(crate) completion_dependents: Vec<Vec<usize>>,
    finalized: bool,
}

impl PipelineDesc {
    pub(crate) fn new(cluster: ClusterConfig) -> Self {
        let costs = cluster.devices.iter().map(FixedCosts::of).collect();
        let mut sm_base = Vec::with_capacity(cluster.devices.len());
        let mut device_of_sm = Vec::new();
        let mut base = 0u32;
        // Compile and run reject an out-of-range model before reading the
        // SM map, so such a model gets none: a hostile `num_sms` must not
        // size an allocation.
        if cluster.validate().is_ok() {
            for (d, gpu) in cluster.devices.iter().enumerate() {
                sm_base.push(base);
                device_of_sm.extend(std::iter::repeat_n(d as u32, gpu.num_sms as usize));
                base += gpu.num_sms;
            }
        }
        let host_time = vec![SimTime::ZERO; cluster.devices.len()];
        PipelineDesc {
            cluster,
            costs,
            sm_base,
            device_of_sm,
            streams: Vec::new(),
            kernels: Vec::new(),
            host_time,
            launch_dependents: Vec::new(),
            completion_dependents: Vec::new(),
            finalized: false,
        }
    }

    /// Device 0's hardware model — what the single-GPU accessors
    /// ([`Gpu::config`], `CompiledPipeline::config`) report.
    pub(crate) fn primary_config(&self) -> &GpuConfig {
        &self.cluster.devices[0]
    }

    /// Hardware model of device `d`.
    pub(crate) fn device_config(&self, d: u32) -> &GpuConfig {
        self.cluster.device(d)
    }

    /// Resolves the reverse launch-gate indexes. Part of compilation;
    /// idempotent.
    pub(crate) fn finalize_gates(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let mut launch_dependents = vec![Vec::new(); self.kernels.len()];
        let mut completion_dependents = vec![Vec::new(); self.kernels.len()];
        for (k, kd) in self.kernels.iter().enumerate() {
            for gate in &kd.gates {
                match *gate {
                    LaunchGate::AfterLaunchOf(p) => launch_dependents[p.0].push(k),
                    LaunchGate::AfterCompletionOf(p) => completion_dependents[p.0].push(k),
                }
            }
        }
        self.launch_dependents = launch_dependents;
        self.completion_dependents = completion_dependents;
    }

    /// Collects the op program of every block of every kernel that emits
    /// them statically under `mem` (see [`Programs::collect`]).
    pub(crate) fn collect_programs(&self, mem: &GlobalMemory) -> Programs {
        Programs::collect(self.kernels.iter().map(|kd| &*kd.source), mem)
    }
}

/// The simulated GPU under construction: hardware model, streams, kernel
/// registrations, and the memory and semaphores kernels are built
/// against. `Gpu` only builds; it never runs. [`Gpu::compile`] consumes
/// it into an immutable [`CompiledPipeline`](crate::CompiledPipeline),
/// and a [`Session`](crate::Session) runs that any number of times, so
/// a built workload is compiled exactly once by construction.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cusync_sim::{Dim3, FixedKernel, Gpu, GpuConfig, Op, Session};
///
/// let mut gpu = Gpu::new(GpuConfig::toy(4));
/// let stream = gpu.create_stream(0);
/// gpu.launch(stream, Arc::new(FixedKernel::new(
///     "copy", Dim3::linear(6), 1, vec![Op::read(4096), Op::write(4096)],
/// )));
/// let report = Session::new().run(&gpu.compile()?)?;
/// assert_eq!(report.kernels[0].blocks, 6);
/// // 6 blocks on 4 SMs at occupancy 1 is 1.5 waves.
/// assert!((report.kernels[0].static_waves - 1.5).abs() < 1e-9);
/// # Ok::<(), cusync_sim::SimError>(())
/// ```
pub struct Gpu {
    pub(crate) desc: PipelineDesc,
    pub(crate) mem: GlobalMemory,
    pub(crate) sems: SemTable,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.desc.primary_config().name)
            .field("devices", &self.desc.cluster.devices.len())
            .field("kernels", &self.desc.kernels.len())
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Creates a single-GPU builder with the given hardware model.
    pub fn new(config: GpuConfig) -> Self {
        Gpu::new_cluster(ClusterConfig::single(config))
    }

    /// Creates a multi-device node from a [`ClusterConfig`]. Streams and
    /// semaphore arrays are placed on devices with
    /// [`Gpu::create_stream_on`] / [`Gpu::alloc_sems_on`]; the single-GPU
    /// methods target device 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cusync_sim::{ClusterConfig, Dim3, FixedKernel, Gpu, Op, Session};
    ///
    /// let mut node = Gpu::new_cluster(ClusterConfig::dgx_v100(2));
    /// let ready = node.alloc_sems_on(1, "ready", 1, 0);
    /// let s0 = node.create_stream_on(0, 0);
    /// let s1 = node.create_stream_on(1, 0);
    /// // Device 0 signals device 1 across the link.
    /// node.launch(s0, Arc::new(FixedKernel::new(
    ///     "producer", Dim3::linear(1), 1,
    ///     vec![Op::compute(10_000), Op::Fence, Op::post(ready, 0)],
    /// )));
    /// node.launch(s1, Arc::new(FixedKernel::new(
    ///     "consumer", Dim3::linear(1), 1,
    ///     vec![Op::wait(ready, 0, 1), Op::compute(10_000)],
    /// )));
    /// let report = Session::new().run(&node.compile()?)?;
    /// assert!(report.kernel("consumer").end > report.kernel("producer").end);
    /// # Ok::<(), cusync_sim::SimError>(())
    /// ```
    pub fn new_cluster(cluster: ClusterConfig) -> Self {
        Gpu {
            desc: PipelineDesc::new(cluster),
            mem: GlobalMemory::new(),
            sems: SemTable::new(),
        }
    }

    /// The hardware model in use (device 0's for a multi-device node; see
    /// [`Gpu::cluster`] for the full model).
    pub fn config(&self) -> &GpuConfig {
        self.desc.primary_config()
    }

    /// The full cluster model, including the interconnect.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.desc.cluster
    }

    /// Number of devices in this node.
    pub fn num_devices(&self) -> u32 {
        self.desc.cluster.num_devices()
    }

    /// Read access to global memory.
    pub fn mem(&self) -> &GlobalMemory {
        &self.mem
    }

    /// Mutable access to global memory (allocation, verification).
    pub fn mem_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }

    /// Read access to the semaphore table.
    pub fn sems(&self) -> &SemTable {
        &self.sems
    }

    /// Mutable access to the semaphore table (allocation, re-init).
    pub fn sems_mut(&mut self) -> &mut SemTable {
        &mut self.sems
    }

    /// Allocates a timing-only buffer (convenience for [`GlobalMemory::alloc`]).
    pub fn alloc(&mut self, name: &str, len: usize, dtype: DType) -> BufferId {
        self.mem_mut().alloc(name, len, dtype)
    }

    /// Allocates a semaphore array in device 0's memory (convenience for
    /// [`SemTable::alloc`]).
    pub fn alloc_sems(&mut self, name: &str, len: usize, init: u32) -> SemArrayId {
        self.sems_mut().alloc(name, len, init)
    }

    /// Allocates a semaphore array homed in `device`'s global memory.
    /// Posts and polls from other devices pay the cluster's link latency
    /// on the post→observe edge.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not a device of this node.
    pub fn alloc_sems_on(&mut self, device: u32, name: &str, len: usize, init: u32) -> SemArrayId {
        assert!(
            device < self.num_devices(),
            "device {device} outside 0..{}",
            self.num_devices()
        );
        self.sems_mut().alloc_on(name, len, init, device)
    }

    /// Creates a stream on device 0. Streams with numerically higher
    /// `priority` issue their thread blocks first when competing for SM
    /// slots.
    pub fn create_stream(&mut self, priority: i32) -> StreamId {
        self.create_stream_on(0, priority)
    }

    /// Creates a stream on `device`: kernels launched on it occupy that
    /// device's SMs only.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not a device of this node.
    pub fn create_stream_on(&mut self, device: u32, priority: i32) -> StreamId {
        assert!(
            device < self.num_devices(),
            "device {device} outside 0..{}",
            self.num_devices()
        );
        let id = StreamId(self.desc.streams.len());
        self.desc.streams.push(StreamDesc {
            device,
            priority,
            queue: Vec::new(),
        });
        id
    }

    /// Enqueues `kernel` on `stream`. Kernels on one stream execute in
    /// order; kernels on different streams may overlap. Each host launch is
    /// separated by [`GpuConfig::host_launch_gap`].
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or the stream id is foreign.
    pub fn launch(&mut self, stream: StreamId, kernel: Arc<dyn KernelSource>) -> KernelId {
        let grid = kernel.grid();
        assert!(
            grid.count() > 0,
            "kernel {} has an empty grid",
            kernel.name()
        );
        assert!(stream.0 < self.desc.streams.len(), "unknown {stream}");
        let device = self.desc.streams[stream.0].device;
        let device_cfg = self.desc.device_config(device);
        let occupancy = kernel.occupancy();
        let units = device_cfg.units_per_block(occupancy);
        let launch_gap = device_cfg.host_launch_gap;
        let id = self.desc.kernels.len();
        self.desc.kernels.push(KernelDesc {
            name: kernel.name().to_owned(),
            source: kernel,
            stream: stream.0,
            device,
            priority: self.desc.streams[stream.0].priority,
            host_ready: self.desc.host_time[device as usize],
            grid,
            total: grid.count(),
            occupancy,
            units,
            gates: Vec::new(),
            completion_posts: Vec::new(),
        });
        // Each device's host rank owns its own launch queue; launches to
        // different devices do not serialize against each other.
        let host = &mut self.desc.host_time[device as usize];
        *host = host.saturating_add(launch_gap);
        self.desc.streams[stream.0].queue.push(id);
        KernelId(id)
    }

    /// Gates `kernel`'s dispatch on another kernel's progress — the
    /// simulator's Programmatic Dependent Launch primitive. The kernel
    /// becomes dispatchable only once its stream reaches it **and** every
    /// registered gate is satisfied; see [`LaunchGate`] for the two
    /// trigger points. Gates may be registered any time before
    /// [`Gpu::compile`], in either launch order.
    ///
    /// # Panics
    ///
    /// Panics if either kernel id is unknown or the kernel gates on
    /// itself.
    pub fn gate_launch(&mut self, kernel: KernelId, gate: LaunchGate) {
        let n = self.desc.kernels.len();
        let target = gate.target();
        assert!(kernel.0 < n, "unknown kernel k{}", kernel.0);
        assert!(target.0 < n, "unknown gate target k{}", target.0);
        assert!(
            target != kernel,
            "kernel k{} cannot gate on itself",
            kernel.0
        );
        self.desc.kernels[kernel.0].gates.push(gate);
    }

    /// Registers a semaphore post fired the instant `kernel`'s final
    /// thread block finishes — the producer half of a PDL edge: consumers
    /// issue a plain semaphore wait (their "grid dependency sync") after
    /// their preamble and park until this post lands. Idempotent per
    /// `(kernel, table, index)` so shared producers register once.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id or semaphore array is unknown.
    pub fn post_on_completion(&mut self, kernel: KernelId, table: SemArrayId, index: u32) {
        assert!(
            kernel.0 < self.desc.kernels.len(),
            "unknown kernel k{}",
            kernel.0
        );
        assert!(
            (index as usize) < self.sems().len(table),
            "semaphore index {index} outside {table}"
        );
        let posts = &mut self.desc.kernels[kernel.0].completion_posts;
        if !posts.contains(&(table, index)) {
            posts.push((table, index));
        }
    }
}
