//! Random sync-graph generation for schedule-space exploration.
//!
//! Derives a whole randomized multi-stage pipeline from one `u64` seed: a
//! stage DAG (a chain plus random skip edges) over the paper's kernel
//! archetypes (GeMM / Conv2D / SoftmaxDropout / elementwise cost shapes),
//! with a random [`SyncPolicy`](cusync::SyncPolicy) per producer stage
//! ([`TileSync`] / [`RowSync`] / [`Conv2DTileSync`]; sinks get
//! [`NoSync`]), random occupancies, and random device placement on a
//! multi-GPU node (so dependence edges randomly cross the interconnect).
//! A random subset of the non-sink skip edges is promoted to
//! [`SyncMechanism::Pdl`] — launch-gated, grid-semaphore-parked edges —
//! so exploration also covers the coarse mechanism; chain edges stay
//! fine-grained so the starved regime keeps its deterministic wedge.
//!
//! Every stage's kernel is *functional*: each thread block, after its
//! policy waits, reads the exact producer elements its waits cover, and
//! writes `f(stage, tile) + inputs` into its own poisoned output buffer.
//! Correct synchronization therefore makes the final memory a pure
//! function of the graph — independent of the schedule — while any
//! under-synchronization surfaces as NaN-poison races and
//! schedule-dependent fingerprints, which
//! [`cusync_sim::explore`] flags.
//!
//! Two hardware sizings per graph:
//!
//! - [`RandomGraph::safe_cluster`] gives every device one SM per resident
//!   thread block (stages + wait-kernels). Any set of blocks then always
//!   places (at most `blocks - 1` SMs can be non-empty when one more
//!   block arrives, so some SM is whole-free), which makes termination
//!   **schedule-independent by construction** — the provable regime for
//!   the deadlock-freedom half of exploration.
//! - [`RandomGraph::starved_cluster`] shrinks the sink consumer's device
//!   until the consumer's grid alone covers it. With wait-kernels
//!   disabled and an adversarial consumer-first launch order, the
//!   consumer's busy-waiting blocks wedge that device — the Section
//!   III-B deadlock, reproduced on demand for the classified
//!   [`DeadlockReport`](cusync_sim::DeadlockReport) half.

use std::sync::Arc;

use cusync::{
    Conv2DTileSync, CuStage, NoSync, OptFlags, PolicyRef, RowSync, StageId, SyncGraph,
    SyncMechanism, TileSync,
};
use cusync_sim::{
    BlockBody, BlockCtx, BufferId, ClusterConfig, CompiledPipeline, DType, Dim3, FnKernel, Gpu,
    GpuConfig, KernelSource, Op, SimError, SimTime, Step, MAX_OCCUPANCY, SM_CAPACITY_UNITS,
};

/// A SplitMix64 stream over the simulator's shared mixer
/// ([`cusync_sim::splitmix64`]): one seed, one graph.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let out = cusync_sim::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The four kernel cost shapes stages are styled after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// Tiled GeMM: big read, one fused load+math main step.
    Gemm,
    /// Implicit-GeMM Conv2D: read plus several main steps (the R·S fold).
    Conv2D,
    /// Softmax + dropout: read, two compute passes.
    SoftmaxDropout,
    /// Elementwise epilogue: read, small compute.
    Elementwise,
}

impl Archetype {
    /// Timing ops of one thread block of this archetype (excluding the
    /// shared functional read/write and sync ops).
    fn body_ops(self, rng: &mut Rng) -> Vec<Op> {
        match self {
            Archetype::Gemm => vec![
                Op::read(rng.range(32, 128) * 1024),
                Op::main_step(rng.range(16, 64) * 1024, rng.range(20_000, 80_000)),
                Op::Syncthreads,
            ],
            Archetype::Conv2D => vec![
                Op::read(rng.range(16, 64) * 1024),
                Op::main_step(rng.range(8, 32) * 1024, rng.range(10_000, 40_000)),
                Op::main_step(rng.range(8, 32) * 1024, rng.range(10_000, 40_000)),
                Op::Syncthreads,
            ],
            Archetype::SoftmaxDropout => vec![
                Op::read(rng.range(8, 32) * 1024),
                Op::compute(rng.range(10_000, 30_000)),
                Op::compute(rng.range(5_000, 20_000)),
            ],
            Archetype::Elementwise => {
                vec![
                    Op::read(rng.range(4, 16) * 1024),
                    Op::compute(rng.range(2_000, 10_000)),
                ]
            }
        }
    }
}

/// One edge of the generated DAG.
#[derive(Debug, Clone, Copy)]
pub struct EdgeDesc {
    /// Producer stage index.
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// `Some(Pdl)` for skip edges randomly promoted to Programmatic
    /// Dependent Launch; `None` for classic fine edges following the
    /// producer's policy. Chain edges and edges into the sink stay fine so
    /// the starved regime keeps its Section III-B wedge: a PDL gate on the
    /// sink would defer its dispatch until the producer is fully resident,
    /// which un-wedges the under-provisioned device by construction.
    pub mechanism: Option<SyncMechanism>,
}

/// One generated stage.
#[derive(Debug, Clone)]
pub struct StageDesc {
    /// Stage name (`"s<i>.<archetype>"`).
    pub name: String,
    /// Cost shape.
    pub archetype: Archetype,
    /// Synchronization policy name ("TileSync", ..., "NoSync" for sinks).
    pub policy_name: String,
    /// Thread blocks per SM.
    pub occupancy: u32,
    /// Device the stage (stream + semaphores) is placed on.
    pub device: u32,
    policy: PolicyRef,
    /// `R*S` fold factor when the policy is [`Conv2DTileSync`].
    conv_fold: Option<u32>,
}

/// A seed-derived random sync graph: the description is pure data, and
/// [`RandomGraph::build`] materializes it on any [`ClusterConfig`], so one
/// graph can be compiled for full-size and downscaled hardware.
#[derive(Debug, Clone)]
pub struct RandomGraph {
    /// The seed the graph was derived from.
    pub seed: u64,
    /// Shared tile grid of every stage.
    pub grid: Dim3,
    /// Stages in topological (chain) order.
    pub stages: Vec<StageDesc>,
    /// Dependence edges (chain plus random skips).
    pub edges: Vec<EdgeDesc>,
    /// Number of devices stages are placed across.
    pub devices: u32,
}

/// Generates the graph for `seed`: 3–5 stages on a shared 2-dimensional
/// tile grid, chained, with extra skip edges, placed across `devices`
/// devices. The final (sink) stage always shares a device with its chain
/// producer so the starved sizing can wedge them against each other.
pub fn generate(seed: u64, devices: u32) -> RandomGraph {
    assert!(devices >= 1, "need at least one device");
    let mut rng = Rng(seed);
    let grid = Dim3::new(rng.range(2, 5) as u32, rng.range(2, 4) as u32, 1);
    let num_stages = rng.range(3, 6) as usize;
    let archetypes = [
        Archetype::Gemm,
        Archetype::Conv2D,
        Archetype::SoftmaxDropout,
        Archetype::Elementwise,
    ];
    let mut stages: Vec<StageDesc> = Vec::with_capacity(num_stages);
    for i in 0..num_stages {
        let archetype = archetypes[rng.range(0, archetypes.len() as u64) as usize];
        let is_sink = i == num_stages - 1;
        let (policy, policy_name, conv_fold): (PolicyRef, String, Option<u32>) = if is_sink {
            (Arc::new(NoSync), "NoSync".to_owned(), None)
        } else {
            match rng.range(0, 3) {
                0 => (Arc::new(TileSync), "TileSync".to_owned(), None),
                1 => (Arc::new(RowSync), "RowSync".to_owned(), None),
                _ => {
                    // Fold factor ≤ grid.x so the folded tile is in range
                    // without relying on the policy's clamp.
                    let rs = rng.range(1, 1 + grid.x.min(3) as u64) as u32;
                    (
                        Arc::new(Conv2DTileSync::new(rs)),
                        "Conv2DTileSync".to_owned(),
                        Some(rs),
                    )
                }
            }
        };
        let device = if is_sink {
            // Pinned to the chain producer's device (set below).
            0
        } else {
            rng.range(0, devices as u64) as u32
        };
        stages.push(StageDesc {
            name: format!("s{i}.{}", format!("{archetype:?}").to_lowercase()),
            archetype,
            policy_name,
            occupancy: rng.range(1, 3) as u32,
            device,
            policy,
            conv_fold,
        });
    }
    let sink_device = stages[num_stages - 2].device;
    stages[num_stages - 1].device = sink_device;
    let mut edges: Vec<EdgeDesc> = (1..num_stages)
        .map(|i| EdgeDesc {
            producer: i - 1,
            consumer: i,
            mechanism: None,
        })
        .collect();
    for consumer in 2..num_stages {
        for producer in 0..consumer - 1 {
            if rng.range(0, 3) == 0 {
                edges.push(EdgeDesc {
                    producer,
                    consumer,
                    mechanism: None,
                });
            }
        }
    }
    // Second pass (after the structural draws, so the stage/edge layout of
    // a seed is unchanged by the mechanism axis): promote a random subset
    // of non-sink skip edges to PDL. Chain edges and sink edges stay fine
    // — see `EdgeDesc::mechanism`.
    for edge in &mut edges {
        let is_skip = edge.consumer > edge.producer + 1;
        if is_skip && edge.consumer < num_stages - 1 && rng.range(0, 2) == 0 {
            edge.mechanism = Some(SyncMechanism::Pdl);
        }
    }
    RandomGraph {
        seed,
        grid,
        stages,
        edges,
        devices,
    }
}

impl RandomGraph {
    /// Names of the stages with at least one outgoing PDL edge — the
    /// producers whose one-element `"{name}.grid"` semaphores PDL
    /// consumers park on. Empty when no skip edge was promoted.
    pub fn pdl_producer_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .edges
            .iter()
            .filter(|e| e.mechanism == Some(SyncMechanism::Pdl))
            .map(|e| self.stages[e.producer].name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    fn quiet_gpu(sms: u32) -> GpuConfig {
        GpuConfig {
            num_sms: sms,
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::tesla_v100()
        }
    }

    /// Thread blocks homed on each device, wait-kernel blocks included.
    fn blocks_per_device(&self) -> Vec<u64> {
        let mut blocks = vec![0u64; self.devices as usize];
        for (i, stage) in self.stages.iter().enumerate() {
            blocks[stage.device as usize] += self.grid.count();
            // One wait-kernel block per stage with *fine* producers (PDL
            // edges are enforced by launch gates, not wait-kernels).
            if self
                .edges
                .iter()
                .any(|e| e.consumer == i && e.mechanism.is_none_or(SyncMechanism::is_fine))
            {
                blocks[stage.device as usize] += 1;
            }
        }
        blocks
    }

    /// The provably schedule-independent sizing: one SM per resident
    /// block on each device. With at most `blocks` resident and `blocks`
    /// SMs, a new block always finds a whole-free SM, so no issue order
    /// can starve a kernel of capacity — termination depends only on the
    /// DAG being acyclic.
    pub fn safe_cluster(&self) -> ClusterConfig {
        ClusterConfig {
            devices: self
                .blocks_per_device()
                .iter()
                .map(|&b| Self::quiet_gpu(b.max(1) as u32))
                .collect(),
            link_latency: SimTime::from_nanos(2_500),
            link_bytes_per_sec: 100e9,
        }
    }

    /// The under-provisioned sizing: the sink consumer's device gets only
    /// as many SMs as the consumer's own grid fills completely, so its
    /// spinning blocks can hold the whole device hostage. Other devices
    /// keep the safe sizing.
    pub fn starved_cluster(&self) -> ClusterConfig {
        let sink = self.stages.last().expect("non-empty graph");
        let sink_units = self.grid.count() * (SM_CAPACITY_UNITS / sink.occupancy) as u64;
        let sink_sms = (sink_units / SM_CAPACITY_UNITS as u64).max(1) as u32;
        let mut cluster = self.safe_cluster();
        cluster.devices[sink.device as usize] = Self::quiet_gpu(sink_sms);
        cluster
    }

    /// Materializes the graph on `cluster` and compiles it.
    ///
    /// With `wait_kernels` true, stages launch in topological order with
    /// the paper's wait-kernel protocol (Fig. 4a). With it false, the
    /// wait-kernels are elided **and** stages launch in reverse order —
    /// the adversarial cross-stream schedule the CUDA runtime permits —
    /// which on a starved cluster reproduces the Section III-B deadlock.
    ///
    /// # Errors
    ///
    /// Propagates graph binding or compilation failures.
    pub fn build(
        &self,
        cluster: &ClusterConfig,
        wait_kernels: bool,
    ) -> Result<CompiledPipeline, SimError> {
        let mut gpu = Gpu::new_cluster(cluster.clone());
        // One poisoned functional output buffer per stage.
        let buffers: Vec<BufferId> = self
            .stages
            .iter()
            .map(|s| {
                gpu.mem_mut().alloc_poisoned(
                    &format!("{}.out", s.name),
                    self.grid.count() as usize,
                    DType::F16,
                )
            })
            .collect();
        let mut graph = SyncGraph::new();
        let ids: Vec<StageId> = self
            .stages
            .iter()
            .map(|s| {
                let opts = OptFlags {
                    avoid_wait_kernel: !wait_kernels,
                    // Hardware tile order: the schedule axis under test is
                    // the block scheduler, not the tile-order counter.
                    avoid_custom_order: true,
                    ..OptFlags::NONE
                };
                graph.add_stage(
                    CuStage::new(&s.name, self.grid)
                        .policy_ref(Arc::clone(&s.policy))
                        .opts(opts)
                        .on_device(s.device),
                )
            })
            .collect();
        for edge in &self.edges {
            // Duplicate edges (chain + skip collisions) are impossible by
            // construction: skips only target consumer > producer + 1.
            let declared = match edge.mechanism {
                Some(m) => graph.dependency_via(
                    ids[edge.producer],
                    ids[edge.consumer],
                    buffers[edge.producer],
                    m,
                ),
                None => graph.dependency(
                    ids[edge.producer],
                    ids[edge.consumer],
                    buffers[edge.producer],
                ),
            };
            declared.map_err(|e| {
                cusync_sim::BuildError::invalid("RandomGraph", format!("dependency: {e}"))
            })?;
        }
        let bound = graph.bind(&mut gpu).map_err(|e| {
            cusync_sim::BuildError::invalid("RandomGraph", format!("bind failed: {e}"))
        })?;
        // Kernel bodies: per-block op lists + functional effects derived
        // from the same seed stream.
        let mut rng = Rng(self.seed ^ 0xC0FF_EE00_D15E_A5E5);
        let mut kernels: Vec<Arc<dyn KernelSource>> = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let runtime = bound.stage(ids[i]);
            let body_ops = stage.archetype.body_ops(&mut rng);
            let mut blocks: Vec<SynthBlock> = Vec::with_capacity(self.grid.count() as usize);
            for linear in 0..self.grid.count() {
                let tile = self.grid.delinear(linear);
                let mut ops: Vec<Op> = Vec::new();
                ops.extend(runtime.start_op(tile));
                let mut reads: Vec<(BufferId, usize)> = Vec::new();
                for edge in self.edges.iter().filter(|e| e.consumer == i) {
                    let producer = &self.stages[edge.producer];
                    if let Some(wait) = runtime.wait_op(buffers[edge.producer], tile) {
                        ops.push(wait);
                    }
                    // Read exactly the producer element the wait covers:
                    // same tile, or the folded channel tile for the conv
                    // policy.
                    let src = match producer.conv_fold {
                        Some(rs) => Dim3::new((tile.x / rs).min(self.grid.x - 1), tile.y, tile.z),
                        None => tile,
                    };
                    reads.push((buffers[edge.producer], self.grid.linear_of(src) as usize));
                }
                // The PDL preamble barrier: one grid-semaphore wait per
                // distinct PDL producer, once per block, after tile
                // acquisition and the fine waits, before the first read of
                // any PDL-synchronized buffer.
                ops.extend(runtime.grid_wait_ops());
                let read_at = ops.len();
                ops.extend(body_ops.iter().copied());
                ops.push(Op::write(rng.range(4, 32) * 1024));
                let write_at = ops.len();
                if let Some(post) = runtime.post_ops(tile) {
                    ops.extend(post);
                }
                let base = (i as f32) * 1000.0 + linear as f32 * 0.25;
                blocks.push(SynthBlock {
                    ops,
                    read_at,
                    write_at,
                    reads,
                    write: (buffers[i], linear as usize, base),
                });
            }
            let blocks = Arc::new(blocks);
            let grid = self.grid;
            kernels.push(Arc::new(FnKernel::new(
                &stage.name,
                grid,
                stage.occupancy.min(MAX_OCCUPANCY),
                move |idx| {
                    let spec = &blocks[grid.linear_of(idx) as usize];
                    Box::new(SynthBody {
                        ops: spec.ops.clone(),
                        pc: 0,
                        read_at: spec.read_at,
                        write_at: spec.write_at,
                        reads: spec.reads.clone(),
                        write: spec.write,
                        acc: 0.0,
                    }) as Box<dyn BlockBody>
                },
            )));
        }
        // Launch: protocol order with wait-kernels, adversarial reverse
        // order without.
        let order: Vec<usize> = if wait_kernels {
            (0..self.stages.len()).collect()
        } else {
            (0..self.stages.len()).rev().collect()
        };
        for i in order {
            bound
                .launch(&mut gpu, ids[i], Arc::clone(&kernels[i]))
                .map_err(|e| {
                    cusync_sim::BuildError::invalid("RandomGraph", format!("launch failed: {e}"))
                })?;
        }
        gpu.compile()
    }
}

/// Per-block recipe shared by the closure kernel.
struct SynthBlock {
    ops: Vec<Op>,
    read_at: usize,
    write_at: usize,
    reads: Vec<(BufferId, usize)>,
    write: (BufferId, usize, f32),
}

/// The functional block body: replays a fixed op list, reading producer
/// elements once its waits completed and writing its own output element
/// after its `GlobalWrite` op completed (per the [`BlockBody`]
/// effect-ordering contract the post ops come later still).
struct SynthBody {
    ops: Vec<Op>,
    pc: usize,
    read_at: usize,
    write_at: usize,
    reads: Vec<(BufferId, usize)>,
    write: (BufferId, usize, f32),
    acc: f32,
}

impl BlockBody for SynthBody {
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
        if self.pc == self.read_at {
            for &(buffer, index) in &self.reads {
                self.acc += ctx.mem.read(buffer, index, ctx.now);
            }
        }
        if self.pc == self.write_at {
            let (buffer, index, base) = self.write;
            ctx.mem.write(buffer, index, base + self.acc * 0.125);
        }
        match self.ops.get(self.pc) {
            Some(&op) => {
                self.pc += 1;
                Step::Op(op)
            }
            None => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(42, 2);
        let b = generate(42, 2);
        assert_eq!(a.grid, b.grid);
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(&b.stages) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.policy_name, y.policy_name);
            assert_eq!(x.device, y.device);
        }
        assert_ne!(generate(43, 2).seed, a.seed);
    }

    #[test]
    fn sinks_are_nosync_and_interiors_sync() {
        for seed in 0..20 {
            let g = generate(seed, 2);
            assert_eq!(g.stages.last().unwrap().policy_name, "NoSync");
            for s in &g.stages[..g.stages.len() - 1] {
                assert_ne!(s.policy_name, "NoSync", "seed {seed}");
            }
        }
    }

    #[test]
    fn safe_cluster_runs_clean_under_launch_order() {
        let g = generate(7, 2);
        let pipeline = g.build(&g.safe_cluster(), true).unwrap();
        let mut session = cusync_sim::Session::new();
        let report = session.run(&pipeline).unwrap();
        assert_eq!(report.races, 0, "synchronized graph must be race-free");
    }

    #[test]
    fn starved_cluster_without_wait_kernels_deadlocks() {
        let g = generate(7, 2);
        let pipeline = g.build(&g.starved_cluster(), false).unwrap();
        let mut session = cusync_sim::Session::new();
        let err = session.run(&pipeline).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "{err}");
    }

    #[test]
    fn pdl_edges_land_only_on_non_sink_skip_edges() {
        let mut promoted = 0usize;
        for seed in 0..64u64 {
            let g = generate(seed, 2);
            let sink = g.stages.len() - 1;
            for e in &g.edges {
                if e.mechanism == Some(SyncMechanism::Pdl) {
                    promoted += 1;
                    assert!(
                        e.consumer > e.producer + 1,
                        "seed {seed}: chain edge got PDL"
                    );
                    assert_ne!(e.consumer, sink, "seed {seed}: sink edge got PDL");
                } else {
                    assert_eq!(e.mechanism, None, "seed {seed}: unexpected mechanism");
                }
            }
        }
        assert!(promoted >= 1, "no seed in 0..64 promoted a skip edge");
    }

    #[test]
    fn graphs_with_pdl_edges_run_clean_on_the_safe_cluster() {
        let g = (0..64u64)
            .map(|seed| generate(seed, 2))
            .find(|g| !g.pdl_producer_names().is_empty())
            .expect("a seed with a PDL edge");
        let pipeline = g.build(&g.safe_cluster(), true).unwrap();
        let mut session = cusync_sim::Session::new();
        let report = session.run(&pipeline).unwrap();
        assert_eq!(report.races, 0, "PDL-synchronized graph must be race-free");
    }
}
