//! The warmed service-time pool: every (tenant, batch width) pipeline is
//! compiled once at server startup and executed once per device model on
//! a warmed [`Session`] to establish its deterministic service time. The
//! pool keeps that time, not the pipeline.
//!
//! This is where the serving layer cashes in the compile/execute split:
//! the simulator is exactly deterministic, so one measured
//! [`RunReport::total`](cusync_sim::RunReport) per (pipeline, device
//! model) *is* the service time of every future dispatch of that batch
//! shape — re-simulating a pipeline the session already ran would return
//! bit-identical numbers at real wall-clock cost. Every memo is keyed by
//! what the pipeline is compiled from, `(model, width, device-model
//! slot)`: two tenants serving the same [`ModelKind`] at the same width
//! share one compile and one measurement, and device models that differ
//! in any field get slots of their own, so each is priced by itself.
//!
//! A fault-free run needs only the numbers. The fault-mode probes
//! (degraded links, preemption checkpoints) need one full run of a shape
//! under the link pricing its batch was dispatched with. That run's
//! total is the degraded service time, and its kernel ends are the
//! batch's preemption checkpoints: the simulator is deterministic, so
//! every run of the shape finishes each kernel at the same instant. A
//! probe compiles the pipeline, runs it once, keeps the total and the
//! sorted ends, and drops the pipeline. Each `(shape, link scale)` is
//! probed at most once, and only if a fault reaches it.

use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, HashSet};

use cusync_sim::{ClusterConfig, LinkScale, Session, SimTime};

use crate::workload::TenantSpec;
use crate::zoo::ModelKind;

/// `(model, width, device-model slot)` — what one warmed pipeline is
/// compiled from, and so the identity of its measurements.
type ShapeKey = (ModelKind, u32, usize);

/// Context classes per shape in the dense decode-step memo: one per
/// power of two a `u32` class can be
/// ([`ModelKind::ctx_class`](crate::ModelKind::ctx_class) only emits
/// powers of two).
const CTX_CLASSES: usize = u32::BITS as usize;

/// One full run of a shape's pipeline under one link pricing.
#[derive(Debug)]
struct Probe {
    /// The run's [`RunReport::total`](cusync_sim::RunReport): the latest
    /// kernel end.
    total: SimTime,
    /// Every kernel's end, ascending: where the batch can checkpoint.
    ends: Box<[SimTime]>,
}

/// Lazily measured fault-mode quantities: service times under a degraded
/// link, checkpoint boundaries for preemption and decode-step times.
/// Interior-mutable so the dispatcher can consult them mid-run through a
/// shared pool; every value is a pure function of its key, so memoization
/// never perturbs determinism.
#[derive(Debug)]
struct LazyMeasure {
    session: Session,
    /// `(shape, link scale)` → one full run's total and kernel ends.
    /// Fault-free traffic fills none.
    probes: HashMap<(ShapeKey, Option<LinkScale>), Probe>,
    /// `(shape, context class)` → measured step service time: the cold
    /// path behind the dense step memo, through which tenants serving the
    /// same decode model share one measurement.
    step_times: HashMap<(ShapeKey, u32), SimTime>,
    /// `(shape, max decode length)` → padded static-width decode total
    /// (prefill + every step priced at the batch's final width).
    static_decode: HashMap<(ShapeKey, u32), SimTime>,
}

/// Measured service times for every (tenant, width, device) the
/// dispatcher can place.
///
/// [`ServicePool::build`] drops each pipeline once it is measured; the
/// fault-mode probes recompile and run the ones they need, then drop them
/// too. The per-dispatch lookups ([`ServicePool::service_time`] and
/// [`ServicePool::decode_step_time`]) are bounds-checked reads of dense
/// tables indexed by `(tenant, width − 1, device-model slot)`; only the
/// fault-mode probe and static-decode memos hash.
#[derive(Debug)]
pub struct ServicePool {
    cluster: ClusterConfig,
    /// Every warmed shape's service time, at [`ServicePool::shape_index`].
    shapes: Vec<SimTime>,
    /// Decode-step service times, measured lazily — the reachable
    /// (width, class) set depends on runtime batch formation, not on the
    /// spec alone — at `shape_index × CTX_CLASSES + log2(class)`.
    steps: RefCell<Vec<Option<SimTime>>>,
    /// Distinct-device-model slot of each device index (all zeros for the
    /// homogeneous built-in clusters).
    model_of_device: Vec<usize>,
    /// Number of distinct device models.
    slots: usize,
    /// The tenant models this pool was warmed for, in tenant order —
    /// [`Server::with_pool`](crate::Server::with_pool) checks a reused
    /// pool still matches its spec.
    models: Vec<ModelKind>,
    max_width: u32,
    lazy: RefCell<LazyMeasure>,
}

impl ServicePool {
    /// Compiles and measures every (tenant, width ≤ `max_width`) pipeline
    /// over the cluster's device models. One warmed [`Session`] per
    /// distinct device model executes each distinct pipeline exactly once;
    /// homogeneous clusters (all the built-in constructors) therefore
    /// measure each pipeline once in total. The pool keeps each measured
    /// time and drops the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `max_width` is zero or a pipeline deadlocks during its
    /// measurement run (zoo pipelines cannot).
    pub fn build(cluster: &ClusterConfig, tenants: &[TenantSpec], max_width: u32) -> Self {
        assert!(max_width > 0, "max_width must be positive");
        // One warmed session per *distinct* device model; device indexes
        // sharing a model share the compile and the measurement.
        let mut model_of_device: Vec<usize> = Vec::new();
        let mut distinct: Vec<(&cusync_sim::GpuConfig, Session)> = Vec::new();
        for device in &cluster.devices {
            let slot = distinct.iter().position(|(cfg, _)| *cfg == device);
            let slot = slot.unwrap_or_else(|| {
                distinct.push((device, Session::new()));
                distinct.len() - 1
            });
            model_of_device.push(slot);
        }
        let slots = distinct.len();
        let mut shapes = Vec::with_capacity(tenants.len() * max_width as usize * slots);
        // Tenants sharing a ModelKind share the compile and the
        // measurement. Each pipeline is dropped as soon as it is measured.
        let mut measured: HashMap<ShapeKey, SimTime> = HashMap::new();
        // Tenant-major, then width, then slot: the shape_index order.
        for tenant in tenants {
            for width in 1..=max_width {
                // Compile against each distinct device model (the zoo's
                // auto-tilings depend on the hardware).
                for (slot, (config, session)) in distinct.iter_mut().enumerate() {
                    let time = *measured
                        .entry((tenant.model, width, slot))
                        .or_insert_with(|| {
                            session
                                .run(&tenant.model.compile(config, width))
                                .expect("zoo pipeline deadlocked during warmup")
                                .total
                        });
                    shapes.push(time);
                }
            }
        }
        ServicePool {
            cluster: cluster.clone(),
            steps: RefCell::new(vec![None; shapes.len() * CTX_CLASSES]),
            shapes,
            model_of_device,
            slots,
            models: tenants.iter().map(|t| t.model).collect(),
            max_width,
            lazy: RefCell::new(LazyMeasure {
                session: Session::new(),
                probes: HashMap::new(),
                step_times: HashMap::new(),
                static_decode: HashMap::new(),
            }),
        }
    }

    /// Position of the `(tenant, width, device)` shape in the dense
    /// tables, with the key of its memos.
    ///
    /// # Panics
    ///
    /// Panics, naming the shape, if the tenant, width or device lies
    /// outside what [`ServicePool::build`] warmed. The check is what keeps
    /// a dense index from reading a neighbour's entry: without it
    /// `(t, max_width + 1)` would alias `(t + 1, 1)`.
    fn shape_index(&self, tenant: usize, width: u32, device: u32) -> (usize, ShapeKey) {
        match self.model_of_device.get(device as usize) {
            Some(&slot) if tenant < self.models.len() && (1..=self.max_width).contains(&width) => {
                let row = tenant * self.max_width as usize + (width - 1) as usize;
                (row * self.slots + slot, (self.models[tenant], width, slot))
            }
            _ => panic!(
                "shape (tenant {tenant}, width {width}, device {device}) was not warmed: \
                 the pool covers {} tenants, widths 1..={}, {} devices",
                self.models.len(),
                self.max_width,
                self.model_of_device.len()
            ),
        }
    }

    /// The cluster this pool serves.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Number of schedulable devices.
    pub fn num_devices(&self) -> usize {
        self.cluster.devices.len()
    }

    /// Largest warmed batch width.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// The tenant models this pool was warmed for, in tenant order.
    pub fn models(&self) -> &[ModelKind] {
        &self.models
    }

    /// Number of distinct pipelines the pool measured: one per distinct
    /// `(model, width, device-model slot)`.
    pub fn num_pipelines(&self) -> usize {
        let models: HashSet<ModelKind> = self.models.iter().copied().collect();
        models.len() * self.max_width as usize * self.slots
    }

    /// Deterministic service time of a `width`-request batch of `tenant`
    /// on `device`.
    ///
    /// # Panics
    ///
    /// Panics if the shape was not warmed or `device` is out of range.
    pub fn service_time(&self, tenant: usize, width: u32, device: u32) -> SimTime {
        self.shapes[self.shape_index(tenant, width, device).0]
    }

    /// Deterministic service time of the batch with `LinkSend` wire time
    /// scaled by `scale` — the pricing of dispatches after a
    /// [`LinkDegrade`](crate::LinkDegrade) fault. Measured lazily on
    /// first use (one extra simulator run per distinct shape × scale) and
    /// memoized; compute-only pipelines price identically to
    /// [`ServicePool::service_time`].
    ///
    /// # Panics
    ///
    /// Panics if the shape was not warmed or `device` is out of range.
    pub fn degraded_service_time(
        &self,
        tenant: usize,
        width: u32,
        device: u32,
        scale: LinkScale,
    ) -> SimTime {
        let (_, shape) = self.shape_index(tenant, width, device);
        self.probe(shape, device, Some(scale)).total
    }

    /// The full run of `shape` under link pricing `scale` (`device` is a
    /// device of the shape's slot). The first call compiles the pipeline,
    /// runs it on the lazy session and drops it; later calls read the
    /// memo.
    fn probe(&self, shape: ShapeKey, device: u32, scale: Option<LinkScale>) -> RefMut<'_, Probe> {
        RefMut::map(self.lazy.borrow_mut(), |lazy| {
            let LazyMeasure {
                session, probes, ..
            } = lazy;
            probes.entry((shape, scale)).or_insert_with(|| {
                let (model, width, _) = shape;
                let pipeline = model.compile(&self.cluster.devices[device as usize], width);
                session.set_link_scale(scale);
                let report = session
                    .run(&pipeline)
                    .expect("warmed pipeline deadlocked during a fault-mode probe");
                session.set_link_scale(None);
                let mut ends: Vec<SimTime> = report.kernels.iter().map(|k| k.end).collect();
                ends.sort_unstable();
                Probe {
                    total: report.total,
                    ends: ends.into(),
                }
            })
        })
    }

    /// Where a preempted batch of `tenant` at `width` on `device` can
    /// checkpoint, given it has already run for `elapsed`: the first
    /// kernel end at or after `elapsed` in a full run of the batch's
    /// pipeline under link pricing `scale` (the one it was dispatched
    /// under).
    ///
    /// Returns `Some((boundary, remaining))` — the batch can stop at
    /// `boundary` (≥ `elapsed`) with `remaining` service still owed — or
    /// `None` when no boundary is left before the batch finishes (not
    /// worth preempting). The run is made once per `(shape, scale)` and
    /// memoized; every `elapsed` reads its sorted kernel ends.
    ///
    /// # Panics
    ///
    /// Panics if the shape was not warmed or `device` is out of range.
    pub fn checkpoint(
        &self,
        tenant: usize,
        width: u32,
        device: u32,
        elapsed: SimTime,
        scale: Option<LinkScale>,
    ) -> Option<(SimTime, SimTime)> {
        let (_, shape) = self.shape_index(tenant, width, device);
        let probe = self.probe(shape, device, scale);
        let next = probe.ends.partition_point(|&end| end < elapsed);
        let boundary = *probe.ends.get(next).filter(|&&end| end < probe.total)?;
        Some((boundary, probe.total - boundary))
    }

    /// Deterministic service time of **one decode step** of a `width`-wide
    /// decode batch of `tenant` on `device`, at context class `ctx_class`
    /// (see [`ModelKind::ctx_class`](crate::ModelKind::ctx_class)).
    ///
    /// The step pipeline is compiled lazily on first use — the reachable
    /// (width, class) set depends on how batches form at runtime — then
    /// memoized by `(model, width, class, device-model slot)`, so tenants
    /// serving the same decode model share it. A class that is not a power
    /// of two (`ModelKind::ctx_class` never emits one) has no dense memo
    /// entry: every call looks it up in the hashed memo, and only the
    /// first compiles.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not a [`DecodeLlm`](crate::ModelKind) model,
    /// or the shape lies outside the warmed tenants, widths and devices.
    pub fn decode_step_time(
        &self,
        tenant: usize,
        width: u32,
        ctx_class: u32,
        device: u32,
    ) -> SimTime {
        let (at, shape) = self.shape_index(tenant, width, device);
        if !ctx_class.is_power_of_two() {
            return self.measure_step(shape, ctx_class, device);
        }
        let at = at * CTX_CLASSES + ctx_class.trailing_zeros() as usize;
        if let Some(total) = self.steps.borrow()[at] {
            return total;
        }
        let total = self.measure_step(shape, ctx_class, device);
        self.steps.borrow_mut()[at] = Some(total);
        total
    }

    /// Prices one decode step of `shape` at `ctx_class` through the
    /// hashed step memo, compiling the step pipeline only on a miss.
    fn measure_step(&self, shape: ShapeKey, ctx_class: u32, device: u32) -> SimTime {
        let key = (shape, ctx_class);
        let mut lazy = self.lazy.borrow_mut();
        if let Some(&total) = lazy.step_times.get(&key) {
            return total;
        }
        let (model, width, _) = shape;
        let pipeline =
            model.compile_decode_step(&self.cluster.devices[device as usize], width, ctx_class);
        let total = lazy
            .session
            .run(&pipeline)
            .expect("decode-step pipeline deadlocked during measurement")
            .total;
        lazy.step_times.insert(key, total);
        total
    }

    /// Padded static-width decode total: prefill at `width` plus every
    /// decode step up to `max_decode`, each priced at the full batch
    /// width and at the growing context. This is what a static
    /// (non-continuous) decode dispatch holds the device for — the whole
    /// batch rides until its **longest** member finishes.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not a decode model, the shape was not
    /// warmed, or `device` is out of range.
    pub fn static_decode_service(
        &self,
        tenant: usize,
        width: u32,
        max_decode: u32,
        device: u32,
    ) -> SimTime {
        let (_, shape) = self.shape_index(tenant, width, device);
        let key = (shape, max_decode);
        if let Some(&total) = self.lazy.borrow().static_decode.get(&key) {
            return total;
        }
        let prompt = match self.models[tenant] {
            ModelKind::DecodeLlm { prompt, .. } => prompt,
            ref model => panic!("{model} is not a decode model"),
        };
        let mut total = self.service_time(tenant, width, device);
        for step in 1..=max_decode {
            let class = ModelKind::ctx_class(prompt + step);
            total = total.saturating_add(self.decode_step_time(tenant, width, class, device));
        }
        self.lazy.borrow_mut().static_decode.insert(key, total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalModel, TenantClass};
    use cusync_sim::{CompiledPipeline, GpuConfig};

    fn toy_tenant(name: &str, blocks: u32) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            model: ModelKind::Toy {
                blocks,
                compute_cycles: 200_000,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps: 1000.0 },
            slo: SimTime::from_millis(1),
            queue_cap: 16,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        }
    }

    #[test]
    fn pool_memoizes_per_model_width_and_device() {
        let cluster = ClusterConfig::homogeneous(
            3,
            GpuConfig::toy(4),
            SimTime::from_nanos(500),
            ClusterConfig::NVLINK_BYTES_PER_SEC,
        );
        // Two tenants share a model, so they share its pipelines.
        let tenants = [toy_tenant("a", 2), toy_tenant("b", 2), toy_tenant("c", 5)];
        let pool = ServicePool::build(&cluster, &tenants, 3);
        assert_eq!(pool.num_devices(), 3);
        assert_eq!(
            pool.num_pipelines(),
            6,
            "tenants a and b must share all three widths"
        );
        for width in 1..=3 {
            assert_eq!(
                pool.service_time(0, width, 0),
                pool.service_time(1, width, 2),
                "shared model, homogeneous devices"
            );
        }
        // Wider batches take longer; a bigger model takes longer.
        assert!(pool.service_time(0, 3, 0) > pool.service_time(0, 1, 0));
        assert!(pool.service_time(2, 1, 0) > pool.service_time(0, 1, 0));
    }

    /// Two device models that share a name but not a clock get a slot
    /// each, so each device is priced by its own model, exactly as a pool
    /// of that model alone prices it.
    #[test]
    fn heterogeneous_devices_are_priced_by_their_own_model() {
        let fast = GpuConfig::toy(4);
        let slow = GpuConfig {
            clock_hz: fast.clock_hz / 4.0,
            ..fast.clone()
        };
        let cluster = ClusterConfig {
            devices: vec![fast.clone(), slow.clone()],
            ..ClusterConfig::single(fast.clone())
        };
        let tenants = [toy_tenant("a", 2)];
        let pool = ServicePool::build(&cluster, &tenants, 1);
        let alone = |config: GpuConfig| {
            ServicePool::build(&ClusterConfig::single(config), &tenants, 1).service_time(0, 1, 0)
        };
        assert_eq!(pool.service_time(0, 1, 0), alone(fast));
        assert_eq!(pool.service_time(0, 1, 1), alone(slow));
        assert!(pool.service_time(0, 1, 1) > pool.service_time(0, 1, 0));
        assert_eq!(pool.num_pipelines(), 2);
    }

    #[test]
    fn service_times_are_reproducible() {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let tenants = [toy_tenant("a", 3)];
        let first = ServicePool::build(&cluster, &tenants, 2);
        let second = ServicePool::build(&cluster, &tenants, 2);
        for width in 1..=2 {
            assert_eq!(
                first.service_time(0, width, 0),
                second.service_time(0, width, 0)
            );
        }
    }

    #[test]
    fn degraded_pricing_moves_remote_models_only() {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let mut remote = toy_tenant("remote", 3);
        remote.model = ModelKind::ToyRemote {
            blocks: 3,
            compute_cycles: 200_000,
            payload: 1 << 20,
        };
        let tenants = [toy_tenant("local", 3), remote];
        let pool = ServicePool::build(&cluster, &tenants, 1);
        let scale = LinkScale::times(8);
        assert_eq!(
            pool.degraded_service_time(0, 1, 0, scale),
            pool.service_time(0, 1, 0),
            "compute-only pipelines ignore the link"
        );
        assert!(
            pool.degraded_service_time(1, 1, 0, scale) > pool.service_time(1, 1, 0),
            "remote pipelines pay the scaled wire time"
        );
        // Memoized lookups return the same value.
        assert_eq!(
            pool.degraded_service_time(1, 1, 0, scale),
            pool.degraded_service_time(1, 1, 0, scale)
        );
    }

    /// The fault-mode probes recompile a shape's pipeline on first use.
    /// On every warmed shape of a two-model cluster, a memo miss and a
    /// memo hit must both price exactly like a fresh compile run on a
    /// fresh session, and checkpoint at that run's first kernel end at or
    /// after the elapsed time. Stream-K's GeMMs step as coroutines, the
    /// others replay static programs.
    #[test]
    fn lazy_probes_match_a_fresh_compile_on_a_fresh_session() {
        let cluster = ClusterConfig {
            devices: vec![GpuConfig::toy(4), GpuConfig::toy(2)],
            ..ClusterConfig::single(GpuConfig::toy(4))
        };
        let mut remote = toy_tenant("remote", 3);
        remote.model = ModelKind::ToyRemote {
            blocks: 3,
            compute_cycles: 200_000,
            payload: 1 << 20,
        };
        let mut streamk = toy_tenant("streamk", 1);
        streamk.model = ModelKind::StreamKGemm;
        let mut mlp = toy_tenant("mlp", 1);
        mlp.model = ModelKind::MlpGpt3;
        let tenants = [toy_tenant("local", 3), remote, streamk, mlp];
        let max_width = 2;
        let pool = ServicePool::build(&cluster, &tenants, max_width);
        assert!(pool.lazy.borrow().probes.is_empty(), "build probes none");
        let degraded = LinkScale::times(4);
        let fresh_run = |pipeline: &CompiledPipeline, scale| {
            let mut session = Session::new();
            session.set_link_scale(scale);
            session.run(pipeline).unwrap()
        };
        for (t, tenant) in tenants.iter().enumerate() {
            for width in 1..=max_width {
                for (d, gpu) in cluster.devices.iter().enumerate() {
                    let d32 = d as u32;
                    let pipeline = tenant.model.compile(gpu, width);
                    for scale in [None, Some(degraded)] {
                        let report = fresh_run(&pipeline, scale);
                        let total = report.total;
                        if let Some(scale) = scale {
                            for call in ["miss", "hit"] {
                                assert_eq!(
                                    pool.degraded_service_time(t, width, d32, scale),
                                    total,
                                    "degraded ({t}, {width}, {d}) on the {call}"
                                );
                            }
                        }
                        let one = SimTime::from_picos(1);
                        let mut horizons =
                            vec![one, SimTime::from_picos(total.as_picos() / 2), total];
                        for k in &report.kernels {
                            horizons.extend([k.end.saturating_sub(one), k.end, k.end + one]);
                        }
                        for elapsed in horizons {
                            let want = report
                                .kernels
                                .iter()
                                .map(|k| k.end)
                                .filter(|&end| end >= elapsed)
                                .min()
                                .filter(|&end| end < total)
                                .map(|end| (end, total - end));
                            for call in ["miss", "hit"] {
                                assert_eq!(
                                    pool.checkpoint(t, width, d32, elapsed, scale),
                                    want,
                                    "checkpoint ({t}, {width}, {d}) at {elapsed:?} \
                                     under {scale:?} on the {call}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // Remote shapes really are repriced, and each (shape, scale) was
        // run once for all its probes.
        assert!(pool.degraded_service_time(1, 2, 1, degraded) > pool.service_time(1, 2, 1));
        assert_eq!(pool.lazy.borrow().probes.len(), 2 * pool.num_pipelines());
    }

    #[test]
    fn checkpoint_finds_a_kernel_boundary_with_conserved_remaining() {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let tenants = [toy_tenant("a", 4)];
        let pool = ServicePool::build(&cluster, &tenants, 1);
        let total = pool.service_time(0, 1, 0);
        // Preempt almost immediately: the boundary is the producer
        // kernel's completion, strictly inside the run.
        let (boundary, remaining) = pool
            .checkpoint(0, 1, 0, SimTime::from_picos(1), None)
            .expect("a two-kernel pipeline has an interior boundary");
        assert!(boundary > SimTime::ZERO && boundary < total);
        assert_eq!(boundary + remaining, total, "checkpoint conserves service");
        // Asking past the end: nothing left to preempt.
        assert_eq!(pool.checkpoint(0, 1, 0, total, None), None);
        // Deterministic under memoization.
        assert_eq!(
            pool.checkpoint(0, 1, 0, SimTime::from_picos(1), None),
            Some((boundary, remaining))
        );
    }

    #[test]
    fn decode_memos_price_steps_and_static_totals() {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let mut tenant = toy_tenant("d", 2);
        tenant.model = ModelKind::DecodeLlm {
            prompt: 16,
            max_new: 8,
            step_cycles: 50_000,
            ctx_cycles: 500,
            kv_bytes_per_token: 1 << 10,
        };
        let tenants = [tenant];
        let pool = ServicePool::build(&cluster, &tenants, 2);
        let step = pool.decode_step_time(0, 1, 16, 0);
        assert!(step > SimTime::ZERO);
        assert_eq!(step, pool.decode_step_time(0, 1, 16, 0), "memoized");
        assert!(pool.decode_step_time(0, 2, 16, 0) >= step, "wider ≥");
        // The padded static total is exactly prefill plus every step at
        // the batch width, each at its context class.
        let mut expect = pool.service_time(0, 1, 0);
        for k in 1..=4u32 {
            expect += pool.decode_step_time(0, 1, ModelKind::ctx_class(16 + k), 0);
        }
        assert_eq!(pool.static_decode_service(0, 1, 4, 0), expect);
    }

    fn decode_tenant() -> TenantSpec {
        let mut tenant = toy_tenant("d", 2);
        tenant.model = ModelKind::DecodeLlm {
            prompt: 16,
            max_new: 8,
            step_cycles: 50_000,
            ctx_cycles: 500,
            kv_bytes_per_token: 1 << 10,
        };
        tenant
    }

    /// Two tenants, widths 1..=2, one device.
    fn two_tenant_pool() -> ServicePool {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        ServicePool::build(&cluster, &[toy_tenant("a", 2), decode_tenant()], 2)
    }

    #[test]
    #[should_panic(expected = "shape (tenant 0, width 3, device 0) was not warmed")]
    fn width_past_max_does_not_alias_the_next_tenant() {
        // Densely, (0, max_width + 1) sits where (1, 1) lives.
        two_tenant_pool().service_time(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 1, width 0, device 0) was not warmed")]
    fn width_zero_is_rejected() {
        two_tenant_pool().service_time(1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 2, width 1, device 0) was not warmed")]
    fn tenant_out_of_range_is_rejected() {
        two_tenant_pool().service_time(2, 1, 0);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 0, width 1, device 1) was not warmed")]
    fn device_out_of_range_is_rejected() {
        two_tenant_pool().checkpoint(0, 1, 1, SimTime::ZERO, None);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 1, width 1, device 1) was not warmed")]
    fn static_decode_device_out_of_range_is_rejected() {
        two_tenant_pool().static_decode_service(1, 1, 4, 1);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 2, width 1, device 0) was not warmed")]
    fn static_decode_tenant_out_of_range_is_rejected() {
        two_tenant_pool().static_decode_service(2, 1, 4, 0);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 1, width 3, device 0) was not warmed")]
    fn decode_width_past_max_is_rejected() {
        two_tenant_pool().decode_step_time(1, 3, 16, 0);
    }

    #[test]
    #[should_panic(expected = "shape (tenant 0, width 3, device 0) was not warmed")]
    fn degraded_pricing_checks_the_shape_too() {
        two_tenant_pool().degraded_service_time(0, 3, 0, LinkScale::times(2));
    }

    #[test]
    fn non_power_of_two_classes_take_the_hashed_path() {
        let pool = two_tenant_pool();
        let gpu = GpuConfig::toy(4);
        let fresh = |class| {
            Session::new()
                .run(&pool.models()[1].compile_decode_step(&gpu, 2, class))
                .unwrap()
                .total
        };
        assert_eq!(pool.decode_step_time(1, 2, 24, 0), fresh(24));
        assert!(
            pool.steps.borrow().iter().all(Option::is_none),
            "class 24 must not claim a dense entry"
        );
        // Class 16 and class 32 do, each in its own slot — 24 is priced
        // between its neighbours, not as either.
        assert_eq!(pool.decode_step_time(1, 2, 16, 0), fresh(16));
        assert_eq!(pool.decode_step_time(1, 2, 32, 0), fresh(32));
        assert_eq!(pool.steps.borrow().iter().flatten().count(), 2);
        assert!(fresh(16) < fresh(24) && fresh(24) < fresh(32));
        assert_eq!(pool.decode_step_time(1, 2, 24, 0), fresh(24), "repeatable");
    }

    /// Two tenants of one decode model share one hashed step-memo entry
    /// at a class the dense memo cannot hold: every call prices like a
    /// fresh run, and one measurement serves them all.
    #[test]
    fn tenants_of_one_decode_model_share_a_non_power_of_two_step() {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let pool = ServicePool::build(&cluster, &[decode_tenant(), decode_tenant()], 2);
        let fresh = Session::new()
            .run(&pool.models()[0].compile_decode_step(&GpuConfig::toy(4), 2, 24))
            .unwrap()
            .total;
        for tenant in [0, 1, 0, 1] {
            assert_eq!(
                pool.decode_step_time(tenant, 2, 24, 0),
                fresh,
                "tenant {tenant}"
            );
        }
        assert_eq!(pool.lazy.borrow().step_times.len(), 1);
    }

    #[test]
    fn heterogeneous_slots_price_every_shape_like_a_fresh_run() {
        // Devices 0 and 2 share a model; device 1 is a second model, so
        // the pool has two slots and device index != slot.
        let cluster = ClusterConfig {
            devices: vec![GpuConfig::toy(4), GpuConfig::toy(2), GpuConfig::toy(4)],
            ..ClusterConfig::single(GpuConfig::toy(4))
        };
        let tenants = [toy_tenant("a", 3), decode_tenant(), toy_tenant("c", 5)];
        let max_width = 3;
        let pool = ServicePool::build(&cluster, &tenants, max_width);
        let fresh = |pipeline: &CompiledPipeline| Session::new().run(pipeline).unwrap().total;
        let mut distinct = std::collections::HashSet::new();
        for (t, tenant) in tenants.iter().enumerate() {
            for width in 1..=max_width {
                for (d, gpu) in cluster.devices.iter().enumerate() {
                    let d32 = d as u32;
                    let pipeline = tenant.model.compile(gpu, width);
                    let want = fresh(&pipeline);
                    assert_eq!(
                        pool.service_time(t, width, d32),
                        want,
                        "({t}, {width}, {d})"
                    );
                    distinct.insert(want);
                    if t != 1 {
                        continue;
                    }
                    for class in [16, 32, 64] {
                        let want = fresh(&tenant.model.compile_decode_step(gpu, width, class));
                        assert_eq!(
                            pool.decode_step_time(t, width, class, d32),
                            want,
                            "step ({t}, {width}, {class}, {d})"
                        );
                    }
                }
            }
        }
        // The two device models really do price differently.
        assert_ne!(pool.service_time(2, 3, 0), pool.service_time(2, 3, 1));
        assert_eq!(pool.service_time(2, 3, 0), pool.service_time(2, 3, 2));
        assert!(distinct.len() > tenants.len() * max_width as usize);
    }
}
