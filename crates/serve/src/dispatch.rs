//! The dispatcher: a deterministic discrete-event loop over virtual time
//! that admits, queues, batches and places requests onto the warmed
//! device pool.
//!
//! ## Event loop
//!
//! Eight event kinds drive the simulation, totally ordered by
//! `(virtual time, sequence number)` so identical specs replay identical
//! histories:
//!
//! - **Arrival** — a tenant's arrival process produced a request (or a
//!   rejected request's retry re-offered it). Open-loop arrivals schedule
//!   their successor; trace arrivals are pre-scheduled from the trace;
//!   closed-loop arrivals are scheduled by the completion (or final
//!   rejection) of the client's previous request.
//! - **DeviceFree** — a device finished its batch; its requests complete
//!   *now* (so recorded completion instants are non-decreasing by heap
//!   order).
//! - **DecodeStep** — a continuous-batching decode run finished one
//!   token step; finished sequences leave, queued requests join, the KV
//!   pool is grown (evicting or preempting under pressure), and the next
//!   step is priced and scheduled. See *Continuous batching* below.
//! - **WindowCheck** — a partial batch's window may have expired; re-run
//!   dispatch.
//! - **Preempt** — a previously scheduled cross-tenant preemption reached
//!   the victim batch's next kernel boundary: the batch is checkpointed
//!   and its remainder requeued as a residue.
//! - **DeviceDrop** / **PanicInject** / **LinkDegrade** — injected faults
//!   from a [`FaultPlan`] (see that type for semantics).
//!
//! `DeviceFree`, `DecodeStep` and `Preempt` events carry a per-device
//! **generation** stamped at dispatch; any event whose generation no
//! longer matches the device's (because a fault or preemption removed the
//! batch it referred to) is stale and ignored. That tombstoning is what
//! keeps the heap consistent when batches leave devices early.
//!
//! ## Continuous batching and the KV block pool
//!
//! A [`DecodeLlm`](crate::ModelKind::DecodeLlm) tenant's requests carry a
//! per-request decode length, drawn at admission from a dedicated seeded
//! stream. Under [`DecodePolicy::static_width`] they dispatch like any
//! other batch, padded to the longest member's full prefill + decode
//! (worst-case KV preallocated — the block pool is bypassed). Under
//! [`DecodePolicy::continuous_batching`] a dispatched decode run owns its
//! device across many single-token steps, each priced through the
//! fingerprint-keyed memo ([`ServicePool::decode_step_time`]); at every
//! step boundary finished sequences complete and release their KV pages,
//! and queued requests join. A joiner's prefill overlaps the residents'
//! decoding (chunked across step boundaries, the way fine-grained kernel
//! synchronization lets a prefill wave share the device with a decode
//! wave): it occupies its slot for the prefill's worth of steps before
//! producing its first token, instead of stalling the run for a full
//! prefill pipeline pass. Before each step,
//! every resident sequence grows its paged allocation in the device's
//! [`KvPool`]; under memory pressure retained pages are evicted first,
//! then the **youngest** co-resident sequence is preempted — its pages
//! discarded, its generated tokens counted as
//! [`recomputed_tokens`](TenantMetrics::recomputed_tokens), and the
//! request requeued to start over.
//!
//! Arrivals stop at the spec's horizon; the loop then drains every
//! admitted request, so `admitted = completed + shed` holds exactly at
//! the end ([`ServeReport::check`]) — with faults on, requests that
//! outlive every device are strand-shed with a typed count
//! ([`FaultOutcome::stranded`]), never silently dropped.
//!
//! ## Admission, shedding, batching
//!
//! - a full tenant queue rejects the arrival (bounded-queue backpressure);
//! - with [`ServeConfig::slo_admission`], an arrival whose *estimated*
//!   completion (queue-ahead batches × widest service time + its own solo
//!   service) already misses its deadline is rejected immediately —
//!   shedding at the door instead of after wasting queue residency;
//! - queued requests whose deadline passes before they dispatch are shed;
//! - a free device takes up to `max_batch` requests from the scheduled
//!   tenant's queue; a partial batch waits until its oldest member has
//!   queued for the batch window.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use cusync_obs::{Lane, Span, SpanKind};
use cusync_sim::{KvPool, KvStats, LinkScale, SimTime};

use crate::fault::FaultPlan;
use crate::metrics::{DeviceMetrics, FaultOutcome, MetricSample, ServeReport, TenantMetrics};
use crate::pool::ServicePool;
use crate::sched::{BatchPolicy, DecodePolicy, PreemptPolicy, RequestSched};
use crate::workload::{ArrivalModel, Rng, TenantClass, WorkloadSpec};
use crate::zoo::ModelKind;

/// One serving cell: a request scheduler × batching policy × admission
/// mode × preemption policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Which tenant a freed device serves next.
    pub sched: RequestSched,
    /// Dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Reject arrivals whose estimated completion already misses their
    /// deadline (see the module docs for the estimate).
    pub slo_admission: bool,
    /// Cross-tenant preemption (latency tenants checkpoint throughput
    /// batches at kernel boundaries); `None` disables it.
    pub preempt: Option<PreemptPolicy>,
    /// How decode-capable tenants execute their token-generation phase
    /// (ignored by tenants without a decode model).
    pub decode: DecodePolicy,
    /// Sample queue depth, KV occupancy and device busyness at this fixed
    /// virtual interval into [`ServeReport::samples`]. Passive: sampling
    /// never changes any other field of the report.
    pub sample_every: Option<SimTime>,
}

impl ServeConfig {
    /// FIFO, no batching, bounded-queue admission only, no preemption,
    /// static-width decode, no sampling — the baseline.
    pub fn baseline() -> Self {
        ServeConfig {
            sched: RequestSched::Fifo,
            batch: BatchPolicy::off(),
            slo_admission: false,
            preempt: None,
            decode: DecodePolicy::static_width(),
            sample_every: None,
        }
    }
}

/// An admitted request waiting in (or leaving) a tenant queue.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Admission-ordered identity, used only for observability (request
    /// lifecycle spans) — no scheduling decision reads it.
    id: u64,
    arrival: SimTime,
    deadline: SimTime,
    /// `Some(client)` for closed-loop tenants (the client to wake on
    /// completion/shedding), `None` for open-loop arrivals.
    client: Option<u32>,
    /// Decode tokens this request wants (0 for non-decode tenants),
    /// drawn once at admission — a preempted-and-recomputed request keeps
    /// its length.
    decode: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Arrival {
        tenant: usize,
        client: Option<u32>,
        /// 0 for the first offer; n for the n-th retry after rejection.
        attempt: u32,
    },
    DeviceFree {
        device: usize,
        gen: u64,
    },
    DecodeStep {
        device: usize,
        gen: u64,
    },
    WindowCheck,
    Preempt {
        device: usize,
        gen: u64,
    },
    DeviceDrop {
        device: usize,
    },
    PanicInject {
        device: usize,
    },
    LinkDegrade,
}

#[derive(Debug, Clone, Copy, Eq, PartialEq)]
struct Ev {
    time: SimTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first. The
        // (unique) sequence number breaks simultaneous events
        // deterministically in scheduling order.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A dispatched batch occupying a device until `DeviceFree` fires (or a
/// fault/preemption removes it early).
#[derive(Debug)]
struct InFlight {
    tenant: usize,
    requests: Vec<Request>,
    start: SimTime,
    service: SimTime,
    /// Link pricing the batch was dispatched under — the checkpoint probe
    /// must replay the same pricing.
    scale: Option<LinkScale>,
    /// Resumed residues are immune to further preemption (progress
    /// guarantee: every checkpointed batch finishes on its next device).
    resumed: bool,
}

/// The checkpointed remainder of a preempted batch, waiting to resume.
#[derive(Debug)]
struct Residue {
    requests: Vec<Request>,
    remaining: SimTime,
}

/// One sequence resident in a continuous-batching decode run.
#[derive(Debug)]
struct DecodeSeq {
    req: Request,
    /// Tokens generated so far (resets to 0 if preempted-and-recomputed).
    done: u32,
    /// This residency's [`KvPool`] owner id — fresh per residency, so a
    /// recomputed sequence never aliases its discarded pages.
    owner: u64,
    /// Step boundaries left before this residency finishes its chunked
    /// prefill and starts producing tokens (its prompt is processed on
    /// capacity overlapped with the residents' decode steps).
    prefill_left: u32,
}

/// A continuous-batching decode run occupying a device across many
/// single-token steps; the batch re-forms at every step boundary.
#[derive(Debug)]
struct DecodeRun {
    tenant: usize,
    /// Resident sequences, oldest residency first (joiners append).
    seqs: Vec<DecodeSeq>,
    step_start: SimTime,
    step_service: SimTime,
}

/// What a busy device is running.
#[derive(Debug)]
enum Running {
    /// A fixed-width batch (including padded static-width decode),
    /// completing at its `DeviceFree`.
    Batch(InFlight),
    /// A continuous-batching decode run, advancing at each `DecodeStep`.
    Decode(DecodeRun),
}

/// A warmed multi-tenant server: a [`WorkloadSpec`] plus the
/// [`ServicePool`] its tenants run on. Build once ([`Server::new`]
/// compiles and measures every batch shape), then [`Server::run`] any
/// number of serving cells against it — each run is a pure function of
/// `(spec, config)`.
#[derive(Debug)]
pub struct Server {
    spec: WorkloadSpec,
    pool: ServicePool,
}

impl Server {
    /// Compiles and warms every (tenant, width ≤ `max_width`) pipeline
    /// over `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] (no tenants, a
    /// zero queue capacity or weight, a non-finite or non-positive rate,
    /// a clientless closed loop, a degenerate decode model) or if
    /// `max_width` is zero.
    pub fn new(spec: WorkloadSpec, cluster: &cusync_sim::ClusterConfig, max_width: u32) -> Self {
        if let Err(err) = spec.validate() {
            panic!("{err}");
        }
        let pool = ServicePool::build(cluster, &spec.tenants, max_width);
        Server { spec, pool }
    }

    /// Reuses an already-warmed pool for a new spec over the **same
    /// tenant models** (e.g. the same mix at a different load level or
    /// seed) — warmup is the expensive part of [`Server::new`], and the
    /// service-time table depends only on the models, never on rates.
    ///
    /// # Panics
    ///
    /// Panics if the spec's tenant models differ from the pool's (order
    /// included), or on the same spec invariants as [`Server::new`].
    pub fn with_pool(spec: WorkloadSpec, pool: ServicePool) -> Self {
        if let Err(err) = spec.validate() {
            panic!("{err}");
        }
        let models: Vec<_> = spec.tenants.iter().map(|t| t.model).collect();
        assert_eq!(
            models.as_slice(),
            pool.models(),
            "pool was warmed for a different tenant mix"
        );
        Server { spec, pool }
    }

    /// Releases the warmed pool (to hand to [`Server::with_pool`]).
    pub fn into_pool(self) -> ServicePool {
        self.pool
    }

    /// The warmed pool (service-time table) this server places onto.
    pub fn pool(&self) -> &ServicePool {
        &self.pool
    }

    /// The workload this server replays.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Replays the workload under `config` and reports the outcome.
    /// Deterministic: same spec + config ⇒ bit-identical report.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch.max_batch` exceeds the warmed
    /// [`ServicePool::max_width`].
    pub fn run(&self, config: &ServeConfig) -> ServeReport {
        self.run_with_faults(config, &FaultPlan::none())
    }

    /// Replays the workload under `config` with `faults` injected.
    /// Exactly as deterministic as [`Server::run`]: same spec + config +
    /// plan ⇒ bit-identical report, in both engine modes.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch.max_batch` exceeds the warmed
    /// [`ServicePool::max_width`], or the plan names a device index
    /// outside the cluster.
    pub fn run_with_faults(&self, config: &ServeConfig, faults: &FaultPlan) -> ServeReport {
        self.checked_sim(config, faults).run().0
    }

    /// [`Server::run`] plus per-request lifecycle spans
    /// (admit → queue → dispatch → complete / shed / preempt), one
    /// [`Lane::Tenant`] lane per tenant, ready for
    /// [`cusync_obs::chrome_trace_json`]. Tracing is passive: the report
    /// is bit-identical to [`Server::run`]'s.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Server::run`].
    pub fn run_traced(&self, config: &ServeConfig) -> (ServeReport, Vec<Span>) {
        self.run_traced_with_faults(config, &FaultPlan::none())
    }

    /// [`Server::run_with_faults`] plus lifecycle spans; see
    /// [`Server::run_traced`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Server::run_with_faults`].
    pub fn run_traced_with_faults(
        &self,
        config: &ServeConfig,
        faults: &FaultPlan,
    ) -> (ServeReport, Vec<Span>) {
        let mut sim = self.checked_sim(config, faults);
        sim.tracer = Some(Tracer::new(&self.spec));
        sim.run()
    }

    fn checked_sim<'a>(&'a self, config: &'a ServeConfig, faults: &'a FaultPlan) -> Sim<'a> {
        assert!(
            config.batch.max_batch <= self.pool.max_width(),
            "batch width {} exceeds warmed max width {}",
            config.batch.max_batch,
            self.pool.max_width()
        );
        let devices = self.pool.num_devices();
        for drop in &faults.drops {
            assert!(drop.device < devices, "fault plan drops unknown device");
        }
        for panic in &faults.panics {
            assert!(panic.device < devices, "fault plan panics unknown device");
        }
        Sim::new(self, config, faults)
    }
}

/// Passive request-lifecycle recorder behind [`Server::run_traced`]:
/// turns admission, dispatch, completion, preemption and shedding
/// transitions into [`SpanKind::Phase`] spans on the owning tenant's
/// lane. It only ever *reads* the simulation — `run()` and `run_traced()`
/// produce bit-identical reports (asserted in `tests/serving.rs`).
struct Tracer {
    tenants: Vec<String>,
    spans: Vec<Span>,
    /// Open queue residency per request id: `(tenant, entered)`.
    queued: HashMap<u64, (usize, SimTime)>,
    /// Open service interval per request id: `(tenant, dispatched)`.
    running: HashMap<u64, (usize, SimTime)>,
}

impl Tracer {
    fn new(spec: &WorkloadSpec) -> Self {
        Tracer {
            tenants: spec.tenants.iter().map(|t| t.name.clone()).collect(),
            spans: Vec::new(),
            queued: HashMap::new(),
            running: HashMap::new(),
        }
    }

    fn span(&mut self, tenant: usize, name: String, start: SimTime, end: SimTime) {
        self.spans.push(Span {
            name,
            kind: SpanKind::Phase,
            lane: Lane::Tenant {
                tenant: self.tenants[tenant].clone(),
            },
            start,
            end: end.max(start),
        });
    }

    /// An arrival was refused at admission: a zero-width marker.
    fn reject(&mut self, tenant: usize, now: SimTime) {
        self.span(tenant, "reject".to_owned(), now, now);
    }

    /// A request entered its tenant queue.
    fn admit(&mut self, tenant: usize, id: u64, now: SimTime) {
        self.queued.insert(id, (tenant, now));
    }

    /// A request left the queue for a device (batch, decode seat, or
    /// residue resume).
    fn dispatch(&mut self, tenant: usize, id: u64, now: SimTime) {
        if let Some((t, start)) = self.queued.remove(&id) {
            self.span(t, format!("req{id} queued"), start, now);
        }
        self.running.insert(id, (tenant, now));
    }

    /// A dispatched request completed.
    fn complete(&mut self, id: u64, now: SimTime) {
        if let Some((t, start)) = self.running.remove(&id) {
            self.span(t, format!("req{id} run"), start, now);
        }
    }

    /// A dispatched request went back to its queue (checkpoint, fault
    /// evacuation, or decode KV preemption).
    fn requeue(&mut self, tenant: usize, id: u64, now: SimTime) {
        if let Some((t, start)) = self.running.remove(&id) {
            self.span(t, format!("req{id} preempted"), start, now);
        }
        self.queued.insert(id, (tenant, now));
    }

    /// A request was dropped — from the queue (deadline expiry, strand)
    /// or mid-decode (a lone sequence over its KV budget).
    fn shed(&mut self, id: u64, now: SimTime) {
        if let Some((t, start)) = self.running.remove(&id) {
            self.span(t, format!("req{id} shed"), start, now);
        } else if let Some((t, start)) = self.queued.remove(&id) {
            self.span(t, format!("req{id} shed"), start, now);
        }
    }

    /// Closes anything still open at the end of the run and returns the
    /// spans in recording order.
    fn finish(mut self, at: SimTime) -> Vec<Span> {
        let mut open: Vec<(u64, usize, SimTime, &'static str)> = self
            .queued
            .drain()
            .map(|(id, (t, start))| (id, t, start, "queued (open)"))
            .chain(
                self.running
                    .drain()
                    .map(|(id, (t, start))| (id, t, start, "run (open)")),
            )
            .collect();
        open.sort();
        for (id, tenant, start, what) in open {
            self.span(tenant, format!("req{id} {what}"), start, at);
        }
        self.spans
    }
}

/// Mutable state of one serve run.
struct Sim<'a> {
    server: &'a Server,
    config: &'a ServeConfig,
    faults: &'a FaultPlan,
    events: BinaryHeap<Ev>,
    seq: u64,
    queues: Vec<VecDeque<Request>>,
    /// Checkpointed batch remainders per tenant, resumed before fresh
    /// queue work (they are the oldest admitted requests).
    residues: Vec<VecDeque<Residue>>,
    /// Open-loop arrival streams (one per tenant; unused for closed-loop).
    open_rng: Vec<Rng>,
    /// Closed-loop think streams (one per client).
    client_rng: Vec<Vec<Rng>>,
    /// Retry backoff streams (one per tenant).
    retry_rng: Vec<Rng>,
    /// Decode-length streams (one per tenant; unused without a decode
    /// model).
    decode_rng: Vec<Rng>,
    /// Per-device paged KV block pools (zero-capacity without decode
    /// tenants).
    kv: Vec<KvPool>,
    /// Next KV owner id: fresh per sequence residency.
    owner_seq: u64,
    busy: Vec<Option<Running>>,
    /// Per-device liveness (false after a `DeviceDrop`).
    alive: Vec<bool>,
    /// Per-device batch generation: bumped at every dispatch and every
    /// early batch removal; `DeviceFree`/`Preempt` events carrying an
    /// older generation are stale and ignored.
    gens: Vec<u64>,
    /// A `Preempt` event is already in flight for this device.
    preempt_pending: Vec<bool>,
    /// `LinkSend` pricing in force for newly dispatched batches.
    link_scale: Option<LinkScale>,
    /// Weight-normalized service consumed, the WFQ virtual-time key:
    /// picoseconds of device time × (product of other tenants' weights is
    /// avoided by cross-multiplying at compare time).
    served: Vec<u128>,
    tenants: Vec<TenantMetrics>,
    devices: Vec<DeviceMetrics>,
    completions: Vec<SimTime>,
    devices_lost: u64,
    panics_injected: u64,
    stranded: u64,
    /// Admission-ordered request-id sequence (observability only).
    req_seq: u64,
    /// Virtual-time sampler output ([`ServeConfig::sample_every`]).
    samples: Vec<MetricSample>,
    /// Lifecycle recorder, present only under [`Server::run_traced`].
    tracer: Option<Tracer>,
}

impl<'a> Sim<'a> {
    fn new(server: &'a Server, config: &'a ServeConfig, faults: &'a FaultPlan) -> Self {
        let spec = &server.spec;
        let n = spec.tenants.len();
        let devices = server.pool.num_devices();
        let mut sim = Sim {
            server,
            config,
            faults,
            events: BinaryHeap::new(),
            seq: 0,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            residues: (0..n).map(|_| VecDeque::new()).collect(),
            open_rng: (0..n)
                .map(|t| Rng::for_client(spec.seed, t, u32::MAX))
                .collect(),
            client_rng: spec
                .tenants
                .iter()
                .enumerate()
                .map(|(t, tenant)| match &tenant.arrival {
                    ArrivalModel::ClosedLoop { clients, .. } => (0..*clients)
                        .map(|c| Rng::for_client(spec.seed, t, c))
                        .collect(),
                    ArrivalModel::OpenPoisson { .. } | ArrivalModel::Trace(_) => Vec::new(),
                })
                .collect(),
            retry_rng: (0..n)
                .map(|t| Rng::for_client(spec.seed, t, u32::MAX - 1))
                .collect(),
            decode_rng: (0..n)
                .map(|t| Rng::for_client(spec.seed, t, u32::MAX - 2))
                .collect(),
            // Blocks are sized for the hungriest decode tenant, so every
            // tenant's per-token need fits one block budget; without
            // decode tenants the pools are zero-capacity placeholders.
            kv: match spec
                .tenants
                .iter()
                .filter_map(|t| match t.model {
                    ModelKind::DecodeLlm {
                        kv_bytes_per_token, ..
                    } => Some(kv_bytes_per_token),
                    _ => None,
                })
                .max()
            {
                Some(bytes_per_token) => server
                    .pool
                    .cluster()
                    .devices
                    .iter()
                    .map(|gpu| {
                        KvPool::for_device(
                            gpu,
                            config.decode.block_tokens as u64 * bytes_per_token,
                            config.decode.kv_permille,
                        )
                    })
                    .collect(),
                None => (0..devices).map(|_| KvPool::new(0)).collect(),
            },
            owner_seq: 0,
            busy: (0..devices).map(|_| None).collect(),
            alive: vec![true; devices],
            gens: vec![0; devices],
            preempt_pending: vec![false; devices],
            link_scale: None,
            served: vec![0; n],
            tenants: spec
                .tenants
                .iter()
                .map(|t| TenantMetrics::new(&t.name))
                .collect(),
            devices: (0..devices)
                .map(|_| DeviceMetrics {
                    busy: SimTime::ZERO,
                    batches: 0,
                    requests: 0,
                    kv: KvStats::default(),
                })
                .collect(),
            completions: Vec::new(),
            devices_lost: 0,
            panics_injected: 0,
            stranded: 0,
            req_seq: 0,
            samples: Vec::new(),
            tracer: None,
        };
        // Prime the arrival streams.
        for (t, tenant) in spec.tenants.iter().enumerate() {
            match &tenant.arrival {
                ArrivalModel::OpenPoisson { rate_rps } => {
                    let first = sim.open_rng[t].poisson_gap(*rate_rps);
                    sim.schedule_arrival(first, t, None);
                }
                ArrivalModel::ClosedLoop { clients, think } => {
                    for c in 0..*clients {
                        let first = sim.client_rng[t][c as usize].exp(*think);
                        sim.schedule_arrival(first, t, Some(c));
                    }
                }
                ArrivalModel::Trace(trace) => {
                    // Replay is fully pre-scheduled; instants past the
                    // horizon are dropped by schedule_arrival.
                    for &at in trace.instants() {
                        sim.schedule_arrival(at, t, None);
                    }
                }
            }
        }
        // Prime the fault schedule.
        for drop in &faults.drops {
            sim.push(
                drop.at,
                EvKind::DeviceDrop {
                    device: drop.device,
                },
            );
        }
        for panic in &faults.panics {
            sim.push(
                panic.at,
                EvKind::PanicInject {
                    device: panic.device,
                },
            );
        }
        if let Some(link) = &faults.link {
            sim.push(link.at, EvKind::LinkDegrade);
        }
        sim
    }

    fn push(&mut self, time: SimTime, kind: EvKind) {
        self.seq += 1;
        self.events.push(Ev {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Schedules a first-attempt arrival iff it lands within the
    /// offered-load horizon.
    fn schedule_arrival(&mut self, time: SimTime, tenant: usize, client: Option<u32>) {
        if time <= self.server.spec.horizon {
            self.push(
                time,
                EvKind::Arrival {
                    tenant,
                    client,
                    attempt: 0,
                },
            );
        }
    }

    /// A closed-loop client thinks, then submits again (if still within
    /// the horizon). Open-loop requests have no client to wake.
    fn wake_client(&mut self, now: SimTime, tenant: usize, client: Option<u32>) {
        let Some(client) = client else { return };
        let ArrivalModel::ClosedLoop { think, .. } = &self.server.spec.tenants[tenant].arrival
        else {
            return;
        };
        let gap = self.client_rng[tenant][client as usize].exp(*think);
        self.schedule_arrival(now.saturating_add(gap), tenant, Some(client));
    }

    /// The SLO-aware admission estimate: queue-ahead batches drain at the
    /// widest warmed service time, then the request runs solo. A
    /// deliberately simple, deterministic heuristic — it ignores
    /// cross-tenant contention, so it only rejects requests that are
    /// hopeless even with the whole pool to themselves.
    fn estimated_completion(&self, now: SimTime, tenant: usize) -> SimTime {
        let width = self.config.batch.max_batch;
        let queued = self.queues[tenant].len() as u64;
        let batches_ahead = queued.div_ceil(width as u64);
        let wide = self.price(tenant, width, 0);
        let solo = self.price(tenant, 1, 0);
        now + solo + SimTime::from_picos(wide.as_picos().saturating_mul(batches_ahead))
    }

    /// Service time of a batch under the link pricing currently in force.
    fn price(&self, tenant: usize, width: u32, device: usize) -> SimTime {
        match self.link_scale {
            Some(scale) => {
                self.server
                    .pool
                    .degraded_service_time(tenant, width, device as u32, scale)
            }
            None => self.server.pool.service_time(tenant, width, device as u32),
        }
    }

    fn handle_arrival(&mut self, now: SimTime, tenant: usize, client: Option<u32>, attempt: u32) {
        // Open loop: the stream schedules its successor independently of
        // what happens to this request (retries and trace replays don't —
        // their successors are already scheduled).
        if client.is_none() && attempt == 0 {
            if let ArrivalModel::OpenPoisson { rate_rps } =
                &self.server.spec.tenants[tenant].arrival
            {
                let gap = self.open_rng[tenant].poisson_gap(*rate_rps);
                self.schedule_arrival(now.saturating_add(gap), tenant, None);
            }
        }
        let spec = &self.server.spec.tenants[tenant];
        self.tenants[tenant].offered += 1;
        if attempt > 0 {
            self.tenants[tenant].retries += 1;
        }
        let deadline = now + spec.slo;
        let full = self.queues[tenant].len() >= spec.queue_cap;
        let hopeless =
            self.config.slo_admission && self.estimated_completion(now, tenant) > deadline;
        if full || hopeless {
            self.tenants[tenant].rejected += 1;
            if let Some(tr) = self.tracer.as_mut() {
                tr.reject(tenant, now);
            }
            if let Some(policy) = spec.retry {
                if attempt < policy.max_retries {
                    // Exponential backoff: the mean doubles per attempt,
                    // drawn from the tenant's dedicated retry stream. The
                    // retry carries the client, so a closed-loop client
                    // is NOT woken here — its request is still pending.
                    let mean = SimTime::from_picos(
                        policy
                            .base
                            .as_picos()
                            .saturating_mul(1u64 << attempt.min(20)),
                    );
                    let backoff = self.retry_rng[tenant].exp(mean);
                    // Deliberately not horizon-gated: the offer that
                    // spawned this retry happened inside the horizon.
                    self.push(
                        now.saturating_add(backoff),
                        EvKind::Arrival {
                            tenant,
                            client,
                            attempt: attempt + 1,
                        },
                    );
                    return;
                }
            }
            self.wake_client(now, tenant, client);
            return;
        }
        self.tenants[tenant].admitted += 1;
        // Decode tenants draw their token budget once, at admission, from
        // a dedicated stream — the request keeps it across preemptions
        // and recomputes.
        let decode = match self.server.spec.tenants[tenant].model {
            ModelKind::DecodeLlm { max_new, .. } => {
                1 + self.decode_rng[tenant].uniform(max_new as u64) as u32
            }
            _ => 0,
        };
        self.req_seq += 1;
        let id = self.req_seq;
        if let Some(tr) = self.tracer.as_mut() {
            tr.admit(tenant, id, now);
        }
        self.queues[tenant].push_back(Request {
            id,
            arrival: now,
            deadline,
            client,
            decode,
        });
        let depth = self.queues[tenant].len();
        if depth > self.tenants[tenant].max_queue_depth {
            self.tenants[tenant].max_queue_depth = depth;
        }
        self.try_dispatch(now);
    }

    fn handle_device_free(&mut self, now: SimTime, device: usize, gen: u64) {
        if self.gens[device] != gen {
            // Stale: the batch this event announced was preempted or
            // removed by a fault.
            return;
        }
        let running = self.busy[device].take().expect("DeviceFree on idle device");
        let Running::Batch(batch) = running else {
            unreachable!("decode runs complete via DecodeStep, never DeviceFree");
        };
        for req in &batch.requests {
            if let Some(tr) = self.tracer.as_mut() {
                tr.complete(req.id, now);
            }
            self.tenants[batch.tenant].completed += 1;
            self.tenants[batch.tenant].latencies.push(now - req.arrival);
            let late = now > req.deadline;
            if late {
                self.tenants[batch.tenant].violations += 1;
            }
            // A static-width decode batch delivers every member's tokens
            // here (the device was held for the padded worst case).
            if req.decode > 0 {
                self.tenants[batch.tenant].tokens_generated += req.decode as u64;
                self.tenants[batch.tenant].tokens_out += req.decode as u64;
                if !late {
                    self.tenants[batch.tenant].tokens_good += req.decode as u64;
                }
            }
            self.completions.push(now);
            self.wake_client(now, batch.tenant, req.client);
        }
        self.try_dispatch(now);
    }

    /// A scheduled preemption reached the victim's kernel boundary: stop
    /// the batch, refund its unconsumed service, and requeue the
    /// remainder as a residue.
    fn handle_preempt(&mut self, now: SimTime, device: usize, gen: u64) {
        if self.gens[device] != gen {
            return; // the victim left the device some other way first
        }
        let Some(Running::Batch(batch)) = self.busy[device].take() else {
            unreachable!("Preempt events only target checkpointable batches");
        };
        self.gens[device] += 1;
        self.preempt_pending[device] = false;
        // The boundary is strictly inside the batch's service interval.
        let remaining = batch.start + batch.service - now;
        self.devices[device].busy = self.devices[device].busy.saturating_sub(remaining);
        self.served[batch.tenant] =
            self.served[batch.tenant].saturating_sub(remaining.as_picos() as u128);
        self.tenants[batch.tenant].preemptions += 1;
        if let Some(tr) = self.tracer.as_mut() {
            for req in &batch.requests {
                tr.requeue(batch.tenant, req.id, now);
            }
        }
        self.residues[batch.tenant].push_back(Residue {
            requests: batch.requests,
            remaining,
        });
        self.try_dispatch(now);
    }

    /// Takes a batch off a device that can no longer finish it, refunds
    /// the un-run service, and requeues the requests at the **front** of
    /// their tenant queue — they are the oldest admitted requests, so
    /// per-queue deadlines stay non-decreasing (the `shed_expired`
    /// invariant).
    fn evacuate(&mut self, now: SimTime, device: usize) {
        let Some(running) = self.busy[device].take() else {
            return;
        };
        self.gens[device] += 1;
        self.preempt_pending[device] = false;
        match running {
            Running::Batch(batch) => {
                let remaining = (batch.start + batch.service).saturating_sub(now);
                self.devices[device].busy = self.devices[device].busy.saturating_sub(remaining);
                self.served[batch.tenant] =
                    self.served[batch.tenant].saturating_sub(remaining.as_picos() as u128);
                self.tenants[batch.tenant].rerouted += batch.requests.len() as u64;
                for req in batch.requests.into_iter().rev() {
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.requeue(batch.tenant, req.id, now);
                    }
                    self.queues[batch.tenant].push_front(req);
                }
            }
            Running::Decode(run) => {
                // Refund only the interrupted step; earlier steps really
                // ran. Every resident sequence loses its pages and its
                // generated tokens — the requests start over elsewhere.
                let tenant = run.tenant;
                let remaining = (run.step_start + run.step_service).saturating_sub(now);
                self.devices[device].busy = self.devices[device].busy.saturating_sub(remaining);
                self.served[tenant] =
                    self.served[tenant].saturating_sub(remaining.as_picos() as u128);
                self.tenants[tenant].rerouted += run.seqs.len() as u64;
                for seq in run.seqs.into_iter().rev() {
                    self.kv[device].discard(seq.owner);
                    self.tenants[tenant].recomputed_tokens += seq.done as u64;
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.requeue(tenant, seq.req.id, now);
                    }
                    self.queues[tenant].push_front(seq.req);
                }
            }
        }
    }

    fn handle_device_drop(&mut self, now: SimTime, device: usize) {
        if !self.alive[device] {
            return;
        }
        self.alive[device] = false;
        self.devices_lost += 1;
        self.evacuate(now, device);
        self.gens[device] += 1; // tombstone even if the device was idle
        self.try_dispatch(now);
    }

    /// A worker panic kills the in-flight batch (partial work wasted, the
    /// burned device time stays charged) but the device survives and
    /// keeps serving.
    fn handle_panic_inject(&mut self, now: SimTime, device: usize) {
        if !self.alive[device] || self.busy[device].is_none() {
            return; // nothing running to kill
        }
        self.panics_injected += 1;
        self.evacuate(now, device);
        self.try_dispatch(now);
    }

    /// Drops queued requests whose deadline has already passed. Within a
    /// tenant the queue is FIFO and every request carries the same SLO,
    /// so deadlines are non-decreasing along the queue: popping expired
    /// heads sheds exactly the expired set.
    fn shed_expired(&mut self, now: SimTime) {
        for tenant in 0..self.queues.len() {
            while let Some(head) = self.queues[tenant].front() {
                if head.deadline >= now {
                    break;
                }
                let head = self.queues[tenant].pop_front().expect("front exists");
                self.tenants[tenant].shed += 1;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.shed(head.id, now);
                }
                self.wake_client(now, tenant, head.client);
            }
        }
    }

    /// Whether `tenant` can dispatch right now: a pending residue, a full
    /// batch, or a queue head that has waited out the batch window.
    fn ready(&self, tenant: usize, now: SimTime) -> bool {
        if !self.residues[tenant].is_empty() {
            return true;
        }
        let queue = &self.queues[tenant];
        match queue.front() {
            None => false,
            Some(_) if queue.len() >= self.config.batch.max_batch as usize => true,
            Some(head) => head.arrival + self.config.batch.window <= now,
        }
    }

    /// The scheduler: which ready tenant a free device serves, or `None`
    /// if no tenant is ready. With preemption enabled, ready latency-class
    /// tenants take absolute priority (preempting a batch only to serve
    /// someone else would be self-defeating); the configured scheduler
    /// orders within a class.
    fn select(&self, now: SimTime) -> Option<usize> {
        let head = |t: usize| -> &Request {
            self.residues[t]
                .front()
                .map(|r| &r.requests[0])
                .unwrap_or_else(|| self.queues[t].front().expect("ready implies nonempty"))
        };
        let class = |t: usize| self.server.spec.tenants[t].class;
        let tenants = 0..self.queues.len();
        let latency_only = self.config.preempt.is_some()
            && tenants
                .clone()
                .any(|t| class(t) == TenantClass::Latency && self.ready(t, now));
        tenants
            .filter(|&t| (!latency_only || class(t) == TenantClass::Latency) && self.ready(t, now))
            .min_by(|&a, &b| match self.config.sched {
                RequestSched::Fifo => head(a).arrival.cmp(&head(b).arrival).then(a.cmp(&b)),
                RequestSched::Edf => head(a).deadline.cmp(&head(b).deadline).then(a.cmp(&b)),
                RequestSched::WeightedFair => {
                    // Compare served_a / weight_a vs served_b / weight_b
                    // exactly, by cross-multiplying.
                    let wa = self.server.spec.tenants[a].weight as u128;
                    let wb = self.server.spec.tenants[b].weight as u128;
                    (self.served[a] * wb)
                        .cmp(&(self.served[b] * wa))
                        .then(a.cmp(&b))
                }
            })
    }

    fn try_dispatch(&mut self, now: SimTime) {
        self.shed_expired(now);
        loop {
            let Some(device) =
                (0..self.busy.len()).find(|&d| self.alive[d] && self.busy[d].is_none())
            else {
                self.try_preempt(now);
                return;
            };
            let Some(tenant) = self.select(now) else {
                // Everything queued is a partial batch inside its window:
                // make sure a WindowCheck will revisit when the earliest
                // window expires (spurious checks are harmless no-ops).
                let next = (0..self.queues.len())
                    .filter_map(|t| self.queues[t].front())
                    .map(|head| head.arrival + self.config.batch.window)
                    .min();
                if let Some(next) = next {
                    debug_assert!(next > now, "unready head implies a future expiry");
                    self.push(next, EvKind::WindowCheck);
                }
                return;
            };
            // Residues resume before fresh queue work: theirs are the
            // oldest admitted requests, and the checkpoint (plus the
            // policy's resume overhead) is all the service they still owe.
            if let Some(residue) = self.residues[tenant].pop_front() {
                let overhead = self
                    .config
                    .preempt
                    .expect("residues only exist under a preemption policy")
                    .overhead;
                let width = residue.requests.len();
                let service = residue.remaining + overhead;
                self.tenants[tenant].preempt_overhead += overhead;
                self.dispatch(now, device, tenant, residue.requests, service, true);
                debug_assert!(width > 0);
                continue;
            }
            let width = (self.queues[tenant].len()).min(self.config.batch.max_batch as usize);
            if let ModelKind::DecodeLlm { .. } = self.server.spec.tenants[tenant].model {
                if self.config.decode.continuous {
                    self.start_decode_run(now, device, tenant, width);
                } else {
                    // Static width: the padded batch holds the device for
                    // the longest member's full prefill + decode; the KV
                    // pool is bypassed (worst case preallocated).
                    let requests: Vec<Request> = self.queues[tenant].drain(..width).collect();
                    let max_decode = requests.iter().map(|r| r.decode).max().unwrap_or(0);
                    let service = self.server.pool.static_decode_service(
                        tenant,
                        width as u32,
                        max_decode,
                        device as u32,
                    );
                    self.dispatch(now, device, tenant, requests, service, false);
                }
                continue;
            }
            let requests: Vec<Request> = self.queues[tenant].drain(..width).collect();
            let service = self.price(tenant, width as u32, device);
            self.dispatch(now, device, tenant, requests, service, false);
        }
    }

    fn dispatch(
        &mut self,
        now: SimTime,
        device: usize,
        tenant: usize,
        requests: Vec<Request>,
        service: SimTime,
        resumed: bool,
    ) {
        if let Some(tr) = self.tracer.as_mut() {
            for req in &requests {
                tr.dispatch(tenant, req.id, now);
            }
        }
        self.served[tenant] += service.as_picos() as u128;
        self.devices[device].busy += service;
        self.devices[device].batches += 1;
        self.devices[device].requests += requests.len() as u64;
        self.gens[device] += 1;
        self.busy[device] = Some(Running::Batch(InFlight {
            tenant,
            requests,
            start: now,
            service,
            scale: self.link_scale,
            resumed,
        }));
        self.push(
            now.saturating_add(service),
            EvKind::DeviceFree {
                device,
                gen: self.gens[device],
            },
        );
    }

    /// How many step boundaries a joining sequence's chunked prefill
    /// occupies before it produces tokens: the measured width-1 prefill
    /// time divided (rounding up) by the width-1 prompt-context step
    /// time. Pure integer arithmetic over memoized service times, so the
    /// figure is deterministic per (tenant, device).
    fn decode_prefill_steps(&self, tenant: usize, device: usize) -> u32 {
        let prompt = match self.server.spec.tenants[tenant].model {
            ModelKind::DecodeLlm { prompt, .. } => prompt,
            _ => unreachable!("prefill steps queried for a non-decode tenant"),
        };
        let prefill = self.server.pool.service_time(tenant, 1, device as u32);
        let step = self.server.pool.decode_step_time(
            tenant,
            1,
            ModelKind::ctx_class(prompt + 1),
            device as u32,
        );
        (prefill
            .as_picos()
            .div_ceil(step.as_picos().max(1))
            .min(u32::MAX as u64) as u32)
            .max(1)
    }

    /// Seats up to `width` queued requests of `tenant` as a fresh
    /// continuous-batching decode run and prices its first step.
    fn start_decode_run(&mut self, now: SimTime, device: usize, tenant: usize, width: usize) {
        let prefill_left = self.decode_prefill_steps(tenant, device);
        let requests: Vec<Request> = self.queues[tenant].drain(..width).collect();
        if let Some(tr) = self.tracer.as_mut() {
            for req in &requests {
                tr.dispatch(tenant, req.id, now);
            }
        }
        let seqs: Vec<DecodeSeq> = requests
            .into_iter()
            .map(|req| {
                self.owner_seq += 1;
                DecodeSeq {
                    req,
                    done: 0,
                    owner: self.owner_seq,
                    prefill_left,
                }
            })
            .collect();
        self.gens[device] += 1;
        self.busy[device] = Some(Running::Decode(DecodeRun {
            tenant,
            seqs,
            step_start: now,
            step_service: SimTime::ZERO,
        }));
        self.begin_decode_step(now, device);
    }

    /// Admits the resident sequences' next-token KV growth against the
    /// device's block pool, then prices and schedules the step.
    ///
    /// KV admission walks the residents oldest-first. A sequence whose
    /// growth fails (even after the pool evicts retained pages) preempts
    /// the **youngest** co-resident: its pages are discarded, its tokens
    /// counted as recomputed, and its request requeued at the queue front
    /// to start over. A lone sequence that still cannot fit can never run
    /// and is shed. Each iteration either admits a sequence or removes
    /// one, and between preempt cycles the step advances virtual time, so
    /// the loop — and the run — always terminates.
    fn begin_decode_step(&mut self, now: SimTime, device: usize) {
        let Some(Running::Decode(mut run)) = self.busy[device].take() else {
            unreachable!("begin_decode_step on a device not running decode");
        };
        let tenant = run.tenant;
        let block_tokens = self.config.decode.block_tokens as u64;
        let prompt = match self.server.spec.tenants[tenant].model {
            ModelKind::DecodeLlm { prompt, .. } => prompt,
            _ => unreachable!("decode run on a non-decode tenant"),
        };
        let mut i = 0;
        while i < run.seqs.len() {
            let context = prompt as u64 + run.seqs[i].done as u64 + 1;
            let need = context
                .div_ceil(block_tokens)
                .saturating_sub(self.kv[device].held_by(run.seqs[i].owner));
            if self.kv[device].try_grow(run.seqs[i].owner, need) {
                i += 1;
                continue;
            }
            if run.seqs.len() > 1 {
                // Memory pressure: preempt the youngest resident (the
                // cheapest recompute). A sequence never displaces one
                // older than itself — when the one being admitted *is*
                // the youngest, it is its own victim and goes back to
                // the queue, so the established run keeps progressing.
                let victim = run.seqs.remove(run.seqs.len() - 1);
                self.kv[device].discard(victim.owner);
                self.tenants[tenant].decode_preemptions += 1;
                self.tenants[tenant].recomputed_tokens += victim.done as u64;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.requeue(tenant, victim.req.id, now);
                }
                self.queues[tenant].push_front(victim.req);
                continue;
            }
            // Alone and still over budget: this request can never decode
            // on this pool — shed it (its generated tokens are wasted).
            let victim = run.seqs.remove(i);
            self.kv[device].discard(victim.owner);
            self.tenants[tenant].shed += 1;
            self.tenants[tenant].recomputed_tokens += victim.done as u64;
            if let Some(tr) = self.tracer.as_mut() {
                tr.shed(victim.req.id, now);
            }
            self.wake_client(now, tenant, victim.req.client);
        }
        if run.seqs.is_empty() {
            self.gens[device] += 1;
            self.try_dispatch(now);
            return;
        }
        // Price the step at the widest resident context. Joiners still
        // working through their chunked prefill are priced like any other
        // resident: their prefill chunk rides the step's wave quantum
        // instead of stalling the run (see the module docs).
        let width = run.seqs.len() as u32;
        let max_context = prompt + run.seqs.iter().map(|s| s.done).max().unwrap_or(0) + 1;
        let class = ModelKind::ctx_class(max_context);
        let service = self
            .server
            .pool
            .decode_step_time(tenant, width, class, device as u32);
        run.step_start = now;
        run.step_service = service;
        self.served[tenant] += service.as_picos() as u128;
        self.devices[device].busy += service;
        self.devices[device].batches += 1;
        self.devices[device].requests += width as u64;
        self.busy[device] = Some(Running::Decode(run));
        self.push(
            now.saturating_add(service),
            EvKind::DecodeStep {
                device,
                gen: self.gens[device],
            },
        );
    }

    /// A decode step finished: every resident sequence gained a token,
    /// finished sequences complete and release their pages, queued
    /// requests join, and the next step begins.
    fn handle_decode_step(&mut self, now: SimTime, device: usize, gen: u64) {
        if self.gens[device] != gen {
            return; // the run was evacuated by a fault mid-step
        }
        let Some(Running::Decode(mut run)) = self.busy[device].take() else {
            unreachable!("DecodeStep generation matched a non-decode batch");
        };
        let tenant = run.tenant;
        let mut i = 0;
        while i < run.seqs.len() {
            if run.seqs[i].prefill_left > 0 {
                // Still chunking through its prompt on overlapped
                // capacity: the step processed a prefill chunk, not a
                // new token.
                run.seqs[i].prefill_left -= 1;
                i += 1;
                continue;
            }
            run.seqs[i].done += 1;
            self.tenants[tenant].tokens_generated += 1;
            if run.seqs[i].done < run.seqs[i].req.decode {
                i += 1;
                continue;
            }
            let finished = run.seqs.remove(i);
            self.kv[device].release(finished.owner);
            if let Some(tr) = self.tracer.as_mut() {
                tr.complete(finished.req.id, now);
            }
            self.tenants[tenant].completed += 1;
            self.tenants[tenant]
                .latencies
                .push(now - finished.req.arrival);
            let delivered = finished.done as u64;
            self.tenants[tenant].tokens_out += delivered;
            if now > finished.req.deadline {
                self.tenants[tenant].violations += 1;
            } else {
                self.tenants[tenant].tokens_good += delivered;
            }
            self.completions.push(now);
            self.wake_client(now, tenant, finished.req.client);
        }
        self.shed_expired(now);
        // Re-form the batch: queued requests join at the step boundary
        // (no window gating — a running decode batch is never partial in
        // the static sense). Joiners start in their chunked-prefill
        // phase, overlapped with the residents' decoding.
        let prefill_left = self.decode_prefill_steps(tenant, device);
        while run.seqs.len() < self.config.batch.max_batch as usize {
            let Some(req) = self.queues[tenant].pop_front() else {
                break;
            };
            if let Some(tr) = self.tracer.as_mut() {
                tr.dispatch(tenant, req.id, now);
            }
            self.owner_seq += 1;
            run.seqs.push(DecodeSeq {
                req,
                done: 0,
                owner: self.owner_seq,
                prefill_left,
            });
        }
        if run.seqs.is_empty() {
            self.gens[device] += 1;
            self.try_dispatch(now);
            return;
        }
        self.busy[device] = Some(Running::Decode(run));
        self.begin_decode_step(now, device);
    }

    /// No device is free but a latency-class tenant is ready: schedule a
    /// checkpoint of the running throughput-class batch with the most
    /// service remaining, at its next kernel boundary (probed through the
    /// pool's warmed session — see [`ServicePool::checkpoint`]).
    fn try_preempt(&mut self, now: SimTime) {
        if self.config.preempt.is_none() {
            return;
        }
        let spec = &self.server.spec;
        let starving = (0..self.queues.len())
            .any(|t| spec.tenants[t].class == TenantClass::Latency && self.ready(t, now));
        if !starving {
            return;
        }
        let mut victim: Option<(usize, SimTime)> = None;
        for d in 0..self.busy.len() {
            if !self.alive[d] || self.preempt_pending[d] {
                continue;
            }
            // Decode work is never a checkpoint victim: a decode run (or
            // padded static decode batch) is a multi-step composite with
            // no single warmed pipeline to probe for a boundary.
            let Some(Running::Batch(batch)) = &self.busy[d] else {
                continue;
            };
            if batch.resumed || spec.tenants[batch.tenant].class != TenantClass::Throughput {
                continue;
            }
            if matches!(
                spec.tenants[batch.tenant].model,
                ModelKind::DecodeLlm { .. }
            ) {
                continue;
            }
            let remaining = (batch.start + batch.service).saturating_sub(now);
            if victim.is_none_or(|(_, best)| remaining > best) {
                victim = Some((d, remaining));
            }
        }
        let Some((device, _)) = victim else { return };
        let Some(Running::Batch(batch)) = &self.busy[device] else {
            unreachable!("victim selection only considers running batches");
        };
        let elapsed = now - batch.start;
        let Some((boundary, _)) = self.server.pool.checkpoint(
            batch.tenant,
            batch.requests.len() as u32,
            device as u32,
            elapsed,
            batch.scale,
        ) else {
            return; // past the last interior boundary: let it finish
        };
        let at = batch.start + boundary;
        self.preempt_pending[device] = true;
        self.push(
            at,
            EvKind::Preempt {
                device,
                gen: self.gens[device],
            },
        );
    }

    /// State snapshot for the virtual-time sampler — a pure read of the
    /// queues, pools and device occupancy.
    fn take_sample(&mut self, at: SimTime) {
        let queue_depth = self.queues.iter().map(|q| q.len() as u64).sum::<u64>()
            + self
                .residues
                .iter()
                .flat_map(|r| r.iter())
                .map(|r| r.requests.len() as u64)
                .sum::<u64>();
        let kv_active = self.kv.iter().map(|p| p.stats().active_now).sum();
        let devices_busy = self.busy.iter().filter(|b| b.is_some()).count() as u32;
        self.samples.push(MetricSample {
            time: at,
            queue_depth,
            kv_active,
            devices_busy,
        });
    }

    fn run(mut self) -> (ServeReport, Vec<Span>) {
        // A zero interval would never advance: treat it as disabled.
        let every = self
            .config
            .sample_every
            .filter(|every| *every > SimTime::ZERO);
        let mut next_sample = every;
        let mut last = SimTime::ZERO;
        while let Some(ev) = self.events.pop() {
            debug_assert!(ev.time >= last, "virtual clock must be monotone");
            last = ev.time;
            // Samples observe the state *just before* any event at their
            // instant: between events nothing changes, so this is the
            // state at the sampled virtual time.
            while let (Some(at), Some(every)) = (next_sample, every) {
                if at > ev.time {
                    break;
                }
                self.take_sample(at);
                next_sample = Some(at.saturating_add(every));
            }
            match ev.kind {
                EvKind::Arrival {
                    tenant,
                    client,
                    attempt,
                } => self.handle_arrival(ev.time, tenant, client, attempt),
                EvKind::DeviceFree { device, gen } => self.handle_device_free(ev.time, device, gen),
                EvKind::DecodeStep { device, gen } => self.handle_decode_step(ev.time, device, gen),
                EvKind::WindowCheck => self.try_dispatch(ev.time),
                EvKind::Preempt { device, gen } => self.handle_preempt(ev.time, device, gen),
                EvKind::DeviceDrop { device } => self.handle_device_drop(ev.time, device),
                EvKind::PanicInject { device } => self.handle_panic_inject(ev.time, device),
                EvKind::LinkDegrade => {
                    let link = self.faults.link.expect("LinkDegrade implies a plan");
                    self.link_scale = Some(link.scale);
                }
            }
        }
        // The heap drained with work still queued ⟺ every device died:
        // strand-shed the leftovers with typed outcomes (never hang,
        // never silently drop).
        for tenant in 0..self.queues.len() {
            while let Some(req) = self.queues[tenant].pop_front() {
                self.tenants[tenant].shed += 1;
                self.stranded += 1;
                // No wake: the run is over; the client's pending request
                // resolves as shed.
                if let Some(tr) = self.tracer.as_mut() {
                    tr.shed(req.id, last);
                }
            }
            while let Some(residue) = self.residues[tenant].pop_front() {
                let n = residue.requests.len() as u64;
                self.tenants[tenant].shed += n;
                self.stranded += n;
                if let Some(tr) = self.tracer.as_mut() {
                    for req in &residue.requests {
                        tr.shed(req.id, last);
                    }
                }
            }
        }
        let horizon = self.server.spec.horizon;
        let makespan = self
            .completions
            .last()
            .copied()
            .unwrap_or(horizon)
            .max(horizon);
        let mut tenants = self.tenants;
        for tenant in &mut tenants {
            tenant.latencies.sort_unstable();
        }
        for (device, pool) in self.kv.iter().enumerate() {
            self.devices[device].kv = pool.stats();
        }
        let spans = match self.tracer {
            Some(tracer) => tracer.finish(makespan),
            None => Vec::new(),
        };
        let report = ServeReport {
            tenants,
            devices: self.devices,
            horizon,
            makespan,
            completions: self.completions,
            faults: FaultOutcome {
                devices_lost: self.devices_lost,
                panics: self.panics_injected,
                link_degraded: self.link_scale.is_some(),
                stranded: self.stranded,
            },
            samples: self.samples,
        };
        (report, spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TenantSpec;
    use crate::zoo::ModelKind;
    use cusync_sim::{ClusterConfig, GpuConfig};

    fn toy_spec(seed: u64, rate_rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            tenants: vec![
                TenantSpec {
                    name: "open".into(),
                    model: ModelKind::Toy {
                        blocks: 2,
                        compute_cycles: 100_000,
                    },
                    arrival: ArrivalModel::OpenPoisson { rate_rps },
                    slo: SimTime::from_micros(400.0),
                    queue_cap: 16,
                    weight: 2,
                    class: TenantClass::Throughput,
                    retry: None,
                },
                TenantSpec {
                    name: "closed".into(),
                    model: ModelKind::Toy {
                        blocks: 3,
                        compute_cycles: 150_000,
                    },
                    arrival: ArrivalModel::ClosedLoop {
                        clients: 3,
                        think: SimTime::from_micros(200.0),
                    },
                    slo: SimTime::from_micros(600.0),
                    queue_cap: 8,
                    weight: 1,
                    class: TenantClass::Throughput,
                    retry: None,
                },
            ],
            horizon: SimTime::from_millis(20),
            seed,
        }
    }

    fn toy_server(seed: u64, rate_rps: f64) -> Server {
        let cluster = ClusterConfig::homogeneous(
            2,
            GpuConfig::toy(4),
            SimTime::from_nanos(500),
            ClusterConfig::NVLINK_BYTES_PER_SEC,
        );
        Server::new(toy_spec(seed, rate_rps), &cluster, 4)
    }

    #[test]
    fn reports_satisfy_invariants_under_every_config() {
        let server = toy_server(11, 12_000.0);
        for sched in RequestSched::ALL {
            for batch in [
                BatchPolicy::off(),
                BatchPolicy::new(4, SimTime::from_micros(80.0)),
            ] {
                for slo_admission in [false, true] {
                    let config = ServeConfig {
                        sched,
                        batch,
                        slo_admission,
                        ..ServeConfig::baseline()
                    };
                    let report = server.run(&config);
                    report.check().unwrap_or_else(|e| {
                        panic!("{sched} {batch} slo_admission={slo_admission}: {e}")
                    });
                    let offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
                    assert!(offered > 100, "workload must offer real load");
                }
            }
        }
    }

    #[test]
    fn same_seed_is_bit_identical_different_seed_is_not() {
        let config = ServeConfig {
            sched: RequestSched::Edf,
            batch: BatchPolicy::new(4, SimTime::from_micros(50.0)),
            slo_admission: true,
            ..ServeConfig::baseline()
        };
        let a = toy_server(7, 9_000.0).run(&config);
        let b = toy_server(7, 9_000.0).run(&config);
        assert_eq!(a, b, "same seed must replay bit-identically");
        let c = toy_server(8, 9_000.0).run(&config);
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn saturating_load_sheds_and_batching_recovers_goodput() {
        // Saturate: open-loop rate far beyond two toy devices.
        let server = toy_server(3, 40_000.0);
        let unbatched = server.run(&ServeConfig::baseline());
        let batched = server.run(&ServeConfig {
            sched: RequestSched::Fifo,
            batch: BatchPolicy::new(4, SimTime::from_micros(60.0)),
            ..ServeConfig::baseline()
        });
        let dropped: u64 = unbatched.tenants.iter().map(|t| t.rejected + t.shed).sum();
        assert!(dropped > 0, "saturating load must shed");
        assert!(
            batched.goodput_rps() > unbatched.goodput_rps(),
            "batching must raise goodput at saturation: {} vs {}",
            batched.goodput_rps(),
            unbatched.goodput_rps()
        );
        // Batches actually coalesce.
        let mean_width: f64 = batched
            .devices
            .iter()
            .map(DeviceMetrics::mean_width)
            .sum::<f64>()
            / batched.devices.len() as f64;
        assert!(mean_width > 1.2, "mean width {mean_width}");
    }

    #[test]
    fn schedulers_change_the_outcome_under_saturation() {
        let server = toy_server(5, 25_000.0);
        let fifo = server.run(&ServeConfig::baseline());
        let edf = server.run(&ServeConfig {
            sched: RequestSched::Edf,
            ..ServeConfig::baseline()
        });
        let wfq = server.run(&ServeConfig {
            sched: RequestSched::WeightedFair,
            ..ServeConfig::baseline()
        });
        for (name, report) in [("fifo", &fifo), ("edf", &edf), ("wfq", &wfq)] {
            report.check().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.tenants.iter().all(|t| t.completed > 0), "{name}");
        }
        // Under a saturating mixed load the policies must actually take
        // different decisions somewhere.
        assert_ne!(fifo, edf);
        assert_ne!(fifo, wfq);
    }

    /// With two *identical*, continuously backlogged open-loop tenants,
    /// weighted-fair sharing is exact: equal service times mean the 3:1
    /// weights translate directly into a 3:1 completion ratio.
    #[test]
    fn wfq_shares_capacity_by_weight() {
        let tenant = |name: &str, weight| TenantSpec {
            name: name.into(),
            model: ModelKind::Toy {
                blocks: 2,
                compute_cycles: 100_000,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps: 30_000.0 },
            slo: SimTime::from_millis(200),
            // Small queues: the post-horizon drain (which completes both
            // queues in full, regardless of weight) must stay negligible
            // next to the steady-state 3:1 service pattern.
            queue_cap: 4,
            weight,
            class: TenantClass::Throughput,
            retry: None,
        };
        let spec = WorkloadSpec {
            tenants: vec![tenant("heavy", 3), tenant("light", 1)],
            horizon: SimTime::from_millis(100),
            seed: 13,
        };
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let server = Server::new(spec, &cluster, 1);
        let report = server.run(&ServeConfig {
            sched: RequestSched::WeightedFair,
            ..ServeConfig::baseline()
        });
        report.check().expect("wfq report");
        let ratio = report.tenants[0].completed as f64 / report.tenants[1].completed as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "3:1 weights must yield ~3:1 completions, got {ratio}"
        );
    }

    #[test]
    fn slo_admission_trades_rejections_for_fewer_violations() {
        let server = toy_server(9, 30_000.0);
        let without = server.run(&ServeConfig::baseline());
        let with = server.run(&ServeConfig {
            slo_admission: true,
            ..ServeConfig::baseline()
        });
        let viol = |r: &ServeReport| -> u64 { r.tenants.iter().map(|t| t.violations).sum() };
        let rej = |r: &ServeReport| -> u64 { r.tenants.iter().map(|t| t.rejected).sum() };
        assert!(rej(&with) >= rej(&without));
        assert!(viol(&with) <= viol(&without));
    }

    // ---- chaos: faults, traces, retries, preemption -------------------

    use crate::fault::{DeviceDrop, LinkDegrade, PanicInjection};
    use crate::workload::{ArrivalTrace, RetryPolicy, TraceShape};

    #[test]
    fn fault_free_plan_reproduces_run_exactly() {
        let server = toy_server(17, 15_000.0);
        let config = ServeConfig::baseline();
        assert_eq!(
            server.run(&config),
            server.run_with_faults(&config, &FaultPlan::none())
        );
    }

    #[test]
    fn device_drop_reroutes_in_flight_work_without_stranding() {
        let server = toy_server(21, 20_000.0);
        let config = ServeConfig::baseline();
        let plan = FaultPlan {
            drops: vec![DeviceDrop {
                device: 1,
                at: SimTime::from_millis(5),
            }],
            ..FaultPlan::none()
        };
        let report = server.run_with_faults(&config, &plan);
        report.check().expect("single-drop report");
        assert_eq!(report.faults.devices_lost, 1);
        assert_eq!(report.faults.stranded, 0, "a survivor absorbs everything");
        let rerouted: u64 = report.tenants.iter().map(|t| t.rerouted).sum();
        assert!(rerouted > 0, "a 20k rps load keeps the dropped device busy");
        assert!(report.goodput_rps() > 0.0);
        // Bit-identical replay under the same plan.
        assert_eq!(report, server.run_with_faults(&config, &plan));
    }

    #[test]
    fn losing_every_device_terminates_with_typed_stranding() {
        let server = toy_server(23, 20_000.0);
        let config = ServeConfig::baseline();
        let plan = FaultPlan {
            drops: vec![
                DeviceDrop {
                    device: 0,
                    at: SimTime::from_millis(2),
                },
                DeviceDrop {
                    device: 1,
                    at: SimTime::from_millis(2),
                },
            ],
            ..FaultPlan::none()
        };
        // Must terminate (no hang) with every admitted request resolved:
        // completed before the drop, or shed with the stranded outcome.
        let report = server.run_with_faults(&config, &plan);
        report.check().expect("all-dead report");
        assert_eq!(report.faults.devices_lost, 2);
        assert!(report.faults.stranded > 0, "queued work must strand, typed");
        for t in &report.tenants {
            assert_eq!(t.admitted, t.completed + t.shed, "nothing vanishes");
        }
    }

    #[test]
    fn panic_injection_wastes_work_but_conserves_requests() {
        let server = toy_server(27, 20_000.0);
        let config = ServeConfig::baseline();
        let plan = FaultPlan {
            panics: vec![
                PanicInjection {
                    device: 0,
                    at: SimTime::from_millis(4),
                },
                PanicInjection {
                    device: 1,
                    at: SimTime::from_millis(9),
                },
            ],
            ..FaultPlan::none()
        };
        let report = server.run_with_faults(&config, &plan);
        report.check().expect("panic report");
        assert_eq!(report.faults.devices_lost, 0);
        assert!(report.faults.panics >= 1, "a busy device panicked");
        assert_eq!(report.faults.stranded, 0);
        assert_eq!(report, server.run_with_faults(&config, &plan));
    }

    #[test]
    fn link_degradation_slows_remote_models_deterministically() {
        let spec = |seed| WorkloadSpec {
            tenants: vec![TenantSpec {
                name: "remote".into(),
                model: ModelKind::ToyRemote {
                    blocks: 2,
                    compute_cycles: 100_000,
                    payload: 1 << 20,
                },
                arrival: ArrivalModel::OpenPoisson { rate_rps: 8_000.0 },
                slo: SimTime::from_millis(4),
                queue_cap: 32,
                weight: 1,
                class: TenantClass::Throughput,
                retry: None,
            }],
            horizon: SimTime::from_millis(20),
            seed,
        };
        let cluster = ClusterConfig::homogeneous(
            2,
            GpuConfig::toy(4),
            SimTime::from_nanos(500),
            ClusterConfig::NVLINK_BYTES_PER_SEC,
        );
        let server = Server::new(spec(31), &cluster, 4);
        let config = ServeConfig::baseline();
        let healthy = server.run_with_faults(&config, &FaultPlan::none());
        let plan = FaultPlan {
            link: Some(LinkDegrade {
                at: SimTime::from_millis(5),
                scale: LinkScale::times(8),
            }),
            ..FaultPlan::none()
        };
        let degraded = server.run_with_faults(&config, &plan);
        degraded.check().expect("degraded report");
        assert!(degraded.faults.link_degraded);
        assert!(
            degraded.tenants[0].latency_mean() > healthy.tenants[0].latency_mean(),
            "8x wire time must show up in mean latency: {} vs {}",
            degraded.tenants[0].latency_mean(),
            healthy.tenants[0].latency_mean()
        );
        assert_eq!(degraded, server.run_with_faults(&config, &plan));
    }

    #[test]
    fn trace_arrivals_offer_exactly_the_trace() {
        let horizon = SimTime::from_millis(10);
        let trace = ArrivalTrace::synthesize(
            TraceShape::Bursty {
                base_rps: 2_000.0,
                burst_rps: 30_000.0,
                period: SimTime::from_millis(2),
                duty: 0.25,
            },
            horizon,
            77,
        );
        let expected = trace.len() as u64;
        let spec = WorkloadSpec {
            tenants: vec![TenantSpec {
                name: "replay".into(),
                model: ModelKind::Toy {
                    blocks: 2,
                    compute_cycles: 100_000,
                },
                arrival: ArrivalModel::Trace(trace),
                slo: SimTime::from_millis(2),
                queue_cap: 64,
                weight: 1,
                class: TenantClass::Throughput,
                retry: None,
            }],
            horizon,
            seed: 5,
        };
        let server = Server::new(spec, &ClusterConfig::single(GpuConfig::toy(4)), 4);
        let config = ServeConfig::baseline();
        let report = server.run(&config);
        report.check().expect("trace report");
        assert_eq!(report.tenants[0].offered, expected);
        assert_eq!(report, server.run(&config));
    }

    #[test]
    fn retries_resubmit_rejections_and_stay_conserved() {
        let mut spec = toy_spec(41, 35_000.0);
        spec.tenants[0].queue_cap = 2; // force rejections
        spec.tenants[0].retry = Some(RetryPolicy {
            base: SimTime::from_micros(50.0),
            max_retries: 3,
        });
        let cluster = ClusterConfig::homogeneous(
            2,
            GpuConfig::toy(4),
            SimTime::from_nanos(500),
            ClusterConfig::NVLINK_BYTES_PER_SEC,
        );
        let server = Server::new(spec, &cluster, 4);
        let config = ServeConfig::baseline();
        let report = server.run(&config);
        report.check().expect("retry report");
        assert!(report.tenants[0].retries > 0, "cap 2 at 35k rps must retry");
        assert!(
            report.tenants[0].offered > report.tenants[0].retries,
            "first attempts are offered too"
        );
        assert_eq!(report, server.run(&config), "retry backoff is seeded");
    }

    #[test]
    fn preemption_cuts_latency_tail_with_bounded_throughput_loss() {
        let spec = |seed| WorkloadSpec {
            tenants: vec![
                TenantSpec {
                    name: "interactive".into(),
                    model: ModelKind::Toy {
                        blocks: 2,
                        compute_cycles: 50_000,
                    },
                    arrival: ArrivalModel::OpenPoisson { rate_rps: 1_500.0 },
                    // Generous SLO: nothing sheds, so the tail comparison
                    // below sees every request in both runs.
                    slo: SimTime::from_millis(8),
                    queue_cap: 64,
                    weight: 1,
                    class: TenantClass::Latency,
                    retry: None,
                },
                TenantSpec {
                    name: "bulk".into(),
                    model: ModelKind::Toy {
                        blocks: 4,
                        compute_cycles: 1_500_000,
                    },
                    arrival: ArrivalModel::ClosedLoop {
                        clients: 2,
                        think: SimTime::from_micros(10.0),
                    },
                    slo: SimTime::from_millis(500),
                    queue_cap: 8,
                    weight: 1,
                    class: TenantClass::Throughput,
                    retry: None,
                },
            ],
            horizon: SimTime::from_millis(40),
            seed,
        };
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        let server = Server::new(spec(51), &cluster, 2);
        let without = server.run(&ServeConfig::baseline());
        let with = server.run(&ServeConfig {
            preempt: Some(PreemptPolicy::new(SimTime::from_micros(5.0))),
            ..ServeConfig::baseline()
        });
        with.check().expect("preempting report");
        let p99 = |r: &ServeReport| r.tenants[0].latency_quantile(0.99);
        assert!(
            p99(&with) < p99(&without),
            "preemption must cut the interactive p99: {} vs {}",
            p99(&with),
            p99(&without)
        );
        assert!(
            with.tenants[1].preemptions > 0,
            "the bulk tenant must actually get checkpointed"
        );
        // Bounded collateral: the bulk tenant keeps at least half its
        // fault-free goodput (the resume overhead is the only real cost).
        assert!(
            with.tenants[1].goodput_count() * 2 >= without.tenants[1].goodput_count(),
            "bulk goodput loss must stay bounded: {} vs {}",
            with.tenants[1].goodput_count(),
            without.tenants[1].goodput_count()
        );
        assert_eq!(
            with,
            server.run(&ServeConfig {
                preempt: Some(PreemptPolicy::new(SimTime::from_micros(5.0))),
                ..ServeConfig::baseline()
            })
        );
    }

    // ---- continuous batching: decode tenants and the KV pool ----------

    use crate::sched::DecodePolicy;

    fn decode_spec(seed: u64, rate_rps: f64, kv_bytes_per_token: u64) -> WorkloadSpec {
        WorkloadSpec {
            tenants: vec![TenantSpec {
                name: "decode".into(),
                model: ModelKind::DecodeLlm {
                    // Decode-heavy: generation dominates the prefill, the
                    // regime where continuous batching earns its keep.
                    prompt: 16,
                    max_new: 96,
                    step_cycles: 40_000,
                    ctx_cycles: 400,
                    kv_bytes_per_token,
                },
                arrival: ArrivalModel::OpenPoisson { rate_rps },
                slo: SimTime::from_millis(40),
                queue_cap: 64,
                weight: 1,
                class: TenantClass::Throughput,
                retry: None,
            }],
            horizon: SimTime::from_millis(40),
            seed,
        }
    }

    fn decode_server(seed: u64, rate_rps: f64, kv_bytes_per_token: u64) -> Server {
        let cluster = ClusterConfig::single(GpuConfig::toy(4));
        Server::new(decode_spec(seed, rate_rps, kv_bytes_per_token), &cluster, 8)
    }

    fn decode_config(decode: DecodePolicy) -> ServeConfig {
        ServeConfig {
            batch: BatchPolicy::new(8, SimTime::from_micros(50.0)),
            decode,
            ..ServeConfig::baseline()
        }
    }

    #[test]
    fn decode_tenants_conserve_tokens_and_replay_bit_identically() {
        let server = decode_server(61, 2_000.0, 1 << 12);
        for decode in [
            DecodePolicy::static_width(),
            DecodePolicy::continuous_batching(),
        ] {
            let config = decode_config(decode);
            let report = server.run(&config);
            report.check().unwrap_or_else(|e| panic!("{decode}: {e}"));
            let t = &report.tenants[0];
            assert!(t.completed > 0, "{decode}: decode requests must finish");
            assert!(t.tokens_generated > 0, "{decode}: tokens must be counted");
            assert_eq!(t.tokens_generated, t.tokens_out + t.recomputed_tokens);
            // Unpressured pool: nothing evicted, nothing preempted.
            assert_eq!(t.decode_preemptions, 0, "{decode}");
            assert_eq!(report, server.run(&config), "{decode}: must replay");
            assert_eq!(
                report,
                server.run_with_faults(&config, &FaultPlan::none()),
                "{decode}: fault-free chaos path must match run()"
            );
        }
    }

    #[test]
    fn memory_pressure_preempts_and_recomputes_decode_sequences() {
        // 1 MiB per token over a 1-permille pool share of a 32-GiB toy
        // device: 32 MiB of KV = two 16-token blocks. Any two co-resident
        // sequences fight for blocks, so the run must preempt (youngest
        // first) and recompute rather than deadlock or leak.
        let server = decode_server(67, 2_000.0, 1 << 20);
        let config = decode_config(DecodePolicy::new(true, 16, 1));
        let report = server.run(&config);
        report.check().expect("pressured decode report");
        let t = &report.tenants[0];
        assert!(
            t.decode_preemptions > 0,
            "a two-block pool must force preemption"
        );
        assert!(t.recomputed_tokens > 0, "preempted progress is recomputed");
        assert!(t.completed > 0, "work still finishes under pressure");
        assert_eq!(t.tokens_generated, t.tokens_out + t.recomputed_tokens);
        let kv = &report.devices[0].kv;
        assert_eq!(kv.total, 2, "32 MiB / 16 MiB blocks");
        assert!(kv.alloc_failures > 0, "pressure showed up at the allocator");
        assert_eq!(kv.active_now, 0, "the drain returns every block");
        assert_eq!(report, server.run(&config), "pressure path is seeded too");
    }

    #[test]
    fn continuous_batching_beats_static_width_decode_at_saturation() {
        let server = decode_server(71, 2_000.0, 1 << 12);
        let fixed = server.run(&decode_config(DecodePolicy::static_width()));
        let cont = server.run(&decode_config(DecodePolicy::continuous_batching()));
        fixed.check().expect("static decode report");
        cont.check().expect("continuous decode report");
        // Static-width decode pads every sequence to the batch's longest
        // draw; continuous batching refills freed slots at step
        // boundaries, so at saturation it must deliver more on-time
        // tokens per second.
        assert!(
            cont.tokens_goodput_per_sec() > fixed.tokens_goodput_per_sec(),
            "continuous {} vs static {} tokens/s goodput",
            cont.tokens_goodput_per_sec(),
            fixed.tokens_goodput_per_sec()
        );
    }
}
