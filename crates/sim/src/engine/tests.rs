//! Whole-run engine tests: scheduling semantics, deadlock reports,
//! multi-device costs, and reference ↔ optimized equivalence on small
//! hand-built pipelines. Unit tests of the queue structures sit beside
//! them in `queue.rs`.

use std::sync::Arc;

use super::queue::SEQ_LIMIT;
use super::*;
use crate::config::ClusterConfig;
use crate::kernel::FixedKernel;
use crate::Session;

fn quiet_config() -> GpuConfig {
    GpuConfig {
        host_launch_gap: SimTime::ZERO,
        kernel_dispatch_latency: SimTime::ZERO,
        block_jitter: 0.0,
        ..GpuConfig::toy(4)
    }
}

/// Compiles `gpu` and runs it on `session`.
fn run_on(session: &mut Session, gpu: Gpu) -> Result<RunReport, SimError> {
    session.run(&gpu.compile()?)
}

/// Compiles `gpu` and runs it on a fresh session in `mode`.
fn run_in(gpu: Gpu, mode: EngineMode) -> Result<RunReport, SimError> {
    run_on(&mut Session::with_mode(mode), gpu)
}

/// Compiles `gpu` and runs it on a fresh optimized session.
fn run_once(gpu: Gpu) -> Result<RunReport, SimError> {
    run_in(gpu, EngineMode::Optimized)
}

/// [`run_in`] on a tracing session: the report and the run's trace.
fn traced_in(gpu: Gpu, mode: EngineMode) -> (RunReport, Vec<TraceEvent>) {
    let mut session = Session::with_mode(mode);
    session.enable_trace();
    let report = run_on(&mut session, gpu).unwrap();
    (report, session.trace().to_vec())
}

#[test]
fn single_kernel_runs_in_waves() {
    let mut gpu = Gpu::new(quiet_config());
    let s = gpu.create_stream(0);
    // 6 blocks, occupancy 1, 4 SMs: two waves (4 then 2), like Fig. 1b.
    gpu.launch(
        s,
        Arc::new(FixedKernel::new(
            "k",
            Dim3::linear(6),
            1,
            vec![Op::compute(1000)],
        )),
    );
    let report = run_once(gpu).unwrap();
    let k = &report.kernels[0];
    assert_eq!(k.blocks, 6);
    assert!((k.static_waves - 1.5).abs() < 1e-9);
    assert_eq!(k.max_concurrent, 4);
    // Two sequential waves of compute(1000 cycles).
    let one_wave = GpuConfig::toy(4).cycles(1000);
    assert_eq!(k.duration, one_wave + one_wave);
}

/// A slot is touched on every event of its block: keep it within two
/// cache lines.
#[test]
fn block_slot_fits_in_128_bytes() {
    let size = std::mem::size_of::<BlockSlot>();
    assert!(size <= 128, "BlockSlot is {size} bytes");
}

/// The second wave reuses the first wave's slots on both engines.
#[test]
fn finished_block_slots_are_reused() {
    for mode in [EngineMode::Reference, EngineMode::Optimized] {
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "k",
                Dim3::linear(6),
                1,
                vec![Op::compute(1000)],
            )),
        );
        let report = run_in(gpu, mode).unwrap();
        assert_eq!(report.counters.placements, 6, "{mode:?}");
        assert_eq!(report.counters.peak_block_slots, 4, "{mode:?}");
    }
}

#[test]
fn same_stream_kernels_serialize() {
    let mut gpu = Gpu::new(quiet_config());
    let s = gpu.create_stream(0);
    gpu.launch(
        s,
        Arc::new(FixedKernel::new(
            "a",
            Dim3::linear(2),
            1,
            vec![Op::compute(500)],
        )),
    );
    gpu.launch(
        s,
        Arc::new(FixedKernel::new(
            "b",
            Dim3::linear(2),
            1,
            vec![Op::compute(500)],
        )),
    );
    let report = run_once(gpu).unwrap();
    assert!(report.kernel("b").start >= report.kernel("a").end);
}

#[test]
fn different_streams_overlap() {
    let mut gpu = Gpu::new(quiet_config());
    let s1 = gpu.create_stream(0);
    let s2 = gpu.create_stream(0);
    gpu.launch(
        s1,
        Arc::new(FixedKernel::new(
            "a",
            Dim3::linear(2),
            1,
            vec![Op::compute(10_000)],
        )),
    );
    gpu.launch(
        s2,
        Arc::new(FixedKernel::new(
            "b",
            Dim3::linear(2),
            1,
            vec![Op::compute(10_000)],
        )),
    );
    let report = run_once(gpu).unwrap();
    // 4 SMs fit both 2-block kernels at once.
    assert!(report.kernel("b").start < report.kernel("a").end);
}

#[test]
fn semaphore_wait_blocks_until_post() {
    let mut gpu = Gpu::new(quiet_config());
    let sem = gpu.alloc_sems("sem", 1, 0);
    let s1 = gpu.create_stream(0);
    let s2 = gpu.create_stream(0);
    gpu.launch(
        s1,
        Arc::new(FixedKernel::new(
            "producer",
            Dim3::linear(1),
            1,
            vec![Op::compute(100_000), Op::post(sem, 0)],
        )),
    );
    gpu.launch(
        s2,
        Arc::new(FixedKernel::new(
            "consumer",
            Dim3::linear(1),
            1,
            vec![Op::wait(sem, 0, 1), Op::compute(10)],
        )),
    );
    let report = run_once(gpu).unwrap();
    let producer_end = report.kernel("producer").end;
    let consumer_end = report.kernel("consumer").end;
    assert!(consumer_end > producer_end);
    assert_eq!(report.sem_posts, 1);
}

#[test]
fn deadlock_is_detected_and_described() {
    let mut gpu = Gpu::new(quiet_config());
    let sem = gpu.alloc_sems("never", 1, 0);
    let s = gpu.create_stream(0);
    gpu.launch(
        s,
        Arc::new(FixedKernel::new(
            "stuck",
            Dim3::linear(1),
            1,
            vec![Op::wait(sem, 0, 1)],
        )),
    );
    let err = run_once(gpu).unwrap_err();
    match err {
        SimError::Deadlock(report) => {
            assert_eq!(report.pending_names(), vec!["stuck".to_string()]);
            assert_eq!(report.blocked.len(), 1);
            let line = report.blocked[0].to_string();
            assert!(line.contains("never[0] >= 1"), "{line}");
            assert_eq!(report.blocked[0].current, 0);
            // One resident spinner, nothing executing: the report's
            // occupancy view shows the slot held by a busy-wait.
            assert_eq!(report.sms.len(), 1);
            assert_eq!(report.sms[0].active_units, 0);
            assert!(report.sms[0].spinning_units > 0);
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn busy_wait_occupies_sm_slots_causing_deadlock() {
    // Consumer fills all 4 SMs busy-waiting; producer (launched later)
    // can never run: the Section III-B hazard.
    let mut gpu = Gpu::new(quiet_config());
    let sem = gpu.alloc_sems("tile", 1, 0);
    let s1 = gpu.create_stream(0);
    let s2 = gpu.create_stream(1); // higher priority: consumer issues first
    gpu.launch(
        s1,
        Arc::new(FixedKernel::new(
            "producer",
            Dim3::linear(4),
            1,
            vec![Op::compute(100), Op::post(sem, 0)],
        )),
    );
    gpu.launch(
        s2,
        Arc::new(FixedKernel::new(
            "consumer",
            Dim3::linear(4),
            1,
            vec![Op::wait(sem, 0, 4), Op::compute(10)],
        )),
    );
    let err = run_once(gpu).unwrap_err();
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got {err}");
    };
    // The wait cycle names the spinner, the polled semaphore and the
    // starved producer.
    let cycle = report.wait_cycle().expect("occupancy cycle");
    assert!(cycle.contains("consumer"), "{cycle}");
    assert!(cycle.contains("tile[0]"), "{cycle}");
    assert!(cycle.contains("producer"), "{cycle}");
    let starved: Vec<_> = report.starved().collect();
    assert_eq!(starved.len(), 1);
    assert_eq!(starved[0].name, "producer");
    assert_eq!(starved[0].unissued(), 4);
}

#[test]
fn priority_orders_block_issue() {
    let mut gpu = Gpu::new(quiet_config());
    let lo = gpu.create_stream(0);
    let hi = gpu.create_stream(5);
    gpu.launch(
        lo,
        Arc::new(FixedKernel::new(
            "lo",
            Dim3::linear(4),
            1,
            vec![Op::compute(100)],
        )),
    );
    gpu.launch(
        hi,
        Arc::new(FixedKernel::new(
            "hi",
            Dim3::linear(4),
            1,
            vec![Op::compute(100)],
        )),
    );
    let (_, trace) = traced_in(gpu, EngineMode::Optimized);
    let first_issue = trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::BlockIssued { kernel, .. } => Some(*kernel),
            _ => None,
        })
        .unwrap();
    // Both kernels become ready at t=0 (zero latencies); the
    // higher-priority stream's kernel issues first.
    assert_eq!(first_issue, KernelId(1));
}

#[test]
fn atomic_add_returns_previous_value_in_order() {
    // Three blocks each fetch-add the counter; results must be 0,1,2 in
    // issue order (deterministic engine).
    use crate::kernel::{BlockBody, FnKernel};
    struct CounterBody {
        counter: SemArrayId,
        state: u8,
        seen: Option<u32>,
    }
    impl BlockBody for CounterBody {
        fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
            match self.state {
                0 => {
                    self.state = 1;
                    Step::Op(Op::AtomicAdd {
                        table: self.counter,
                        index: 0,
                        inc: 1,
                    })
                }
                1 => {
                    self.seen = ctx.atomic_result;
                    self.state = 2;
                    // Write our observation so the test can assert it.
                    Step::Op(Op::compute(10))
                }
                _ => Step::Done,
            }
        }
    }
    let mut gpu = Gpu::new(quiet_config());
    let counter = gpu.alloc_sems("ctr", 1, 0);
    let s = gpu.create_stream(0);
    gpu.launch(
        s,
        Arc::new(FnKernel::new("count", Dim3::linear(3), 1, move |_| {
            Box::new(CounterBody {
                counter,
                state: 0,
                seen: None,
            })
        })),
    );
    let mut session = Session::new();
    run_on(&mut session, gpu).unwrap();
    assert_eq!(session.sems().value(counter, 0), 3);
}

#[test]
fn utilization_reflects_partial_waves() {
    let mut gpu = Gpu::new(quiet_config());
    let s = gpu.create_stream(0);
    // 2 blocks on 4 SMs: utilization 50% for the whole run.
    gpu.launch(
        s,
        Arc::new(FixedKernel::new(
            "k",
            Dim3::linear(2),
            1,
            vec![Op::compute(1000)],
        )),
    );
    let report = run_once(gpu).unwrap();
    assert!(
        (report.sm_utilization - 0.5).abs() < 1e-6,
        "{}",
        report.sm_utilization
    );
}

/// Builds one moderately adversarial workload: three streams with
/// mixed priorities, a producer/consumer semaphore chain, atomics,
/// fences, jitter and partial waves — every engine feature at once.
fn mixed_workload(gpu: &mut Gpu) {
    let sem = gpu.alloc_sems("tiles", 8, 0);
    let ctr = gpu.alloc_sems("order", 1, 0);
    let s0 = gpu.create_stream(0);
    let s1 = gpu.create_stream(2);
    let s2 = gpu.create_stream(-1);
    gpu.launch(
        s0,
        Arc::new(FixedKernel::new(
            "producer",
            Dim3::linear(8),
            2,
            vec![
                Op::read(64 * 1024),
                Op::main_step(32 * 1024, 40_000),
                Op::Syncthreads,
                Op::Fence,
                Op::post(sem, 0),
                Op::write(16 * 1024),
            ],
        )),
    );
    gpu.launch(
        s1,
        Arc::new(FixedKernel::new(
            "consumer",
            Dim3::linear(8),
            2,
            vec![
                Op::wait(sem, 0, 4),
                Op::AtomicAdd {
                    table: ctr,
                    index: 0,
                    inc: 1,
                },
                Op::main_step(8 * 1024, 90_000),
                Op::write(8 * 1024),
            ],
        )),
    );
    gpu.launch(
        s2,
        Arc::new(FixedKernel::new(
            "background",
            Dim3::linear(5),
            1,
            vec![Op::compute(250_000), Op::read(128 * 1024)],
        )),
    );
}

#[test]
fn optimized_engine_matches_reference_exactly() {
    let run = |mode: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig::toy(4));
        mixed_workload(&mut gpu);
        traced_in(gpu, mode)
    };
    let (ref_report, ref_trace) = run(EngineMode::Reference);
    let (opt_report, opt_trace) = run(EngineMode::Optimized);
    assert_eq!(ref_report.kernels, opt_report.kernels);
    assert_eq!(ref_report.total, opt_report.total);
    assert_eq!(ref_report.sem_posts, opt_report.sem_posts);
    assert_eq!(ref_report.sm_utilization, opt_report.sm_utilization);
    assert_eq!(ref_trace, opt_trace, "scheduling traces must be identical");
    // The whole point: the optimized engine must do the same work with
    // fewer heap events (ops coalesced between sync points).
    assert!(
        opt_report.sim_events <= ref_report.sim_events,
        "optimized {} vs reference {}",
        opt_report.sim_events,
        ref_report.sim_events
    );
}

#[test]
fn optimized_engine_matches_reference_on_deadlocks() {
    let run = |mode: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(4)
        });
        let sem = gpu.alloc_sems("tile", 2, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(1);
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(4),
                1,
                vec![Op::compute(100), Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(4),
                1,
                vec![Op::wait(sem, 0, 4), Op::compute(10)],
            )),
        );
        run_in(gpu, mode).unwrap_err()
    };
    let reference = run(EngineMode::Reference);
    let optimized = run(EngineMode::Optimized);
    assert_eq!(reference, optimized, "blocked/pending sets must match");
}

#[test]
fn coalescing_respects_cross_block_memory_state() {
    // Jittered blocks finish a wave at staggered times, so a block's
    // later ops see different `active_units` than its first op did;
    // coalescing across those boundaries would drift the timeline.
    let run = |mode: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig::toy(3));
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "mem",
                Dim3::linear(7),
                1,
                vec![
                    Op::read(256 * 1024),
                    Op::main_step(64 * 1024, 10_000),
                    Op::main_step(64 * 1024, 10_000),
                    Op::write(256 * 1024),
                ],
            )),
        );
        run_in(gpu, mode).unwrap()
    };
    let reference = run(EngineMode::Reference);
    let optimized = run(EngineMode::Optimized);
    assert_eq!(reference.kernels, optimized.kernels);
    assert_eq!(reference.sm_utilization, optimized.sm_utilization);
}

#[test]
fn lone_block_coalesces_to_a_handful_of_events() {
    // One block, no competitors: every op between launch and finish
    // coalesces, so the heap sees O(1) events instead of O(ops).
    let ops: Vec<Op> = (0..1000).map(|_| Op::compute(100)).collect();
    let mut gpu = Gpu::new(quiet_config());
    let s = gpu.create_stream(0);
    gpu.launch(
        s,
        Arc::new(FixedKernel::new("solo", Dim3::linear(1), 1, ops)),
    );
    let report = run_once(gpu).unwrap();
    assert!(
        report.sim_events < 20,
        "expected a coalesced run, saw {} events",
        report.sim_events
    );
}

fn quiet_cluster(devices: u32, sms: u32) -> ClusterConfig {
    ClusterConfig {
        devices: vec![quiet_config(); devices as usize]
            .into_iter()
            .map(|mut g| {
                g.num_sms = sms;
                g
            })
            .collect(),
        link_latency: SimTime::from_nanos(3_000),
        link_bytes_per_sec: 100e9,
    }
}

#[test]
fn devices_have_independent_sm_pools() {
    // Two kernels that each fill a whole device overlap completely on
    // a 2-device node — they would serialize on one device.
    let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
    let s0 = node.create_stream_on(0, 0);
    let s1 = node.create_stream_on(1, 0);
    for (name, s) in [("a", s0), ("b", s1)] {
        node.launch(
            s,
            Arc::new(FixedKernel::new(
                name,
                Dim3::linear(4),
                1,
                vec![Op::compute(100_000)],
            )),
        );
    }
    let report = run_once(node).unwrap();
    assert_eq!(report.kernel("a").start, report.kernel("b").start);
    assert_eq!(report.kernel("a").end, report.kernel("b").end);
    assert_eq!(report.kernel("a").device, 0);
    assert_eq!(report.kernel("b").device, 1);
}

#[test]
fn cross_device_post_pays_the_link_latency() {
    let run = |consumer_device: u32| {
        let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
        let sem = node.alloc_sems_on(consumer_device, "ready", 1, 0);
        let s0 = node.create_stream_on(0, 0);
        let sc = node.create_stream_on(consumer_device, 0);
        node.launch(
            s0,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(1),
                1,
                vec![Op::compute(100_000), Op::post(sem, 0)],
            )),
        );
        node.launch(
            sc,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(1),
                1,
                vec![Op::wait(sem, 0, 1), Op::compute(10)],
            )),
        );
        run_once(node).unwrap().kernel("consumer").end
    };
    let local = run(0);
    let remote = run(1);
    // The remote consumer's wake arrives exactly one link traversal
    // later (sem homed with the consumer: the *post* crosses).
    let expected = quiet_cluster(2, 4).link_latency;
    assert_eq!(remote.saturating_sub(local), expected);
}

#[test]
fn remote_poll_pays_the_link_latency() {
    // Consumer waits on an array homed with the *producer*: the post
    // is local, the consumer's observing poll crosses the link.
    let run = |sem_device: u32| {
        let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
        let sem = node.alloc_sems_on(sem_device, "ready", 1, 0);
        let s0 = node.create_stream_on(0, 0);
        let s1 = node.create_stream_on(1, 0);
        node.launch(
            s0,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(1),
                1,
                vec![Op::compute(100_000), Op::post(sem, 0)],
            )),
        );
        node.launch(
            s1,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(1),
                1,
                vec![Op::wait(sem, 0, 1), Op::compute(10)],
            )),
        );
        run_once(node).unwrap().kernel("consumer").end
    };
    // Homed on 0 (remote poll) vs homed on 1 (remote post): both pay
    // exactly one traversal, so the end times coincide.
    assert_eq!(run(0), run(1));
}

#[test]
fn link_send_charges_wire_time_only() {
    let cluster = quiet_cluster(2, 4);
    let mut node = Gpu::new_cluster(cluster.clone());
    let s = node.create_stream_on(0, 0);
    node.launch(
        s,
        Arc::new(FixedKernel::new(
            "send",
            Dim3::linear(1),
            1,
            vec![Op::link_send(100_000_000)],
        )),
    );
    let report = run_once(node).unwrap();
    // 100 MB at 100 GB/s = 1 ms, unscaled by residency or jitter.
    assert_eq!(
        report.kernel("send").duration,
        cluster.link_wire_time(100_000_000)
    );
    assert_eq!(report.kernel("send").duration, SimTime::from_micros(1000.0));
}

#[test]
#[should_panic(expected = "LinkScale denominator must be non-zero")]
fn zero_denominator_link_scale_is_refused() {
    LinkScale::ratio(1, 0);
}

#[test]
fn cluster_engines_match_on_cross_device_pipelines() {
    let run = |mode: EngineMode| {
        let mut node = Gpu::new_cluster(quiet_cluster(3, 4));
        let sems: Vec<_> = (0..3)
            .map(|d| node.alloc_sems_on(d, &format!("ring{d}"), 4, 0))
            .collect();
        for d in 0..3u32 {
            let s = node.create_stream_on(d, d as i32 % 2);
            let next = sems[((d + 1) % 3) as usize];
            let own = sems[d as usize];
            let mut ops = vec![
                Op::read(64 * 1024),
                Op::compute(50_000),
                Op::link_send(256 * 1024),
                Op::Fence,
                Op::post(next, 0),
            ];
            if d > 0 {
                ops.insert(0, Op::wait(own, 0, 1));
            }
            node.launch(
                s,
                Arc::new(FixedKernel::new(&format!("k{d}"), Dim3::linear(5), 2, ops)),
            );
        }
        traced_in(node, mode)
    };
    let (ref_report, ref_trace) = run(EngineMode::Reference);
    let (opt_report, opt_trace) = run(EngineMode::Optimized);
    assert_eq!(ref_report.kernels, opt_report.kernels);
    assert_eq!(ref_report.total, opt_report.total);
    assert_eq!(ref_report.sm_utilization, opt_report.sm_utilization);
    assert_eq!(ref_trace, opt_trace);
}

#[test]
#[should_panic(expected = "device 2 outside 0..2")]
fn foreign_device_stream_rejected() {
    let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
    node.create_stream_on(2, 0);
}

#[test]
fn build_error_displays_builder_and_input() {
    let e = BuildError::missing("GemmBuilder(g1)", "A operand");
    let s = e.to_string();
    assert!(
        s.contains("GemmBuilder(g1)") && s.contains("A operand"),
        "{s}"
    );
    let sim: SimError = e.into();
    assert!(matches!(sim, SimError::Build(_)));
}

/// Re-sequencing mid-run, forced through a tiny sequence limit,
/// changes nothing observable: same report, same trace.
#[test]
fn event_resequencing_is_invisible_to_a_run() {
    let run = |seq_limit: u64| {
        let mut gpu = Gpu::new(quiet_config());
        let sem = gpu.alloc_sems("s", 4, 0);
        // The producer outranks the consumer, so spinners never
        // starve it of SM slots.
        let hi = gpu.create_stream(1);
        let lo = gpu.create_stream(0);
        let producer = vec![Op::read(4096), Op::compute(3_000), Op::post(sem, 0)];
        let consumer = vec![Op::wait(sem, 0, 3), Op::main_step(2048, 2_000)];
        gpu.launch(
            hi,
            Arc::new(FixedKernel::new("p", Dim3::linear(12), 2, producer)),
        );
        gpu.launch(
            lo,
            Arc::new(FixedKernel::new("c", Dim3::linear(12), 2, consumer)),
        );
        let mut session = Session::new();
        session.enable_trace();
        session.st.fast_events.seq_limit = seq_limit;
        let report = run_on(&mut session, gpu).unwrap();
        (report, session.trace().to_vec())
    };
    let (plain, plain_trace) = run(SEQ_LIMIT);
    let (reseq, reseq_trace) = run(24);
    assert!(plain.sim_events > 48, "{} events", plain.sim_events);
    assert_eq!(plain, reseq);
    assert_eq!(plain_trace, reseq_trace);
}
