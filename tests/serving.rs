//! Property coverage for the serving layer (`crates/serve`): for *any*
//! seeded workload × scheduler × batching policy,
//!
//! 1. completions are recorded at non-decreasing virtual-clock instants;
//! 2. request conservation holds exactly — `offered = admitted +
//!    rejected` and `admitted = completed + shed` per tenant;
//! 3. two runs of the same seed are bit-identical, and the workload
//!    generator is genuinely seed-sensitive;
//!
//! plus directed edge cases the random sweep is unlikely to hit (zero
//! completions under an impossible SLO, queue-cap backpressure), and a
//! differential test of the report's `LatencySummary` against a
//! sort-then-index reference.

use cusync_serve::{
    ArrivalModel, BatchPolicy, CompletionRecord, DecodePolicy, DeviceDrop, FaultPlan,
    LatencySummary, LinkDegrade, ModelKind, PanicInjection, PreemptPolicy, RequestSched,
    RetryPolicy, ServeConfig, ServeConfigError, Server, TenantClass, TenantSpec, WorkloadSpec,
};
use cusync_sim::LinkScale;
use cusync_sim::{ClusterConfig, GpuConfig, SimTime};
use proptest::prelude::*;

/// A seed-derived multi-tenant toy workload: 1–3 tenants, mixed
/// open/closed arrival models, rates from undersubscribed to saturating,
/// SLOs from hopeless to generous.
fn random_spec(seed: u64) -> WorkloadSpec {
    let mut x = seed;
    let mut draw = |range: u64| {
        x = cusync_sim::splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15));
        x % range
    };
    let num_tenants = 1 + draw(3) as usize;
    let tenants = (0..num_tenants)
        .map(|i| {
            let open = draw(2) == 0;
            TenantSpec {
                name: format!("t{i}"),
                // One tenant in four is an autoregressive decoder, so the
                // sweep also drives the continuous-batching/KV machinery
                // under random schedulers, faults and preemption.
                model: if draw(4) == 0 {
                    ModelKind::DecodeLlm {
                        prompt: 4 + draw(12) as u32,
                        max_new: 1 + draw(16) as u32,
                        step_cycles: 20_000 + draw(40_000),
                        ctx_cycles: 100 + draw(400),
                        kv_bytes_per_token: 1 << (10 + draw(4)),
                    }
                } else {
                    ModelKind::Toy {
                        blocks: 1 + draw(4) as u32,
                        compute_cycles: 50_000 + draw(150_000),
                    }
                },
                arrival: if open {
                    ArrivalModel::OpenPoisson {
                        rate_rps: 1_000.0 + draw(30_000) as f64,
                    }
                } else {
                    ArrivalModel::ClosedLoop {
                        clients: 1 + draw(6) as u32,
                        think: SimTime::from_micros(20.0 + draw(400) as f64),
                    }
                },
                slo: SimTime::from_micros(50.0 + draw(2_000) as f64),
                queue_cap: 1 + draw(24) as usize,
                weight: 1 + draw(4) as u32,
                class: if draw(2) == 0 {
                    TenantClass::Latency
                } else {
                    TenantClass::Throughput
                },
                retry: if draw(2) == 0 {
                    Some(RetryPolicy {
                        base: SimTime::from_micros(20.0 + draw(200) as f64),
                        max_retries: draw(4) as u32,
                    })
                } else {
                    None
                },
            }
        })
        .collect();
    WorkloadSpec {
        tenants,
        horizon: SimTime::from_millis(5 + draw(10)),
        seed: x,
    }
}

fn toy_cluster(devices: u32) -> ClusterConfig {
    ClusterConfig::homogeneous(
        devices,
        GpuConfig::toy(4),
        SimTime::from_nanos(500),
        ClusterConfig::NVLINK_BYTES_PER_SEC,
    )
}

fn config_for(sched: RequestSched, batching: u64) -> ServeConfig {
    ServeConfig {
        sched,
        batch: match batching {
            0 => BatchPolicy::off(),
            1 => BatchPolicy::new(4, SimTime::ZERO),
            _ => BatchPolicy::new(4, SimTime::from_micros(60.0)),
        },
        slo_admission: batching.is_multiple_of(2),
        // Alternate decode modes so both the static-width and the
        // continuous-batching paths face the random sweep.
        decode: if batching == 1 {
            DecodePolicy::continuous_batching()
        } else {
            DecodePolicy::static_width()
        },
        ..ServeConfig::baseline()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: any seeded workload, under any scheduler and batching
    /// policy, yields monotone virtual-clock completions, exact request
    /// conservation, and per-seed determinism across two runs.
    #[test]
    fn any_workload_conserves_requests_and_replays_identically(
        seed in 0u64..u64::MAX,
        devices in 1u32..4,
        sched_idx in 0usize..3,
        batching in 0u64..3,
    ) {
        let spec = random_spec(seed);
        let server = Server::new(spec, &toy_cluster(devices), 4);
        let config = config_for(RequestSched::ALL[sched_idx], batching);
        let report = server.run(&config);
        // check() enforces conservation, monotone completions, latency
        // accounting and the makespan invariant.
        if let Err(e) = report.check() {
            panic!("seed {seed}: {e}");
        }
        // Determinism: an identical server + config replays bit-identically.
        let again = server.run(&config);
        prop_assert_eq!(&report, &again);
        // The arrival processes really offered load.
        let offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
        prop_assert!(offered > 0, "seed {} offered nothing", seed);
    }

    /// Property: the workload generator is seed-sensitive — distinct
    /// seeds virtually always offer different request histories.
    #[test]
    fn distinct_seeds_differ(seed in 0u64..u64::MAX / 2) {
        let cluster = toy_cluster(2);
        let config = config_for(RequestSched::Fifo, 2);
        let a = Server::new(random_spec(seed), &cluster, 4).run(&config);
        let b = Server::new(random_spec(seed + 1), &cluster, 4).run(&config);
        prop_assert!(a != b, "seeds {} and {} coincided", seed, seed + 1);
    }
}

/// The nearest-rank `q`-quantile by sort-then-index: the `ceil(n·q)`-th
/// smallest of `sorted` (ascending), the rank clamped to `[1, n]`.
fn sorted_quantile(sorted: &[SimTime], q: f64) -> SimTime {
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property: a `LatencySummary` of any latency sequence — empty, one
    /// or two samples, or up to 2,000 drawn from as few as one distinct
    /// value — equals the sort-then-index nearest-rank reference, its
    /// digest is `CompletionRecord`'s fold of the sequence, and changing
    /// any one sample changes the digest.
    #[test]
    fn latency_summary_matches_a_sorted_reference(
        size in (0usize..6, 0usize..2_000),
        spread in 0usize..4,
        seed in 0u64..u64::MAX,
        pick in 0usize..2_000,
    ) {
        let n = if size.0 < 3 { size.0 } else { size.1 };
        let distinct = [1, 3, 50, 1_000_000_000][spread];
        let latencies: Vec<SimTime> = (0..n as u64)
            .map(|i| SimTime::from_picos(1 + cusync_sim::splitmix64(seed ^ i) % distinct))
            .collect();
        let summary = LatencySummary::from_latencies(&mut latencies.clone());
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let mut record = CompletionRecord::default();
        for &latency in &latencies {
            record.push(latency);
        }
        let expected = if n == 0 {
            LatencySummary::default()
        } else {
            let sum: u64 = latencies.iter().map(|l| l.as_picos()).sum();
            LatencySummary {
                count: n as u64,
                p50: sorted_quantile(&sorted, 0.50),
                p95: sorted_quantile(&sorted, 0.95),
                p99: sorted_quantile(&sorted, 0.99),
                mean: SimTime::from_picos(sum / n as u64),
                max: sorted[n - 1],
                digest: record.digest,
            }
        };
        prop_assert_eq!(summary, expected);
        if n > 0 {
            let mut changed = latencies.clone();
            let i = pick % n;
            changed[i] = SimTime::from_picos(changed[i].as_picos() + 1);
            let moved = LatencySummary::from_latencies(&mut changed);
            prop_assert!(moved.digest != summary.digest, "sample {} of {} changed", i, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: under ANY seed-keyed fault plan — device drops, worker
    /// panics, link degradation — with retries and preemption in the
    /// mix, conservation still holds exactly, stranding is typed and
    /// only possible when the whole cluster died, and the same
    /// (workload seed, chaos seed) replays bit-identically.
    #[test]
    fn any_fault_plan_conserves_and_replays_identically(
        seed in 0u64..u64::MAX,
        chaos_seed in 0u64..u64::MAX,
        devices in 1u32..4,
        preempt in 0u64..2,
    ) {
        let spec = random_spec(seed);
        let horizon = spec.horizon;
        let server = Server::new(spec, &toy_cluster(devices), 4);
        let plan = FaultPlan::chaos(chaos_seed, devices as usize, horizon);
        let mut config = config_for(RequestSched::ALL[(seed % 3) as usize], seed % 3);
        if preempt == 1 {
            config.preempt = Some(PreemptPolicy::new(SimTime::from_micros(5.0)));
        }
        let report = server.run_with_faults(&config, &plan);
        if let Err(e) = report.check() {
            panic!("seed {seed} chaos {chaos_seed}: {e}");
        }
        if report.faults.stranded > 0 {
            prop_assert!(
                report.faults.devices_lost >= devices as u64,
                "stranding requires the whole cluster dead"
            );
        }
        let again = server.run_with_faults(&config, &plan);
        prop_assert_eq!(&report, &again);
    }
}

/// Every fault class at once — a panic, then link degradation, then a
/// device drop — under EDF with preemption enabled: the report stays
/// conserved, typed, and bit-reproducible.
#[test]
fn kitchen_sink_fault_plan_stays_coherent() {
    let spec = random_spec(0xC6A05);
    let horizon = spec.horizon;
    let server = Server::new(spec, &toy_cluster(2), 4);
    let plan = FaultPlan {
        drops: vec![DeviceDrop {
            device: 1,
            at: SimTime::from_picos(horizon.as_picos() / 2),
        }],
        panics: vec![PanicInjection {
            device: 0,
            at: SimTime::from_picos(horizon.as_picos() / 3),
        }],
        link: Some(LinkDegrade {
            at: SimTime::from_picos(horizon.as_picos() / 4),
            scale: LinkScale::times(4),
        }),
    };
    let mut config = config_for(RequestSched::Edf, 1);
    config.preempt = Some(PreemptPolicy::new(SimTime::from_micros(10.0)));
    let report = server.run_with_faults(&config, &plan);
    report.check().expect("kitchen-sink report");
    assert_eq!(report.faults.devices_lost, 1);
    assert!(report.faults.link_degraded);
    assert_eq!(report, server.run_with_faults(&config, &plan));
}

/// An SLO shorter than the service time completes nothing *within* SLO
/// under SLO-aware admission (everything is rejected at the door), yet
/// conservation still holds.
#[test]
fn hopeless_slo_rejects_everything_at_admission() {
    let spec = WorkloadSpec {
        tenants: vec![TenantSpec {
            name: "hopeless".into(),
            model: ModelKind::Toy {
                blocks: 4,
                compute_cycles: 200_000,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps: 5_000.0 },
            slo: SimTime::from_nanos(100),
            queue_cap: 8,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        }],
        horizon: SimTime::from_millis(5),
        seed: 99,
    };
    let server = Server::new(spec, &toy_cluster(1), 2);
    let report = server.run(&ServeConfig {
        sched: RequestSched::Fifo,
        batch: BatchPolicy::off(),
        slo_admission: true,
        ..ServeConfig::baseline()
    });
    report.check().expect("conservation under total rejection");
    let t = &report.tenants[0];
    assert!(t.offered > 0);
    assert_eq!(
        t.admitted, 0,
        "SLO-aware admission must reject hopeless load"
    );
    assert_eq!(t.rejected, t.offered);
    assert_eq!(report.goodput_rps(), 0.0);
}

/// Bounded queues shed: with a queue capacity of 1 and a saturating
/// arrival rate, most offered requests are rejected as backpressure.
#[test]
fn tiny_queue_backpressures() {
    let spec = WorkloadSpec {
        tenants: vec![TenantSpec {
            name: "burst".into(),
            model: ModelKind::Toy {
                blocks: 2,
                compute_cycles: 150_000,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps: 50_000.0 },
            slo: SimTime::from_millis(10),
            queue_cap: 1,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        }],
        horizon: SimTime::from_millis(10),
        seed: 7,
    };
    let server = Server::new(spec, &toy_cluster(1), 1);
    let report = server.run(&ServeConfig::baseline());
    report.check().expect("conservation under backpressure");
    let t = &report.tenants[0];
    assert!(t.rejected > t.admitted, "cap-1 queue must reject most load");
    assert!(t.max_queue_depth <= 1);
    assert!(t.completed > 0);
}

/// A continuous-batching config with `max_batch` set by struct literal.
fn continuous_with_width(max_batch: u32) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy {
            max_batch,
            window: SimTime::ZERO,
        },
        decode: DecodePolicy::continuous_batching(),
        ..ServeConfig::baseline()
    }
}

#[test]
fn a_zero_batch_width_is_a_typed_error() {
    assert_eq!(
        continuous_with_width(0).validate(),
        Err(ServeConfigError::ZeroMaxBatch)
    );
    assert_eq!(continuous_with_width(1).validate(), Ok(()));
}

#[test]
fn a_zero_kv_block_is_a_typed_error() {
    let mut config = ServeConfig::baseline();
    config.decode.block_tokens = 0;
    assert_eq!(config.validate(), Err(ServeConfigError::ZeroBlockTokens));
}

#[test]
fn a_kv_share_over_the_whole_dram_is_a_typed_error() {
    let mut config = ServeConfig::baseline();
    config.decode.kv_permille = 1001;
    assert_eq!(
        config.validate(),
        Err(ServeConfigError::KvShareOver1000 { kv_permille: 1001 })
    );
    config.decode.kv_permille = 1000;
    assert_eq!(config.validate(), Ok(()));
}

/// A zero batch width under continuous batching would recurse until the
/// stack overflows (every dispatch seats nobody and begins an empty
/// decode step, which dispatches again): the run must stop at the config
/// check instead.
#[test]
#[should_panic(expected = "invalid serve config: batch.max_batch must be > 0")]
fn a_zero_batch_width_stops_a_decode_run() {
    let spec = WorkloadSpec {
        tenants: vec![TenantSpec {
            name: "decode".into(),
            model: ModelKind::DecodeLlm {
                prompt: 8,
                max_new: 4,
                step_cycles: 20_000,
                ctx_cycles: 100,
                kv_bytes_per_token: 1 << 10,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps: 5_000.0 },
            slo: SimTime::from_millis(1),
            queue_cap: 8,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        }],
        horizon: SimTime::from_millis(2),
        seed: 5,
    };
    let server = Server::new(spec, &toy_cluster(1), 2);
    server.run(&continuous_with_width(0));
}
