//! Properties of the observability layer (`crates/obs`) over random sync
//! graphs, plus passivity of the serve-layer tracer.
//!
//! The attribution and exporter promises pinned here:
//!
//! - **Critical path ≤ makespan**, by construction of the backward
//!   frontier walk, on every graph.
//! - **Exact partition**: on completed runs, per-device
//!   `compute + spin + link == busy` and `busy + idle == capacity`, with
//!   no slot-picosecond counted twice or dropped.
//! - **Valid catapult JSON**: every exported trace parses, every `B` has
//!   its `E`, timestamps are monotone per lane — checked by the crate's
//!   own validator, which shares no code with the emitter's happy path.
//! - **Stable bytes**: the exporter's output for a fixed fixture set
//!   (random graphs, a serve trace, a hand-built set with sub-rows and
//!   escaped names) is pinned by length and FNV-1a digest.
//! - **Validator ≡ spec**: the streaming `validate_chrome_trace` returns
//!   exactly what the tree-building spec in `crates/obs/src/chrome_spec.rs`
//!   returns, error text included, on mutated exports (truncation,
//!   deletions, inserted tokens, `B`↔`E` swaps, duplicated keys, hostile
//!   numbers). The spec is included here by path; the library never
//!   compiles it.
//! - **Passivity**: running traced changes nothing observable (reports
//!   are bit-identical with tracing on and off, in the engine and in the
//!   serve layer).

use cusync_obs::{
    chrome_trace_json, collect_spans, validate_chrome_trace, Attribution, ChromeTraceStats, Lane,
    Span, SpanKind,
};
use cusync_serve::{
    ArrivalModel, BatchPolicy, ModelKind, ServeConfig, Server, TenantClass, TenantSpec,
    WorkloadSpec,
};
use cusync_sim::{ClusterConfig, EngineMode, GpuConfig, Session, SimTime};
use cusync_suite::randgraph::generate;
use proptest::prelude::*;
use proptest::seed_from_name;

/// The tree-building spec of `validate_chrome_trace`, compiled into this
/// test only.
#[path = "../crates/obs/src/chrome_spec.rs"]
mod chrome_spec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on arbitrary random sync graphs (3-5 stages, skip and
    /// PDL edges, 1-3 devices, safe sizing) the attribution partition is
    /// exact, the critical path is bounded by the makespan, and the
    /// exported Chrome trace validates.
    #[test]
    fn attribution_and_export_hold_on_random_graphs(
        seed in 0u64..u64::MAX,
        devices in 1u32..4,
    ) {
        let graph = generate(seed, devices);
        let cluster = graph.safe_cluster();
        let pipeline = graph.build(&cluster, true).expect("safe graph compiles");
        let mut session = Session::with_mode(EngineMode::Optimized);
        session.enable_trace();
        let report = session.run(&pipeline).expect("safe sizing cannot deadlock");

        let attr = Attribution::analyze(pipeline.cluster(), &report, session.trace());
        prop_assert!(attr.exact, "completed runs attribute exactly");
        prop_assert!(
            attr.critical_path.length <= report.total,
            "critical path {} exceeds makespan {}",
            attr.critical_path.length,
            report.total,
        );
        prop_assert!(!attr.critical_path.hops.is_empty());
        for d in &attr.devices {
            prop_assert_eq!(
                d.compute_slot_ps + d.spin_slot_ps + d.link_slot_ps,
                d.busy_slot_ps(),
                "device {} busy buckets", d.device,
            );
            prop_assert_eq!(
                d.busy_slot_ps() + d.idle_slot_ps,
                d.capacity_slot_ps,
                "device {} busy+idle != capacity", d.device,
            );
        }
        // Kernel busy residency is conserved: the per-kernel buckets sum
        // to the same total the per-device buckets do.
        let dev_busy: u128 = attr.devices.iter().map(|d| d.busy_slot_ps()).sum();
        let kern_busy: u128 = attr.kernels.iter().map(|k| k.busy_slot_ps).sum();
        prop_assert_eq!(dev_busy, kern_busy);

        let spans = collect_spans(pipeline.cluster(), &report, session.trace());
        for s in &spans {
            prop_assert!(s.end >= s.start, "span {:?} is inverted", s.name);
            prop_assert!(s.end <= report.total, "span {:?} outlives the run", s.name);
        }
        let chrome = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&chrome)
            .unwrap_or_else(|e| panic!("invalid chrome trace: {e}"));
        prop_assert_eq!(stats.spans, spans.len(), "every span exports exactly once");
    }

    /// Property: tracing is passive — the same graph run with tracing on
    /// and off produces bit-identical reports, on both engines.
    #[test]
    fn tracing_is_passive_on_random_graphs(
        seed in 0u64..u64::MAX,
        devices in 1u32..4,
    ) {
        let graph = generate(seed, devices);
        let cluster = graph.safe_cluster();
        let pipeline = graph.build(&cluster, true).expect("safe graph compiles");
        for mode in [EngineMode::Reference, EngineMode::Optimized] {
            let mut plain = Session::with_mode(mode);
            let untraced = plain.run(&pipeline).expect("untraced run");
            let mut traced = Session::with_mode(mode);
            traced.enable_trace();
            let report = traced.run(&pipeline).expect("traced run");
            prop_assert_eq!(&untraced, &report, "tracing must not perturb {:?}", mode);
            prop_assert!(!traced.trace().is_empty(), "traced run records events");
        }
    }
}

/// A small two-tenant serve workload for the passivity checks below.
fn serve_workload() -> (WorkloadSpec, ClusterConfig) {
    let cluster = ClusterConfig::homogeneous(
        2,
        GpuConfig::toy(4),
        SimTime::from_nanos(500),
        ClusterConfig::NVLINK_BYTES_PER_SEC,
    );
    let toy = ModelKind::Toy {
        blocks: 4,
        compute_cycles: 60_000,
    };
    let spec = WorkloadSpec {
        tenants: vec![
            TenantSpec {
                name: "latency".into(),
                model: toy,
                arrival: ArrivalModel::OpenPoisson { rate_rps: 40_000.0 },
                slo: SimTime::from_millis(2),
                queue_cap: 32,
                weight: 2,
                class: TenantClass::Latency,
                retry: None,
            },
            TenantSpec {
                name: "batch".into(),
                model: toy,
                arrival: ArrivalModel::OpenPoisson { rate_rps: 20_000.0 },
                slo: SimTime::from_millis(20),
                queue_cap: 64,
                weight: 1,
                class: TenantClass::Throughput,
                retry: None,
            },
        ],
        horizon: SimTime::from_millis(10),
        seed: 0xC60_2024,
    };
    (spec, cluster)
}

/// The serve-layer tracer is passive: `run_traced` returns the same
/// report `run` does, bit for bit, and the spans it adds are well-formed
/// request lifecycles.
#[test]
fn serve_tracing_is_passive() {
    let (spec, cluster) = serve_workload();
    let server = Server::new(spec, &cluster, 4);
    let config = ServeConfig {
        batch: BatchPolicy::new(4, SimTime::from_micros(50.0)),
        ..ServeConfig::baseline()
    };
    let untraced = server.run(&config);
    let (report, spans) = server.run_traced(&config);
    assert_eq!(untraced, report, "run_traced must not perturb the report");
    assert!(!spans.is_empty(), "a loaded server produces request spans");
    for s in &spans {
        assert!(s.end >= s.start, "span {:?} is inverted", s.name);
    }
    let chrome = chrome_trace_json(&spans);
    let stats = validate_chrome_trace(&chrome).expect("serve trace exports validly");
    assert_eq!(stats.spans, spans.len());
}

/// The virtual-time metrics sampler is passive and deterministic: turning
/// it on changes nothing but the `samples` array, samples are strictly
/// increasing in time, and two runs sample identically.
#[test]
fn serve_sampler_is_passive_and_deterministic() {
    let (spec, cluster) = serve_workload();
    let server = Server::new(spec, &cluster, 4);
    let base = ServeConfig {
        batch: BatchPolicy::new(4, SimTime::from_micros(50.0)),
        ..ServeConfig::baseline()
    };
    let sampled = ServeConfig {
        sample_every: Some(SimTime::from_micros(250.0)),
        ..base
    };
    let plain = server.run(&base);
    let with_samples = server.run(&sampled);
    assert!(plain.samples.is_empty());
    assert!(
        !with_samples.samples.is_empty(),
        "horizon spans many periods"
    );
    for w in with_samples.samples.windows(2) {
        assert!(w[0].time < w[1].time, "samples must be strictly increasing");
    }
    with_samples
        .check()
        .expect("sampled report passes its own laws");
    // Everything but the samples is bit-identical.
    let mut stripped = with_samples.clone();
    stripped.samples.clear();
    assert_eq!(plain, stripped, "sampling must not perturb the run");
    assert_eq!(
        with_samples,
        server.run(&sampled),
        "sampling is deterministic"
    );
}

/// Spans of one traced `randgraph` run on its safe cluster.
fn randgraph_spans(seed: u64, devices: u32) -> Vec<Span> {
    let graph = generate(seed, devices);
    let cluster = graph.safe_cluster();
    let pipeline = graph.build(&cluster, true).expect("safe graph compiles");
    let mut session = Session::with_mode(EngineMode::Optimized);
    session.enable_trace();
    let report = session.run(&pipeline).expect("safe sizing cannot deadlock");
    collect_spans(pipeline.cluster(), &report, session.trace())
}

/// A hand-built span set: overlapping spans that need sub-rows, every
/// lane kind, and span and tenant names that need escaping.
fn hand_built_spans() -> Vec<Span> {
    let span = |name: &str, kind, lane: Lane, start: u64, end: u64| Span {
        name: name.to_owned(),
        kind,
        lane,
        start: SimTime::from_picos(start),
        end: SimTime::from_picos(end),
    };
    let sm = Lane::Sm { device: 1, sm: 7 };
    let tenant = |name: &str| Lane::Tenant {
        tenant: name.to_owned(),
    };
    vec![
        span("k0 (0,0,0)", SpanKind::Block, sm.clone(), 0, 1_500_000),
        span("k0 (1,0,0)", SpanKind::Block, sm.clone(), 250, 900_000),
        span("k1 \"wide\"", SpanKind::Spin, sm.clone(), 300, 2_000_000),
        span("k1 (0,0,0)", SpanKind::Block, sm, 1_500_000, 3_000_001),
        span(
            "gemm\\tail",
            SpanKind::Kernel,
            Lane::Device { device: 0 },
            5,
            42,
        ),
        span(
            "gate",
            SpanKind::GateHold,
            Lane::Device { device: 0 },
            42,
            42,
        ),
        span(
            "send",
            SpanKind::Link,
            Lane::Link { device: 1 },
            10,
            123_456_789,
        ),
        span("req 1\n", SpanKind::Phase, tenant("bat\"ch"), 0, 7),
        span("req\t2 \u{1}é🚀", SpanKind::Phase, tenant("bat\"ch"), 3, 9),
        span("req 3", SpanKind::Phase, tenant("lat\\ency"), 1, 1),
    ]
}

/// The renderer's output is pinned byte for byte: `(length, FNV-1a)` of
/// the exports of a fixed fixture set, recorded from the original
/// `format!`-per-event renderer. Every fixture also validates.
#[test]
fn chrome_export_bytes_are_pinned() {
    let mut fixtures: Vec<(String, Vec<Span>)> = Vec::new();
    for seed in [3u64, 17, 2024] {
        for devices in 1u32..4 {
            fixtures.push((
                format!("randgraph {seed} d{devices}"),
                randgraph_spans(seed, devices),
            ));
        }
    }
    let (spec, cluster) = serve_workload();
    let config = ServeConfig {
        batch: BatchPolicy::new(4, SimTime::from_micros(50.0)),
        ..ServeConfig::baseline()
    };
    let (_, serve_spans) = Server::new(spec, &cluster, 4).run_traced(&config);
    fixtures.push(("serve".to_owned(), serve_spans));
    fixtures.push(("hand-built".to_owned(), hand_built_spans()));

    // Randgraph seed 3 places every stage on two devices, so its d2 and
    // d3 exports coincide.
    let pinned: &[(&str, usize, u64)] = &[
        ("randgraph 3 d1", 10519, 0xd67f_40f3_3296_c5f3),
        ("randgraph 3 d2", 10612, 0x613f_a183_ca49_4427),
        ("randgraph 3 d3", 10612, 0x613f_a183_ca49_4427),
        ("randgraph 17 d1", 19009, 0xd486_2772_6160_257c),
        ("randgraph 17 d2", 18146, 0xe426_ad27_1572_4f50),
        ("randgraph 17 d3", 18149, 0x1e56_0498_84fd_ad61),
        ("randgraph 2024 d1", 10449, 0x47e2_217d_608e_af4c),
        ("randgraph 2024 d2", 10453, 0x5b3f_2334_323d_9ec0),
        ("randgraph 2024 d3", 10457, 0x2ca6_d104_0af3_8cd7),
        ("serve", 149249, 0x70c3_1d16_8eee_af61),
        ("hand-built", 2958, 0x4174_bae3_7684_b4d1),
    ];
    let mut got = Vec::new();
    for (label, spans) in &fixtures {
        let json = chrome_trace_json(spans);
        let stats = validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(stats.spans, spans.len(), "{label}");
        // `seed_from_name` is 64-bit FNV-1a over the bytes.
        got.push((label.as_str(), json.len(), seed_from_name(&json)));
    }
    assert_eq!(got, pinned);
}

/// Serve-style tenant-lane spans whose lane and span names need escaping.
fn escaped_tenant_spans(rng: &mut TestRng) -> Vec<Span> {
    const NAMES: [&str; 5] = ["q\"t", "back\\slash", "nl\nx", "tab\tbell\u{7}", "é·🚀"];
    let pick = |rng: &mut TestRng| NAMES[(rng.next_u64() % NAMES.len() as u64) as usize];
    (0..1 + rng.next_u64() % 4)
        .map(|i| {
            let start = rng.next_u64() % 1_000_000;
            Span {
                name: format!("req {i} {}", pick(rng)),
                kind: SpanKind::Phase,
                lane: Lane::Tenant {
                    tenant: pick(rng).to_owned(),
                },
                start: SimTime::from_picos(start),
                end: SimTime::from_picos(start + rng.next_u64() % 2_000_000),
            }
        })
        .collect()
}

/// Applies one random mutation to an exported document. Positions are
/// snapped to char boundaries so the result stays a `&str`.
fn mutate(doc: &str, rng: &mut TestRng) -> String {
    const TOKENS: [&str; 7] = ["]", "}", "\"", "\\", ",", "\\u00", "1e"];
    const PH_VALUES: [&str; 6] = ["\"B\"", "\"E\"", "\"M\"", "\"i\"", "5", "null"];
    const ROW_IDS: [&str; 6] = ["-1", "0.5", "01", "1e400", "1.", "\"3\""];
    let mut doc = doc.to_owned();
    let at = |rng: &mut TestRng, doc: &str| {
        let mut pos = (rng.next_u64() % (doc.len() as u64 + 1)) as usize;
        while !doc.is_char_boundary(pos) {
            pos -= 1;
        }
        pos
    };
    // The byte offset of a random occurrence of `pat`, if any.
    let occurrence = |rng: &mut TestRng, doc: &str, pat: &str| {
        let hits: Vec<usize> = doc.match_indices(pat).map(|(i, _)| i).collect();
        (!hits.is_empty()).then(|| hits[(rng.next_u64() % hits.len() as u64) as usize])
    };
    match rng.next_u64() % 8 {
        0 => {}
        1 => {
            let pos = at(rng, &doc);
            doc.truncate(pos);
        }
        2 => {
            let pos = at(rng, &doc);
            if pos < doc.len() {
                doc.remove(pos);
            }
        }
        3 => {
            let pos = at(rng, &doc);
            doc.insert_str(pos, TOKENS[(rng.next_u64() % TOKENS.len() as u64) as usize]);
        }
        4 => {
            let (from, to) = if rng.next_u64().is_multiple_of(2) {
                ("\"ph\":\"B\"", "\"ph\":\"E\"")
            } else {
                ("\"ph\":\"E\"", "\"ph\":\"B\"")
            };
            if let Some(i) = occurrence(rng, &doc, from) {
                doc.replace_range(i..i + from.len(), to);
            }
        }
        5 => {
            // A second top-level traceEvents, before (loses) or after
            // (wins) the original.
            let dup = ["[]", "7", "[{\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":1}]"]
                [(rng.next_u64() % 3) as usize];
            if rng.next_u64().is_multiple_of(2) {
                doc.insert_str(1, &format!("\"traceEvents\":{dup},"));
            } else if let Some(end) = doc.rfind('}') {
                doc.insert_str(end, &format!(",\"traceEvents\":{dup}"));
            }
        }
        6 => {
            // A duplicated ph in one event, before (loses) or after (wins)
            // the original.
            let ph = PH_VALUES[(rng.next_u64() % PH_VALUES.len() as u64) as usize];
            if let Some(i) = occurrence(rng, &doc, "\"ph\":") {
                if rng.next_u64().is_multiple_of(2) {
                    doc.insert_str(i, &format!("\"ph\":{ph},"));
                } else {
                    let end = i + doc[i..].find(',').unwrap_or(doc.len() - i);
                    doc.insert_str(end, &format!(",\"ph\":{ph}"));
                }
            }
        }
        _ => {
            let field = ["\"pid\":", "\"tid\":", "\"ts\":"][(rng.next_u64() % 3) as usize];
            if let Some(i) = occurrence(rng, &doc, field) {
                let start = i + field.len();
                let end = start + doc[start..].find([',', '}']).unwrap_or(0);
                let id = ROW_IDS[(rng.next_u64() % ROW_IDS.len() as u64) as usize];
                doc.replace_range(start..end, id);
            }
        }
    }
    doc
}

/// Differential property: on exported traces of random graphs (1-3
/// devices, plus escaped tenant lanes) under random mutations — truncation,
/// deletion, token insertion, `B`↔`E` swaps, duplicated `traceEvents` and
/// `ph` keys, hostile numbers — the streaming validator returns exactly the
/// tree spec's result, error text included. 256 cases over a pool of 12
/// base documents, so the graphs are simulated only once each.
#[test]
fn streaming_validator_matches_the_dom_spec() {
    let mut rng = TestRng::new(seed_from_name("streaming_validator_matches_the_dom_spec"));
    let docs: Vec<String> = (0..12u64)
        .map(|i| {
            let mut spans = randgraph_spans(rng.next_u64(), 1 + (i % 3) as u32);
            spans.extend(escaped_tenant_spans(&mut rng));
            chrome_trace_json(&spans)
        })
        .collect();
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..256 {
        let base = &docs[(rng.next_u64() % docs.len() as u64) as usize];
        let mut doc = mutate(base, &mut rng);
        if rng.next_u64().is_multiple_of(4) {
            doc = mutate(&doc, &mut rng);
        }
        let got = validate_chrome_trace(&doc);
        assert_eq!(
            got,
            chrome_spec::validate(&doc),
            "case {case}: validators disagree on {doc:?}"
        );
        match got {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "both branches must be exercised: {accepted} accepted, {rejected} rejected"
    );
}
