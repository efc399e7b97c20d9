//! `BuildError` coverage for every kernel builder: missing operands and
//! zero-extent shapes must surface as *typed* errors — never panics —
//! from all four builders (Gemm, Conv2D, SoftmaxDropout, StreamK).

use cusync_kernels::{
    Conv2DBuilder, Conv2DShape, GemmBuilder, GemmDims, SoftmaxDropoutBuilder, TileShape,
};
use cusync_sim::{
    BuildError, BuildErrorKind, ClusterConfig, Dim3, FixedKernel, Gpu, GpuConfig, Op, Session,
    SimError, SimTime,
};
use cusync_streamk::StreamKBuilder;

fn v100() -> GpuConfig {
    GpuConfig::tesla_v100()
}

fn tile() -> TileShape {
    TileShape::new(128, 128, 32)
}

#[track_caller]
fn assert_missing(err: &BuildError, builder_frag: &str, input_frag: &str) {
    assert_eq!(err.kind, BuildErrorKind::MissingInput, "{err}");
    assert!(err.builder.contains(builder_frag), "{err}");
    assert!(err.missing.contains(input_frag), "{err}");
    let shown = err.to_string();
    assert!(
        shown.contains("required input not set") && shown.contains(builder_frag),
        "{shown}"
    );
}

#[track_caller]
fn assert_invalid(err: &BuildError, builder_frag: &str) {
    assert_eq!(err.kind, BuildErrorKind::InvalidShape, "{err}");
    assert!(err.builder.contains(builder_frag), "{err}");
    let shown = err.to_string();
    assert!(
        shown.contains("invalid shape") && shown.contains("zero"),
        "{shown}"
    );
}

#[test]
fn gemm_builder_reports_each_missing_operand() {
    // No operands at all: A is reported first.
    let err = GemmBuilder::new("g", GemmDims::new(64, 64, 64), tile())
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "GemmBuilder(g)", "A operand");

    // swiglu_a sets only A; B and C stay missing.
    let mut gpu = cusync_sim::Gpu::new(v100());
    let a = gpu.alloc("a", 64 * 64, cusync_sim::DType::F16);
    let err = GemmBuilder::new("g", GemmDims::new(64, 64, 64), tile())
        .swiglu_a(a)
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "GemmBuilder(g)", "B operand");
}

#[test]
fn gemm_builder_rejects_zero_extent_shapes() {
    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 64 * 64, cusync_sim::DType::F16);
    for dims in [
        GemmDims::new(0, 64, 64),
        GemmDims::new(64, 0, 64),
        GemmDims::new(64, 64, 0),
    ] {
        let err = GemmBuilder::new("g", dims, tile())
            .operands(buf, buf, buf)
            .build(&v100())
            .unwrap_err();
        assert_invalid(&err, "GemmBuilder(g)");
    }
    let err = GemmBuilder::new("g", GemmDims::new(64, 64, 64), TileShape::new(128, 0, 32))
        .operands(buf, buf, buf)
        .build(&v100())
        .unwrap_err();
    assert_invalid(&err, "GemmBuilder(g)");
}

#[test]
fn conv2d_builder_reports_missing_operands_and_zero_shapes() {
    let shape = Conv2DShape::square3x3(4, 28, 64, 64);
    let err = Conv2DBuilder::new("c", shape, tile())
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "Conv2DBuilder(c)", "input");

    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 1 << 20, cusync_sim::DType::F16);
    for degenerate in [
        Conv2DShape::square3x3(0, 28, 64, 64),
        Conv2DShape::square3x3(4, 0, 64, 64),
        Conv2DShape::square3x3(4, 28, 0, 64),
        Conv2DShape::square3x3(4, 28, 64, 0),
    ] {
        let err = Conv2DBuilder::new("c", degenerate, tile())
            .operands(buf, buf, buf)
            .build(&v100())
            .unwrap_err();
        assert_invalid(&err, "Conv2DBuilder(c)");
    }
    let err = Conv2DBuilder::new("c", shape, TileShape::new(0, 128, 32))
        .operands(buf, buf, buf)
        .build(&v100())
        .unwrap_err();
    assert_invalid(&err, "Conv2DBuilder(c)");
}

#[test]
fn softmax_dropout_builder_reports_missing_operands_and_zero_shapes() {
    let err = SoftmaxDropoutBuilder::new("s", 256, 256, tile())
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "SoftmaxDropoutBuilder(s)", "input");

    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 256 * 256, cusync_sim::DType::F16);
    for (rows, cols) in [(0u32, 256u32), (256, 0)] {
        let err = SoftmaxDropoutBuilder::new("s", rows, cols, tile())
            .operands(buf, buf)
            .build(&v100())
            .unwrap_err();
        assert_invalid(&err, "SoftmaxDropoutBuilder(s)");
    }
    let err = SoftmaxDropoutBuilder::new("s", 256, 256, TileShape::new(128, 0, 32))
        .operands(buf, buf)
        .build(&v100())
        .unwrap_err();
    assert_invalid(&err, "SoftmaxDropoutBuilder(s)");
}

#[test]
fn streamk_builder_reports_missing_operands_and_zero_shapes() {
    let err = StreamKBuilder::new("k", GemmDims::new(64, 64, 64), tile())
        .build()
        .unwrap_err();
    assert_missing(&err, "StreamKBuilder(k)", "A operand");

    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 64 * 64, cusync_sim::DType::F16);
    for dims in [
        GemmDims::new(0, 64, 64),
        GemmDims::new(64, 0, 64),
        GemmDims::new(64, 64, 0),
    ] {
        let err = StreamKBuilder::new("k", dims, tile())
            .operands(buf, buf, buf)
            .build()
            .unwrap_err();
        assert_invalid(&err, "StreamKBuilder(k)");
    }
    let err = StreamKBuilder::new("k", GemmDims::new(64, 64, 64), TileShape::new(0, 128, 32))
        .operands(buf, buf, buf)
        .build()
        .unwrap_err();
    assert_invalid(&err, "StreamKBuilder(k)");
}

#[test]
fn build_errors_convert_into_sim_errors_for_pipeline_assembly() {
    let err = GemmBuilder::new("g", GemmDims::new(0, 1, 1), tile())
        .build(&v100())
        .unwrap_err();
    let sim: SimError = err.clone().into();
    match sim {
        SimError::Build(inner) => assert_eq!(inner, err),
        other => panic!("expected SimError::Build, got {other}"),
    }
}

/// Every `SimError` variant — including the structured `DeadlockReport` —
/// must have complete `Display` + `std::error::Error` coverage: distinct,
/// actionable messages and a `source()` chain that round-trips to the
/// underlying typed error. Exploration failures print these, so an opaque
/// `Debug` dump here is a diagnostics regression.
#[test]
fn sim_error_display_and_source_cover_every_variant() {
    use cusync_sim::{Dim3, FixedKernel, Gpu, Op, SimTime};
    use std::error::Error as _;
    use std::sync::Arc;

    // Deadlock: produce a real one and check the rendered report.
    let mut gpu = Gpu::new(GpuConfig {
        host_launch_gap: SimTime::ZERO,
        kernel_dispatch_latency: SimTime::ZERO,
        block_jitter: 0.0,
        ..GpuConfig::toy(2)
    });
    let sem = gpu.alloc_sems("tile", 1, 0);
    let s1 = gpu.create_stream(0);
    let s2 = gpu.create_stream(1);
    gpu.launch(
        s1,
        Arc::new(FixedKernel::new(
            "producer",
            Dim3::linear(2),
            1,
            vec![Op::compute(100), Op::post(sem, 0)],
        )),
    );
    gpu.launch(
        s2,
        Arc::new(FixedKernel::new(
            "consumer",
            Dim3::linear(2),
            1,
            vec![Op::wait(sem, 0, 2), Op::compute(10)],
        )),
    );
    let pipeline = gpu.compile().expect("valid toy config");
    let deadlock = Session::new().run(&pipeline).unwrap_err();
    let shown = deadlock.to_string();
    // The Display names the stall, each blocked wait, the starved
    // kernel's launch progress, per-SM occupancy and the cycle sentence.
    for fragment in [
        "deadlock at",
        "blocked: consumer",
        "tile[0] >= 2",
        "pending: producer",
        "unlaunched",
        "occupancy: sm",
        "spinning",
        "wait cycle:",
    ] {
        assert!(
            shown.contains(fragment),
            "missing {fragment:?} in:\n{shown}"
        );
    }
    // Error::source round-trips to the structured report.
    let source = deadlock.source().expect("deadlock has a source");
    let report = source
        .downcast_ref::<cusync_sim::DeadlockReport>()
        .expect("source is the DeadlockReport");
    assert_eq!(report.blocked.len(), 2);
    assert_eq!(report.to_string(), shown, "Display delegates to the report");

    // Build: source() chains to the typed BuildError.
    let build = GemmBuilder::new("g", GemmDims::new(0, 1, 1), tile())
        .build(&v100())
        .unwrap_err();
    let sim: SimError = build.clone().into();
    assert!(sim.to_string().contains("invalid shape"), "{sim}");
    let source = sim.source().expect("build error has a source");
    assert_eq!(
        source
            .downcast_ref::<BuildError>()
            .expect("BuildError source"),
        &build
    );
}

/// A pipeline small enough to run on any valid hardware model: two
/// launches, so a hostile launch gap is added twice before validation.
fn tiny_pipeline(cluster: ClusterConfig) -> Gpu {
    let mut gpu = Gpu::new_cluster(cluster);
    let stream = gpu.create_stream(0);
    for name in ["copy", "copy again"] {
        gpu.launch(
            stream,
            std::sync::Arc::new(FixedKernel::new(
                name,
                Dim3::linear(4),
                2,
                vec![Op::read(4096), Op::compute(1_000), Op::write(4096)],
            )),
        );
    }
    gpu
}

/// The validated fields of a device, in [`break_field`]'s numbering.
const DEVICE_FIELDS: u32 = 17;

/// Sets validated field `field` of `gpu` out of its range and returns the
/// field's name. `kind` picks 0, a negative value, NaN, infinity or an
/// extreme (1e300, or the type's maximum); where a kind cannot be
/// represented or lies in range (0 latency, NaN cycles) the value lands
/// `magnitude` past the field's upper bound instead.
fn break_field(gpu: &mut GpuConfig, field: u32, kind: u32, magnitude: f64) -> &'static str {
    let float = || match kind {
        0 => 0.0,
        1 => -magnitude,
        2 => f64::NAN,
        3 => f64::INFINITY,
        _ => 1e300,
    };
    // Fields whose range is within [0, 1] and holds 0: past 1 instead.
    let unit_from_zero = || match kind {
        0 => 1.0 + magnitude,
        _ => float(),
    };
    let cycles = match kind {
        4 => u64::MAX,
        _ => 1_000_000_001 + magnitude as u64,
    };
    let time = match kind {
        4 => SimTime::MAX,
        _ => SimTime::from_picos(1_000_000_000_001 + magnitude as u64),
    };
    match field {
        0 => {
            gpu.num_sms = match kind {
                0 => 0,
                4 => u32::MAX,
                _ => 65_537 + magnitude as u32,
            };
            "num_sms"
        }
        1 => {
            gpu.clock_hz = float();
            "clock_hz"
        }
        2 => {
            gpu.tensor_flop_per_cycle_sm = float();
            "tensor_flop_per_cycle_sm"
        }
        3 => {
            gpu.fma_flop_per_cycle_sm = float();
            "fma_flop_per_cycle_sm"
        }
        4 => {
            gpu.dram_bytes_per_sec = float();
            "dram_bytes_per_sec"
        }
        5 => {
            gpu.compute_efficiency = float();
            "compute_efficiency"
        }
        6 => {
            gpu.global_latency_cycles = cycles;
            "global_latency_cycles"
        }
        7 => {
            gpu.atomic_latency_cycles = cycles;
            "atomic_latency_cycles"
        }
        8 => {
            gpu.poll_latency_cycles = cycles;
            "poll_latency_cycles"
        }
        9 => {
            gpu.fence_cycles = cycles;
            "fence_cycles"
        }
        10 => {
            gpu.syncthreads_cycles = cycles;
            "syncthreads_cycles"
        }
        11 => {
            gpu.residency_boost = unit_from_zero();
            "residency_boost"
        }
        12 => {
            gpu.block_jitter = unit_from_zero();
            "block_jitter"
        }
        13 => {
            gpu.dram_saturation_fraction = float();
            "dram_saturation_fraction"
        }
        14 => {
            gpu.host_launch_gap = time;
            "host_launch_gap"
        }
        15 => {
            gpu.kernel_dispatch_latency = time;
            "kernel_dispatch_latency"
        }
        _ => {
            // Just below the clock's floor: positive, finite and wrong.
            gpu.clock_hz = 1e6 / (2.0 + magnitude);
            "clock_hz"
        }
    }
}

/// `err` is a `SimError::Config` naming `want`.
#[track_caller]
fn assert_config_error(err: SimError, want: &str) {
    match err {
        SimError::Config(e) => {
            assert_eq!(e.field, want, "{e}");
            let sim = SimError::Config(e);
            assert!(sim.to_string().contains(want), "{sim}");
            assert!(std::error::Error::source(&sim).is_some());
        }
        other => panic!("{want}: expected SimError::Config, got {other}"),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Property: a hardware model with any validated field at 0, negative,
    /// NaN, infinite or extreme is rejected by compile as
    /// `SimError::Config` naming that field (never a run, never a panic),
    /// on a lone GPU and on device 1 of a cluster.
    #[test]
    fn out_of_range_hardware_models_are_config_errors(
        field in 0u32..DEVICE_FIELDS,
        kind in 0u32..5,
        magnitude in 1u64..1_000_000,
    ) {
        let mut broken = GpuConfig::toy(2);
        let name = break_field(&mut broken, field, kind, magnitude as f64 / 1_000.0);
        proptest::prop_assert!(broken.validate().is_err(), "{name} accepted");
        let lone = ClusterConfig::single(broken.clone());
        let mut node = ClusterConfig::dgx_v100(2);
        node.devices[1] = broken;
        for (cluster, want) in [
            (lone, format!("devices[0].{name}")),
            (node, format!("devices[1].{name}")),
        ] {
            let err = tiny_pipeline(cluster).compile().map(|_| ()).unwrap_err();
            assert_config_error(err, &want);
        }
    }
}

/// Every preset validates and still runs; the node-level fields are
/// checked too.
#[test]
fn presets_validate_and_cluster_fields_are_checked() {
    for gpu in [
        GpuConfig::tesla_v100(),
        GpuConfig::ampere_a100(),
        GpuConfig::toy(1),
    ] {
        assert_eq!(gpu.validate(), Ok(()), "{}", gpu.name);
        let cluster = ClusterConfig::single(gpu);
        assert_eq!(cluster.validate(), Ok(()));
        let pipeline = tiny_pipeline(cluster).compile().expect("a preset compiles");
        Session::new().run(&pipeline).expect("a preset runs");
    }
    for n in 1..=8 {
        assert_eq!(ClusterConfig::dgx_v100(n).validate(), Ok(()));
        assert_eq!(
            ClusterConfig::nvlink_ring(n, GpuConfig::ampere_a100()).validate(),
            Ok(())
        );
    }
    let broken = |edit: fn(&mut ClusterConfig)| {
        let mut node = ClusterConfig::dgx_v100(2);
        edit(&mut node);
        tiny_pipeline(node).compile().map(|_| ()).unwrap_err()
    };
    for link in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300] {
        let mut node = ClusterConfig::dgx_v100(2);
        node.link_bytes_per_sec = link;
        assert_eq!(node.validate().unwrap_err().field, "link_bytes_per_sec");
    }
    assert_config_error(
        broken(|n| n.link_bytes_per_sec = f64::NAN),
        "link_bytes_per_sec",
    );
    assert_config_error(broken(|n| n.link_latency = SimTime::MAX), "link_latency");
    let empty = ClusterConfig {
        devices: Vec::new(),
        ..ClusterConfig::dgx_v100(1)
    };
    assert_eq!(empty.validate().unwrap_err().field, "devices");
}
