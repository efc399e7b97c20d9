//! The committed `BENCH_*.json` virtual-time documents reproduced byte for
//! byte: `BENCH_PR3.json`, `BENCH_PR5.json`, `BENCH_PR6.json`,
//! `BENCH_PR8.json`, `BENCH_PR9.json` and `BENCH_PR10.json`.
//!
//! Each test rebuilds every cell of one document with the model builders
//! or the serving layer, renders it in the document's own format and
//! compares the result with the committed file line by line. The only
//! line skipped is `BENCH_PR3.json`'s `"wall_seconds"`, a wall-clock
//! reading. Along the way each test asserts the claims its document
//! records:
//!
//! - `BENCH_PR3.json` (tensor-parallel allreduce overlap): every cell is
//!   engine-invariant, and the overlap schedule beats the serialized one
//!   on every cell.
//! - `BENCH_PR5.json` (request scheduling × dynamic batching × load on a
//!   two-GPU node): at the saturating load, batching delivers at least
//!   1.2× the no-batching goodput under every scheduler, and tracing the
//!   top-load batched FIFO cell with the sampler on is passive.
//! - `BENCH_PR6.json` (failure scenarios): losing a device strands
//!   nothing and re-routes its work, preemption strictly improves the
//!   interactive tenant's p99 under every scheduler while the bulk tenant
//!   keeps at least half its goodput, and tracing the device-loss FIFO
//!   cell is passive.
//! - `BENCH_PR8.json` (continuous-batching decode): at the saturating
//!   load, continuous batching delivers at least 1.2× the static-width
//!   tokens goodput, and the KV-pressure cell preempts and recomputes and
//!   traces passively.
//! - `BENCH_PR9.json` (per-edge sync-mechanism autotuning): the tuned
//!   time never exceeds a valid anchor, the tuned pipeline is
//!   engine-invariant, a warm-cache replay re-simulates nothing, at least
//!   one cell strictly beats both anchors, and the cells choose at least
//!   two assignments.
//! - `BENCH_PR10.json` (sync-overhead attribution): attribution is exact,
//!   the critical path fits in the makespan, busy + idle = capacity on
//!   every device, the fine sync-wait share is strictly below the
//!   stream-serialized one on every cell, fine cells hold no launch gates
//!   while stream-serialized cells do, and the largest GPT-3 fine cell
//!   exports a valid Chrome trace.
//!
//! Every serving cell runs twice, and its two reports must be
//! bit-identical and pass `ServeReport::check`; every exported Chrome
//! trace must validate.

use std::fmt::Write as _;

use cusync::{OptFlags, SyncMechanism};
use cusync_bench::sweep::{fig8_llm_configs, FIG6_MLP_BATCHES, FIG7_BATCHES};
use cusync_models::{
    allreduce_time, compile_attention_mechanisms, compile_conv_layer_mechanisms,
    compile_mlp_mechanisms, compile_tp_layer, conv_chain_edges, improvement_pct, pq_for_channels,
    ring_allreduce_time, tp_attention, tp_mlp, AttentionConfig, MlpModel, TpLayerConfig,
    TpSchedule, ATTENTION_EDGES, MLP_EDGES,
};
use cusync_obs::{
    chrome_trace_json, collect_spans, validate_chrome_trace, Attribution, Lane, Span,
};
use cusync_serve::{
    ArrivalModel, ArrivalTrace, BatchPolicy, DecodePolicy, DeviceDrop, FaultPlan, LinkDegrade,
    ModelKind, PreemptPolicy, RequestSched, RetryPolicy, ServeConfig, ServeReport, Server,
    ServicePool, TenantClass, TenantSpec, TraceShape, WorkloadSpec,
};
use cusync_sim::{
    fnv1a, splitmix64, ClusterConfig, CompiledPipeline, EngineMode, GpuConfig, LinkScale, Session,
    SimTime,
};
use cusyncgen::{autotune_sync_mechanisms, MechanismPlan, TuneCache};

/// Compares `rendered` with the committed `golden` document line by line,
/// skipping the lines whose committed text starts with one of `skip`
/// (the rendered line must start with the same prefix).
fn assert_golden(name: &str, golden: &str, rendered: &str, skip: &[&str]) {
    let golden: Vec<&str> = golden.split('\n').collect();
    let rendered: Vec<&str> = rendered.split('\n').collect();
    assert_eq!(golden.len(), rendered.len(), "{name}: line count");
    for (i, (want, got)) in golden.iter().zip(&rendered).enumerate() {
        match skip.iter().find(|prefix| want.starts_with(*prefix)) {
            Some(prefix) => assert!(got.starts_with(prefix), "{name}:{}: {got}", i + 1),
            None => assert_eq!(want, got, "{name}:{}", i + 1),
        }
    }
}

// ---------------------------------------------------------------------------
// BENCH_PR3.json — tensor-parallel allreduce overlap
// ---------------------------------------------------------------------------

struct TpCell {
    workload: &'static str,
    cfg: TpLayerConfig,
    devices: u32,
    serialized: SimTime,
    overlap: SimTime,
    ar_sim: SimTime,
    ar_analytic: SimTime,
}

impl TpCell {
    fn improvement_pct(&self) -> f64 {
        improvement_pct(self.serialized, self.overlap)
    }

    fn ar_err_pct(&self) -> f64 {
        100.0 * (self.ar_sim.as_picos() as f64 - self.ar_analytic.as_picos() as f64)
            / self.ar_analytic.as_picos() as f64
    }
}

/// Simulates one tensor-parallel cell under both schedules, asserting
/// each schedule is bit-identical on the Reference and Optimized engines.
fn tp_cell(workload: &'static str, cfg: TpLayerConfig, devices: u32) -> TpCell {
    let cluster = ClusterConfig::dgx_v100(devices);
    let both = |schedule: TpSchedule| {
        let pipeline = compile_tp_layer(&cluster, cfg, schedule);
        let optimized = Session::new().run(&pipeline).expect("optimized TP run");
        let reference = Session::with_mode(EngineMode::Reference)
            .run(&pipeline)
            .expect("reference TP run");
        assert_eq!(
            (&optimized.kernels, optimized.total),
            (&reference.kernels, reference.total),
            "{workload} tokens={} devices={devices} {schedule:?}: engines diverged",
            cfg.tokens
        );
        optimized.total
    };
    let bytes = cfg.tokens as u64 * cfg.hidden as u64 * 2;
    TpCell {
        workload,
        cfg,
        devices,
        serialized: both(TpSchedule::Serialized),
        overlap: both(TpSchedule::Overlap),
        ar_sim: ring_allreduce_time(
            &mut Session::new(),
            &GpuConfig::tesla_v100(),
            bytes,
            devices,
        ),
        ar_analytic: allreduce_time(bytes, devices),
    }
}

fn render_overlap(hidden: u32, cells: &[TpCell]) -> String {
    let improvements: Vec<f64> = cells.iter().map(TpCell::improvement_pct).collect();
    let mean = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let min = improvements.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_ar_err = cells
        .iter()
        .map(|c| c.ar_err_pct().abs())
        .fold(0.0f64, f64::max);
    let all_win = improvements.iter().all(|&i| i > 0.0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"cusync-bench/1\",\n");
    json.push_str("  \"pr\": \"PR3\",\n");
    json.push_str(&format!(
        "  \"scenario\": {{ \"hidden\": {hidden}, \"cluster\": \"dgx_v100\", \"quick\": false }},\n"
    ));
    json.push_str("  \"entries\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"tokens\": {}, \"devices\": {}, \
             \"serialized_us\": {:.3}, \"overlap_us\": {:.3}, \"improvement_pct\": {:.2}, \
             \"allreduce_sim_us\": {:.3}, \"allreduce_analytic_us\": {:.3}, \
             \"allreduce_err_pct\": {:.2} }}{}\n",
            c.workload,
            c.cfg.tokens,
            c.devices,
            c.serialized.as_micros(),
            c.overlap.as_micros(),
            c.improvement_pct(),
            c.ar_sim.as_micros(),
            c.ar_analytic.as_micros(),
            c.ar_err_pct(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": {\n");
    json.push_str(&format!(
        "    \"mean_improvement_pct\": {mean:.2},\n    \"min_improvement_pct\": {min:.2},\n"
    ));
    json.push_str(&format!(
        "    \"max_allreduce_err_pct\": {max_ar_err:.2},\n"
    ));
    json.push_str(&format!(
        "    \"overlap_beats_serialized_everywhere\": {all_win},\n"
    ));
    json.push_str("    \"wall_seconds\": null\n");
    json.push_str("  }\n}\n");
    json
}

#[test]
fn tensor_parallel_overlap_document_is_reproduced() {
    let hidden = 12288u32; // GPT-3 145B class
    let mut cells = Vec::new();
    for devices in [2u32, 4, 8] {
        for tokens in [256u32, 512, 1024, 2048] {
            for (workload, cfg) in [
                ("tp_mlp", tp_mlp(hidden, tokens)),
                ("tp_attention", tp_attention(hidden, tokens)),
            ] {
                cells.push(tp_cell(workload, cfg, devices));
            }
        }
    }
    for c in &cells {
        assert!(
            c.improvement_pct() > 0.0,
            "{} tokens={} devices={}: the overlap schedule must beat the serialized \
             allreduce baseline",
            c.workload,
            c.cfg.tokens,
            c.devices
        );
    }
    assert_golden(
        "BENCH_PR3.json",
        include_str!("../BENCH_PR3.json"),
        &render_overlap(hidden, &cells),
        &["    \"wall_seconds\": "],
    );
}

// ---------------------------------------------------------------------------
// BENCH_PR9.json — per-edge sync-mechanism autotuning
// ---------------------------------------------------------------------------

/// One tuned figure cell.
struct TuneCell {
    figure: String,
    label: String,
    edges: usize,
    plan: MechanismPlan,
    /// Strictly faster than *both* valid anchors.
    strict_win: bool,
}

/// Shape-class fingerprint: a stable hash of the cell's identity (figure
/// family + sizes), independent of the mechanism assignment — the
/// [`TuneCache`] key space `autotune_sync_mechanisms` memoizes under.
fn shape_fingerprint(parts: &[u64]) -> u64 {
    let mut fp = 0xC60_2024u64;
    for &p in parts {
        fp = splitmix64(fp ^ splitmix64(p));
    }
    fp
}

/// Autotunes one cell, asserting that the tuned time never exceeds a
/// valid anchor and that the tuned pipeline is engine-invariant.
fn tune_cell(
    figure: &str,
    label: &str,
    edges: usize,
    fingerprint: u64,
    cache: &mut TuneCache,
    compile: impl Fn(&[SyncMechanism]) -> Option<CompiledPipeline>,
) -> TuneCell {
    let mut optimized = Session::new();
    let plan = autotune_sync_mechanisms(edges, fingerprint, cache, |ms| {
        let pipeline = compile(ms)?;
        // A deadlocking assignment is invalid, not fatal: the tuner
        // never picks it (Section III-B's occupancy deadlock).
        optimized.run(&pipeline).ok().map(|report| report.total)
    });
    for (anchor, time) in [("all-TileSync", plan.all_fine), ("all-Pdl", plan.all_pdl)] {
        if let Some(t) = time {
            assert!(
                plan.time <= t,
                "{figure}/{label}: tuned {} slower than {anchor} {t}",
                plan.time,
            );
        }
    }
    let tuned = compile(&plan.assignment).expect("the tuned assignment compiles");
    let reference = Session::with_mode(EngineMode::Reference)
        .run(&tuned)
        .expect("reference run");
    let opt_report = optimized.run(&tuned).expect("optimized run");
    assert_eq!(
        reference.kernels, opt_report.kernels,
        "{figure}/{label}: Reference vs Optimized kernel timelines",
    );
    assert_eq!(
        reference.total, opt_report.total,
        "{figure}/{label}: Reference vs Optimized totals",
    );
    let strict_win = [plan.all_fine, plan.all_pdl]
        .iter()
        .flatten()
        .all(|&t| plan.time < t);
    TuneCell {
        figure: figure.to_owned(),
        label: label.to_owned(),
        edges,
        plan,
        strict_win,
    }
}

fn render_tuning(cells: &[TuneCell], distinct: usize, cache: &TuneCache) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"cusync-bench-mechtune/1\",");
    let _ = writeln!(out, "  \"pr\": \"PR9\",");
    let _ = writeln!(out, "  \"quick\": false,");
    let _ = writeln!(out, "  \"cells\": [");
    let fmt_opt = |t: Option<SimTime>| {
        t.map(|t| t.as_picos().to_string())
            .unwrap_or_else(|| "null".to_owned())
    };
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"figure\": \"{}\", \"label\": \"{}\", \"edges\": {}, \
             \"all_tilesync_ps\": {}, \"all_pdl_ps\": {}, \"tuned_ps\": {}, \
             \"assignment\": \"{}\", \"evaluated\": {}, \"bit_identical\": true, \
             \"strict_win\": {}}}{}",
            c.figure,
            c.label,
            c.edges,
            fmt_opt(c.plan.all_fine),
            fmt_opt(c.plan.all_pdl),
            c.plan.time.as_picos(),
            c.plan.describe(),
            c.plan.evaluated,
            c.strict_win,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"summary\": {{\"cells\": {}, \"strict_wins\": {}, \
         \"distinct_assignments\": {distinct}, \"cache_entries\": {}}}",
        cells.len(),
        cells.iter().filter(|c| c.strict_win).count(),
        cache.len(),
    );
    out.push_str("}\n");
    out
}

#[test]
fn mechanism_tuning_document_is_reproduced() {
    let gpu = GpuConfig::tesla_v100();
    let mut cache = TuneCache::new();
    let mut cells = Vec::new();

    // Fig. 6 MLP panels: one gemm1 -> gemm2 edge per cell.
    for model in [MlpModel::Gpt3, MlpModel::Llama] {
        for bs in FIG6_MLP_BATCHES {
            let figure = format!("fig6_mlp_{model:?}").to_lowercase();
            let fp = shape_fingerprint(&[1, model as u64, bs as u64]);
            cells.push(tune_cell(
                &figure,
                &format!("bs{bs}"),
                MLP_EDGES,
                fp,
                &mut cache,
                |ms| compile_mlp_mechanisms(&gpu, model, bs, OptFlags::WRT, ms),
            ));
        }
    }
    // Fig. 6 Attention panels: the six-edge chain over the
    // prompt/generation grid.
    for (label, tokens, cached) in fig8_llm_configs() {
        let cfg = AttentionConfig {
            hidden: 12288,
            tokens,
            cached,
        };
        let fp = shape_fingerprint(&[2, 12288, tokens as u64, cached as u64]);
        cells.push(tune_cell(
            "fig6_attention",
            &label.replace(", ", "-"),
            ATTENTION_EDGES,
            fp,
            &mut cache,
            |ms| compile_attention_mechanisms(&gpu, cfg, OptFlags::WRT, ms),
        ));
    }
    // Fig. 7 conv panels: convs-1 chain edges per cell.
    for c in [64u32, 128, 256, 512] {
        for b in FIG7_BATCHES.iter().copied().step_by(3) {
            for convs in [2u32, 4] {
                let pq = pq_for_channels(c);
                let fp = shape_fingerprint(&[3, c as u64, b as u64, convs as u64]);
                cells.push(tune_cell(
                    "fig7_conv",
                    &format!("c{c}-b{b}-x{convs}"),
                    conv_chain_edges(convs),
                    fp,
                    &mut cache,
                    |ms| compile_conv_layer_mechanisms(&gpu, b, pq, c, convs, OptFlags::WRT, ms),
                ));
            }
        }
    }

    // Retuning a cell against the now-warm cache answers every evaluation
    // from the cache: the run closure is never called.
    let fp = shape_fingerprint(&[1, MlpModel::Gpt3 as u64, FIG6_MLP_BATCHES[0] as u64]);
    let replay = autotune_sync_mechanisms(MLP_EDGES, fp, &mut cache, |ms| {
        panic!("cache miss on replay of {}", cusyncgen::assignment_key(ms))
    });
    assert_eq!(
        replay.assignment, cells[0].plan.assignment,
        "replayed plan diverged from the first tuning pass",
    );

    assert!(
        cells.iter().any(|c| c.strict_win),
        "no cell's tuned assignment strictly beat both anchors",
    );
    let mut assignments: Vec<String> = cells.iter().map(|c| c.plan.describe()).collect();
    assignments.sort();
    assignments.dedup();
    assert!(
        assignments.len() >= 2,
        "every cell chose the same assignment: {assignments:?}",
    );
    assert_golden(
        "BENCH_PR9.json",
        include_str!("../BENCH_PR9.json"),
        &render_tuning(&cells, assignments.len(), &cache),
        &[],
    );
}

// ---------------------------------------------------------------------------
// BENCH_PR10.json — sync-overhead attribution
// ---------------------------------------------------------------------------

/// One profiled pipeline variant of a figure cell.
struct Profile {
    /// Mechanism assigned to every edge.
    mechanism: SyncMechanism,
    /// Simulated makespan.
    total: SimTime,
    /// Attribution of the traced run.
    attr: Attribution,
}

impl Profile {
    fn gate_hold_slot_ps(&self) -> u128 {
        self.attr.devices.iter().map(|d| d.gate_hold_slot_ps).sum()
    }
}

/// One figure cell: the faster fine-grained variant vs all-StreamSerial.
struct AttrCell {
    model: MlpModel,
    batch: u32,
    fine: Profile,
    serial: Profile,
}

/// Runs `pipeline` traced on `session` and attributes the run, asserting
/// the attribution is exact, the critical path fits in the makespan and
/// every device's buckets sum to its capacity.
fn profile(
    session: &mut Session,
    pipeline: &CompiledPipeline,
    mechanism: SyncMechanism,
    what: &str,
) -> Profile {
    let report = session
        .run(pipeline)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let attr = Attribution::analyze(pipeline.cluster(), &report, session.trace());
    assert!(attr.exact, "{what}: attribution partition not exact");
    assert!(
        attr.critical_path.length <= report.total,
        "{what}: critical path {} exceeds makespan {}",
        attr.critical_path.length,
        report.total,
    );
    for dev in &attr.devices {
        assert_eq!(
            dev.busy_slot_ps() + dev.idle_slot_ps,
            dev.capacity_slot_ps,
            "{what}: device {} buckets do not sum to capacity",
            dev.device,
        );
    }
    Profile {
        mechanism,
        total: report.total,
        attr,
    }
}

/// Profiles one cell: the faster fine-grained mechanism (TileSync vs
/// RowSync, picked by simulated makespan) against all-StreamSerial.
fn attr_cell(session: &mut Session, gpu: &GpuConfig, model: MlpModel, batch: u32) -> AttrCell {
    let compile = |m: SyncMechanism| {
        compile_mlp_mechanisms(gpu, model, batch, OptFlags::WRT, &[m; MLP_EDGES])
            .unwrap_or_else(|| panic!("fig6 {model:?} bs{batch}: {m:?} does not compile"))
    };
    let fine = [SyncMechanism::TileSync, SyncMechanism::RowSync]
        .into_iter()
        .map(|m| {
            profile(
                session,
                &compile(m),
                m,
                &format!("{model:?}/bs{batch}/{m:?}"),
            )
        })
        .min_by_key(|p| p.total)
        .expect("two fine candidates");
    let serial = profile(
        session,
        &compile(SyncMechanism::StreamSerial),
        SyncMechanism::StreamSerial,
        &format!("{model:?}/bs{batch}/StreamSerial"),
    );
    AttrCell {
        model,
        batch,
        fine,
        serial,
    }
}

fn render_profile(out: &mut String, key: &str, p: &Profile, comma: &str) {
    let spin: u128 = p.attr.devices.iter().map(|d| d.spin_slot_ps).sum();
    let _ = writeln!(
        out,
        "      \"{key}\": {{\"mechanism\": \"{:?}\", \"total_ps\": {}, \
         \"sync_wait_share\": {:.6}, \"spin_slot_ps\": {}, \"gate_hold_slot_ps\": {}, \
         \"critical_path_ps\": {}, \"critical_hops\": {}, \"exact\": {}}}{comma}",
        p.mechanism,
        p.total.as_picos(),
        p.attr.sync_wait_share(),
        spin,
        p.gate_hold_slot_ps(),
        p.attr.critical_path.length.as_picos(),
        p.attr.critical_path.hops.len(),
        p.attr.exact,
    );
}

fn render_attribution(cells: &[AttrCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"cusync-bench-attr/1\",");
    let _ = writeln!(out, "  \"pr\": \"PR10\",");
    let _ = writeln!(out, "  \"quick\": false,");
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"figure\": \"fig6_mlp_{}\", \"batch\": {}, \"edges\": {MLP_EDGES},",
            format!("{:?}", c.model).to_lowercase(),
            c.batch,
        );
        render_profile(&mut out, "fine", &c.fine, ",");
        render_profile(&mut out, "stream_serial", &c.serial, ",");
        let _ = writeln!(out, "      \"fine_share_strictly_lower\": true");
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"summary\": {{\"cells\": {0}, \"share_wins\": {0}, \"all_strictly_lower\": true}}",
        cells.len(),
    );
    out.push_str("}\n");
    out
}

#[test]
fn sync_wait_attribution_document_is_reproduced() {
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    session.enable_trace();
    let mut cells = Vec::new();
    for model in [MlpModel::Gpt3, MlpModel::Llama] {
        for bs in FIG6_MLP_BATCHES {
            cells.push(attr_cell(&mut session, &gpu, model, bs));
        }
    }

    for c in &cells {
        let what = format!("{:?}/bs{}", c.model, c.batch);
        assert!(
            c.fine.attr.sync_wait_share() < c.serial.attr.sync_wait_share(),
            "{what}: sync-wait share not strictly lower under fine sync",
        );
        // The fine-grained win comes from eliminating gate holds, not
        // from shifting wait time between buckets.
        assert_eq!(
            c.fine.gate_hold_slot_ps(),
            0,
            "{what}: fine-grained cell holds launch gates",
        );
        assert!(
            c.serial.gate_hold_slot_ps() > 0,
            "{what}: StreamSerial cell held no gates",
        );
    }

    // The largest GPT-3 cell under its fine mechanism exports a valid
    // Chrome trace.
    let cell = cells
        .iter()
        .filter(|c| c.model == MlpModel::Gpt3)
        .max_by_key(|c| c.batch)
        .expect("at least one GPT-3 cell");
    let pipeline = compile_mlp_mechanisms(
        &gpu,
        cell.model,
        cell.batch,
        OptFlags::WRT,
        &[cell.fine.mechanism; MLP_EDGES],
    )
    .expect("profiled assignment recompiles");
    let report = session.run(&pipeline).expect("traced export run");
    let spans = collect_spans(pipeline.cluster(), &report, session.trace());
    validate_chrome_trace(&chrome_trace_json(&spans))
        .unwrap_or_else(|e| panic!("exported chrome trace invalid: {e}"));

    assert_golden(
        "BENCH_PR10.json",
        include_str!("../BENCH_PR10.json"),
        &render_attribution(&cells),
        &[],
    );
}

// ---------------------------------------------------------------------------
// Serving documents: BENCH_PR5.json, BENCH_PR6.json and BENCH_PR8.json
// ---------------------------------------------------------------------------

/// Runs one serving cell twice, asserting the two reports are
/// bit-identical and the report's conservation laws hold.
fn serve_cell(what: &str, run: impl Fn() -> ServeReport) -> ServeReport {
    let report = run();
    assert!(report == run(), "{what}: nondeterministic");
    report.check().unwrap_or_else(|e| panic!("{what}: {e}"));
    report
}

/// Renders a serving document's `cells` array: each cell's leading fields
/// `head`, then its report under `"report"`.
fn render_cells(json: &mut String, cells: &[(String, &ServeReport)]) {
    json.push_str("  \"cells\": [\n");
    for (i, (head, report)) in cells.iter().enumerate() {
        let report = report
            .to_json()
            .lines()
            .collect::<Vec<_>>()
            .join("\n      ");
        let _ = write!(json, "    {{{head}, \"report\": {report}}}");
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
}

/// FNV-1a digests of each traced serving cell's span sequence (name,
/// lane, start, end in recording order), keyed by the cell's `what`.
/// They pin where every lifecycle transition is recorded, which the span
/// laws alone (see [`assert_span_laws`]) would let move.
const SPAN_DIGESTS: [(&str, u64); 7] = [
    (
        "PR5 load 3 fifo batched=true adm=false",
        0xa94f_2a78_35e2_14d3,
    ),
    ("PR6 baseline fifo", 0x249e_fb32_4307_5b85),
    ("PR6 burst-trace fifo", 0xcaa0_0c27_0d8b_635e),
    ("PR6 device-loss fifo", 0xc269_2df8_22b2_39be),
    ("PR6 link-degraded fifo", 0x65d9_fa36_13b1_0939),
    ("PR6 preempt-on fifo", 0x1b51_4fb1_0553_1a26),
    ("PR8 pressure", 0xd7c1_7197_cad2_1acf),
];

/// FNV-1a over every span's name, lane, start and end, in order.
fn span_digest(spans: &[Span]) -> u64 {
    let mut bytes = Vec::new();
    for span in spans {
        let Lane::Tenant { tenant } = &span.lane else {
            panic!("serve span {} off a tenant lane", span.name);
        };
        for text in [&span.name, tenant] {
            bytes.extend_from_slice(&(text.len() as u64).to_le_bytes());
            bytes.extend_from_slice(text.as_bytes());
        }
        bytes.extend_from_slice(&span.start.as_picos().to_le_bytes());
        bytes.extend_from_slice(&span.end.as_picos().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The request-lifecycle laws of a traced serving run: each admitted
/// request's spans follow one another without a gap (admit → queued →
/// run/preempted → queued → …), its chain ends in exactly one terminal
/// `run` or `shed` span, terminal `run`s and `shed`s match the report's
/// completed and shed counts, `reject` markers match its rejections, and
/// nothing is left open at the end of the run.
fn assert_span_laws(what: &str, report: &ServeReport, spans: &[Span]) {
    let mut chains: std::collections::BTreeMap<u64, Vec<(&str, &Span)>> = Default::default();
    let mut rejects = 0u64;
    for span in spans {
        if span.name == "reject" {
            assert_eq!(span.start, span.end, "{what}: reject marker has width");
            rejects += 1;
            continue;
        }
        let (id, phase) = span
            .name
            .strip_prefix("req")
            .and_then(|rest| rest.split_once(' '))
            .unwrap_or_else(|| panic!("{what}: unexpected span {}", span.name));
        let id: u64 = id
            .parse()
            .unwrap_or_else(|_| panic!("{what}: {}", span.name));
        chains.entry(id).or_default().push((phase, span));
    }
    let (mut runs, mut sheds) = (0u64, 0u64);
    for (id, chain) in &chains {
        for pair in chain.windows(2) {
            assert_eq!(
                pair[0].1.end, pair[1].1.start,
                "{what}: req{id} chain gap between {} and {}",
                pair[0].0, pair[1].0
            );
            assert!(
                !matches!(pair[0].0, "run" | "shed"),
                "{what}: req{id} continues after terminal {}",
                pair[0].0
            );
        }
        match chain.last().expect("nonempty chain").0 {
            "run" => runs += 1,
            "shed" => sheds += 1,
            other => panic!("{what}: req{id} chain ends in {other}"),
        }
    }
    let sum =
        |f: fn(&cusync_serve::TenantMetrics) -> u64| -> u64 { report.tenants.iter().map(f).sum() };
    assert_eq!(runs, sum(|t| t.completed), "{what}: terminal run spans");
    assert_eq!(sheds, sum(|t| t.shed), "{what}: terminal shed spans");
    assert_eq!(rejects, sum(|t| t.rejected), "{what}: reject markers");
    assert_eq!(
        chains.len() as u64,
        sum(|t| t.admitted),
        "{what}: request chains"
    );
}

/// Asserts a traced serving run is passive, obeys the lifecycle span
/// laws, reproduces its pinned span digest and exports a valid Chrome
/// trace.
fn assert_traced(what: &str, untraced: &ServeReport, (traced, spans): (ServeReport, Vec<Span>)) {
    assert!(
        traced == *untraced,
        "{what}: traced report differs from the untraced one"
    );
    assert_span_laws(what, &traced, &spans);
    let pinned = SPAN_DIGESTS
        .iter()
        .find(|(cell, _)| *cell == what)
        .unwrap_or_else(|| panic!("{what}: no pinned span digest"))
        .1;
    assert_eq!(
        span_digest(&spans),
        pinned,
        "{what}: span digest ({} spans)",
        spans.len()
    );
    validate_chrome_trace(&chrome_trace_json(&spans))
        .unwrap_or_else(|e| panic!("{what}: invalid chrome trace: {e}"));
}

/// `BENCH_PR5.json`'s tenant mix: model, open-loop (else closed-loop)
/// arrivals, and weighted-fair-queueing weight.
const BATCHING_MIX: [(ModelKind, bool, u32); 4] = [
    (ModelKind::MlpGpt3, true, 3),
    (ModelKind::ConvStack, false, 2),
    (ModelKind::Attention { hidden: 8192 }, true, 1),
    (ModelKind::StreamKGemm, true, 1),
];

/// The `BENCH_PR5.json` workload at `load`. Load levels self-calibrate:
/// each tenant offers `load × devices / (tenants × t₁)` requests per
/// second, where `t₁` is its measured width-1 service time, so load 1
/// offers exactly the unbatched pool capacity. A closed-loop tenant gets
/// the client count that offers the same rate by Little's law.
fn batching_spec(load: f64, solo: &[SimTime], slo: &[SimTime], devices: f64) -> WorkloadSpec {
    let n = BATCHING_MIX.len() as f64;
    let tenants = BATCHING_MIX
        .iter()
        .enumerate()
        .map(|(i, &(model, open, weight))| {
            let t1 = solo[i].as_secs_f64();
            let fair_rps = devices / (n * t1);
            let arrival = if open {
                ArrivalModel::OpenPoisson {
                    rate_rps: load * fair_rps,
                }
            } else {
                let think = SimTime::from_picos((4.0 * solo[i].as_picos() as f64) as u64);
                let per_client = 1.0 / (think.as_secs_f64() + t1);
                ArrivalModel::ClosedLoop {
                    clients: ((load * fair_rps / per_client).round() as u32).max(1),
                    think,
                }
            };
            TenantSpec {
                name: format!("{model}"),
                model,
                arrival,
                slo: slo[i],
                queue_cap: 32,
                weight,
                class: TenantClass::Throughput,
                retry: None,
            }
        })
        .collect();
    WorkloadSpec {
        tenants,
        horizon: SimTime::from_millis(150),
        seed: 0xC60_2024,
    }
}

/// One `BENCH_PR5.json` cell.
struct BatchingCell {
    load: f64,
    sched: RequestSched,
    batched: bool,
    slo_admission: bool,
    report: ServeReport,
}

#[test]
fn request_batching_document_is_reproduced() {
    let cluster = ClusterConfig::dgx_v100(2);
    let devices = cluster.num_devices() as f64;
    let max_batch = 8u32;
    let loads = [0.5, 1.0, 3.0];
    let top_load = 3.0;
    let tenants = BATCHING_MIX.len();

    // Warm the pool once. The probe's rates and SLOs do not reach the
    // service times, which depend only on the models.
    let probe = batching_spec(
        1.0,
        &vec![SimTime::from_micros(100.0); tenants],
        &vec![SimTime::from_millis(10); tenants],
        devices,
    );
    let mut pool = ServicePool::build(&cluster, &probe.tenants, max_batch);
    // SLOs cover a half-full unbatched queue, so saturation stresses the
    // goodput metric without nullifying it.
    let solo: Vec<SimTime> = (0..tenants).map(|t| pool.service_time(t, 1, 0)).collect();
    let slo: Vec<SimTime> = solo
        .iter()
        .map(|&t1| SimTime::from_picos(t1.as_picos() * 16))
        .collect();
    let batching = BatchPolicy::new(max_batch, SimTime::from_picos(solo[0].as_picos() * 2));

    let mut cells = Vec::new();
    for load in loads {
        let server = Server::with_pool(batching_spec(load, &solo, &slo, devices), pool);
        for sched in RequestSched::ALL {
            for (batched, slo_admission) in [(false, false), (true, false), (true, true)] {
                let config = ServeConfig {
                    sched,
                    batch: if batched {
                        batching
                    } else {
                        BatchPolicy::off()
                    },
                    slo_admission,
                    ..ServeConfig::baseline()
                };
                let what = format!("PR5 load {load} {sched} batched={batched} adm={slo_admission}");
                let report = serve_cell(&what, || server.run(&config));
                if load == top_load && sched == RequestSched::Fifo && batched && !slo_admission {
                    // Tracing with the virtual-time sampler on is passive.
                    let sampled = ServeConfig {
                        sample_every: Some(SimTime::from_millis(1)),
                        ..config
                    };
                    let traced = server.run_traced(&sampled);
                    assert!(!traced.0.samples.is_empty(), "{what}: no samples");
                    assert_traced(&what, &server.run(&sampled), traced);
                }
                cells.push(BatchingCell {
                    load,
                    sched,
                    batched,
                    slo_admission,
                    report,
                });
            }
        }
        pool = server.into_pool();
    }

    // At the saturating load, dynamic batching beats no-batching on
    // goodput by at least 1.2x under every scheduler.
    let mut ratios = String::new();
    for sched in RequestSched::ALL {
        let goodput = |batched: bool| {
            cells
                .iter()
                .find(|c| {
                    c.load == top_load
                        && c.sched == sched
                        && c.batched == batched
                        && !c.slo_admission
                })
                .expect("cell swept")
                .report
                .goodput_rps()
        };
        let ratio = goodput(true) / goodput(false);
        assert!(
            ratio >= 1.2,
            "PR5 load {top_load} {sched}: batching goodput ratio {ratio:.2} < 1.2"
        );
        if !ratios.is_empty() {
            ratios.push_str(", ");
        }
        let _ = write!(ratios, "\"{}\": {ratio:.4}", sched.name());
    }

    let mut json = String::from("{\n  \"bench\": \"PR5\",\n");
    let _ = writeln!(json, "  \"seed\": {},", 0xC60_2024u64);
    let _ = writeln!(json, "  \"quick\": false,");
    let _ = writeln!(json, "  \"devices\": {},", devices as u32);
    let _ = writeln!(json, "  \"max_batch\": {max_batch},");
    let _ = writeln!(
        json,
        "  \"batching_goodput_ratio_at_load_{top_load}\": {{{ratios}}},"
    );
    let heads: Vec<(String, &ServeReport)> = cells
        .iter()
        .map(|c| {
            let head = format!(
                "\"load\": {}, \"sched\": \"{}\", \"batched\": {}, \"slo_admission\": {}, \
                 \"deterministic\": true",
                c.load,
                c.sched.name(),
                c.batched,
                c.slo_admission,
            );
            (head, &c.report)
        })
        .collect();
    render_cells(&mut json, &heads);
    json.push_str("  \"failures\": 0\n}\n");
    assert_golden(
        "BENCH_PR5.json",
        include_str!("../BENCH_PR5.json"),
        &json,
        &[],
    );
}

/// `BENCH_PR6.json`'s failure scenarios, in document order.
const CHAOS_SCENARIOS: [&str; 5] = [
    "baseline",
    "burst-trace",
    "device-loss",
    "link-degraded",
    "preempt-on",
];

/// The `BENCH_PR6.json` tenants. Tenant 0 is the interactive
/// latency-class tenant (small local model, retry with backoff); tenant 1
/// is the bulk throughput-class tenant, whose model ships its activations
/// across the interconnect so that link degradation bites.
fn chaos_tenants(rate_rps: f64, slo: SimTime, clients: u32) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive".into(),
            model: ModelKind::Toy {
                blocks: 2,
                compute_cycles: 100_000,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps },
            slo,
            queue_cap: 64,
            weight: 3,
            class: TenantClass::Latency,
            retry: Some(RetryPolicy {
                base: SimTime::from_micros(50.0),
                max_retries: 2,
            }),
        },
        TenantSpec {
            name: "bulk".into(),
            model: ModelKind::ToyRemote {
                blocks: 4,
                compute_cycles: 1_500_000,
                payload: 1 << 20,
            },
            arrival: ArrivalModel::ClosedLoop {
                clients,
                think: SimTime::from_micros(50.0),
            },
            slo: SimTime::from_millis(50),
            queue_cap: 32,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        },
    ]
}

#[test]
fn serving_chaos_document_is_reproduced() {
    const RETENTION_BOUND: f64 = 0.5;
    let seed = 0xC60_2026u64;
    let devices = 2u32;
    let cluster = ClusterConfig::dgx_v100(devices);
    let max_batch = 4u32;
    let horizon = SimTime::from_millis(60);

    let probe = chaos_tenants(1_000.0, SimTime::from_millis(5), 1);
    let mut pool = ServicePool::build(&cluster, &probe, max_batch);
    // The interactive tenant offers ~40% of one device's unbatched
    // capacity; the bulk tenant's closed-loop clients keep both devices
    // loaded with long batches.
    let t1_int = pool.service_time(0, 1, 0);
    let t1_bulk = pool.service_time(1, 1, 0);
    let rate_rps = 0.4 / t1_int.as_secs_f64();
    let slo = SimTime::from_picos(t1_bulk.as_picos() * 4);
    let clients = 8;
    let burst = ArrivalTrace::synthesize(
        TraceShape::Bursty {
            base_rps: 0.3 * rate_rps,
            burst_rps: 5.0 * rate_rps,
            period: SimTime::from_picos(horizon.as_picos() / 8),
            duty: 0.25,
        },
        horizon,
        seed ^ 0xB0B0,
    );
    let mid = SimTime::from_picos(horizon.as_picos() / 2);
    let third = SimTime::from_picos(horizon.as_picos() / 3);

    let mut cells = Vec::new();
    for scenario in CHAOS_SCENARIOS {
        let mut tenants = chaos_tenants(rate_rps, slo, clients);
        if scenario == "burst-trace" {
            tenants[0].arrival = ArrivalModel::Trace(burst.clone());
        }
        let spec = WorkloadSpec {
            tenants,
            horizon,
            seed,
        };
        let plan = match scenario {
            "device-loss" => FaultPlan {
                drops: vec![DeviceDrop { device: 1, at: mid }],
                ..FaultPlan::none()
            },
            "link-degraded" => FaultPlan {
                link: Some(LinkDegrade {
                    at: third,
                    scale: LinkScale::times(6),
                }),
                ..FaultPlan::none()
            },
            _ => FaultPlan::none(),
        };
        let server = Server::with_pool(spec, pool);
        for sched in RequestSched::ALL {
            let config = ServeConfig {
                sched,
                batch: BatchPolicy::new(max_batch, SimTime::from_picos(t1_int.as_picos() * 2)),
                preempt: (scenario == "preempt-on")
                    .then(|| PreemptPolicy::new(SimTime::from_micros(20.0))),
                ..ServeConfig::baseline()
            };
            let what = format!("PR6 {scenario} {sched}");
            let report = serve_cell(&what, || server.run_with_faults(&config, &plan));
            if scenario == "device-loss" {
                // With a survivor alive, every in-flight request is
                // re-routed off the dead device.
                assert_eq!(report.faults.devices_lost, 1, "{what}: devices lost");
                assert_eq!(report.faults.stranded, 0, "{what}: stranded requests");
                let rerouted: u64 = report.tenants.iter().map(|t| t.rerouted).sum();
                assert!(
                    rerouted > 0,
                    "{what}: nothing re-routed off the dead device"
                );
            }
            if sched == RequestSched::Fifo {
                assert_traced(
                    &what,
                    &report,
                    server.run_traced_with_faults(&config, &plan),
                );
            }
            cells.push((scenario, sched, report));
        }
        pool = server.into_pool();
    }

    let report = |scenario: &str, sched: RequestSched| -> &ServeReport {
        &cells
            .iter()
            .find(|c| c.0 == scenario && c.1 == sched)
            .expect("cell swept")
            .2
    };
    // Preemption strictly improves the interactive tenant's p99 under
    // every scheduler, and the bulk tenant keeps at least half its
    // fault-free goodput.
    let mut gates = String::new();
    for sched in RequestSched::ALL {
        let base = report("baseline", sched);
        let pre = report("preempt-on", sched);
        let p99_base = base.tenants[0].latency.p99;
        let p99_pre = pre.tenants[0].latency.p99;
        assert!(
            p99_pre < p99_base,
            "PR6 preempt-on {sched}: interactive p99 {p99_pre} not below baseline {p99_base}"
        );
        let retention =
            pre.tenants[1].goodput_count() as f64 / base.tenants[1].goodput_count().max(1) as f64;
        assert!(
            retention >= RETENTION_BOUND,
            "PR6 preempt-on {sched}: bulk goodput retention {retention:.2} < {RETENTION_BOUND}"
        );
        if !gates.is_empty() {
            gates.push_str(", ");
        }
        let _ = write!(
            gates,
            "\"{}\": {{\"interactive_p99_us\": {:.3}, \"baseline_p99_us\": {:.3}, \
             \"bulk_goodput_retention\": {retention:.4}}}",
            sched.name(),
            p99_pre.as_micros(),
            p99_base.as_micros(),
        );
    }

    let mut json = String::from("{\n  \"bench\": \"PR6\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"quick\": false,");
    let _ = writeln!(json, "  \"devices\": {devices},");
    let _ = writeln!(json, "  \"max_batch\": {max_batch},");
    let _ = writeln!(
        json,
        "  \"bulk_goodput_retention_bound\": {RETENTION_BOUND},"
    );
    let _ = writeln!(json, "  \"preemption_gates\": {{{gates}}},");
    let violation_rate = |r: &ServeReport| {
        let done: u64 = r.tenants.iter().map(|t| t.completed).sum();
        let violations: u64 = r.tenants.iter().map(|t| t.violations).sum();
        violations as f64 / done.max(1) as f64
    };
    let heads: Vec<(String, &ServeReport)> = cells
        .iter()
        .map(|(scenario, sched, r)| {
            let base = report("baseline", *sched);
            let head = format!(
                "\"scenario\": \"{scenario}\", \"sched\": \"{}\", \"deterministic\": true, \
                 \"goodput_delta_rps\": {:.1}, \"violation_rate_delta\": {:.4}",
                sched.name(),
                r.goodput_rps() - base.goodput_rps(),
                violation_rate(r) - violation_rate(base),
            );
            (head, r)
        })
        .collect();
    render_cells(&mut json, &heads);
    json.push_str("  \"failures\": 0\n}\n");
    assert_golden(
        "BENCH_PR6.json",
        include_str!("../BENCH_PR6.json"),
        &json,
        &[],
    );
}

/// A decode-heavy model: generation dominates the prefill, the regime
/// continuous batching targets.
fn decode_model(kv_bytes_per_token: u64) -> ModelKind {
    ModelKind::DecodeLlm {
        prompt: 16,
        max_new: 96,
        step_cycles: 40_000,
        ctx_cycles: 400,
        kv_bytes_per_token,
    }
}

/// The `BENCH_PR8.json` workload at `load`: one open-loop decode tenant
/// offering `load × devices / t_typ` requests per second, where `t_typ`
/// is the measured width-1 service time of a typical-length request (half
/// the decode cap), so load 1 offers about one unbatched device's worth
/// of decode work per device.
fn decode_spec(
    load: f64,
    model: ModelKind,
    t_typ: SimTime,
    slo: SimTime,
    devices: f64,
) -> WorkloadSpec {
    WorkloadSpec {
        tenants: vec![TenantSpec {
            name: format!("{model}"),
            model,
            arrival: ArrivalModel::OpenPoisson {
                rate_rps: load * devices / t_typ.as_secs_f64(),
            },
            slo,
            queue_cap: 64,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        }],
        horizon: SimTime::from_millis(100),
        seed: 0xC60_2024,
    }
}

#[test]
fn continuous_decode_document_is_reproduced() {
    let cluster = ClusterConfig::dgx_v100(2);
    let devices = cluster.num_devices() as f64;
    let max_batch = 8u32;
    let max_new = 96u32;
    let loads = [0.5, 2.0, 10.0];
    let top_load = 10.0;
    let model = decode_model(4 << 10);

    let probe = decode_spec(
        1.0,
        model,
        SimTime::from_micros(100.0),
        SimTime::from_millis(10),
        devices,
    );
    let mut pool = ServicePool::build(&cluster, &probe.tenants, max_batch);
    let t_typ = pool.static_decode_service(0, 1, max_new / 2, 0);
    let slo = SimTime::from_picos(t_typ.as_picos().saturating_mul(16));
    let batch = BatchPolicy::new(max_batch, SimTime::from_picos(t_typ.as_picos() / 8));

    let mut cells = Vec::new();
    for load in loads {
        let server = Server::with_pool(decode_spec(load, model, t_typ, slo, devices), pool);
        for continuous in [false, true] {
            let decode = if continuous {
                DecodePolicy::continuous_batching()
            } else {
                DecodePolicy::static_width()
            };
            let config = ServeConfig {
                batch,
                decode,
                ..ServeConfig::baseline()
            };
            let name = format!("load{load}-{decode}");
            let report = serve_cell(&format!("PR8 {name}"), || server.run(&config));
            cells.push((name, load, continuous, report));
        }
        pool = server.into_pool();
    }

    // At the saturating load, continuous batching beats static-width
    // decode on tokens/sec goodput by at least 1.2x.
    let goodput = |continuous: bool| {
        cells
            .iter()
            .find(|c| c.1 == top_load && c.2 == continuous)
            .expect("cell swept")
            .3
            .tokens_goodput_per_sec()
    };
    let ratio = goodput(true) / goodput(false);
    assert!(
        ratio >= 1.2,
        "PR8 load {top_load}: continuous/static tokens goodput {ratio:.2} < 1.2"
    );

    // The pressure cell: the saturating load with 1-MiB-per-token KV on a
    // pool squeezed to a few blocks, so preemption-and-recompute fires.
    let spec = decode_spec(top_load, decode_model(1 << 20), t_typ, slo, devices);
    let server = Server::new(spec, &cluster, max_batch);
    let config = ServeConfig {
        batch,
        decode: DecodePolicy::new(true, 16, 2),
        ..ServeConfig::baseline()
    };
    let report = serve_cell("PR8 pressure", || server.run(&config));
    assert!(
        report.tenants[0].decode_preemptions > 0,
        "PR8 pressure: no decode preemptions"
    );
    assert!(
        report.tenants[0].recomputed_tokens > 0,
        "PR8 pressure: no recomputed tokens"
    );
    assert_traced("PR8 pressure", &report, server.run_traced(&config));
    cells.push(("pressure".into(), top_load, true, report));

    let mut json = String::from("{\n  \"bench\": \"PR8\",\n");
    let _ = writeln!(json, "  \"seed\": {},", 0xC60_2024u64);
    let _ = writeln!(json, "  \"quick\": false,");
    let _ = writeln!(json, "  \"devices\": {},", devices as u32);
    let _ = writeln!(json, "  \"max_batch\": {max_batch},");
    let _ = writeln!(json, "  \"max_new\": {max_new},");
    let _ = writeln!(
        json,
        "  \"continuous_goodput_ratio_at_load_{top_load}\": {ratio:.4},"
    );
    let heads: Vec<(String, &ServeReport)> = cells
        .iter()
        .map(|(name, load, continuous, report)| {
            let head = format!(
                "\"name\": \"{name}\", \"load\": {load}, \"continuous\": {continuous}, \
                 \"deterministic\": true"
            );
            (head, report)
        })
        .collect();
    render_cells(&mut json, &heads);
    json.push_str("  \"failures\": 0\n}\n");
    assert_golden(
        "BENCH_PR8.json",
        include_str!("../BENCH_PR8.json"),
        &json,
        &[],
    );
}
