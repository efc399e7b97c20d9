//! The committed `BENCH_PR3.json`, `BENCH_PR9.json` and `BENCH_PR10.json`
//! reproduced byte for byte.
//!
//! Each test rebuilds every cell of one document with the model builders,
//! renders it in the document's own format and compares the result with
//! the committed file line by line. The only line skipped is
//! `BENCH_PR3.json`'s `"wall_seconds"`, a wall-clock reading. Along the
//! way each test asserts the claims its document records:
//!
//! - `BENCH_PR3.json` (tensor-parallel allreduce overlap): every cell is
//!   engine-invariant, and the overlap schedule beats the serialized one
//!   on every cell.
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

use std::fmt::Write as _;

use cusync::{OptFlags, SyncMechanism};
use cusync_bench::sweep::{fig8_llm_configs, FIG6_MLP_BATCHES, FIG7_BATCHES};
use cusync_models::{
    allreduce_time, compile_attention_mechanisms, compile_conv_layer_mechanisms,
    compile_mlp_mechanisms, compile_tp_layer, conv_chain_edges, pq_for_channels,
    ring_allreduce_time, tp_attention, tp_mlp, AttentionConfig, MlpModel, TpLayerConfig,
    TpSchedule, ATTENTION_EDGES, MLP_EDGES,
};
use cusync_obs::{chrome_trace_json, collect_spans, validate_chrome_trace, Attribution};
use cusync_sim::{
    splitmix64, ClusterConfig, CompiledPipeline, EngineMode, GpuConfig, Session, SimTime,
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
        100.0 * (1.0 - self.overlap.as_picos() as f64 / self.serialized.as_picos() as f64)
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
        ar_sim: ring_allreduce_time(&GpuConfig::tesla_v100(), bytes, devices),
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
