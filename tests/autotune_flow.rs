//! The end-to-end cuSyncGen workflow of Section IV-A: describe the
//! dependency in the DSL, bounds-check it, generate policies and orders,
//! emit the CUDA source, and auto-tune over the generated candidates on
//! the simulator.

use cusync::{OptFlags, SyncMechanism};
use cusync_models::{
    build_attention_mechanisms, compile_mlp, AttentionConfig, MlpModel, PolicyKind, SyncMode,
};
use cusync_sim::{splitmix64, CompiledPipeline, Dim3, Gpu, GpuConfig, Session};
use cusyncgen::{
    autotune, autotune_cached, check_spec, emit_spec, policies_for, producer_order, AffineExpr,
    DepSpec, Pattern, TuneCache, TuneCandidate,
};

/// Build the MLP spec of Fig. 5a for a given batch size (H = 12288, mp 8).
fn mlp_spec(bs: u32) -> DepSpec {
    let tile_n = 256;
    let tile_m = 256;
    let mut spec = DepSpec::new();
    let g1 = spec.grid("g1", Dim3::new(6144 / tile_n, bs.div_ceil(tile_m), 1));
    let g2 = spec.grid("g2", Dim3::new(12288 / tile_n, bs.div_ceil(tile_m), 1));
    spec.depend(g2, g1, Pattern::ForAllX(AffineExpr::y()));
    spec
}

#[test]
fn workflow_produces_policies_orders_and_cuda() {
    let spec = mlp_spec(512);
    check_spec(&spec).expect("spec in bounds");
    let dep = &spec.deps()[0];
    let policies = policies_for(&spec, dep);
    assert_eq!(policies.len(), 2);
    assert_eq!(policies[0].name, "TileSync");
    assert_eq!(policies[1].name, "RowSync");
    // The generated producer order groups whole rows — row-major.
    let order = producer_order(&spec, dep);
    let schedule =
        cusync::TileSchedule::build(&order, spec.extent(spec.deps()[0].producer)).unwrap();
    assert!(schedule.is_identity());
    // Emitted CUDA contains both policies and the order function.
    let cuda = emit_spec(&spec);
    assert!(cuda.contains("TileSync_g1"), "{cuda}");
    assert!(cuda.contains("RowSync_g1"), "{cuda}");
    assert!(cuda.contains("prodOrder_g1"), "{cuda}");
}

#[test]
fn autotuner_picks_a_policy_that_beats_stream_sync() {
    let gpu = GpuConfig::tesla_v100();
    let bs = 512;
    let spec = mlp_spec(bs);
    let generated = policies_for(&spec, &spec.deps()[0]);
    let mut candidates: Vec<TuneCandidate> = Vec::new();
    for named in &generated {
        for opts in [OptFlags::NONE, OptFlags::WRT] {
            candidates.push(TuneCandidate::new(vec![named.name.clone()], opts));
        }
    }
    let mut session = Session::new();
    let report = autotune(candidates, |candidate| {
        candidate_time(&mut session, &gpu, bs, candidate)
    });
    let best = report.best();
    let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, bs, SyncMode::StreamSync);
    let base = session.run(&pipeline).unwrap().total;
    assert!(
        best.time < base,
        "best generated policy {} ({}) must beat StreamSync ({})",
        best.candidate.name,
        best.time,
        base
    );
    // All four candidates were evaluated and ranked.
    assert_eq!(report.results.len(), 4);
    assert!(report.speedup_over("TileSync") >= 1.0);
}

/// The four MLP candidates of the workflow test, tagged with the policy
/// kind each maps to.
fn mlp_candidates() -> Vec<TuneCandidate> {
    let mut candidates = Vec::new();
    for name in ["TileSync", "RowSync"] {
        for opts in [OptFlags::NONE, OptFlags::WRT] {
            candidates.push(TuneCandidate::new(vec![name.into()], opts));
        }
    }
    candidates
}

/// Simulated time of one MLP candidate at batch `bs`, run on `session`.
fn candidate_time(
    session: &mut Session,
    gpu: &GpuConfig,
    bs: u32,
    candidate: &TuneCandidate,
) -> cusync_sim::SimTime {
    let kind = if candidate.policy_names[0] == "RowSync" {
        PolicyKind::Row
    } else {
        PolicyKind::Tile
    };
    let mode = SyncMode::CuSync(kind, candidate.opts);
    let pipeline = compile_mlp(gpu, MlpModel::Gpt3, bs, mode);
    session.run(&pipeline).unwrap().total
}

/// The caller-chosen shape key of a GPT-3 MLP cell at batch `bs`,
/// derived the way the benchmark harnesses derive theirs: family tag,
/// model and batch size folded through `splitmix64`.
fn mlp_shape_key(bs: u32) -> u64 {
    [1, MlpModel::Gpt3 as u64, bs.into()]
        .iter()
        .fold(0xC60_2024u64, |key, &p| splitmix64(key ^ splitmix64(p)))
}

/// The tuning cache: the first tune of a shape simulates every candidate
/// (all misses), a repeat tune of the *same* shape key answers entirely
/// from cache with an identical ranking, and a different shape (different
/// batch size ⇒ different key) re-simulates. The cache also survives a
/// save/load round trip.
#[test]
fn repeated_tunes_of_the_same_graph_skip_resimulation() {
    let gpu = GpuConfig::tesla_v100();
    let (fp_256, fp_512) = (mlp_shape_key(256), mlp_shape_key(512));
    assert_ne!(fp_256, fp_512, "batch size must change the key");

    let mut cache = TuneCache::new();
    let mut simulations = 0usize;
    let mut session = Session::new();
    let mut tune = |cache: &mut TuneCache, fp: u64, bs: u32, sims: &mut usize| {
        autotune_cached(cache, fp, mlp_candidates(), |c| {
            *sims += 1;
            candidate_time(&mut session, &gpu, bs, c)
        })
    };

    // Miss path: a cold cache simulates all four candidates.
    let cold = tune(&mut cache, fp_256, 256, &mut simulations);
    assert_eq!(simulations, 4);
    assert_eq!((cache.misses(), cache.hits()), (4, 0));

    // Hit path: re-tuning the same shape key never simulates and ranks
    // identically.
    let warm = tune(&mut cache, fp_256, 256, &mut simulations);
    assert_eq!(simulations, 4, "hits must not re-simulate");
    assert_eq!((cache.misses(), cache.hits()), (4, 4));
    assert_eq!(cold.best().candidate.name, warm.best().candidate.name);
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a, b, "cached ranking must be bit-identical");
    }

    // A different shape is a different key: four fresh misses.
    tune(&mut cache, fp_512, 512, &mut simulations);
    assert_eq!(simulations, 8);
    assert_eq!(cache.len(), 8);

    // Persistence: a reloaded cache serves the same hits.
    let path = std::env::temp_dir().join(format!(
        "cusyncgen-tunecache-flow-{}.tsv",
        std::process::id()
    ));
    cache.save(&path).expect("save cache");
    let mut reloaded = TuneCache::load(&path).expect("load cache");
    std::fs::remove_file(&path).ok();
    let replayed = tune(&mut reloaded, fp_256, 256, &mut simulations);
    assert_eq!(simulations, 8, "reloaded cache must hit");
    assert_eq!((reloaded.hits(), reloaded.misses()), (4, 0));
    assert_eq!(replayed.best().time, cold.best().time);
}

#[test]
fn out_of_bounds_specs_are_rejected_before_codegen() {
    let mut spec = DepSpec::new();
    let g1 = spec.grid("g1", Dim3::new(4, 1, 1));
    let g2 = spec.grid("g2", Dim3::new(4, 3, 1)); // 3 consumer rows, 1 producer row
    spec.depend(g2, g1, Pattern::ForAllX(AffineExpr::y()));
    assert!(check_spec(&spec).is_err());
}

/// Two attention pipelines that differ only in which of the two edges
/// leaving producer 0 is fine-grained: same kernels, grids, semaphore
/// layout and launch gates, but a different consumer waits per tile, so
/// they run to different timelines.
#[test]
fn moving_a_fine_edge_between_siblings_changes_the_timeline() {
    use SyncMechanism::{Pdl, RowSync, TileSync};
    let compile = |mechanisms: [SyncMechanism; 6]| -> CompiledPipeline {
        let mut gpu = Gpu::new(GpuConfig::tesla_v100());
        let cfg = AttentionConfig {
            hidden: 12288,
            tokens: 1,
            cached: 512,
        };
        build_attention_mechanisms(&mut gpu, cfg, OptFlags::WRT, &mechanisms)
            .expect("valid assignment");
        gpu.compile().unwrap()
    };
    for fine in [TileSync, RowSync] {
        let first = compile([fine, Pdl, Pdl, Pdl, Pdl, Pdl]);
        let second = compile([Pdl, fine, Pdl, Pdl, Pdl, Pdl]);
        let mut session = Session::new();
        let (a, b) = (session.run(&first).unwrap(), session.run(&second).unwrap());
        assert_ne!(a, b, "{fine}: the two pipelines run differently");
    }
}
