//! Pieces the workloads share: the seeded input generator, the digest of
//! a run's virtual-time output, and the build → compile → execute path of
//! one pipeline through the layers' public entry points.

use cusync_sim::{fnv1a, splitmix64, CompiledPipeline, Gpu, RunReport, Session, SimError};

use crate::probe::Probe;

/// Deterministic input generator: the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed ^ 0xC60_2024))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }

    /// Uniform in `lo..=hi`, avoiding every value of `grid`, so off-grid
    /// cells land on partial final waves the paper's grid does not pin.
    pub fn off_grid(&mut self, lo: u32, hi: u32, grid: &[u32]) -> u32 {
        loop {
            let v = self.range(lo, hi);
            if !grid.contains(&v) {
                return v;
            }
        }
    }
}

/// Folds `words` into one 64-bit digest.
pub fn fold(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Digest of a run's virtual-time output: the makespan and every kernel's
/// placement and timeline. Event counts are left out, since they differ
/// between engines whose timelines are identical.
pub fn digest(report: &RunReport) -> u64 {
    let mut words = vec![report.total.as_picos()];
    for k in &report.kernels {
        words.extend([
            fnv1a(k.name.as_bytes()),
            u64::from(k.device),
            k.blocks,
            k.ready.as_picos(),
            k.start.as_picos(),
            k.end.as_picos(),
            k.max_concurrent,
        ]);
    }
    fold(&words)
}

/// Compiles a built `gpu` (layer `sim.compile`).
pub fn compile(probe: &Probe, gpu: Gpu) -> Result<CompiledPipeline, String> {
    probe.count("sim.compiles", 1);
    probe
        .span("sim.compile", || gpu.compile())
        .map_err(|e| format!("compile: {e}"))
}

/// Runs `pipeline` on `session` (layer `sim.execute`), releasing the
/// pipeline inside the timed call. A deadlock is returned as the error.
pub fn execute(
    probe: &Probe,
    session: &mut Session,
    pipeline: CompiledPipeline,
) -> Result<RunReport, SimError> {
    probe.count("sim.runs", 1);
    let result = probe.span("sim.execute", || {
        let result = session.run(&pipeline);
        drop(pipeline);
        result
    });
    match &result {
        Ok(report) => probe.count("sim.events", report.sim_events),
        Err(_) => probe.count("sim.deadlocked_runs", 1),
    }
    result
}

/// Builds (layer `models.build`), compiles and runs one pipeline.
pub fn run_pipeline(
    probe: &Probe,
    session: &mut Session,
    build: impl FnOnce() -> Gpu,
) -> Result<RunReport, String> {
    probe.count("models.builds", 1);
    let gpu = probe.span("models.build", build);
    let pipeline = compile(probe, gpu)?;
    execute(probe, session, pipeline).map_err(|e| format!("run: {e}"))
}
