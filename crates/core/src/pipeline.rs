//! The compile layer's graph-level entry point: build a synchronized
//! kernel pipeline once, freeze it, run it many times.
//!
//! [`Pipeline::compile`] is the cusync-level face of the simulator's
//! compile/execute split (see `cusync_sim::{CompiledPipeline, Session}`):
//! the closure gets a fresh [`Gpu`] to allocate buffers, bind a
//! [`SyncGraph`](crate::SyncGraph) and launch instrumented kernels on —
//! everything the one-shot flow did — and the result is an immutable
//! [`CompiledPipeline`] in which the synthesized policies, semaphore
//! layouts, wait-kernel injections and launch order are all frozen
//! compile-time artifacts.

use cusync_sim::{CompiledPipeline, Gpu, GpuConfig};

use crate::error::CuSyncError;

/// Namespace for compiling synchronized kernel graphs into reusable
/// [`CompiledPipeline`]s.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Builds a pipeline against a fresh [`Gpu`] with the given hardware
    /// model and freezes it into an immutable, `Arc`-shareable
    /// [`CompiledPipeline`].
    ///
    /// The `build` closure performs exactly what one-shot code does
    /// before calling `Gpu::run`: allocate buffers/semaphores, bind a
    /// [`SyncGraph`](crate::SyncGraph), and launch kernels (possibly via
    /// [`BoundGraph::launch`](crate::BoundGraph::launch), which injects
    /// wait-kernels). Nothing is executed; the frozen artifact can then
    /// be run any number of times through `cusync_sim::Session`.
    ///
    /// # Errors
    ///
    /// Propagates any [`CuSyncError`] from the build closure (graph
    /// binding, grid mismatches, kernel [`BuildError`](cusync_sim::BuildError)s).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cusync::{CuStage, NoSync, Pipeline, SyncGraph, TileSync};
    /// use cusync_sim::{DType, Dim3, FixedKernel, GpuConfig, Op, Session};
    ///
    /// let pipeline = Pipeline::compile(GpuConfig::toy(4), |gpu| {
    ///     let buf = gpu.alloc("b", 1024, DType::F16);
    ///     let mut graph = SyncGraph::new();
    ///     let p = graph.add_stage(CuStage::new("p", Dim3::linear(2)).policy(TileSync));
    ///     let c = graph.add_stage(CuStage::new("c", Dim3::linear(2)).policy(NoSync));
    ///     graph.dependency(p, c, buf)?;
    ///     let bound = graph.bind(gpu)?;
    ///     let start = bound.stage(p).start_sem();
    ///     bound.launch(gpu, p, Arc::new(FixedKernel::new(
    ///         "p", Dim3::linear(2), 1, vec![Op::post(start, 0), Op::compute(100)],
    ///     )))?;
    ///     bound.launch(gpu, c, Arc::new(FixedKernel::new(
    ///         "c", Dim3::linear(2), 1, vec![Op::compute(10)],
    ///     )))?;
    ///     Ok(())
    /// })?;
    ///
    /// let mut session = Session::new();
    /// let first = session.run(&pipeline).expect("no deadlock");
    /// let again = session.run(&pipeline).expect("no deadlock");
    /// assert_eq!(first, again);
    /// # Ok::<(), cusync::CuSyncError>(())
    /// ```
    pub fn compile<F>(config: GpuConfig, build: F) -> Result<CompiledPipeline, CuSyncError>
    where
        F: FnOnce(&mut Gpu) -> Result<(), CuSyncError>,
    {
        let mut gpu = Gpu::new(config);
        build(&mut gpu)?;
        Ok(gpu.compile()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CuStage, SyncGraph, TileSync};
    use cusync_sim::{Dim3, Session, SimTime};
    use std::sync::Arc;

    #[test]
    fn compile_then_session_run_matches_one_shot_gpu() {
        let config = GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(4)
        };
        let build = |gpu: &mut Gpu| -> Result<(), CuSyncError> {
            let buf = gpu.alloc("b", 64, cusync_sim::DType::F16);
            let mut graph = SyncGraph::new();
            let p = graph.add_stage(CuStage::new("p", Dim3::linear(2)).policy(TileSync));
            let c = graph.add_stage(CuStage::new("c", Dim3::linear(2)).policy(TileSync));
            graph.dependency(p, c, buf)?;
            let bound = graph.bind(gpu)?;
            let start = bound.stage(p).start_sem();
            bound.launch(
                gpu,
                p,
                Arc::new(cusync_sim::FixedKernel::new(
                    "p",
                    Dim3::linear(2),
                    1,
                    vec![cusync_sim::Op::post(start, 0), cusync_sim::Op::compute(100)],
                )),
            )?;
            bound.launch(
                gpu,
                c,
                Arc::new(cusync_sim::FixedKernel::new(
                    "c",
                    Dim3::linear(2),
                    1,
                    vec![cusync_sim::Op::compute(10)],
                )),
            )?;
            Ok(())
        };
        let pipeline = Pipeline::compile(config.clone(), build).unwrap();
        let compiled = Session::new().run(&pipeline).unwrap();
        let mut gpu = Gpu::new(config);
        build(&mut gpu).unwrap();
        let one_shot = gpu.run().unwrap();
        assert_eq!(compiled, one_shot);
    }

    #[test]
    fn build_errors_propagate() {
        let err = Pipeline::compile(GpuConfig::toy(1), |_gpu| {
            Err(cusync_sim::BuildError::missing("TestBuilder", "operand").into())
        })
        .unwrap_err();
        assert!(matches!(err, CuSyncError::Build(_)), "{err}");
    }
}
