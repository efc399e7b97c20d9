//! Launch orchestration: synchronized launches with wait-kernel injection,
//! plus the StreamSync baseline.

use std::sync::Arc;

use cusync_sim::{Gpu, KernelId, KernelSource, LaunchGate, StreamId};

use crate::error::CuSyncError;
use crate::graph::BoundGraph;
use crate::mechanism::SyncMechanism;
use crate::stage::{StageId, StageRuntime};
use crate::wait_kernel::WaitKernel;

/// Registers one coarse edge on the simulator: the consumer's dispatch is
/// gated on the producer's last-block residency (PDL, which additionally
/// arms the producer's grid semaphore for the consumer's preamble barrier)
/// or on the producer's completion (stream-serial).
fn apply_coarse_edge(
    gpu: &mut Gpu,
    producer: &StageRuntime,
    prod_kid: KernelId,
    cons_kid: KernelId,
    mechanism: SyncMechanism,
) {
    match mechanism {
        SyncMechanism::Pdl => {
            gpu.gate_launch(cons_kid, LaunchGate::AfterLaunchOf(prod_kid));
            let grid_sem = producer
                .grid_sem()
                .expect("PDL producer bound without grid semaphore");
            gpu.post_on_completion(prod_kid, grid_sem, 0);
        }
        SyncMechanism::StreamSerial => {
            gpu.gate_launch(cons_kid, LaunchGate::AfterCompletionOf(prod_kid));
        }
        SyncMechanism::TileSync | SyncMechanism::RowSync => {
            unreachable!("fine edges never reach gate registration")
        }
    }
}

impl BoundGraph {
    /// Launches `kernel` as stage `id` on the stage's stream, injecting the
    /// wait-kernel first when the stage has *fine-grained* producers and
    /// the `W` optimization is off (Fig. 4a lines 28–30). Coarse
    /// (PDL / stream-serial) edges are enforced with launch gates instead:
    /// each one is registered here against the producer's kernel — or, when
    /// the consumer launches first, deferred and applied at the producer's
    /// own launch.
    ///
    /// Launch stages in producer-before-consumer order: like the CUDA
    /// runtime, the simulator issues thread blocks in launch order, which
    /// the wait-kernel mechanism assumes (Section III-B).
    ///
    /// # Errors
    ///
    /// Returns [`CuSyncError::GridMismatch`] if the kernel's grid differs
    /// from the stage's declared grid.
    pub fn launch(
        &self,
        gpu: &mut Gpu,
        id: StageId,
        kernel: Arc<dyn KernelSource>,
    ) -> Result<KernelId, CuSyncError> {
        let stage = self.stage(id);
        if kernel.grid() != stage.grid() {
            return Err(CuSyncError::GridMismatch {
                stage: stage.name().to_owned(),
                stage_grid: stage.grid(),
                kernel_grid: kernel.grid(),
            });
        }
        let stream = self.stream(id);
        if stage.has_fine_producers() && !stage.opts().avoid_wait_kernel {
            gpu.launch(stream, Arc::new(WaitKernel::for_stage(stage)));
        }
        let kid = gpu.launch(stream, kernel);

        let mut ledger = self.ledger.lock().expect("launch ledger poisoned");
        ledger.kernels[id.0] = Some(kid);
        // Coarse edges into this stage: gate now if the producer already
        // launched, else defer until it does.
        for (_, producer, mechanism) in &stage.producers {
            let Some(m) = *mechanism else { continue };
            if m.is_fine() {
                continue;
            }
            let prod_idx = self
                .stages()
                .iter()
                .position(|s| Arc::ptr_eq(s, producer))
                .expect("producer runtime not in graph");
            match ledger.kernels[prod_idx] {
                Some(prod_kid) => apply_coarse_edge(gpu, producer, prod_kid, kid, m),
                None => ledger.pending.push((prod_idx, kid, m)),
            }
        }
        // Coarse edges out of this stage whose consumer launched first.
        let mut deferred = Vec::new();
        ledger.pending.retain(|&(prod_idx, cons_kid, m)| {
            if prod_idx == id.0 {
                deferred.push((cons_kid, m));
                false
            } else {
                true
            }
        });
        drop(ledger);
        for (cons_kid, m) in deferred {
            apply_coarse_edge(gpu, stage, kid, cons_kid, m);
        }
        Ok(kid)
    }
}

/// Launches `kernels` back-to-back on one freshly created stream: the
/// traditional heavy-weight *stream synchronization* baseline, in which no
/// thread block of a later kernel may start before every block of the
/// earlier kernels has finished.
pub fn launch_stream_sync<I>(gpu: &mut Gpu, kernels: I) -> StreamId
where
    I: IntoIterator<Item = Arc<dyn KernelSource>>,
{
    let stream = gpu.create_stream(0);
    for kernel in kernels {
        gpu.launch(stream, kernel);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SyncGraph;
    use crate::policy::TileSync;
    use crate::stage::CuStage;
    use crate::OptFlags;
    use cusync_sim::{DType, Dim3, FixedKernel, GpuConfig, Op, Session, SimTime};

    fn quiet_gpu(sms: u32) -> Gpu {
        Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(sms)
        })
    }

    #[test]
    fn stream_sync_serializes_kernels() {
        let mut gpu = quiet_gpu(4);
        let k1: Arc<dyn KernelSource> = Arc::new(FixedKernel::new(
            "k1",
            Dim3::linear(6),
            1,
            vec![Op::compute(1000)],
        ));
        let k2: Arc<dyn KernelSource> = Arc::new(FixedKernel::new(
            "k2",
            Dim3::linear(6),
            1,
            vec![Op::compute(1000)],
        ));
        launch_stream_sync(&mut gpu, [k1, k2]);
        let report = gpu.compile().and_then(|p| Session::new().run(&p)).unwrap();
        assert!(report.kernel("k2").start >= report.kernel("k1").end);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let mut gpu = quiet_gpu(4);
        let buf = gpu.alloc("b", 4, DType::F16);
        let mut graph = SyncGraph::new();
        let p = graph.add_stage(CuStage::new("p", Dim3::linear(4)).policy(TileSync));
        let c = graph.add_stage(CuStage::new("c", Dim3::linear(4)).policy(TileSync));
        graph.dependency(p, c, buf).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let wrong = Arc::new(FixedKernel::new("c", Dim3::linear(8), 1, vec![]));
        let err = bound.launch(&mut gpu, c, wrong).unwrap_err();
        assert!(matches!(err, CuSyncError::GridMismatch { .. }));
    }

    #[test]
    fn wait_kernel_injected_unless_w_flag() {
        // Count launched kernels indirectly via the run report.
        for (avoid, expected_kernels) in [(false, 3), (true, 2)] {
            let mut gpu = quiet_gpu(4);
            let buf = gpu.alloc("b", 4, DType::F16);
            let mut graph = SyncGraph::new();
            let mut cons_stage = CuStage::new("c", Dim3::linear(2));
            if avoid {
                cons_stage = cons_stage.opts(OptFlags {
                    avoid_wait_kernel: true,
                    ..OptFlags::NONE
                });
            }
            let p = graph.add_stage(CuStage::new("p", Dim3::linear(2)));
            let c = graph.add_stage(cons_stage);
            graph.dependency(p, c, buf).unwrap();
            let bound = graph.bind(&mut gpu).unwrap();
            // Producer posts its start sem (first block) so the wait kernel
            // can finish.
            let start = bound.stage(p).start_sem();
            bound
                .launch(
                    &mut gpu,
                    p,
                    Arc::new(FixedKernel::new(
                        "p",
                        Dim3::linear(2),
                        1,
                        vec![Op::post(start, 0), Op::compute(100)],
                    )),
                )
                .unwrap();
            bound
                .launch(
                    &mut gpu,
                    c,
                    Arc::new(FixedKernel::new(
                        "c",
                        Dim3::linear(2),
                        1,
                        vec![Op::compute(10)],
                    )),
                )
                .unwrap();
            let report = gpu.compile().and_then(|p| Session::new().run(&p)).unwrap();
            assert_eq!(report.kernels.len(), expected_kernels, "avoid={avoid}");
        }
    }
}
