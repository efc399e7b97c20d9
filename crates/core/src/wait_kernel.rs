//! The wait-kernel mechanism (Section III-B).
//!
//! The CUDA runtime gives no way to order kernels on *different* streams,
//! so a consumer kernel could be scheduled before its producer, occupying
//! SMs with busy-waiting blocks — or deadlocking outright. cuSync launches
//! a single-block *wait kernel* on the consumer stream ahead of the
//! consumer; it spins on each producer stage's start semaphore, which the
//! producer's first thread block posts from `stage.start()`. Stream
//! ordering then keeps the consumer off the GPU until every producer has
//! begun executing.

use std::sync::Arc;

use cusync_sim::{BlockBody, BlockCtx, Dim3, KernelSource, Op, SemArrayId, Step, MAX_OCCUPANCY};

use crate::stage::StageRuntime;

/// The single-block kernel a consumer stage uses to defer its own launch
/// until all of its producers have started.
#[derive(Debug, Clone)]
pub struct WaitKernel {
    name: String,
    targets: Vec<(SemArrayId, u32)>,
}

impl WaitKernel {
    /// Builds the wait kernel for `consumer`, spinning on the start
    /// semaphore of each distinct *fine-grained* producer stage. Coarse
    /// (PDL / stream-serial) producers are excluded: their ordering is
    /// enforced by launch gates, which subsume the handshake.
    pub fn for_stage(consumer: &StageRuntime) -> Self {
        let targets = consumer
            .fine_producer_stages()
            .iter()
            .map(|p| (p.start_sem(), 0))
            .collect();
        WaitKernel {
            name: format!("{}.wait", consumer.name()),
            targets,
        }
    }

    /// Builds a wait kernel spinning on explicit semaphores (used by
    /// tests and by schedules built outside a [`SyncGraph`](crate::SyncGraph)).
    pub fn new(name: &str, targets: Vec<(SemArrayId, u32)>) -> Self {
        WaitKernel {
            name: name.to_owned(),
            targets,
        }
    }

    /// Number of semaphores this wait kernel polls.
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }
}

impl KernelSource for WaitKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> Dim3 {
        Dim3::ONE
    }

    fn occupancy(&self) -> u32 {
        // One thread, negligible resources: max occupancy, so the spinning
        // block occupies only 1/16th of one SM.
        MAX_OCCUPANCY
    }

    fn block(&self, _block: Dim3) -> Box<dyn BlockBody> {
        Box::new(WaitBody {
            targets: self.targets.clone(),
            next: 0,
        })
    }
}

struct WaitBody {
    targets: Vec<(SemArrayId, u32)>,
    next: usize,
}

impl BlockBody for WaitBody {
    fn resume(&mut self, _ctx: &mut BlockCtx<'_>) -> Step {
        match self.targets.get(self.next) {
            Some(&(table, index)) => {
                self.next += 1;
                Step::Op(Op::SemWait {
                    table,
                    index,
                    value: 1,
                })
            }
            None => Step::Done,
        }
    }
}

/// Convenience: the start-post op sequence a producer's first block issues,
/// for kernels instrumented without the full kernels crate.
pub fn start_ops(stage: &Arc<StageRuntime>, block: Dim3) -> Vec<Op> {
    stage.start_op(block).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusync_sim::{FixedKernel, Gpu, GpuConfig, Session, SimTime};

    #[test]
    fn wait_kernel_defers_consumer_until_producer_starts() {
        let mut gpu = Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(4)
        });
        let start = gpu.alloc_sems("start", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        // Producer: 4 blocks; first block posts the start sem then computes.
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(1),
                1,
                vec![Op::post(start, 0), Op::compute(50_000)],
            )),
        );
        let wait = WaitKernel::new("cons.wait", vec![(start, 0)]);
        assert_eq!(wait.num_targets(), 1);
        gpu.launch(s2, Arc::new(wait));
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(1),
                1,
                vec![Op::compute(10)],
            )),
        );
        let report = gpu.compile().and_then(|p| Session::new().run(&p)).unwrap();
        // The consumer starts only after the producer posted its start sem,
        // but well before the producer finishes (fine-grained overlap).
        let producer = report.kernel("producer");
        let consumer = report.kernel("consumer");
        assert!(consumer.start > producer.start);
        assert!(consumer.start < producer.end);
    }
}
