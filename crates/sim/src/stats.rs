//! Wave arithmetic and per-run reports.
//!
//! The *static* quantities here implement Section II-A of the paper: a grid
//! of `B` thread blocks at occupancy `o` on `S` SMs runs in
//! `ceil(B / (o*S))` waves, the initial full waves executing `o*S` blocks
//! each and the final partial wave executing the remainder. Average
//! utilization across waves is `waves / ceil(waves)`, which reproduces the
//! 60–80% figures of Table I.

use std::fmt;

use crate::dim::Dim3;
use crate::time::SimTime;

/// Fractional number of thread-block waves: `blocks / (occupancy * sms)`.
///
/// # Examples
///
/// ```
/// use cusync_sim::stats::waves;
///
/// // Table I, batch 256 producer GeMM: grid [1,48,4] = 192 blocks,
/// // occupancy 2 on 80 SMs -> 1.2 waves.
/// assert!((waves(192, 2, 80) - 1.2).abs() < 1e-9);
/// ```
pub fn waves(blocks: u64, occupancy: u32, sms: u32) -> f64 {
    blocks as f64 / (occupancy as f64 * sms as f64)
}

/// Average GPU utilization across all waves of one kernel:
/// `waves / ceil(waves)` (100% when the block count divides evenly).
///
/// # Examples
///
/// ```
/// use cusync_sim::stats::{utilization, waves};
///
/// // Table I: 1.2 waves -> 60%, 2.4 waves -> 80%.
/// assert!((utilization(waves(192, 2, 80)) - 0.6).abs() < 1e-9);
/// assert!((utilization(waves(384, 2, 80)) - 0.8).abs() < 1e-9);
/// ```
pub fn utilization(waves: f64) -> f64 {
    if waves == 0.0 {
        return 0.0;
    }
    waves / waves.ceil()
}

/// Per-kernel outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Grid launched.
    pub grid: Dim3,
    /// Device the kernel ran on (0 for single-GPU pipelines).
    pub device: u32,
    /// Occupancy used.
    pub occupancy: u32,
    /// Total thread blocks.
    pub blocks: u64,
    /// Static fractional waves for this kernel alone on an idle GPU.
    pub static_waves: f64,
    /// Time the kernel became ready to issue blocks.
    pub ready: SimTime,
    /// Time its first block was issued.
    pub start: SimTime,
    /// Time its last block completed.
    pub end: SimTime,
    /// `end - start`.
    pub duration: SimTime,
    /// Peak number of concurrently resident blocks observed.
    pub max_concurrent: u64,
}

impl KernelReport {
    /// Static average utilization over this kernel's waves.
    pub fn static_utilization(&self) -> f64 {
        utilization(self.static_waves)
    }
}

impl fmt::Display for KernelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: grid {} ({} TBs, occ {}), {:.2} waves, util {:.0}%, {} -> {} ({})",
            self.name,
            self.grid,
            self.blocks,
            self.occupancy,
            self.static_waves,
            self.static_utilization() * 100.0,
            self.start,
            self.end,
            self.duration,
        )
    }
}

/// Outcome of one [`Session::run`](crate::Session::run).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Completion time of the last kernel (total simulated time).
    pub total: SimTime,
    /// Per-kernel reports, in launch order.
    pub kernels: Vec<KernelReport>,
    /// Number of racy (read-before-write) accesses observed.
    pub races: u64,
    /// Average fraction of total SM capacity occupied between the first
    /// block issue and the last block completion.
    pub sm_utilization: f64,
    /// Total semaphore post operations performed during the run.
    pub sem_posts: u64,
    /// Heap events the engine handled to simulate the run — a measure of
    /// simulation *work*, not of simulated time. The optimized engine
    /// coalesces non-synchronizing ops, so this is typically much smaller
    /// than under [`EngineMode::Reference`](crate::EngineMode) for the
    /// same (bit-identical) timeline; `BENCH_*.json` divides wall time by
    /// it to report ns/sim-event.
    pub sim_events: u64,
    /// What the engine did to simulate the run, counted where it already
    /// branches.
    /// Like `sim_events` these measure simulation *work*: they
    /// differ between [`EngineMode`](crate::EngineMode)s by design, but
    /// are deterministic per engine (identical with trace on and off, and
    /// across repeated session runs).
    pub counters: EngineCounters,
}

/// Deterministic per-run counts of the engine's work (see
/// [`RunReport::counters`]). The event counts by kind sum to
/// [`RunReport::sim_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    /// `KernelReady` events handled.
    pub kernel_ready_events: u64,
    /// `BlockResume` events handled.
    pub block_resume_events: u64,
    /// `PostApply` events handled.
    pub post_apply_events: u64,
    /// `AtomicApply` events handled.
    pub atomic_apply_events: u64,
    /// Block steps that replayed a pre-driven op program.
    pub program_steps: u64,
    /// Block steps that resumed a coroutine body.
    pub coroutine_steps: u64,
    /// Block-placement rounds that had at least one candidate kernel.
    pub issue_rounds: u64,
    /// Blocks placed onto SMs.
    pub placements: u64,
    /// Blocks parked on an unmet semaphore.
    pub parks: u64,
    /// Parked blocks woken by a post.
    pub wakes: u64,
    /// Most events pending in the queue at the start of a timestamp
    /// batch.
    pub peak_queue_len: u64,
    /// Most block slots the run held: finished blocks' slots are reused,
    /// so this is the most blocks resident at once, never more than the
    /// sum of the kernels' [`KernelReport::max_concurrent`].
    pub peak_block_slots: u64,
    /// Optimized engine: DRAM-time lookups in the per-kernel price memo.
    pub mem_memo: MemoCount,
    /// Optimized engine: cycle-conversion lookups in the per-kernel price
    /// memo.
    pub cycles_memo: MemoCount,
}

impl EngineCounters {
    /// Events handled, summed over the four kinds: the engine counts
    /// every event under exactly one, so this is [`RunReport::sim_events`].
    pub(crate) fn events(&self) -> u64 {
        self.kernel_ready_events
            + self.block_resume_events
            + self.post_apply_events
            + self.atomic_apply_events
    }
}

/// Hits and misses of one pricing memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoCount {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the formula.
    pub misses: u64,
}

impl MemoCount {
    /// Fraction of lookups answered from the memo (0 when there were
    /// none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

impl RunReport {
    /// Report of the kernel named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no kernel has that name (kernel names in one run are
    /// expected to be distinct in tests that use this).
    pub fn kernel(&self, name: &str) -> &KernelReport {
        self.kernels
            .iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("no kernel named {name:?} in report"))
    }

    /// Verifies the laws every completed run's report obeys, in either
    /// [`EngineMode`](crate::EngineMode):
    ///
    /// 1. every block was placed once: `placements` = Σ `blocks`;
    /// 2. every parked block was woken: `parks` = `wakes`;
    /// 3. a block step runs only on a resume:
    ///    `program_steps + coroutine_steps ≤ block_resume_events`;
    /// 4. the four event kinds sum to `sim_events`;
    /// 5. every kernel has `ready ≤ start ≤ end ≤ total`;
    /// 6. `sm_utilization` lies in [0, 1];
    /// 7. `total` is the latest kernel `end` (zero without kernels), so a
    ///    run's kernel ends are its only interior boundaries.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated law.
    pub fn check(&self) -> Result<(), String> {
        let c = &self.counters;
        let blocks: u64 = self.kernels.iter().map(|k| k.blocks).sum();
        if c.placements != blocks {
            return Err(format!("placements {} != blocks {blocks}", c.placements));
        }
        if c.parks != c.wakes {
            return Err(format!("parks {} != wakes {}", c.parks, c.wakes));
        }
        let steps = c.program_steps + c.coroutine_steps;
        if steps > c.block_resume_events {
            let resumes = c.block_resume_events;
            return Err(format!("{steps} block steps > {resumes} block resumes"));
        }
        let events = c.events();
        if events != self.sim_events {
            return Err(format!(
                "event kinds sum to {events} != sim_events {}",
                self.sim_events
            ));
        }
        for k in &self.kernels {
            if !(k.ready <= k.start && k.start <= k.end && k.end <= self.total) {
                return Err(format!(
                    "{}: ready {} start {} end {} total {} out of order",
                    k.name, k.ready, k.start, k.end, self.total
                ));
            }
        }
        let util = self.sm_utilization;
        if !(0.0..=1.0).contains(&util) {
            return Err(format!("sm_utilization {util} outside [0, 1]"));
        }
        let last = self
            .kernels
            .iter()
            .map(|k| k.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        if self.total != last {
            return Err(format!("total {} != latest kernel end {last}", self.total));
        }
        Ok(())
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: total {} | sm util {:.0}% | {} sem posts | {} races",
            self.total,
            self.sm_utilization * 100.0,
            self.sem_posts,
            self.races
        )?;
        for k in &self.kernels {
            writeln!(f, "  {k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_wave_arithmetic() {
        // Table I of the paper, NVIDIA V100 with 80 SMs.
        // batch 256: producer [1,48,4] occ 2 -> 1.2 waves, 60%.
        let w = waves(48 * 4, 2, 80);
        assert!((w - 1.2).abs() < 1e-9);
        assert!((utilization(w) - 0.60).abs() < 1e-9);
        // batch 1024: producer [4,24,2] occ 2 -> 1.2? No: 192 blocks occ 1.
        // Table I lists 2.4 waves at 80% for batch 1024 (occupancy 1).
        let w = waves(4 * 24 * 2, 1, 80);
        assert!((w - 2.4).abs() < 1e-9);
        assert!((utilization(w) - 0.80).abs() < 1e-9);
    }

    #[test]
    fn full_waves_are_fully_utilized() {
        assert_eq!(utilization(waves(160, 2, 80)), 1.0);
        assert_eq!(utilization(0.0), 0.0);
    }

    #[test]
    fn kernel_report_displays_waves() {
        let r = KernelReport {
            name: "gemm".into(),
            grid: Dim3::new(24, 1, 4),
            device: 0,
            occupancy: 2,
            blocks: 96,
            static_waves: 0.6,
            ready: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::from_micros(10.0),
            duration: SimTime::from_micros(10.0),
            max_concurrent: 96,
        };
        let s = r.to_string();
        assert!(s.contains("0.60 waves"), "{s}");
        assert!(s.contains("24x1x4"), "{s}");
    }

    /// A real report that exercises every law: two kernels, a semaphore
    /// the consumer parks on, a partial wave.
    fn real_report() -> RunReport {
        use crate::{FixedKernel, Gpu, GpuConfig, Op, Session};
        use std::sync::Arc;
        let mut gpu = Gpu::new(GpuConfig::toy(4));
        let sem = gpu.alloc_sems("sem", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(3),
                1,
                vec![Op::compute(10_000), Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(2),
                1,
                vec![Op::wait(sem, 0, 3), Op::compute(100)],
            )),
        );
        let report = Session::new().run(&gpu.compile().unwrap()).unwrap();
        assert!(report.counters.parks > 0, "the consumer parks");
        assert_eq!(report.check(), Ok(()));
        report
    }

    /// Asserts `broken` fails [`RunReport::check`] with an error naming
    /// `what`.
    fn assert_breaks(broken: RunReport, what: &str) {
        let err = broken.check().expect_err("a broken law must be reported");
        assert!(err.contains(what), "{err}");
    }

    #[test]
    fn check_counts_one_placement_per_block() {
        let mut r = real_report();
        r.counters.placements += 1;
        assert_breaks(r, "placements");
    }

    #[test]
    fn check_pairs_parks_with_wakes() {
        let mut r = real_report();
        r.counters.parks += 1;
        assert_breaks(r, "parks");
    }

    #[test]
    fn check_bounds_block_steps_by_resumes() {
        let mut r = real_report();
        r.counters.coroutine_steps = r.counters.block_resume_events + 1;
        assert_breaks(r, "block resumes");
    }

    #[test]
    fn check_sums_event_kinds_to_sim_events() {
        let mut r = real_report();
        r.sim_events += 1;
        assert_breaks(r, "sim_events");
    }

    #[test]
    fn check_orders_kernel_times() {
        let one = SimTime::from_picos(1);
        let r = real_report();
        let mut late_ready = r.clone();
        late_ready.kernels[1].ready = r.kernels[1].start + one;
        assert_breaks(late_ready, "consumer");
        let mut late_start = r.clone();
        late_start.kernels[0].start = r.kernels[0].end + one;
        assert_breaks(late_start, "producer");
        let mut short_total = r.clone();
        short_total.total = r.kernels[1].end - one;
        assert_breaks(short_total, "out of order");
    }

    #[test]
    fn check_ends_total_at_the_latest_kernel_end() {
        let mut r = real_report();
        r.total += SimTime::from_picos(1);
        assert_breaks(r, "latest kernel end");
    }

    #[test]
    fn check_bounds_utilization() {
        for bad in [-0.5, 1.5, f64::NAN] {
            let mut r = real_report();
            r.sm_utilization = bad;
            assert_breaks(r, "sm_utilization");
        }
    }
}
