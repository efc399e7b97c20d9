//! Schedule-space exploration: run one compiled pipeline under many block
//! schedulers and check that the outcomes are the ones the sync protocol
//! promises.
//!
//! The paper's deadlock-freedom argument (Section III-B) is made against
//! one progress model — blocks issue in kernel launch order. Sorensen et
//! al. show such arguments must be validated *across* schedules, so this
//! driver searches the schedule space instead of sampling one point of
//! it: a [`CompiledPipeline`] is executed once per [`SchedPolicy`]
//! (typically [`Fifo`](SchedPolicy::Fifo), [`Lifo`](SchedPolicy::Lifo),
//! [`SemStarver`](SchedPolicy::SemStarver) and K
//! [`SeededShuffle`](SchedPolicy::SeededShuffle)s), and every run is checked
//! against the invariants that must hold no matter which schedule the
//! hardware picks:
//!
//! - **Trace sanity** — event times are monotone; every issued block
//!   blocks/finishes no earlier than it was issued; a completed run
//!   issues exactly each kernel's grid (a permutation of its blocks).
//! - **Functional determinism** — all runs that complete agree on the
//!   functional outcome: bit-identical final memory
//!   ([`GlobalMemory::fingerprint`](crate::GlobalMemory::fingerprint)),
//!   race counts and semaphore post totals; correct synchronization makes
//!   results schedule-*independent* even though timelines are
//!   schedule-dependent.
//! - **Classified failures** — a run that stalls must produce a
//!   [`DeadlockReport`] that actually names the wait cycle (blocked
//!   blocks, polled semaphores, starved kernels), not an opaque hang.
//! - **Expected outcome** — callers assert [`Expectation::Terminates`]
//!   for protocol-complete graphs (wait-kernels on, capacity-safe) and
//!   [`Expectation::Deadlocks`] for adversarial ones (wait-kernel
//!   disabled on a downscaled GPU).
//!
//! Sweeps run on the [`EngineMode::Optimized`] engine. The optional
//! cross-engine check re-runs every schedule on [`EngineMode::Reference`]
//! and demands bit-identical reports: the ref ↔ opt equivalence contract
//! extended from one schedule to the whole space.

use std::fmt;

use crate::engine::{DeadlockReport, EngineMode, SimError};
use crate::session::{CompiledPipeline, Session};
use crate::stats::RunReport;
use crate::trace::TraceEvent;
use crate::SchedPolicy;

/// What a caller asserts about every schedule's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Expectation {
    /// Record outcomes; only the unconditional invariants are enforced.
    #[default]
    Either,
    /// Every schedule must run to completion (the deadlock-freedom claim
    /// for a protocol-complete graph).
    Terminates,
    /// At least one schedule must deadlock (the adversarial half: the
    /// graph is known to be unsafe without its wait-kernels).
    Deadlocks,
}

/// Configuration of one exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Schedules to run, in order. The first entry is the baseline the
    /// functional-determinism check compares against.
    pub schedules: Vec<SchedPolicy>,
    /// Outcome assertion (see [`Expectation`]).
    pub expectation: Expectation,
    /// Re-run every schedule on the Reference engine and require
    /// bit-identical reports and final memory.
    pub cross_check_modes: bool,
}

impl ExploreConfig {
    /// The standard sweep: [`Fifo`](SchedPolicy::Fifo) (the baseline),
    /// [`Lifo`](SchedPolicy::Lifo),
    /// [`SemStarver`](SchedPolicy::SemStarver), and `num_shuffles`
    /// seeded shuffles derived from `base_seed`.
    pub fn seeded(num_shuffles: usize, base_seed: u64) -> Self {
        let mut schedules = vec![
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::SemStarver,
        ];
        schedules.extend(
            (0..num_shuffles as u64).map(|i| {
                SchedPolicy::SeededShuffle(base_seed.wrapping_add(i.wrapping_mul(0x9E37)))
            }),
        );
        ExploreConfig {
            schedules,
            expectation: Expectation::Either,
            cross_check_modes: false,
        }
    }

    /// Sets the outcome assertion.
    pub fn expecting(mut self, expectation: Expectation) -> Self {
        self.expectation = expectation;
        self
    }

    /// Enables the cross-engine bit-identity check.
    pub fn cross_checked(mut self) -> Self {
        self.cross_check_modes = true;
        self
    }
}

/// Outcome of one schedule's run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleOutcome {
    /// The pipeline ran to completion.
    Completed {
        /// The run's report (timeline, utilization, posts).
        report: RunReport,
        /// Digest of the final memory ([`crate::GlobalMemory::fingerprint`]).
        mem_fingerprint: u64,
    },
    /// The pipeline stalled; the report names the wait cycle.
    Deadlocked(Box<DeadlockReport>),
}

/// One schedule's result within an [`ExploreSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// The schedule that ran.
    pub schedule: SchedPolicy,
    /// What happened.
    pub outcome: ScheduleOutcome,
}

impl ScheduleResult {
    /// True if this schedule ran to completion.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, ScheduleOutcome::Completed { .. })
    }
}

/// Everything one exploration sweep observed: per-schedule outcomes plus
/// every invariant violation found. An empty
/// [`violations`](ExploreSummary::violations) list means the sweep passed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExploreSummary {
    /// Per-schedule outcomes, in sweep order.
    pub results: Vec<ScheduleResult>,
    /// Human-readable invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl ExploreSummary {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of schedules that completed.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.completed()).count()
    }

    /// Number of schedules that deadlocked.
    pub fn deadlocked(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Number of distinct end-to-end completion times among the completed
    /// schedules — a coarse measure of how much of the timeline space the
    /// sweep actually reached (1 means every schedule collapsed to the
    /// same timeline).
    pub fn distinct_timelines(&self) -> usize {
        let mut totals: Vec<u64> = self
            .results
            .iter()
            .filter_map(|r| match &r.outcome {
                ScheduleOutcome::Completed { report, .. } => Some(report.total.as_picos()),
                ScheduleOutcome::Deadlocked(_) => None,
            })
            .collect();
        totals.sort_unstable();
        totals.dedup();
        totals.len()
    }

    /// The first deadlock report observed, if any.
    pub fn first_deadlock(&self) -> Option<&DeadlockReport> {
        self.results.iter().find_map(|r| match &r.outcome {
            ScheduleOutcome::Deadlocked(report) => Some(report.as_ref()),
            ScheduleOutcome::Completed { .. } => None,
        })
    }
}

impl fmt::Display for ExploreSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explored {} schedule(s): {} completed, {} deadlocked, {} distinct timeline(s), {}",
            self.results.len(),
            self.completed(),
            self.deadlocked(),
            self.distinct_timelines(),
            if self.ok() {
                "all invariants held".to_owned()
            } else {
                format!("{} violation(s)", self.violations.len())
            },
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// Per-run trace invariants that hold under *every* schedule: times are
/// monotone, blocks block/finish only after they issue, and a completed
/// run issues each kernel's grid exactly (the issue order is a
/// permutation of the blocks).
fn check_trace(
    schedule: SchedPolicy,
    trace: &[TraceEvent],
    grids: &[crate::Dim3],
    completed: bool,
    violations: &mut Vec<String>,
) {
    let mut last = crate::SimTime::ZERO;
    for event in trace {
        let t = event.time();
        if t < last {
            violations.push(format!(
                "{schedule}: trace time went backwards ({t} after {last})"
            ));
            return;
        }
        last = t;
    }
    use std::collections::BTreeMap;
    type IssueMap = BTreeMap<(crate::KernelId, crate::Dim3), crate::SimTime>;
    fn check_after_issue(
        issued: &IssueMap,
        schedule: SchedPolicy,
        kernel: crate::KernelId,
        block: crate::Dim3,
        time: crate::SimTime,
        violations: &mut Vec<String>,
    ) {
        match issued.get(&(kernel, block)) {
            None => violations.push(format!(
                "{schedule}: block {block} of {kernel} progressed before being issued"
            )),
            Some(&at) if time < at => violations.push(format!(
                "{schedule}: block {block} of {kernel} progressed at {time}, \
                 before its issue at {at}"
            )),
            Some(_) => {}
        }
    }
    let mut issued: IssueMap = BTreeMap::new();
    let mut finished = 0usize;
    for event in trace {
        match *event {
            TraceEvent::BlockIssued {
                kernel,
                block,
                time,
                ..
            } => {
                // The insert must run unconditionally (it records the
                // issue time); a duplicate key is the violation.
                let duplicate = issued.insert((kernel, block), time).is_some();
                if duplicate {
                    violations.push(format!(
                        "{schedule}: block {block} of {kernel} issued twice"
                    ));
                }
            }
            TraceEvent::BlockBlocked {
                kernel,
                block,
                time,
                ..
            } => {
                check_after_issue(&issued, schedule, kernel, block, time, violations);
            }
            TraceEvent::BlockFinished {
                kernel,
                block,
                time,
            } => {
                check_after_issue(&issued, schedule, kernel, block, time, violations);
                finished += 1;
            }
            _ => {}
        }
    }
    if completed && finished != issued.len() {
        violations.push(format!(
            "{schedule}: run completed but {} issued block(s) never finished",
            issued.len() - finished,
        ));
    }
    if completed {
        // Permutation invariant: a completed run must have issued each
        // kernel's grid exactly — no block dropped, none invented. (The
        // no-duplicate check above plus set equality makes the issue
        // order a permutation of the blocks.)
        for (k, &grid) in grids.iter().enumerate() {
            let kernel = crate::KernelId(k);
            let mut seen: Vec<crate::Dim3> = issued
                .keys()
                .filter(|(kid, _)| *kid == kernel)
                .map(|&(_, block)| block)
                .collect();
            seen.sort();
            let mut expected: Vec<crate::Dim3> = grid.iter().collect();
            expected.sort();
            if seen != expected {
                violations.push(format!(
                    "{schedule}: kernel {kernel} issued {} block(s), expected its grid \
                     {grid} ({} blocks) exactly",
                    seen.len(),
                    grid.count(),
                ));
            }
        }
    }
}

/// Runs `pipeline` under every schedule of `cfg` and checks the
/// invariants described in the [module docs](self). Never panics on a
/// "failing" pipeline — failures become entries of
/// [`ExploreSummary::violations`].
pub fn explore(pipeline: &CompiledPipeline, cfg: &ExploreConfig) -> ExploreSummary {
    let mut summary = ExploreSummary::default();
    let mut session = Session::new();
    session.enable_trace();
    let grids: Vec<crate::Dim3> = pipeline.kernel_grids().collect();
    // Baseline functional outcome of the first completed schedule: final
    // memory digest, race count and semaphore post total — everything a
    // correctly synchronized pipeline keeps schedule-independent.
    let mut baseline: Option<(SchedPolicy, u64, u64, u64)> = None;
    for &schedule in &cfg.schedules {
        session.set_sched(schedule);
        let run = session.run(pipeline);
        let completed = run.is_ok();
        check_trace(
            schedule,
            session.trace(),
            &grids,
            completed,
            &mut summary.violations,
        );
        let outcome = match run {
            Ok(report) => {
                let fingerprint = session.mem().fingerprint();
                match baseline {
                    None => {
                        baseline = Some((schedule, fingerprint, report.races, report.sem_posts))
                    }
                    Some((base, mem, races, posts)) => {
                        if fingerprint != mem {
                            summary.violations.push(format!(
                                "{schedule}: final memory {fingerprint:016x} differs from \
                                 {base}'s {mem:016x} — results are schedule-dependent",
                            ));
                        }
                        if report.races != races {
                            summary.violations.push(format!(
                                "{schedule}: {} race(s) vs {base}'s {races} — \
                                 synchronization coverage is schedule-dependent",
                                report.races,
                            ));
                        }
                        if report.sem_posts != posts {
                            summary.violations.push(format!(
                                "{schedule}: {} sem post(s) vs {base}'s {posts} — \
                                 synchronization work is schedule-dependent",
                                report.sem_posts,
                            ));
                        }
                    }
                }
                ScheduleOutcome::Completed {
                    report,
                    mem_fingerprint: fingerprint,
                }
            }
            Err(SimError::Deadlock(report)) => {
                if report.blocked.is_empty() || report.pending.is_empty() {
                    summary.violations.push(format!(
                        "{schedule}: deadlock report is unclassified (no blocked blocks \
                         or no pending kernels)",
                    ));
                }
                ScheduleOutcome::Deadlocked(report)
            }
            Err(other) => {
                summary
                    .violations
                    .push(format!("{schedule}: unexpected error: {other}"));
                continue;
            }
        };
        if cfg.cross_check_modes {
            cross_check(pipeline, schedule, &outcome, &mut summary.violations);
        }
        summary.results.push(ScheduleResult { schedule, outcome });
    }
    match cfg.expectation {
        Expectation::Either => {}
        Expectation::Terminates => {
            for r in &summary.results {
                if let ScheduleOutcome::Deadlocked(report) = &r.outcome {
                    summary.violations.push(format!(
                        "{}: expected termination under every schedule, but: {}",
                        r.schedule,
                        report
                            .wait_cycle()
                            .unwrap_or_else(|| "stalled without an occupancy cycle".to_owned()),
                    ));
                }
            }
        }
        Expectation::Deadlocks => {
            if summary.deadlocked() == 0 {
                summary.violations.push(
                    "expected at least one schedule to deadlock, but every schedule completed"
                        .to_owned(),
                );
            }
        }
    }
    summary
}

/// Re-runs `schedule` on the Reference engine and demands a bit-identical
/// outcome — the ref ↔ opt equivalence contract, enforced per schedule.
fn cross_check(
    pipeline: &CompiledPipeline,
    schedule: SchedPolicy,
    outcome: &ScheduleOutcome,
    violations: &mut Vec<String>,
) {
    let mut session = Session::with_mode(EngineMode::Reference);
    session.set_sched(schedule);
    match (session.run(pipeline), outcome) {
        (
            Ok(report),
            ScheduleOutcome::Completed {
                report: expected,
                mem_fingerprint,
            },
        ) => {
            // `sim_events` measures simulation *work*, which differs
            // between engines by design; every timing-observable field
            // must match bit for bit.
            if report.kernels != expected.kernels
                || report.total != expected.total
                || report.races != expected.races
                || report.sem_posts != expected.sem_posts
                || report.sm_utilization.to_bits() != expected.sm_utilization.to_bits()
            {
                violations.push(format!(
                    "{schedule}: reference engine timeline diverged from optimized",
                ));
            }
            if session.mem().fingerprint() != *mem_fingerprint {
                violations.push(format!(
                    "{schedule}: reference engine final memory diverged from optimized",
                ));
            }
        }
        (Err(SimError::Deadlock(report)), ScheduleOutcome::Deadlocked(expected)) => {
            if &report != expected {
                violations.push(format!(
                    "{schedule}: reference engine deadlock report diverged from optimized",
                ));
            }
        }
        (got, _) => {
            violations.push(format!(
                "{schedule}: engines disagree on the outcome (optimized vs reference: {})",
                match got {
                    Ok(_) => "completed".to_owned(),
                    Err(e) => format!("{e}"),
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dim3, FixedKernel, Gpu, GpuConfig, Op, SimTime};
    use std::sync::Arc;

    fn quiet_config(sms: u32) -> GpuConfig {
        GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::toy(sms)
        }
    }

    /// Producer posts 4 tile sems; consumer blocks each wait for all 4.
    /// On 8 SMs everything fits and any order terminates; on 2 SMs a
    /// consumer-first order wedges the machine.
    fn producer_consumer(sms: u32) -> CompiledPipeline {
        let mut gpu = Gpu::new(quiet_config(sms));
        let sem = gpu.alloc_sems("tiles", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(4),
                1,
                vec![Op::compute(50_000), Op::Fence, Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(4),
                1,
                vec![Op::wait(sem, 0, 4), Op::compute(1_000)],
            )),
        );
        gpu.compile().unwrap()
    }

    #[test]
    fn capacity_safe_graph_terminates_under_every_schedule() {
        let pipeline = producer_consumer(8);
        let cfg = ExploreConfig::seeded(6, 42)
            .expecting(Expectation::Terminates)
            .cross_checked();
        let summary = explore(&pipeline, &cfg);
        assert!(summary.ok(), "{summary}");
        assert_eq!(summary.completed(), summary.results.len());
    }

    #[test]
    fn starved_graph_deadlocks_on_an_adversarial_schedule() {
        // 2 SMs: if the consumer's 4 spinners grab freed slots before the
        // producer's remaining blocks, the machine wedges. Lifo and
        // SemStarver both find it; Fifo (launch order) does not.
        let pipeline = producer_consumer(2);
        let cfg = ExploreConfig::seeded(6, 7).expecting(Expectation::Deadlocks);
        let summary = explore(&pipeline, &cfg);
        assert!(summary.ok(), "{summary}");
        assert!(summary.deadlocked() >= 1, "{summary}");
        // Fifo is the paper's progress model: launch order keeps the
        // producer ahead of its consumer, so the baseline completes.
        assert!(
            summary.results[0].completed(),
            "launch order must not deadlock: {summary}"
        );
        let report = summary.first_deadlock().unwrap();
        let cycle = report.wait_cycle().expect("classified cycle");
        assert!(cycle.contains("consumer"), "{cycle}");
        assert!(cycle.contains("producer"), "{cycle}");
    }
}
