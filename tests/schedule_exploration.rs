//! Schedule-space exploration over randomized sync graphs: the paper's
//! deadlock-freedom and correctness claims, validated *across* block
//! schedules instead of at the single launch-order point.
//!
//! Graphs come from `cusync_suite::randgraph` (random stage DAGs over the
//! four kernel archetypes with random TileSync / RowSync / Conv2DTileSync
//! / NoSync policies and random cross-device placement); schedules come
//! from `cusync_sim::explore` (Fifo, Lifo, SemStarver, K seeded
//! shuffles). Two regimes per graph:
//!
//! - On the **capacity-safe** cluster (one SM per resident block) with
//!   wait-kernels on, *every* schedule must terminate with bit-equal
//!   final memory: synchronization makes results schedule-independent.
//! - On the **starved** cluster with wait-kernels elided and adversarial
//!   consumer-first launch, at least one schedule must produce a
//!   classified `DeadlockReport` naming the wait cycle — the Section
//!   III-B hazard, found by search rather than by a hand-written
//!   scenario.

use cusync_sim::explore::{explore, Expectation, ExploreConfig};
use cusync_sim::SchedPolicy;
use cusync_suite::randgraph::{generate, RandomGraph};
use proptest::prelude::*;

/// The acceptance-criterion instance: one randomized multi-stage graph,
/// ≥ 16 distinct seeded schedules, all terminating with bit-equal final
/// memory — and the same graph, wait-kernels disabled, deadlocking with a
/// classified report on at least one schedule.
#[test]
fn sixteen_seeded_schedules_terminate_and_agree_on_memory() {
    let graph = generate(0xC60_2024, 2);
    let pipeline = graph.build(&graph.safe_cluster(), true).unwrap();
    let cfg = ExploreConfig::seeded(16, 0xFEED_F00D).expecting(Expectation::Terminates);
    let shuffles: std::collections::BTreeSet<_> = cfg
        .schedules
        .iter()
        .filter(|s| matches!(s, SchedPolicy::SeededShuffle(_)))
        .collect();
    assert_eq!(shuffles.len(), 16, "16 distinct seeded schedules");
    let summary = explore(&pipeline, &cfg);
    assert!(summary.ok(), "{summary}");
    assert_eq!(summary.completed(), cfg.schedules.len(), "{summary}");
    // Bit-equal final memory across every schedule (also an internal
    // invariant of `explore`; assert it independently here).
    let fingerprints: std::collections::BTreeSet<u64> = summary
        .results
        .iter()
        .filter_map(|r| match &r.outcome {
            cusync_sim::explore::ScheduleOutcome::Completed {
                mem_fingerprint, ..
            } => Some(*mem_fingerprint),
            _ => None,
        })
        .collect();
    assert_eq!(fingerprints.len(), 1, "schedule-independent results");
}

#[test]
fn same_graph_without_wait_kernels_yields_a_classified_deadlock() {
    let graph = generate(0xC60_2024, 2);
    let pipeline = graph.build(&graph.starved_cluster(), false).unwrap();
    let cfg = ExploreConfig::seeded(16, 0xFEED_F00D).expecting(Expectation::Deadlocks);
    let summary = explore(&pipeline, &cfg);
    assert!(summary.ok(), "{summary}");
    assert!(summary.deadlocked() >= 1, "{summary}");
    let report = summary.first_deadlock().expect("a deadlock report");
    // Classified: the report names the wait cycle end to end.
    assert!(!report.blocked.is_empty());
    assert!(!report.polled_sems().is_empty());
    assert!(
        report.starved().count() >= 1,
        "a starved kernel closes the cycle"
    );
    let cycle = report.wait_cycle().expect("an occupancy wait cycle");
    let sink = &graph.stages.last().unwrap().name;
    assert!(
        cycle.contains(sink.as_str()),
        "cycle names the spinner: {cycle}"
    );
    // Every SM of the wedged device is held by spinners, nothing executes.
    assert!(report.sms.iter().all(|s| s.active_units == 0), "{report}");
}

/// The ref ↔ opt bit-identity contract, extended across the schedule
/// space: every policy (including the dynamic SemStarver) must produce
/// identical timelines, final memory and deadlock reports on both
/// engines. Each regime must also reach its expected outcome: the safe
/// regime (wait-kernels on, capacity-safe cluster) terminates under every
/// schedule, and the starved one (wait-kernels off, downscaled GPU)
/// deadlocks under at least one.
#[test]
fn engines_agree_under_every_schedule_policy() {
    for seed in [0xC60_2024u64, 3, 7, 11, 42, 1337] {
        let graph = generate(seed, 2);
        let regimes = [
            (
                "safe",
                graph.build(&graph.safe_cluster(), true),
                Expectation::Terminates,
            ),
            (
                "starved",
                graph.build(&graph.starved_cluster(), false),
                Expectation::Deadlocks,
            ),
        ];
        for (regime, pipeline, expectation) in regimes {
            let pipeline = pipeline.unwrap_or_else(|e| panic!("seed {seed} {regime}: {e}"));
            let cfg = ExploreConfig::seeded(16, seed)
                .expecting(expectation)
                .cross_checked();
            let summary = explore(&pipeline, &cfg);
            assert!(summary.ok(), "seed {seed} {regime}: {summary}");
        }
    }
}

/// PR9 invariant: a PDL edge can never sit inside a `DeadlockReport` wait
/// cycle. A block parked on a producer's one-element `"{K}.grid"`
/// semaphore exists only after the consumer's launch gate fired — i.e.
/// after every block of `K` was already resident — so `K` can never be
/// among the capacity-starved kernels the cycle ends in. Checked with
/// `sim::explore` across seeded schedules of the starved regime, over
/// every `suite::randgraph` seed that promoted a skip edge to PDL (the
/// safe regime of the first such graph must also terminate under every
/// schedule).
#[test]
fn pdl_grid_sem_producers_are_never_starved_in_deadlocks() {
    use cusync_sim::explore::ScheduleOutcome;
    let mut covered = 0usize;
    let mut deadlocks = 0usize;
    for seed in 0..24u64 {
        let graph = generate(seed, 2);
        let pdl_producers = graph.pdl_producer_names();
        if pdl_producers.is_empty() {
            continue;
        }
        if covered == 0 {
            // sim::explore coverage of the safe regime with PDL edges
            // present: every schedule terminates, schedule-independently.
            let safe = graph.build(&graph.safe_cluster(), true).unwrap();
            let summary = explore(
                &safe,
                &ExploreConfig::seeded(8, seed).expecting(Expectation::Terminates),
            );
            assert!(summary.ok(), "seed {seed} safe: {summary}");
        }
        covered += 1;
        let pipeline = graph.build(&graph.starved_cluster(), false).unwrap();
        let summary = explore(
            &pipeline,
            &ExploreConfig::seeded(8, seed).expecting(Expectation::Deadlocks),
        );
        assert!(summary.ok(), "seed {seed} starved: {summary}");
        for result in &summary.results {
            let ScheduleOutcome::Deadlocked(report) = &result.outcome else {
                continue;
            };
            deadlocks += 1;
            let starved: Vec<String> = report.starved().map(|p| p.name.clone()).collect();
            for blocked in &report.blocked {
                if let Some(producer) = blocked.sem_name.strip_suffix(".grid") {
                    assert!(
                        pdl_producers.iter().any(|p| p == producer),
                        "seed {seed} ({}): grid sem {} polled but {producer} declares no PDL edge",
                        result.schedule,
                        blocked.sem_name,
                    );
                    assert!(
                        !starved.iter().any(|s| s == producer),
                        "seed {seed} ({}): PDL producer {producer} is starved while {} polls \
                         its grid semaphore — a PDL edge closed the wait cycle",
                        result.schedule,
                        blocked.kernel_name,
                    );
                }
            }
        }
    }
    assert!(covered >= 1, "no seed in 0..24 promoted a skip edge to PDL");
    assert!(deadlocks >= 1, "the starved PDL graphs never deadlocked");
}

fn explore_both_regimes(graph: &RandomGraph, shuffles: usize) {
    let safe = graph.build(&graph.safe_cluster(), true).unwrap();
    let summary = explore(
        &safe,
        &ExploreConfig::seeded(shuffles, graph.seed).expecting(Expectation::Terminates),
    );
    assert!(summary.ok(), "seed {} safe: {summary}", graph.seed);
    let starved = graph.build(&graph.starved_cluster(), false).unwrap();
    let summary = explore(
        &starved,
        &ExploreConfig::seeded(shuffles, graph.seed).expecting(Expectation::Deadlocks),
    );
    assert!(summary.ok(), "seed {} starved: {summary}", graph.seed);
    assert!(
        summary
            .first_deadlock()
            .and_then(|r| r.wait_cycle())
            .is_some(),
        "seed {}: unclassified deadlock",
        graph.seed,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: for arbitrary random sync graphs on 1-3 devices, the
    /// capacity-safe + wait-kernel regime terminates under every explored
    /// schedule with schedule-independent results, and the starved +
    /// no-wait-kernel regime deadlocks with a classified report.
    #[test]
    fn random_graphs_hold_the_exploration_invariants(
        seed in 0u64..u64::MAX,
        devices in 1u32..4,
    ) {
        let graph = generate(seed, devices);
        explore_both_regimes(&graph, 6);
    }
}
