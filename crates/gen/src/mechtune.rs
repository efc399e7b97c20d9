//! Per-edge synchronization-mechanism auto-tuning.
//!
//! The paper tunes *policies* for a fixed fine-grained sync scheme; this
//! module tunes the **mechanism axis** instead: for each dependence edge
//! of a graph, choose between fine-grained tile semaphores and the
//! hardware's Programmatic Dependent Launch (or conservative stream
//! serialization). Neither mechanism dominates — PDL saves the per-tile
//! wait/post traffic and overlaps the consumer preamble with the
//! producer's tail wave, but gives only whole-grid ordering — so the best
//! assignment depends on the shape class.
//!
//! The full cross-product over `E` edges is `4^E`;
//! [`autotune_sync_mechanisms`] evaluates the two anchor baselines
//! (all-fine and all-PDL) and then refines the better one greedily, edge
//! by edge, pruning the rest of the cross-product. The result is
//! guaranteed no worse than either baseline because the final answer is
//! the minimum over every assignment actually evaluated. Evaluations are
//! memoized in the shared [`TuneCache`], keyed by a caller-chosen shape
//! key × the mechanism assignment.

use cusync::SyncMechanism;
use cusync_sim::SimTime;

use crate::autotune::TuneCache;

/// The outcome of [`autotune_sync_mechanisms`]: the winning per-edge
/// assignment plus the anchor baselines it is guaranteed to beat-or-match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MechanismPlan {
    /// Chosen mechanism per edge, in the caller's edge order.
    pub assignment: Vec<SyncMechanism>,
    /// Simulated time of the chosen assignment.
    pub time: SimTime,
    /// Time of the all-[`TileSync`](SyncMechanism::TileSync) baseline
    /// (`None` if that combination was invalid for this graph).
    pub all_fine: Option<SimTime>,
    /// Time of the all-[`Pdl`](SyncMechanism::Pdl) baseline (`None` if
    /// invalid).
    pub all_pdl: Option<SimTime>,
    /// Number of distinct assignments evaluated (simulated or answered
    /// from cache) — the pruned sweep size, vs `4^edges` exhaustive.
    pub evaluated: usize,
}

impl MechanismPlan {
    /// `"TileSync/Pdl/..."` — the assignment as a stable string (also the
    /// cache-key suffix).
    pub fn describe(&self) -> String {
        assignment_key(&self.assignment)
    }
}

/// The [`TuneCache`] candidate key of one mechanism assignment. Prefixed
/// so mechanism entries can never collide with policy-candidate keys
/// ([`TuneCandidate::cache_key`](crate::TuneCandidate::cache_key)) under
/// the same shape key.
pub fn assignment_key(assignment: &[SyncMechanism]) -> String {
    let names: Vec<&str> = assignment.iter().map(|m| m.name()).collect();
    format!("mech:{}", names.join("/"))
}

/// Tunes the synchronization mechanism of each of `num_edges` dependence
/// edges, evaluating assignments with `run`.
///
/// `run` receives one mechanism per edge (the caller fixes the edge
/// order) and returns the simulated end-to-end time, or `None` when the
/// assignment is invalid for the graph (e.g. two fine edges out of one
/// producer demanding different policies). The all-fine and all-PDL
/// anchors are evaluated first, then a greedy edge-by-edge refinement of
/// the better anchor; the returned plan is the minimum over **all**
/// evaluated assignments, so it is never slower than a valid anchor.
///
/// Valid evaluations are memoized in `cache` under
/// `(shape_key, `[`assignment_key`]`)`; pass a caller-chosen shape key
/// describing the *shape class* (problem sizes, GPU config), since the
/// pipeline itself differs per assignment.
///
/// # Panics
///
/// Panics if `run` returns `None` for every evaluated assignment
/// (including both anchors and the all-stream-serial fallback) — the
/// graph then has no tunable configuration at all.
pub fn autotune_sync_mechanisms<F>(
    num_edges: usize,
    shape_key: u64,
    cache: &mut TuneCache,
    mut run: F,
) -> MechanismPlan
where
    F: FnMut(&[SyncMechanism]) -> Option<SimTime>,
{
    let mut evaluated: Vec<(Vec<SyncMechanism>, SimTime)> = Vec::new();
    let mut tried: Vec<String> = Vec::new();
    let mut eval = |assignment: &[SyncMechanism],
                    cache: &mut TuneCache,
                    evaluated: &mut Vec<(Vec<SyncMechanism>, SimTime)>,
                    tried: &mut Vec<String>|
     -> Option<SimTime> {
        let key = assignment_key(assignment);
        if tried.contains(&key) {
            // Already evaluated this call (possibly invalid): answer from
            // the evaluated list without re-running.
            return evaluated
                .iter()
                .find(|(a, _)| a == assignment)
                .map(|&(_, t)| t);
        }
        tried.push(key.clone());
        let time = match cache.peek(shape_key, &key) {
            Some(time) => Some(time),
            None => {
                let time = run(assignment)?;
                cache.insert(shape_key, &key, time);
                Some(time)
            }
        }?;
        evaluated.push((assignment.to_vec(), time));
        Some(time)
    };

    let all = |m: SyncMechanism| vec![m; num_edges];
    let fine = all(SyncMechanism::TileSync);
    let pdl = all(SyncMechanism::Pdl);
    let all_fine = eval(&fine, cache, &mut evaluated, &mut tried);
    let all_pdl = eval(&pdl, cache, &mut evaluated, &mut tried);

    // Greedy seed: the better valid anchor, else stream-serial (always
    // structurally valid: no semaphores, no policy constraints).
    let mut current = match (all_fine, all_pdl) {
        (Some(f), Some(p)) => {
            if f <= p {
                fine
            } else {
                pdl
            }
        }
        (Some(_), None) => fine,
        (None, Some(_)) => pdl,
        (None, None) => {
            let serial = all(SyncMechanism::StreamSerial);
            eval(&serial, cache, &mut evaluated, &mut tried)
                .expect("no valid mechanism assignment for this graph");
            serial
        }
    };

    // Edge-by-edge refinement: try every alternative mechanism on one
    // edge while the others are held fixed; adopt the best improvement,
    // then move on. Prunes 4^E to O(4·E) evaluations.
    for edge in 0..num_edges {
        let mut best: Option<(SyncMechanism, SimTime)> = None;
        for m in SyncMechanism::ALL {
            let mut candidate = current.clone();
            candidate[edge] = m;
            if let Some(t) = eval(&candidate, cache, &mut evaluated, &mut tried) {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((m, t));
                }
            }
        }
        if let Some((m, _)) = best {
            current[edge] = m;
        }
    }

    // The answer is the minimum over everything evaluated — by
    // construction never slower than a valid anchor.
    let (assignment, time) = evaluated
        .iter()
        .min_by_key(|(_, t)| *t)
        .expect("at least one assignment evaluated")
        .clone();
    MechanismPlan {
        assignment,
        time,
        all_fine,
        all_pdl,
        evaluated: evaluated.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic 2-edge cost surface where the optimum mixes
    /// mechanisms: edge 0 wants PDL, edge 1 wants TileSync.
    fn cost(assignment: &[SyncMechanism]) -> Option<SimTime> {
        let per_edge = |edge: usize, m: SyncMechanism| match (edge, m) {
            (0, SyncMechanism::Pdl) => Some(10),
            (0, _) => Some(20),
            (1, SyncMechanism::TileSync) => Some(10),
            (1, SyncMechanism::RowSync) => None,
            (1, _) => Some(25),
            _ => Some(30),
        };
        let mut total = 0u64;
        for (i, &m) in assignment.iter().enumerate() {
            total += per_edge(i, m)?;
        }
        Some(SimTime::from_picos(total))
    }

    #[test]
    fn greedy_beats_both_anchors_on_a_mixed_optimum() {
        let mut cache = TuneCache::new();
        let plan = autotune_sync_mechanisms(2, 7, &mut cache, cost);
        assert_eq!(
            plan.assignment,
            vec![SyncMechanism::Pdl, SyncMechanism::TileSync]
        );
        assert_eq!(plan.time, SimTime::from_picos(20));
        assert!(plan.time <= plan.all_fine.unwrap());
        assert!(plan.time <= plan.all_pdl.unwrap());
        // Far fewer than the 16 exhaustive combinations.
        assert!(plan.evaluated < 16, "{}", plan.evaluated);
    }

    #[test]
    fn second_tune_answers_from_cache() {
        let mut cache = TuneCache::new();
        let first = autotune_sync_mechanisms(2, 7, &mut cache, cost);
        let calls = std::cell::Cell::new(0);
        let again = autotune_sync_mechanisms(2, 7, &mut cache, |a| {
            calls.set(calls.get() + 1);
            cost(a)
        });
        assert_eq!(first.assignment, again.assignment);
        assert_eq!(first.time, again.time);
        // Only assignments that were *invalid* (never cached) re-run.
        assert!(calls.get() <= 2, "{}", calls.get());
    }

    #[test]
    fn invalid_anchor_falls_back_to_the_other() {
        let mut cache = TuneCache::new();
        // All-fine invalid; PDL-anchored tuning still works.
        let plan = autotune_sync_mechanisms(1, 8, &mut cache, |a| {
            if a[0].is_fine() {
                None
            } else {
                Some(SimTime::from_picos(5))
            }
        });
        assert!(plan.all_fine.is_none());
        assert_eq!(plan.all_pdl, Some(SimTime::from_picos(5)));
        assert!(!plan.assignment[0].is_fine());
    }

    #[test]
    fn zero_edges_is_a_single_evaluation() {
        let mut cache = TuneCache::new();
        let plan = autotune_sync_mechanisms(0, 9, &mut cache, |_| Some(SimTime::from_picos(3)));
        assert!(plan.assignment.is_empty());
        assert_eq!(plan.time, SimTime::from_picos(3));
        assert_eq!(plan.evaluated, 1);
        assert_eq!(plan.describe(), "mech:");
    }

    #[test]
    fn keys_are_prefixed_and_stable() {
        let key = assignment_key(&[SyncMechanism::Pdl, SyncMechanism::StreamSerial]);
        assert_eq!(key, "mech:Pdl/StreamSerial");
    }
}
