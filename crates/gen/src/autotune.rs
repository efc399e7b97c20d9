//! Auto-tuning over generated policies and optimizations (Section IV:
//! "the user can execute all generated policies and obtain the policy with
//! least execution time"), plus a persistent [`TuneCache`] so repeated
//! tunes of the same pipeline skip re-simulation.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;

use cusync::OptFlags;
use cusync_sim::SimTime;

/// One policy/optimization combination to evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneCandidate {
    /// Display name, e.g. `"RowSync+WRT"`.
    pub name: String,
    /// Per-stage policy names, in stage declaration order.
    pub policy_names: Vec<String>,
    /// Optimization flags applied to consumer stages.
    pub opts: OptFlags,
}

impl TuneCandidate {
    /// Creates a candidate from per-stage policy names and flags.
    pub fn new(policy_names: Vec<String>, opts: OptFlags) -> Self {
        let base = policy_names.last().cloned().unwrap_or_default();
        TuneCandidate {
            name: format!("{base}{opts}"),
            policy_names,
            opts,
        }
    }

    /// The [`TuneCache`] key: unlike the display `name` (which keeps the
    /// paper's last-stage convention and so can coincide for distinct
    /// multi-stage candidates), this folds in **every** stage's policy,
    /// so two different candidates never share a cache entry.
    pub fn cache_key(&self) -> String {
        format!("{}{}", self.policy_names.join("/"), self.opts)
    }
}

/// Result of evaluating one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The candidate evaluated.
    pub candidate: TuneCandidate,
    /// Total simulated execution time.
    pub time: SimTime,
}

/// Outcome of an auto-tuning sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// All evaluated candidates, in evaluation order.
    pub results: Vec<TuneResult>,
}

impl TuneReport {
    /// The fastest candidate.
    ///
    /// # Panics
    ///
    /// Panics if no candidates were evaluated.
    pub fn best(&self) -> &TuneResult {
        self.results
            .iter()
            .min_by_key(|r| r.time)
            .expect("autotune evaluated no candidates")
    }

    /// Speedup of the best candidate over the named baseline result.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is not among the evaluated candidates.
    pub fn speedup_over(&self, baseline: &str) -> f64 {
        let base = self
            .results
            .iter()
            .find(|r| r.candidate.name == baseline)
            .unwrap_or_else(|| panic!("no candidate named {baseline:?}"));
        base.time.as_picos() as f64 / self.best().time.as_picos() as f64
    }
}

impl fmt::Display for TuneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let best = self.best().candidate.name.clone();
        for r in &self.results {
            let marker = if r.candidate.name == best {
                " <== best"
            } else {
                ""
            };
            writeln!(f, "{:>28}: {}{}", r.candidate.name, r.time, marker)?;
        }
        Ok(())
    }
}

/// Evaluates every candidate with `run` (which builds a fresh simulation
/// and returns its total time) and reports the ranking.
pub fn autotune<F>(candidates: Vec<TuneCandidate>, mut run: F) -> TuneReport
where
    F: FnMut(&TuneCandidate) -> SimTime,
{
    let results = candidates
        .into_iter()
        .map(|candidate| {
            let time = run(&candidate);
            TuneResult { candidate, time }
        })
        .collect();
    TuneReport { results }
}

/// A persistent memo of candidate evaluations, keyed by a
/// **caller-chosen shape key** (a `u64` naming the graph being tuned, e.g.
/// a hash of its figure family and problem sizes) ×
/// [`TuneCandidate::cache_key`] (the full per-stage policy list plus
/// flags — injective, unlike the last-stage display name). The
/// simulator is deterministic, so a candidate's
/// simulated time for a given shape never changes — re-tuning the same
/// graph can answer from the cache instead of re-simulating.
///
/// The cache is a plain value: hold it across [`autotune_cached`] calls in
/// one process, and/or [`TuneCache::save`]/[`TuneCache::load`] it between
/// processes (a line-oriented text file; stable across versions of this
/// crate as long as the caller derives its shape keys the same way).
///
/// # Examples
///
/// ```
/// use cusyncgen::{autotune_cached, TuneCache, TuneCandidate};
/// use cusync::OptFlags;
/// use cusync_sim::SimTime;
///
/// let mut cache = TuneCache::new();
/// let candidates =
///     || vec![TuneCandidate::new(vec!["TileSync".into()], OptFlags::WRT)];
/// let shape_key = 0xC0FFEE; // caller-chosen, e.g. a hash of the problem sizes
/// let first = autotune_cached(&mut cache, shape_key, candidates(), |_| {
///     SimTime::from_micros(20.0) // simulated
/// });
/// let again = autotune_cached(&mut cache, shape_key, candidates(), |_| {
///     unreachable!("all candidates cached — never re-simulated")
/// });
/// assert_eq!(first.best().time, again.best().time);
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TuneCache {
    entries: HashMap<(u64, String), SimTime>,
    hits: u64,
    misses: u64,
}

impl TuneCache {
    /// An empty cache.
    pub fn new() -> Self {
        TuneCache::default()
    }

    /// Number of memoized (shape key, candidate) evaluations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from memory since construction (or [`TuneCache::load`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to simulate since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The memoized time of `candidate` for the shape `shape_key`, if
    /// previously evaluated. Does not touch the hit/miss counters.
    /// Applies the same control-character normalization as
    /// [`TuneCache::insert`].
    pub fn peek(&self, shape_key: u64, candidate: &str) -> Option<SimTime> {
        self.entries
            .get(&(shape_key, sanitize_name(candidate)))
            .copied()
    }

    /// Memoizes one evaluation directly (what [`autotune_cached`] does for
    /// every miss). Control characters in `candidate` (tabs, newlines, …)
    /// are replaced with `_` so the key survives the line-oriented
    /// tab-separated [`TuneCache::save`] format byte-for-byte;
    /// [`TuneCache::peek`] applies the same normalization, so callers
    /// never observe the substitution.
    pub fn insert(&mut self, shape_key: u64, candidate: &str, time: SimTime) {
        self.entries
            .insert((shape_key, sanitize_name(candidate)), time);
    }

    /// Writes the cache to `path` as a line-oriented text file
    /// (`v1<TAB>shape-key<TAB>picoseconds<TAB>candidate-name` per entry,
    /// sorted for reproducible bytes).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|((fp, name), time)| format!("v1\t{fp:#018x}\t{}\t{name}", time.as_picos()))
            .collect();
        lines.sort();
        let mut file = std::fs::File::create(path)?;
        for line in &lines {
            writeln!(file, "{line}")?;
        }
        Ok(())
    }

    /// Reads a cache previously written by [`TuneCache::save`]. Counters
    /// start at zero.
    ///
    /// # Errors
    ///
    /// [`TuneCacheLoadError::Io`] on an underlying I/O error (e.g. the
    /// file does not exist); [`TuneCacheLoadError::Parse`] on the first
    /// malformed line, naming the 1-based line number and what was wrong
    /// with it. Use [`TuneCache::load_lossy`] to skip bad lines instead.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TuneCacheLoadError> {
        let text = std::fs::read_to_string(path).map_err(TuneCacheLoadError::Io)?;
        let mut cache = TuneCache::new();
        for (idx, line) in text.lines().enumerate() {
            let (fp, ps, name) = parse_line(line).map_err(|kind| TuneCacheParseError {
                line: idx + 1,
                kind,
            })?;
            cache.insert(fp, name, SimTime::from_picos(ps));
        }
        Ok(cache)
    }

    /// [`TuneCache::load`], but unparsable lines are *skipped* rather than
    /// fatal (a truncated cache costs re-simulation, never correctness).
    /// Returns the cache together with the number of lines skipped, so
    /// callers can surface corruption instead of silently re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (e.g. the file does not exist).
    pub fn load_lossy(path: impl AsRef<Path>) -> io::Result<(Self, usize)> {
        let text = std::fs::read_to_string(path)?;
        let mut cache = TuneCache::new();
        let mut skipped = 0usize;
        for line in text.lines() {
            match parse_line(line) {
                Ok((fp, ps, name)) => cache.insert(fp, name, SimTime::from_picos(ps)),
                Err(_) => skipped += 1,
            }
        }
        Ok((cache, skipped))
    }
}

/// Replaces control characters (anything below `' '`, including the
/// tabs/newlines that would corrupt the TSV cache format) with `_`.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c < ' ' { '_' } else { c })
        .collect()
}

/// Parses one `v1<TAB>shape-key<TAB>picoseconds<TAB>name` cache line.
fn parse_line(line: &str) -> Result<(u64, u64, &str), TuneCacheParseErrorKind> {
    let mut fields = line.splitn(4, '\t');
    let (Some(version), Some(fp), Some(ps), Some(name)) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(TuneCacheParseErrorKind::BadShape {
            fields: line.split('\t').count(),
        });
    };
    if version != "v1" {
        return Err(TuneCacheParseErrorKind::BadVersion(version.to_owned()));
    }
    let fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16)
        .map_err(|e| TuneCacheParseErrorKind::BadFingerprint(e.to_string()))?;
    let ps = ps
        .parse::<u64>()
        .map_err(|e| TuneCacheParseErrorKind::BadTime(e.to_string()))?;
    Ok((fp, ps, name))
}

/// A [`TuneCache`] file line that could not be parsed, naming the 1-based
/// offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneCacheParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub kind: TuneCacheParseErrorKind,
}

/// The ways one cache line can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneCacheParseErrorKind {
    /// Fewer than 4 tab-separated fields.
    BadShape {
        /// Number of fields actually present.
        fields: usize,
    },
    /// Field 1 is not the `v1` version tag.
    BadVersion(String),
    /// Field 2 is not a hexadecimal `u64` shape key.
    BadFingerprint(String),
    /// Field 3 is not a `u64` picosecond time.
    BadTime(String),
}

impl fmt::Display for TuneCacheParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            TuneCacheParseErrorKind::BadShape { fields } => {
                write!(f, "expected 4 tab-separated fields, found {fields}")
            }
            TuneCacheParseErrorKind::BadVersion(v) => {
                write!(f, "unknown version tag {v:?} (expected \"v1\")")
            }
            TuneCacheParseErrorKind::BadFingerprint(e) => {
                write!(f, "bad fingerprint ({e})")
            }
            TuneCacheParseErrorKind::BadTime(e) => write!(f, "bad picosecond time ({e})"),
        }
    }
}

impl std::error::Error for TuneCacheParseError {}

/// Error from [`TuneCache::load`]: the underlying I/O failed, or a line
/// was malformed.
#[derive(Debug)]
pub enum TuneCacheLoadError {
    /// The file could not be read.
    Io(io::Error),
    /// A line could not be parsed.
    Parse(TuneCacheParseError),
}

impl From<TuneCacheParseError> for TuneCacheLoadError {
    fn from(e: TuneCacheParseError) -> Self {
        TuneCacheLoadError::Parse(e)
    }
}

impl fmt::Display for TuneCacheLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneCacheLoadError::Io(e) => write!(f, "{e}"),
            TuneCacheLoadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TuneCacheLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneCacheLoadError::Io(e) => Some(e),
            TuneCacheLoadError::Parse(e) => Some(e),
        }
    }
}

/// [`autotune`], memoized: candidates already evaluated for this
/// caller-chosen `shape_key` are answered from `cache` without calling `run`; misses
/// are simulated once and recorded. The returned ranking is identical to
/// an uncached [`autotune`] of the same candidates (the simulator is
/// deterministic), in candidate order.
pub fn autotune_cached<F>(
    cache: &mut TuneCache,
    shape_key: u64,
    candidates: Vec<TuneCandidate>,
    mut run: F,
) -> TuneReport
where
    F: FnMut(&TuneCandidate) -> SimTime,
{
    let results = candidates
        .into_iter()
        .map(|candidate| {
            let key = candidate.cache_key();
            let time = match cache.peek(shape_key, &key) {
                Some(time) => {
                    cache.hits += 1;
                    time
                }
                None => {
                    cache.misses += 1;
                    let time = run(&candidate);
                    cache.insert(shape_key, &key, time);
                    time
                }
            };
            TuneResult { candidate, time }
        })
        .collect();
    TuneReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<TuneCandidate> {
        vec![
            TuneCandidate::new(vec!["TileSync".into(); 2], OptFlags::NONE),
            TuneCandidate::new(vec!["TileSync".into(); 2], OptFlags::WRT),
            TuneCandidate::new(vec!["RowSync".into(); 2], OptFlags::WRT),
        ]
    }

    #[test]
    fn autotune_picks_minimum_time() {
        let report = autotune(candidates(), |c| {
            // Pretend RowSync+WRT is fastest.
            match c.name.as_str() {
                "TileSync" => SimTime::from_micros(30.0),
                "TileSync+WRT" => SimTime::from_micros(25.0),
                "RowSync+WRT" => SimTime::from_micros(20.0),
                other => panic!("unexpected candidate {other}"),
            }
        });
        assert_eq!(report.best().candidate.name, "RowSync+WRT");
        assert!((report.speedup_over("TileSync") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn candidate_names_follow_paper_convention() {
        let c = TuneCandidate::new(vec!["RowSync".into()], OptFlags::WRT);
        assert_eq!(c.name, "RowSync+WRT");
        let c = TuneCandidate::new(vec!["TileSync".into()], OptFlags::NONE);
        assert_eq!(c.name, "TileSync");
    }

    #[test]
    fn report_displays_ranking() {
        let report = autotune(candidates(), |_| SimTime::from_micros(10.0));
        let s = report.to_string();
        assert!(s.contains("RowSync+WRT"), "{s}");
        assert!(s.contains("<== best"), "{s}");
    }

    #[test]
    fn cache_distinguishes_fingerprints() {
        let mut cache = TuneCache::new();
        let mut simulated = 0usize;
        for fp in [1u64, 2, 1] {
            autotune_cached(&mut cache, fp, candidates(), |_| {
                simulated += 1;
                SimTime::from_micros(fp as f64)
            });
        }
        // Two distinct pipelines simulate; the third sweep is all hits.
        assert_eq!(simulated, 6);
        assert_eq!(cache.len(), 6);
        assert_eq!((cache.misses(), cache.hits()), (6, 3));
        assert_eq!(
            cache.peek(2, "RowSync/RowSync+WRT"),
            Some(SimTime::from_micros(2.0))
        );
        assert_eq!(cache.peek(3, "RowSync/RowSync+WRT"), None);
    }

    #[test]
    fn cache_roundtrips_through_disk() {
        let mut cache = TuneCache::new();
        autotune_cached(&mut cache, 0xBEEF, candidates(), |c| {
            SimTime::from_picos(c.name.len() as u64 * 1_000)
        });
        let path = std::env::temp_dir().join(format!(
            "cusyncgen-tunecache-unit-{}.tsv",
            std::process::id()
        ));
        cache.save(&path).expect("write cache");
        let reloaded = TuneCache::load(&path).expect("read cache");
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded.len(), cache.len());
        let report = autotune_cached(&mut TuneCache::new(), 0, vec![], |_| unreachable!());
        assert!(report.results.is_empty());
        for name in [
            "TileSync/TileSync",
            "TileSync/TileSync+WRT",
            "RowSync/RowSync+WRT",
        ] {
            assert_eq!(
                reloaded.peek(0xBEEF, name),
                cache.peek(0xBEEF, name),
                "{name}"
            );
        }
        assert_eq!((reloaded.hits(), reloaded.misses()), (0, 0));
    }

    #[test]
    fn lossy_load_skips_and_counts_malformed_lines() {
        let path = std::env::temp_dir().join(format!(
            "cusyncgen-tunecache-malformed-{}.tsv",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "v1\t0x10\t500\tGood\nnot-a-line\nv1\t0xZZ\t1\tBadFp\nv1\t0x11\tNaN\tBadPs\n",
        )
        .expect("write fixture");
        let (cache, skipped) = TuneCache::load_lossy(&path).expect("read fixture");
        std::fs::remove_file(&path).ok();
        assert_eq!(cache.len(), 1);
        assert_eq!(skipped, 3);
        assert_eq!(cache.peek(0x10, "Good"), Some(SimTime::from_picos(500)));
    }

    #[test]
    fn strict_load_names_the_offending_line() {
        let path = std::env::temp_dir().join(format!(
            "cusyncgen-tunecache-strict-{}.tsv",
            std::process::id()
        ));
        for (text, line) in [
            ("v1\t0x10\t500\tGood\nnot-a-line\n", 2),
            ("v1\t0xZZ\t1\tBadFp\n", 1),
            ("v1\t0x10\t500\tGood\nv1\t0x11\tNaN\tBadPs\n", 2),
            ("v2\t0x10\t500\tFuture\n", 1),
        ] {
            std::fs::write(&path, text).expect("write fixture");
            let err = TuneCache::load(&path).expect_err("malformed line must fail");
            match err {
                TuneCacheLoadError::Parse(e) => {
                    assert_eq!(e.line, line, "{text:?}");
                    assert!(e.to_string().starts_with(&format!("line {line}: ")), "{e}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_load_parse_kinds_are_specific() {
        let path = std::env::temp_dir().join(format!(
            "cusyncgen-tunecache-kinds-{}.tsv",
            std::process::id()
        ));
        for (text, want) in [
            ("too\tfew", TuneCacheParseErrorKind::BadShape { fields: 2 }),
            (
                "v9\t0x1\t2\tx",
                TuneCacheParseErrorKind::BadVersion("v9".into()),
            ),
        ] {
            std::fs::write(&path, text).expect("write fixture");
            match TuneCache::load(&path).expect_err("must fail") {
                TuneCacheLoadError::Parse(e) => assert_eq!(e.kind, want, "{text:?}"),
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("cusyncgen-tunecache-does-not-exist.tsv");
        assert!(matches!(
            TuneCache::load(&path),
            Err(TuneCacheLoadError::Io(_))
        ));
        assert!(TuneCache::load_lossy(&path).is_err());
    }

    #[test]
    fn control_characters_in_names_are_hardened_at_insert() {
        let mut cache = TuneCache::new();
        let hostile = "Tile\tSync\nv1\t0xDEAD\t1\tForged";
        cache.insert(1, hostile, SimTime::from_picos(42));
        // The caller reads back through the same normalization.
        assert_eq!(cache.peek(1, hostile), Some(SimTime::from_picos(42)));
        let path = std::env::temp_dir().join(format!(
            "cusyncgen-tunecache-hostile-{}.tsv",
            std::process::id()
        ));
        cache.save(&path).expect("write cache");
        let reloaded = TuneCache::load(&path).expect("hardened save must reload strictly");
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.peek(1, hostile), Some(SimTime::from_picos(42)));
    }
}
