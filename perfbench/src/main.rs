//! Host-time benchmark of the cuSync simulator stack.
//!
//! ```text
//! perfbench --workload sweep|tune|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one thread. It sets the workload up, then runs passes of
//! the workload's fixed work until `--seconds` have elapsed, setting up
//! again between passes (the median set-up is `setup_s`) and checking
//! every unit's virtual-time output against the recorded value. Then it
//! runs the checks that sit outside the timed passes. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced passes,
//! reports the per-layer metrics of the traced ones plus the tracing
//! overhead, and writes the wall-time layer spans as a Chrome trace under
//! `perfbench/out/`. The last line of standard output is the JSON result;
//! the lines before it are the host header and a readable report.
//! Virtual time is never reported as a gain: it is only checked.

mod cells;
mod probe;
mod serve;
mod sweep;
mod tune;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cusync_obs::{chrome_trace_json, validate_chrome_trace, Lane, Span, SpanKind};
use cusync_sim::SimTime;

use probe::{PassRecord, Probe};

/// Setups per run; `setup_s` is their median. The first builds the
/// workload that the passes run. The others are spread evenly over the
/// timed passes and dropped, so `setup_s` samples the host across the run
/// as `pass_s` does, not only at its start.
const SETUP_REPS: usize = 9;
/// Timed passes per run at least, whatever `--seconds` says (two of each
/// kind in a traced run).
const MIN_PASSES: usize = 2;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Percentile reported as `unit_tail_ms`, fixed per workload so that
    /// at least ten unit samples lie beyond it in a run of the
    /// `BENCHMARK.json` length.
    const TAIL_PERCENTILE: f64;
    /// Builds the inputs from `seed` and warms every cache.
    fn setup(seed: u64, probe: &Probe) -> Self;
    /// One pass of the workload's fixed work, one [`Bench::unit`] per unit.
    fn pass(&mut self, bench: &mut Bench);
    /// Checks that run once, outside the timed passes.
    fn verify(&mut self, bench: &mut Bench);
}

/// Unit bookkeeping for one run.
pub struct Bench<'p> {
    pub probe: &'p Probe,
    /// Unit latencies are kept only while passes are timed.
    timing: bool,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl<'p> Bench<'p> {
    fn new(probe: &'p Probe) -> Self {
        Bench {
            probe,
            timing: false,
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs and times one unit. It fails if `f` returns an error or
    /// panics.
    pub fn unit(&mut self, label: &str, f: impl FnOnce() -> Result<(), String>) {
        let start = Instant::now();
        let outcome = self.guarded(f);
        let end = Instant::now();
        if self.timing {
            self.latencies_ms.push((end - start).as_secs_f64() * 1e3);
            self.probe.mark("unit", start, end);
        }
        self.record(label, outcome);
    }

    /// Runs one untimed check, counted like a unit.
    pub fn check(&mut self, label: &str, f: impl FnOnce() -> Result<(), String>) {
        let outcome = self.guarded(f);
        self.record(label, outcome);
    }

    fn guarded(&self, f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
        let depth = self.probe.depth();
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
            self.probe.unwind_to(depth);
            Err("panicked".to_owned())
        })
    }

    fn record(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAIL {label}: {e}");
            }
        }
    }
}

/// Parses `label field...` lines (blank lines and `#` comments skipped).
pub fn parse_expected(text: &str) -> HashMap<String, Vec<String>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.split_whitespace().map(str::to_owned);
            Some((fields.next()?, fields.collect()))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let bad = |flag: &'static str| move |e: std::num::ParseIntError| format!("{flag}: {e}");
    let args = Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?.parse().map_err(bad("--seed"))?,
        seconds: value("--seconds")?
            .parse::<u32>()
            .map_err(bad("--seconds"))?
            .into(),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep|tune|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let run: fn(&Args) -> String = match args.workload.as_str() {
        "sweep" => run::<sweep::Sweep>,
        "tune" => run::<tune::Tune>,
        "serve" => run::<serve::Serve>,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (sweep, tune or serve)");
            std::process::exit(2);
        }
    };
    println!("{}", host_header());
    let result = run(&args);
    println!("{result}");
}

/// One timed pass.
struct Pass {
    traced: bool,
    wall: Duration,
    record: PassRecord,
}

fn run<W: Workload>(args: &Args) -> String {
    let probe = Probe::new();
    let mut setups: Vec<(Duration, PassRecord)> = Vec::new();
    let set_up = |setups: &mut Vec<(Duration, PassRecord)>| {
        probe.set_traced(args.trace);
        let start = Instant::now();
        let workload = W::setup(args.seed, &probe);
        setups.push((start.elapsed(), probe.take_pass()));
        workload
    };
    let mut workload = set_up(&mut setups);

    let mut bench = Bench::new(&probe);
    bench.timing = true;
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let min_passes = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates untraced and traced passes, so both see
        // the same host conditions and their difference is the overhead.
        let traced = args.trace && passes.len() % 2 == 1;
        probe.set_traced(traced);
        let start = Instant::now();
        workload.pass(&mut bench);
        let end = Instant::now();
        probe.mark("pass", start, end);
        passes.push(Pass {
            traced,
            wall: end - start,
            record: probe.take_pass(),
        });
        let done = started.elapsed().as_secs_f64() / args.seconds;
        while setups.len() < SETUP_REPS && setups.len() as f64 <= done * (SETUP_REPS - 1) as f64 {
            drop(set_up(&mut setups));
        }
    }
    while setups.len() < SETUP_REPS {
        drop(set_up(&mut setups));
    }
    bench.timing = false;
    probe.set_traced(false);

    // Deterministic work must repeat its counts exactly in every pass.
    let counts = &passes[0].record.counts;
    for (i, pass) in passes.iter().enumerate().skip(1) {
        bench.check(&format!("pass {i} counts"), || {
            if &pass.record.counts == counts {
                Ok(())
            } else {
                Err(format!("{:?} != first pass {counts:?}", pass.record.counts))
            }
        });
    }
    workload.verify(&mut bench);

    let mut report = String::new();
    let metrics = if args.trace {
        let spans = probe.take_spans();
        let path = format!("perfbench/out/{}-wall-trace.json", args.workload);
        bench.check("wall-time chrome trace", || {
            export_wall_trace(&spans, &path)
        });
        let _ = writeln!(report, "# wall-time layer spans: {path}");
        per_layer_metrics(&setups, &passes)
    } else {
        end_to_end_metrics::<W>(&setups, &passes, &bench, &mut report)
    };
    let failed_share = bench.failed as f64 / bench.attempted.max(1) as f64;
    let _ = writeln!(
        report,
        "# {} seed {} trace {}: {} passes, {} units attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        passes.len(),
        bench.attempted,
        bench.failed,
    );
    let _ = writeln!(report, "failed_share {failed_share} share");
    for (name, value, unit) in &metrics {
        let _ = writeln!(report, "{name} {value} {unit}");
    }
    print!("{report}");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.failed == 0,
        bench.attempted,
        bench.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}

type Metric = (&'static str, f64, &'static str);

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn end_to_end_metrics<W: Workload>(
    setups: &[(Duration, PassRecord)],
    passes: &[Pass],
    bench: &Bench,
    report: &mut String,
) -> Vec<Metric> {
    let mut setup: Vec<f64> = setups.iter().map(|(d, _)| d.as_secs_f64()).collect();
    let mut pass: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let mut units = bench.latencies_ms.clone();
    let p = W::TAIL_PERCENTILE;
    let beyond = units.len() - (p / 100.0 * units.len() as f64).ceil() as usize;
    let _ = writeln!(
        report,
        "# unit_tail_ms is p{p} of {} unit samples ({beyond} beyond it)",
        units.len()
    );
    if beyond < 10 {
        let _ = writeln!(report, "# warning: fewer than ten samples beyond the tail");
    }
    vec![
        ("setup_s", median(&mut setup), "s"),
        ("pass_s", median(&mut pass), "s"),
        ("unit_p50_ms", median(&mut units.clone()), "ms"),
        ("unit_tail_ms", percentile(&mut units, p), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Seconds of layer `name` in one pass; `self_only` subtracts nested calls.
fn secs(record: &PassRecord, name: &str, self_only: bool) -> f64 {
    record.layers.get(name).map_or(0.0, |t| {
        if self_only { t.self_time } else { t.total }.as_secs_f64()
    })
}

fn count(record: &PassRecord, name: &str) -> f64 {
    record.counts.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of one pass (or one setup, for the pool build), as
/// `(name, unit, value)`.
fn layer_values(r: &PassRecord) -> Vec<(&'static str, &'static str, f64)> {
    let execute = secs(r, "sim.execute", false);
    let traced = secs(r, "sim.traced_execute", false);
    let obs = secs(r, "obs.analyze", false) + secs(r, "obs.export", false);
    let serve = secs(r, "serve.run", false);
    vec![
        ("sim.execute_s", "s", execute),
        ("sim.runs", "count", count(r, "sim.runs")),
        ("sim.events", "count", count(r, "sim.events")),
        (
            "sim.ns_per_event",
            "ns",
            ratio(execute * 1e9, count(r, "sim.events")),
        ),
        (
            "sim.events_per_run",
            "count",
            ratio(count(r, "sim.events"), count(r, "sim.runs")),
        ),
        (
            "sim.deadlocked_runs",
            "count",
            count(r, "sim.deadlocked_runs"),
        ),
        ("sim.compile_s", "s", secs(r, "sim.compile", false)),
        ("sim.compiles", "count", count(r, "sim.compiles")),
        ("models.build_s", "s", secs(r, "models.build", false)),
        ("models.builds", "count", count(r, "models.builds")),
        (
            "models.invalid_builds",
            "count",
            count(r, "models.invalid_builds"),
        ),
        ("gen.tune_self_s", "s", secs(r, "gen.tune", true)),
        ("gen.evals", "count", count(r, "gen.evals")),
        ("gen.replay_evals", "count", count(r, "gen.replay_evals")),
        ("gen.replay_s", "s", secs(r, "gen.replay", false)),
        ("sim.traced_execute_s", "s", traced),
        ("sim.trace_events", "count", count(r, "sim.trace_events")),
        ("obs.analyze_s", "s", secs(r, "obs.analyze", false)),
        ("obs.export_s", "s", secs(r, "obs.export", false)),
        (
            "obs.ns_per_trace_event",
            "ns",
            ratio(obs * 1e9, count(r, "sim.trace_events")),
        ),
        ("serve.run_s", "s", serve),
        ("serve.requests", "count", count(r, "serve.requests")),
        (
            "serve.ns_per_request",
            "ns",
            ratio(serve * 1e9, count(r, "serve.requests")),
        ),
        ("serve.batches", "count", count(r, "serve.batches")),
        (
            "serve.tokens_generated",
            "count",
            count(r, "serve.tokens_generated"),
        ),
        (
            "serve.decode_preemptions",
            "count",
            count(r, "serve.decode_preemptions"),
        ),
    ]
}

fn per_layer_metrics(setups: &[(Duration, PassRecord)], passes: &[Pass]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let mut columns: BTreeMap<usize, (&'static str, &'static str, Vec<f64>)> = BTreeMap::new();
    for pass in &traced {
        for (i, (name, unit, value)) in layer_values(&pass.record).into_iter().enumerate() {
            columns
                .entry(i)
                .or_insert((name, unit, Vec::new()))
                .2
                .push(value);
        }
    }
    let mut metrics: Vec<Metric> = columns
        .into_values()
        .map(|(name, unit, mut values)| (name, median(&mut values), unit))
        .collect();
    let mut pool: Vec<f64> = setups
        .iter()
        .map(|(_, r)| secs(r, "serve.pool_build", false))
        .collect();
    metrics.push(("serve.pool_build_s", median(&mut pool), "s"));
    metrics.push((
        "serve.pool_pipelines",
        count(&setups[0].1, "serve.pool_pipelines"),
        "count",
    ));

    let wall = |traced: bool| {
        let mut v: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall.as_secs_f64())
            .collect();
        median(&mut v)
    };
    let (traced_pass, untraced_pass) = (wall(true), wall(false));
    let mut own: Vec<f64> = traced
        .iter()
        .map(|p| (p.wall.saturating_sub(p.record.covered)).as_secs_f64())
        .collect();
    metrics.extend([
        ("bench.traced_pass_s", traced_pass, "s"),
        ("bench.untraced_pass_s", untraced_pass, "s"),
        ("bench.trace_overhead_s", traced_pass - untraced_pass, "s"),
        ("bench.self_s", median(&mut own), "s"),
    ]);
    metrics
}

/// Writes the run's wall-time spans as a Chrome trace (one row per layer)
/// and validates it.
fn export_wall_trace(spans: &[probe::WallSpan], path: &str) -> Result<(), String> {
    let to_sim = |d: Duration| SimTime::from_picos(d.as_nanos() as u64 * 1000);
    let spans: Vec<Span> = spans
        .iter()
        .map(|s| Span {
            name: s.name.to_owned(),
            kind: SpanKind::Phase,
            lane: Lane::Tenant {
                tenant: s.name.to_owned(),
            },
            start: to_sim(s.start),
            end: to_sim(s.end),
        })
        .collect();
    let json = chrome_trace_json(&spans);
    validate_chrome_trace(&json)?;
    std::fs::create_dir_all("perfbench/out").map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed amount of integer work for the parallelism probe.
fn busy(iterations: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..iterations {
        x = std::hint::black_box(cusync_sim::splitmix64(x ^ i));
    }
    x
}

/// Measured effective parallelism: one busy loop's time, times two, over
/// the time two concurrent copies take.
fn parallelism_probe() -> f64 {
    const WORK: u64 = 20_000_000;
    let one = Instant::now();
    std::hint::black_box(busy(WORK));
    let one = one.elapsed();
    let two = Instant::now();
    std::thread::scope(|s| {
        let handles = [s.spawn(|| busy(WORK)), s.spawn(|| busy(WORK))];
        for h in handles {
            std::hint::black_box(h.join().expect("busy loop"));
        }
    });
    2.0 * one.as_secs_f64() / two.elapsed().as_secs_f64()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_header() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only ask git about a checkout of its own, never a parent repository.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_owned()
    };
    format!(
        "# host nproc={nproc} effective_parallelism={:.2} commit={commit} rustc=\"{}\" profile={}",
        parallelism_probe(),
        command_line("rustc", &["--version"]),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}
