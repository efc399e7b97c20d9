//! Deterministic virtual-clock workload generation: per-tenant arrival
//! models (Poisson, closed-loop, recorded/synthesized traces), rates,
//! SLOs, service classes and retry policies.
//!
//! All randomness comes from [`splitmix64`](cusync_sim::splitmix64)
//! streams keyed by `(workload seed, tenant index, client index)`, so a
//! tenant's arrival sequence is a pure function of the spec — independent
//! of how the dispatcher interleaves events, and bit-identical across
//! runs of the same seed. Trace replay goes further: the arrival instants
//! are fixed up front ([`ArrivalTrace`]), either parsed from a small TSV
//! format or synthesized from a seeded shape ([`TraceShape`]) so CI needs
//! no data files.

use std::fmt;
use std::sync::Arc;

use cusync_sim::{splitmix64, SimTime};

use crate::zoo::ModelKind;

/// The longest decode context, `prompt + max_new` tokens, a
/// [`WorkloadSpec`] accepts: context classes round up to a power of two,
/// and above 2³¹ that no longer fits a `u32`.
const MAX_DECODE_CONTEXT: u64 = 1 << 31;

/// The [`WorkloadError::InvalidDecode`] field named when a decode
/// context exceeds [`MAX_DECODE_CONTEXT`].
const DECODE_CONTEXT: &str = "prompt + max_new";

/// The [`WorkloadError::InvalidDecode`] fields named when a decode
/// model's per-sequence prefill or step cycles overflow `u64`.
const DECODE_PREFILL_CYCLES: &str = "prompt × step_cycles";
const DECODE_STEP_CYCLES: &str = "step_cycles + ctx_class × ctx_cycles";

/// Why a [`WorkloadSpec`] is invalid — raised by
/// [`WorkloadSpec::validate`] (and the `Server` constructors) instead of
/// letting a non-finite or non-positive rate wrap silently through the
/// arrival generators' `f64 → u64` conversions.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The spec has no tenants.
    NoTenants,
    /// The horizon is zero, so every per-second rate would divide by
    /// zero.
    ZeroHorizon,
    /// A tenant's bounded queue has zero capacity.
    ZeroQueueCap {
        /// Offending tenant name.
        tenant: String,
    },
    /// A tenant's fair-share weight is zero.
    ZeroWeight {
        /// Offending tenant name.
        tenant: String,
    },
    /// An open-loop rate is NaN, infinite, or not positive.
    InvalidRate {
        /// Offending tenant name.
        tenant: String,
        /// The rejected rate, requests per second.
        rate: f64,
    },
    /// A closed-loop tenant has zero clients (it would never offer load).
    NoClients {
        /// Offending tenant name.
        tenant: String,
    },
    /// A decode model's shape is degenerate (zero prompt, zero `max_new`,
    /// or zero KV bytes per token), its context overflows (`prompt +
    /// max_new` above 2³¹ tokens, where context classes leave `u32`), or
    /// its cycles overflow `u64` (`prompt × step_cycles`, or `step_cycles
    /// + ctx_class × ctx_cycles` at the longest context's class).
    InvalidDecode {
        /// Offending tenant name.
        tenant: String,
        /// Which decode parameter is zero, or the overflowing sum or
        /// product (`"prompt + max_new"`, `"prompt × step_cycles"`,
        /// `"step_cycles + ctx_class × ctx_cycles"`).
        field: &'static str,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NoTenants => f.write_str("a workload needs tenants"),
            WorkloadError::ZeroHorizon => f.write_str("a workload needs a horizon > 0"),
            WorkloadError::ZeroQueueCap { tenant } => {
                write!(f, "{tenant}: queue_cap must be > 0")
            }
            WorkloadError::ZeroWeight { tenant } => write!(f, "{tenant}: weight must be > 0"),
            WorkloadError::InvalidRate { tenant, rate } => {
                write!(f, "{tenant}: rate {rate} must be finite and positive")
            }
            WorkloadError::NoClients { tenant } => {
                write!(f, "{tenant}: a closed loop needs at least one client")
            }
            WorkloadError::InvalidDecode { tenant, field } => {
                let bound = match *field {
                    DECODE_CONTEXT => "must be <= 2^31",
                    DECODE_PREFILL_CYCLES | DECODE_STEP_CYCLES => "overflows u64",
                    _ => "must be > 0",
                };
                write!(f, "{tenant}: decode model {field} {bound}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// How a tenant offers load.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Open loop: requests arrive in a Poisson process at `rate_rps`
    /// requests per second of virtual time, regardless of how the server
    /// keeps up — the "heavy traffic" regime where admission control and
    /// shedding matter.
    OpenPoisson {
        /// Mean arrival rate, requests per virtual second.
        rate_rps: f64,
    },
    /// Closed loop: `clients` concurrent callers, each thinking for an
    /// exponentially distributed pause (mean `think`) between receiving a
    /// response (or a rejection) and submitting its next request — the
    /// self-throttling regime the closed-loop harness measures.
    ClosedLoop {
        /// Concurrent clients.
        clients: u32,
        /// Mean think time between response and next request.
        think: SimTime,
    },
    /// Trace replay: requests arrive at exactly the trace's recorded
    /// instants — the adversarial-arrival regime (bursts, diurnal swings,
    /// heavy tails) that seeded Poisson synthetics cannot produce. Replay
    /// is open-loop: arrivals ignore server state, and instants past the
    /// workload horizon are dropped.
    Trace(ArrivalTrace),
}

/// Service class of a tenant — the axis cross-tenant preemption keys on
/// (see [`PreemptPolicy`](crate::PreemptPolicy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Latency-sensitive: when a preemption policy is configured and no
    /// device is free, a ready latency tenant may checkpoint a running
    /// [`TenantClass::Throughput`] batch at its next kernel boundary.
    Latency,
    /// Throughput-oriented: its running batches are preemption victims;
    /// the checkpointed remainder is requeued and resumed later at a
    /// bounded overhead.
    Throughput,
}

/// Seeded exponential retry-with-backoff for rejected requests.
///
/// A rejected arrival is re-offered after an exponentially distributed
/// backoff whose mean doubles per attempt (`base`, `2·base`, `4·base`,
/// …). Every re-offer counts as a fresh `offered` (and `admitted` or
/// `rejected`) event so conservation stays exact, and is additionally
/// counted in [`TenantMetrics::retries`](crate::TenantMetrics) — without
/// this, rejected closed-loop requests would silently vanish from the
/// client loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Mean of the first retry's exponential backoff draw.
    pub base: SimTime,
    /// Retries allowed after the initial submission (0 disables).
    pub max_retries: u32,
}

/// The synthesized trace families of the chaos harness; see
/// [`ArrivalTrace::synthesize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceShape {
    /// On/off bursts: a square wave alternating `burst_rps` (for `duty`
    /// of each `period`) with a `base_rps` trough.
    Bursty {
        /// Trough arrival rate, requests per virtual second.
        base_rps: f64,
        /// Burst arrival rate.
        burst_rps: f64,
        /// Burst cycle length.
        period: SimTime,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        duty: f64,
    },
    /// A smooth sinusoidal swing between `trough_rps` and `peak_rps`
    /// over `period` (one simulated "day"), sampled by Lewis thinning.
    Diurnal {
        /// Minimum arrival rate.
        trough_rps: f64,
        /// Maximum arrival rate.
        peak_rps: f64,
        /// Swing period.
        period: SimTime,
    },
    /// Heavy-tailed inter-arrival gaps: Pareto with shape `alpha > 1`,
    /// scaled so the mean rate is `rate_rps` — long quiet stretches
    /// punctuated by dense arrival clumps.
    Pareto {
        /// Mean arrival rate, requests per virtual second.
        rate_rps: f64,
        /// Pareto tail index (must exceed 1 for a finite mean).
        alpha: f64,
    },
}

/// A fixed, sorted sequence of arrival instants for [`ArrivalModel::Trace`].
///
/// Cheap to clone (the instants are `Arc`-shared) and value-comparable.
/// Obtain one by [`ArrivalTrace::parse_tsv`] (recorded traces) or
/// [`ArrivalTrace::synthesize`] (seeded shapes, so CI needs no data
/// files).
///
/// ## TSV format
///
/// One arrival per line: column 1 is the arrival instant in integer
/// picoseconds of virtual time, optional column 2 a repeat count
/// (simultaneous arrivals). Blank lines and `#` comments are ignored.
///
/// ```text
/// # arrival_ps  count
/// 1000000
/// 2500000\t3
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    instants: Arc<Vec<SimTime>>,
}

/// Why a trace TSV failed to parse, naming the offending line — raised
/// by [`ArrivalTrace::parse_tsv`] instead of silently re-sorting
/// mis-ordered replay or letting an absurd count column OOM the process.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub kind: TraceParseErrorKind,
}

/// The ways a trace TSV line can be rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseErrorKind {
    /// Column 1 is not a `u64` picosecond instant.
    BadInstant(String),
    /// Column 2 is present but not a `u64` count.
    BadCount(String),
    /// An explicit count of zero (an arrival line must arrive).
    ZeroCount,
    /// The instant runs backwards relative to the previous line.
    Unsorted {
        /// The previous line's instant, picoseconds.
        prev: u64,
        /// This line's (earlier) instant, picoseconds.
        here: u64,
    },
    /// The cumulative arrival count exceeds
    /// [`ArrivalTrace::MAX_ARRIVALS`].
    TooManyArrivals {
        /// The cumulative count that broke the cap.
        total: u64,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            TraceParseErrorKind::BadInstant(e) => write!(f, "bad arrival_ps ({e})"),
            TraceParseErrorKind::BadCount(e) => write!(f, "bad count ({e})"),
            TraceParseErrorKind::ZeroCount => f.write_str("count must be at least 1"),
            TraceParseErrorKind::Unsorted { prev, here } => {
                write!(f, "instants run backwards ({here} after {prev})")
            }
            TraceParseErrorKind::TooManyArrivals { total } => write!(
                f,
                "trace exceeds {} arrivals ({total} and counting)",
                ArrivalTrace::MAX_ARRIVALS
            ),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl ArrivalTrace {
    /// A trace from explicit instants (sorted internally).
    pub fn new(mut instants: Vec<SimTime>) -> Self {
        instants.sort();
        ArrivalTrace {
            instants: Arc::new(instants),
        }
    }

    /// The sorted arrival instants.
    pub fn instants(&self) -> &[SimTime] {
        &self.instants
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.instants.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instants.is_empty()
    }

    /// Cap on the total arrivals a parsed trace may carry (16Mi): a
    /// malformed or hostile count column (`5\t99999999999999`) fails with
    /// a typed error instead of allocating the count.
    pub const MAX_ARRIVALS: u64 = 1 << 24;

    /// Parses the TSV format described on [`ArrivalTrace`].
    ///
    /// Instants must be non-decreasing as written: recorded replay order
    /// is meaningful, so a mis-sorted trace is rejected (naming the
    /// offending line) rather than silently re-sorted.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] naming the first malformed,
    /// mis-ordered, or cap-breaking line.
    pub fn parse_tsv(text: &str) -> Result<Self, TraceParseError> {
        let mut instants = Vec::new();
        let mut prev: Option<u64> = None;
        let mut total: u64 = 0;
        for (lineno, raw) in text.lines().enumerate() {
            let fail = |kind| TraceParseError {
                line: lineno + 1,
                kind,
            };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split('\t').map(str::trim);
            let ps: u64 =
                cols.next()
                    .unwrap_or_default()
                    .parse()
                    .map_err(|e: std::num::ParseIntError| {
                        fail(TraceParseErrorKind::BadInstant(e.to_string()))
                    })?;
            if let Some(prev) = prev {
                if ps < prev {
                    return Err(fail(TraceParseErrorKind::Unsorted { prev, here: ps }));
                }
            }
            prev = Some(ps);
            let count: u64 = match cols.next() {
                None | Some("") => 1,
                Some(c) => c.parse().map_err(|e: std::num::ParseIntError| {
                    fail(TraceParseErrorKind::BadCount(e.to_string()))
                })?,
            };
            if count == 0 {
                return Err(fail(TraceParseErrorKind::ZeroCount));
            }
            total = total.saturating_add(count);
            if total > Self::MAX_ARRIVALS {
                return Err(fail(TraceParseErrorKind::TooManyArrivals { total }));
            }
            for _ in 0..count {
                instants.push(SimTime::from_picos(ps));
            }
        }
        // Sortedness was verified during the parse; skip the re-sort.
        Ok(ArrivalTrace {
            instants: Arc::new(instants),
        })
    }

    /// Renders the trace in the TSV format described on [`ArrivalTrace`]
    /// (simultaneous arrivals collapse into a count column), such that
    /// `parse_tsv(to_tsv())` round-trips exactly.
    pub fn to_tsv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# arrival_ps\tcount\n");
        let mut i = 0;
        while i < self.instants.len() {
            let ps = self.instants[i].as_picos();
            let mut count = 1;
            while i + count < self.instants.len() && self.instants[i + count].as_picos() == ps {
                count += 1;
            }
            if count == 1 {
                let _ = writeln!(out, "{ps}");
            } else {
                let _ = writeln!(out, "{ps}\t{count}");
            }
            i += count;
        }
        out
    }

    /// Synthesizes a seeded trace of the given shape over `[0, horizon]`.
    /// Pure in `(shape, horizon, seed)`: CI replays the exact same
    /// adversarial arrivals without shipping data files.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, a `duty` outside `(0, 1)`, a
    /// zero-length period, or a Pareto `alpha ≤ 1` (infinite mean).
    pub fn synthesize(shape: TraceShape, horizon: SimTime, seed: u64) -> Self {
        // A dedicated key-space corner so trace draws never collide with
        // the dispatcher's per-client streams.
        let mut rng = Rng::for_client(seed, 0x7ace, 0x7ace_7ace);
        // Every gap advances at least 1 ps so synthesis always terminates
        // (exponential draws floor themselves; the Pareto path floors its
        // own conversion below).
        let floor = SimTime::from_picos(1);
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        match shape {
            TraceShape::Bursty {
                base_rps,
                burst_rps,
                period,
                duty,
            } => {
                assert!(base_rps > 0.0 && burst_rps > 0.0, "rates must be positive");
                assert!(period > SimTime::ZERO, "period must be positive");
                assert!(0.0 < duty && duty < 1.0, "duty must be in (0, 1)");
                loop {
                    let phase = t.as_picos() % period.as_picos();
                    let bursting = (phase as f64) < duty * period.as_picos() as f64;
                    let rate = if bursting { burst_rps } else { base_rps };
                    t = t.saturating_add(rng.poisson_gap(rate).max(floor));
                    if t > horizon {
                        break;
                    }
                    out.push(t);
                }
            }
            TraceShape::Diurnal {
                trough_rps,
                peak_rps,
                period,
            } => {
                assert!(trough_rps > 0.0, "trough rate must be positive");
                assert!(peak_rps >= trough_rps, "peak must be at least the trough");
                assert!(period > SimTime::ZERO, "period must be positive");
                // Lewis thinning: candidates at the peak rate, accepted
                // with probability rate(t)/peak.
                loop {
                    t = t.saturating_add(rng.poisson_gap(peak_rps).max(floor));
                    if t > horizon {
                        break;
                    }
                    let phase =
                        (t.as_picos() % period.as_picos()) as f64 / period.as_picos() as f64;
                    let rate = trough_rps
                        + (peak_rps - trough_rps)
                            * 0.5
                            * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                    if rng.next_unit() <= rate / peak_rps {
                        out.push(t);
                    }
                }
            }
            TraceShape::Pareto { rate_rps, alpha } => {
                assert!(rate_rps > 0.0, "rate must be positive");
                assert!(alpha > 1.0, "Pareto alpha must exceed 1 for a finite mean");
                // Scale x_m so the mean gap alpha·x_m/(alpha-1) is 1/rate.
                let xm_secs = (alpha - 1.0) / (alpha * rate_rps);
                loop {
                    let gap_secs = xm_secs * rng.next_unit().powf(-1.0 / alpha);
                    // Checked conversion: a heavy-tail draw past the
                    // representable range clamps to SimTime::MAX (ending
                    // the trace) instead of wrapping `t` back to early
                    // virtual time through the raw `as u64` cast.
                    let gap = SimTime::try_from_secs_f64(gap_secs)
                        .expect("Pareto gaps are positive")
                        .max(floor);
                    t = t.saturating_add(gap);
                    if t > horizon {
                        break;
                    }
                    out.push(t);
                }
            }
        }
        ArrivalTrace::new(out)
    }
}

/// One tenant of the serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (also the JSON key).
    pub name: String,
    /// Which zoo model this tenant's requests run.
    pub model: ModelKind,
    /// Arrival process.
    pub arrival: ArrivalModel,
    /// Latency SLO: a request arriving at `t` must complete by `t + slo`.
    pub slo: SimTime,
    /// Bounded queue depth; arrivals beyond it are rejected (backpressure
    /// and shedding).
    pub queue_cap: usize,
    /// Weight under the weighted-fair scheduler (higher = larger share).
    pub weight: u32,
    /// Service class; decides preemption roles when a
    /// [`PreemptPolicy`](crate::PreemptPolicy) is configured.
    pub class: TenantClass,
    /// Optional retry-with-backoff for rejected arrivals.
    pub retry: Option<RetryPolicy>,
}

/// A complete workload: tenants, horizon and seed.
///
/// Arrivals stop at `horizon`; the dispatcher then drains every admitted
/// request, so reports always account for the whole offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
    /// Virtual time during which load is offered.
    pub horizon: SimTime,
    /// Seed of every arrival/think stream.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Checks the spec's structural invariants: at least one tenant, a
    /// positive horizon, and per tenant a positive queue capacity and
    /// weight, a finite positive open-loop rate, at least one closed-loop
    /// client, and a non-degenerate decode shape whose context, `prompt +
    /// max_new`, is at most 2³¹ tokens. The `Server`
    /// constructors call this, so a bad rate fails construction with a
    /// typed error instead of saturating to a zero-length arrival gap deep
    /// in the generator.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.tenants.is_empty() {
            return Err(WorkloadError::NoTenants);
        }
        if self.horizon == SimTime::ZERO {
            return Err(WorkloadError::ZeroHorizon);
        }
        for tenant in &self.tenants {
            let name = || tenant.name.clone();
            if tenant.queue_cap == 0 {
                return Err(WorkloadError::ZeroQueueCap { tenant: name() });
            }
            if tenant.weight == 0 {
                return Err(WorkloadError::ZeroWeight { tenant: name() });
            }
            match &tenant.arrival {
                ArrivalModel::OpenPoisson { rate_rps } => {
                    if !rate_rps.is_finite() || *rate_rps <= 0.0 {
                        return Err(WorkloadError::InvalidRate {
                            tenant: name(),
                            rate: *rate_rps,
                        });
                    }
                }
                ArrivalModel::ClosedLoop { clients, .. } => {
                    if *clients == 0 {
                        return Err(WorkloadError::NoClients { tenant: name() });
                    }
                }
                ArrivalModel::Trace(_) => {}
            }
            if let ModelKind::DecodeLlm {
                prompt,
                max_new,
                step_cycles,
                ctx_cycles,
                kv_bytes_per_token,
            } = tenant.model
            {
                let field = if prompt == 0 {
                    Some("prompt")
                } else if max_new == 0 {
                    Some("max_new")
                } else if kv_bytes_per_token == 0 {
                    Some("kv_bytes_per_token")
                } else if prompt as u64 + max_new as u64 > MAX_DECODE_CONTEXT {
                    Some(DECODE_CONTEXT)
                } else if ModelKind::decode_prefill_cycles(prompt, step_cycles).is_none() {
                    Some(DECODE_PREFILL_CYCLES)
                } else if ModelKind::decode_step_cycles(
                    step_cycles,
                    ctx_cycles,
                    ModelKind::ctx_class(prompt + max_new),
                )
                .is_none()
                {
                    // The longest context's class is the costliest step
                    // any dispatch prices (classes grow with context).
                    Some(DECODE_STEP_CYCLES)
                } else {
                    None
                };
                if let Some(field) = field {
                    return Err(WorkloadError::InvalidDecode {
                        tenant: name(),
                        field,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A deterministic SplitMix64 stream with exponential sampling — the
/// arrival- and think-time generator.
#[derive(Debug, Clone)]
pub struct Rng {
    counter: u64,
    key: u64,
}

impl Rng {
    /// A stream keyed by `(seed, tenant, client)`.
    pub fn for_client(seed: u64, tenant: usize, client: u32) -> Self {
        // Decorrelate the key space: mix each coordinate in separately.
        let key = splitmix64(seed)
            ^ splitmix64(0x7E4A_7C15_u64.wrapping_add(tenant as u64))
            ^ splitmix64(0xDEAD_BEEF_u64.wrapping_add(client as u64));
        Rng { counter: 0, key }
    }

    fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        splitmix64(
            self.key
                .wrapping_add(self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// A uniform draw in `(0, 1]` (never zero, so `ln` is finite).
    fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) / (1u64 << 53) as f64
    }

    /// An exponentially distributed duration with the given mean.
    ///
    /// Never returns zero: a draw that rounds below the simulator's
    /// picosecond resolution comes back as 1 ps, so arrival chains built
    /// by adding successive draws are strictly increasing — the same
    /// floor [`ArrivalTrace::synthesize`] enforces. Draws beyond the
    /// representable range clamp to [`SimTime::MAX`] instead of wrapping
    /// through the `f64 → u64` cast.
    pub fn exp(&mut self, mean: SimTime) -> SimTime {
        let draw = -self.next_unit().ln();
        SimTime::from_picos_rounded(mean.as_picos() as f64 * draw).max(SimTime::from_picos(1))
    }

    /// An exponential inter-arrival gap for a Poisson process of
    /// `rate_rps` events per second (mean `1/rate`). Inherits the 1-ps
    /// floor and [`SimTime::MAX`] clamp of [`Rng::exp`], so zero-gap
    /// draws cannot produce coincident open-loop arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not finite and positive — reject bad rates
    /// up front ([`WorkloadSpec::validate`]) rather than let them
    /// saturate the conversion.
    pub fn poisson_gap(&mut self, rate_rps: f64) -> SimTime {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "Poisson rate must be finite and positive"
        );
        self.exp(SimTime::from_picos_rounded(1e12 / rate_rps))
    }

    /// A uniform draw in `0..n` — the decode-length stream of
    /// [`ModelKind::DecodeLlm`] tenants.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform draw needs a nonempty range");
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let draw = |tenant, client| {
            let mut rng = Rng::for_client(42, tenant, client);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0, 0), draw(0, 0));
        assert_ne!(draw(0, 0), draw(0, 1));
        assert_ne!(draw(0, 0), draw(1, 0));
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = Rng::for_client(7, 0, 0);
        let mean = SimTime::from_micros(100.0);
        let n = 4096;
        let total: SimTime = (0..n).map(|_| rng.exp(mean)).sum();
        let avg = total.as_picos() as f64 / n as f64;
        let expected = mean.as_picos() as f64;
        assert!(
            (avg - expected).abs() / expected < 0.1,
            "sample mean {avg} vs {expected}"
        );
    }

    #[test]
    fn poisson_gap_matches_rate() {
        let mut rng = Rng::for_client(3, 1, 0);
        let n = 4096;
        let total: SimTime = (0..n).map(|_| rng.poisson_gap(10_000.0)).sum();
        // 10k rps -> 100us mean gap.
        let avg_us = total.as_micros() / n as f64;
        assert!((avg_us - 100.0).abs() < 10.0, "{avg_us}");
    }

    #[test]
    fn trace_tsv_round_trips_exactly() {
        let trace = ArrivalTrace::new(vec![
            SimTime::from_picos(5),
            SimTime::from_picos(1),
            SimTime::from_picos(5),
            SimTime::from_picos(5),
            SimTime::from_picos(9),
        ]);
        // new() sorts.
        assert_eq!(trace.instants()[0], SimTime::from_picos(1));
        let parsed = ArrivalTrace::parse_tsv(&trace.to_tsv()).unwrap();
        assert_eq!(parsed, trace);
        // Comments, blanks and explicit counts parse; equal instants are
        // fine (they are "non-decreasing", not "strictly increasing").
        let hand = "# header\n\n7\t2\n 10 \n10\n";
        let t = ArrivalTrace::parse_tsv(hand).unwrap();
        assert_eq!(
            t.instants(),
            &[
                SimTime::from_picos(7),
                SimTime::from_picos(7),
                SimTime::from_picos(10),
                SimTime::from_picos(10)
            ]
        );
        assert!(ArrivalTrace::parse_tsv("not-a-number").is_err());
    }

    #[test]
    fn synthesized_traces_are_seeded_sorted_and_shaped() {
        let horizon = SimTime::from_millis(50);
        for shape in [
            TraceShape::Bursty {
                base_rps: 2_000.0,
                burst_rps: 40_000.0,
                period: SimTime::from_millis(10),
                duty: 0.2,
            },
            TraceShape::Diurnal {
                trough_rps: 2_000.0,
                peak_rps: 30_000.0,
                period: SimTime::from_millis(25),
            },
            TraceShape::Pareto {
                rate_rps: 10_000.0,
                alpha: 1.5,
            },
        ] {
            let a = ArrivalTrace::synthesize(shape, horizon, 11);
            let b = ArrivalTrace::synthesize(shape, horizon, 11);
            assert_eq!(a, b, "per-seed determinism for {shape:?}");
            assert_ne!(a, ArrivalTrace::synthesize(shape, horizon, 12));
            assert!(!a.is_empty(), "{shape:?} produced no arrivals");
            assert!(a.instants().windows(2).all(|w| w[0] <= w[1]));
            assert!(*a.instants().last().unwrap() <= horizon);
        }
    }

    #[test]
    fn bursty_trace_is_actually_bursty() {
        let period = SimTime::from_millis(10);
        let trace = ArrivalTrace::synthesize(
            TraceShape::Bursty {
                base_rps: 1_000.0,
                burst_rps: 50_000.0,
                period,
                duty: 0.2,
            },
            SimTime::from_millis(100),
            5,
        );
        // duty = 0.2 exactly: integer math, no float-cast truncation.
        let duty_ps = period.as_picos() / 5;
        let in_burst = trace
            .instants()
            .iter()
            .filter(|t| t.as_picos() % period.as_picos() < duty_ps)
            .count();
        // 20% of the time carries ~92% of the arrivals at these rates.
        assert!(
            in_burst * 2 > trace.len(),
            "only {in_burst}/{} arrivals in the burst window",
            trace.len()
        );
    }

    #[test]
    fn parse_tsv_rejects_unsorted_traces_naming_the_line() {
        // Line 4 (1-based, counting the comment) runs backwards.
        let err = ArrivalTrace::parse_tsv("# header\n5\n9\n7\n12\n").unwrap_err();
        assert_eq!(
            err,
            TraceParseError {
                line: 4,
                kind: TraceParseErrorKind::Unsorted { prev: 9, here: 7 },
            }
        );
        assert!(err.to_string().starts_with("line 4:"), "{err}");
        // Equal instants are non-decreasing, not "backwards".
        assert!(ArrivalTrace::parse_tsv("5\n5\n").is_ok());
    }

    #[test]
    fn parse_tsv_rejects_malformed_and_hostile_counts() {
        let err = ArrivalTrace::parse_tsv("10\nnot-a-number\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, TraceParseErrorKind::BadInstant(_)));

        let err = ArrivalTrace::parse_tsv("10\t-3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, TraceParseErrorKind::BadCount(_)));

        let err = ArrivalTrace::parse_tsv("10\t0\n").unwrap_err();
        assert_eq!(err.kind, TraceParseErrorKind::ZeroCount);

        // A hostile count column hits the cap (via saturating accumulation,
        // so even u64::MAX cannot wrap the total) instead of allocating.
        let hostile = format!("1\t7\n2\t{}\n", u64::MAX);
        let err = ArrivalTrace::parse_tsv(&hostile).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(
            err.kind,
            TraceParseErrorKind::TooManyArrivals { total } if total > ArrivalTrace::MAX_ARRIVALS
        ));
    }

    #[test]
    fn exp_draws_are_floored_and_clamped() {
        // A mean at the simulator's resolution floor: every draw still
        // advances time (the 1-ps floor), so arrival chains built by
        // successive addition are strictly increasing.
        let mut rng = Rng::for_client(1, 2, 3);
        assert!((0..512).all(|_| rng.exp(SimTime::from_picos(1)) >= SimTime::from_picos(1)));

        // A mean at the representable ceiling: draws above 1x the mean
        // (probability 1/e each) clamp to SimTime::MAX instead of
        // wrapping through the f64 -> u64 cast; adding any draw to a
        // running clock saturates rather than going backwards.
        let draws: Vec<SimTime> = (0..64).map(|_| rng.exp(SimTime::MAX)).collect();
        assert!(draws.contains(&SimTime::MAX), "no draw clamped");
        let mut t = SimTime::ZERO;
        for &d in &draws {
            let next = t.saturating_add(d);
            assert!(next >= t, "clock ran backwards");
            t = next;
        }
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn poisson_gap_rejects_infinite_rates() {
        Rng::for_client(0, 0, 0).poisson_gap(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn poisson_gap_rejects_nan_rates() {
        Rng::for_client(0, 0, 0).poisson_gap(f64::NAN);
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let draw = || {
            let mut rng = Rng::for_client(9, 0, u32::MAX - 2);
            (0..256).map(|_| rng.uniform(7)).collect::<Vec<_>>()
        };
        let a = draw();
        assert_eq!(a, draw());
        assert!(a.iter().all(|&d| d < 7));
        assert!((0..7).all(|v| a.contains(&v)), "256 draws cover 0..7");
    }

    #[test]
    #[should_panic(expected = "nonempty range")]
    fn uniform_rejects_an_empty_range() {
        Rng::for_client(0, 0, 0).uniform(0);
    }

    fn valid_tenant() -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            model: ModelKind::Toy {
                blocks: 1,
                compute_cycles: 50_000,
            },
            arrival: ArrivalModel::OpenPoisson { rate_rps: 100.0 },
            slo: SimTime::from_millis(1),
            queue_cap: 4,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        }
    }

    #[test]
    fn workload_validation_catches_degenerate_specs() {
        let spec = |tenant: TenantSpec| WorkloadSpec {
            tenants: vec![tenant],
            horizon: SimTime::from_millis(1),
            seed: 0,
        };
        assert_eq!(spec(valid_tenant()).validate(), Ok(()));

        let empty = WorkloadSpec {
            tenants: vec![],
            horizon: SimTime::from_millis(1),
            seed: 0,
        };
        assert_eq!(empty.validate(), Err(WorkloadError::NoTenants));

        // A zero horizon would make every per-second rate NaN.
        let instant = WorkloadSpec {
            horizon: SimTime::ZERO,
            ..spec(valid_tenant())
        };
        assert_eq!(instant.validate(), Err(WorkloadError::ZeroHorizon));

        let mut t = valid_tenant();
        t.queue_cap = 0;
        assert!(matches!(
            spec(t).validate(),
            Err(WorkloadError::ZeroQueueCap { .. })
        ));

        let mut t = valid_tenant();
        t.weight = 0;
        assert!(matches!(
            spec(t).validate(),
            Err(WorkloadError::ZeroWeight { .. })
        ));

        // The rates that used to saturate the f64 -> u64 gap conversion
        // now fail construction with a typed error.
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let mut t = valid_tenant();
            t.arrival = ArrivalModel::OpenPoisson { rate_rps: bad };
            assert!(
                matches!(spec(t).validate(), Err(WorkloadError::InvalidRate { .. })),
                "rate {bad} accepted"
            );
        }

        let mut t = valid_tenant();
        t.arrival = ArrivalModel::ClosedLoop {
            clients: 0,
            think: SimTime::from_micros(10.0),
        };
        assert!(matches!(
            spec(t).validate(),
            Err(WorkloadError::NoClients { .. })
        ));

        let mut t = valid_tenant();
        t.model = ModelKind::DecodeLlm {
            prompt: 16,
            max_new: 0,
            step_cycles: 1_000,
            ctx_cycles: 10,
            kv_bytes_per_token: 1 << 10,
        };
        assert!(matches!(
            spec(t).validate(),
            Err(WorkloadError::InvalidDecode {
                field: "max_new",
                ..
            })
        ));
    }

    #[test]
    fn decode_contexts_past_2_pow_31_are_rejected() {
        let spec = |prompt: u32, max_new: u32| WorkloadSpec {
            tenants: vec![TenantSpec {
                model: ModelKind::DecodeLlm {
                    prompt,
                    max_new,
                    step_cycles: 1_000,
                    ctx_cycles: 10,
                    kv_bytes_per_token: 1 << 10,
                },
                ..valid_tenant()
            }],
            horizon: SimTime::from_millis(1),
            seed: 0,
        };
        // The longest accepted context still has a u32 context class.
        assert_eq!(spec((1 << 31) - 1, 1).validate(), Ok(()));
        assert_eq!(ModelKind::ctx_class(1 << 31), 1 << 31);
        for (prompt, max_new) in [(1 << 31, 1), (u32::MAX, 1), (1, u32::MAX)] {
            let err = spec(prompt, max_new).validate().unwrap_err();
            assert_eq!(
                err,
                WorkloadError::InvalidDecode {
                    tenant: "t".into(),
                    field: DECODE_CONTEXT,
                },
                "prompt {prompt} + max_new {max_new}"
            );
            assert_eq!(
                err.to_string(),
                "t: decode model prompt + max_new must be <= 2^31"
            );
        }
    }

    #[test]
    fn decode_cycles_past_u64_are_rejected() {
        let spec = |prompt: u32, step_cycles: u64, ctx_cycles: u64| WorkloadSpec {
            tenants: vec![TenantSpec {
                model: ModelKind::DecodeLlm {
                    prompt,
                    max_new: 16,
                    step_cycles,
                    ctx_cycles,
                    kv_bytes_per_token: 1 << 10,
                },
                ..valid_tenant()
            }],
            horizon: SimTime::from_millis(1),
            seed: 0,
        };
        // 16 prompt + 16 new tokens: context class 32, so 2⁶⁰ cycles per
        // context token are 2⁶⁵ per step.
        let err = spec(16, 1_000, 1 << 60).validate().unwrap_err();
        assert_eq!(
            err,
            WorkloadError::InvalidDecode {
                tenant: "t".into(),
                field: DECODE_STEP_CYCLES,
            }
        );
        assert_eq!(
            err.to_string(),
            "t: decode model step_cycles + ctx_class × ctx_cycles overflows u64"
        );
        // Class 32 × 2⁵⁸ cycles is exactly 2⁶³: small step cycles still
        // fit on top, another 2⁶³ does not.
        assert_eq!(spec(16, 1_000, 1 << 58).validate(), Ok(()));
        assert_eq!(
            spec(1, 1 << 63, 1 << 58).validate().unwrap_err(),
            WorkloadError::InvalidDecode {
                tenant: "t".into(),
                field: DECODE_STEP_CYCLES,
            }
        );
        assert_eq!(
            spec(16, 1 << 60, 1).validate().unwrap_err(),
            WorkloadError::InvalidDecode {
                tenant: "t".into(),
                field: DECODE_PREFILL_CYCLES,
            }
        );
    }
}
