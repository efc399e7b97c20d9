//! Serving metrics: latency percentiles, goodput, SLO accounting, queue
//! depth, per-device utilization — plus the invariant checks CI enforces
//! and a hand-rolled JSON rendering (same convention as the repo's other
//! `BENCH_*.json` artifacts: no serde dependency).

use std::fmt::Write as _;

use cusync_sim::{json_escape, KvStats, SimTime};

/// Per-tenant accounting of one serve run.
///
/// The request-count fields obey two conservation laws, checked by
/// [`ServeReport::check`]:
///
/// - `offered = admitted + rejected` — every generated request either
///   enters a queue or is turned away at admission;
/// - `admitted = completed + shed` — every queued request either finishes
///   or is dropped (SLO-expired) before dispatch.
///
/// Decode tenants obey a third law: every token the device generated was
/// either delivered with a completed request or wasted to
/// preemption-and-recompute —
/// `tokens_generated = tokens_out + recomputed_tokens`, with
/// `tokens_good ≤ tokens_out`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant name (from the spec).
    pub name: String,
    /// Requests generated by the arrival process.
    pub offered: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused at admission (queue full, or hopeless under the
    /// SLO-aware admission estimate).
    pub rejected: u64,
    /// Admitted requests dropped before dispatch because their deadline
    /// had already passed.
    pub shed: u64,
    /// Requests that executed to completion.
    pub completed: u64,
    /// Completed requests that finished after their deadline.
    pub violations: u64,
    /// Completion latencies (arrival → completion), summarized.
    pub latency: LatencySummary,
    /// Largest queue depth observed.
    pub max_queue_depth: usize,
    /// Re-offered attempts after a rejection (each is also counted in
    /// `offered`, so conservation holds with retries on).
    pub retries: u64,
    /// Running batches of this tenant checkpointed by cross-tenant
    /// preemption.
    pub preemptions: u64,
    /// Extra device time paid resuming checkpointed residues.
    pub preempt_overhead: SimTime,
    /// Admitted requests pulled off a dead (or panicked) device and
    /// requeued for another attempt.
    pub rerouted: u64,
    /// Decode tokens the device actually computed for this tenant,
    /// including tokens later thrown away by preemption-and-recompute.
    pub tokens_generated: u64,
    /// Decode tokens delivered with completed requests.
    pub tokens_out: u64,
    /// Delivered tokens whose request met its SLO — the decode goodput
    /// numerator.
    pub tokens_good: u64,
    /// Sequences preempted mid-decode under KV memory pressure (their
    /// pages were discarded; the request requeued for recompute).
    pub decode_preemptions: u64,
    /// Tokens computed and then lost to a decode preemption or a device
    /// fault — they will be (or were) generated again from scratch.
    pub recomputed_tokens: u64,
}

impl TenantMetrics {
    pub(crate) fn new(name: &str) -> Self {
        TenantMetrics {
            name: name.to_owned(),
            offered: 0,
            admitted: 0,
            rejected: 0,
            shed: 0,
            completed: 0,
            violations: 0,
            latency: LatencySummary::default(),
            max_queue_depth: 0,
            retries: 0,
            preemptions: 0,
            preempt_overhead: SimTime::ZERO,
            rerouted: 0,
            tokens_generated: 0,
            tokens_out: 0,
            tokens_good: 0,
            decode_preemptions: 0,
            recomputed_tokens: 0,
        }
    }

    /// Completions that met the SLO.
    pub fn goodput_count(&self) -> u64 {
        self.completed - self.violations
    }

    /// Fraction of completions that violated the SLO (0 with none).
    pub fn violation_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.violations as f64 / self.completed as f64
    }
}

/// Per-device accounting of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMetrics {
    /// Total virtual time the device spent executing batches.
    pub busy: SimTime,
    /// Batches dispatched to this device. A continuous-batching decode
    /// run counts one batch per decode step (the batch is re-formed at
    /// every step boundary).
    pub batches: u64,
    /// Requests carried by those batches (decode: resident sequences per
    /// step, summed over steps).
    pub requests: u64,
    /// Final counters of the device's KV block pool (all zeros for
    /// clusters without decode tenants; see
    /// [`KvStats::check`](cusync_sim::KvStats::check)).
    pub kv: KvStats,
}

impl DeviceMetrics {
    /// Mean coalesced width of this device's batches.
    pub fn mean_width(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.requests as f64 / self.batches as f64
    }
}

/// What a [`FaultPlan`](crate::FaultPlan) actually did to one serve run.
///
/// `stranded` is the typed end-of-run outcome the device-loss scenario
/// requires: requests still queued when the event loop drains with no
/// surviving device to serve them are shed (counted per-tenant in
/// [`TenantMetrics::shed`]) and tallied here — never silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Devices permanently lost mid-run.
    pub devices_lost: u64,
    /// Worker panics injected into running batches.
    pub panics: u64,
    /// Whether link degradation was active by the end of the run.
    pub link_degraded: bool,
    /// Requests shed at drain time because no surviving device could
    /// serve them (subset of the tenants' `shed` totals).
    pub stranded: u64,
}

/// One observation of the virtual-time metrics sampler
/// ([`ServeConfig::sample_every`](crate::ServeConfig)): system state at a
/// fixed virtual instant, taken just before any event at that instant is
/// processed. Sampling is passive — a sampled run's counters are
/// bit-identical to an unsampled one's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSample {
    /// The virtual instant sampled (a multiple of the sampling interval).
    pub time: SimTime,
    /// Requests waiting to dispatch, summed over tenant queues and
    /// checkpointed residues.
    pub queue_depth: u64,
    /// KV blocks live across every device pool.
    pub kv_active: u64,
    /// Devices with a batch (or decode run) in flight.
    pub devices_busy: u32,
}

/// Every completion instant of one serve run, in event order, folded into
/// a fixed-size record as it happens: the run keeps no per-request
/// timestamp. It holds what [`ServeReport::check`] needs (the count, the
/// last instant and the first pair that ran backwards) and a digest of the
/// whole sequence, so equal records mean equal sequences up to a 64-bit
/// hash collision.
///
/// The digest step is `digest = (digest ^ picoseconds) * DIGEST_PRIME`
/// (wrapping). The prime is odd, so each step maps distinct inputs to
/// distinct outputs: two sequences of one length that differ in exactly
/// one instant always differ in the digest. It costs one multiply per
/// completion, measurably less than a full `splitmix64` mix on the
/// dispatcher's hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompletionRecord {
    /// Completions recorded.
    pub count: u64,
    /// The last completion instant (`None` with none).
    pub last: Option<SimTime>,
    /// The first consecutive pair `(earlier, later)` in event order whose
    /// later instant precedes the earlier one, if any.
    pub first_regression: Option<(SimTime, SimTime)>,
    /// Running digest of the instants in event order, from 0 (see the
    /// type docs).
    pub digest: u64,
}

/// The FNV-1a 64-bit prime, the multiplier of [`CompletionRecord`]'s
/// digest.
const DIGEST_PRIME: u64 = 0x0100_0000_01b3;

/// One digest step of [`CompletionRecord`] and [`LatencySummary`]:
/// `(digest ^ picoseconds) * DIGEST_PRIME`, wrapping.
fn fold_digest(digest: u64, at: SimTime) -> u64 {
    (digest ^ at.as_picos()).wrapping_mul(DIGEST_PRIME)
}

impl CompletionRecord {
    /// Records one completion at `at`.
    pub fn push(&mut self, at: SimTime) {
        if let Some(last) = self.last {
            if at < last && self.first_regression.is_none() {
                self.first_regression = Some((last, at));
            }
        }
        self.count += 1;
        self.last = Some(at);
        self.digest = fold_digest(self.digest, at);
    }
}

/// One tenant's completion latencies (arrival → completion) as a
/// fixed-size, exact summary: a report keeps no sample per request.
///
/// The quantiles are exact nearest-rank values: the `q`-quantile of `n`
/// samples is the `r`-th smallest, with `r = ceil(n·q)` clamped to
/// `[1, n]`. `mean` is the sum of the samples' picoseconds divided by
/// `n`, truncated. `digest` folds every sample in completion order with
/// [`CompletionRecord`]'s digest step, so equal summaries mean equal
/// latency sequences up to a 64-bit hash collision. Every field is zero
/// when `count` is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Latencies summarized (one per completion).
    pub count: u64,
    /// Median latency.
    pub p50: SimTime,
    /// 95th-percentile latency.
    pub p95: SimTime,
    /// 99th-percentile latency.
    pub p99: SimTime,
    /// Mean latency.
    pub mean: SimTime,
    /// Largest latency.
    pub max: SimTime,
    /// Running digest of the latencies in completion order, from 0.
    pub digest: u64,
}

impl LatencySummary {
    /// Summarizes `latencies`, given in completion order. The quantiles
    /// are selected in place, so the slice is left permuted.
    pub fn from_latencies(latencies: &mut [SimTime]) -> Self {
        let n = latencies.len();
        if n == 0 {
            return LatencySummary::default();
        }
        let (mut digest, mut sum, mut max) = (0, 0u64, SimTime::ZERO);
        for &latency in latencies.iter() {
            digest = fold_digest(digest, latency);
            sum += latency.as_picos();
            max = max.max(latency);
        }
        let mut nearest_rank = |q: f64| {
            let rank = ((n as f64) * q).ceil() as usize;
            *latencies.select_nth_unstable(rank.clamp(1, n) - 1).1
        };
        LatencySummary {
            count: n as u64,
            p50: nearest_rank(0.50),
            p95: nearest_rank(0.95),
            p99: nearest_rank(0.99),
            mean: SimTime::from_picos(sum / n as u64),
            max,
            digest,
        }
    }
}

/// Complete outcome of one serve run. `PartialEq` is exact — two reports
/// compare equal iff every counter and timestamp is bit-identical (the
/// completion sequence through its [`CompletionRecord`] digest, each
/// tenant's latency sequence through its [`LatencySummary`] digest),
/// which is how per-seed determinism is asserted.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-tenant metrics, in spec order.
    pub tenants: Vec<TenantMetrics>,
    /// Per-device metrics, in cluster order.
    pub devices: Vec<DeviceMetrics>,
    /// The spec's offered-load horizon.
    pub horizon: SimTime,
    /// Virtual time of the last completion (≥ horizon under load).
    pub makespan: SimTime,
    /// Every completion instant, in event order, as a fixed-size record —
    /// the monotone virtual-clock witness ([`ServeReport::check`]).
    pub completions: CompletionRecord,
    /// Injected-fault summary (all zeros for a fault-free run).
    pub faults: FaultOutcome,
    /// Virtual-time sampler output (empty unless
    /// [`ServeConfig::sample_every`](crate::ServeConfig) was set).
    pub samples: Vec<MetricSample>,
}

impl ServeReport {
    /// Aggregate goodput: SLO-met completions per second of offered-load
    /// horizon.
    pub fn goodput_rps(&self) -> f64 {
        let good: u64 = self.tenants.iter().map(|t| t.goodput_count()).sum();
        good as f64 / self.horizon.as_secs_f64()
    }

    /// Aggregate throughput: all completions per second of horizon.
    pub fn throughput_rps(&self) -> f64 {
        let done: u64 = self.tenants.iter().map(|t| t.completed).sum();
        done as f64 / self.horizon.as_secs_f64()
    }

    /// Aggregate decode-token goodput: delivered tokens whose request met
    /// its SLO, per second of horizon (0 without decode tenants).
    pub fn tokens_goodput_per_sec(&self) -> f64 {
        let good: u64 = self.tenants.iter().map(|t| t.tokens_good).sum();
        good as f64 / self.horizon.as_secs_f64()
    }

    /// Aggregate decode-token throughput: all delivered tokens per second
    /// of horizon (0 without decode tenants).
    pub fn tokens_per_sec(&self) -> f64 {
        let out: u64 = self.tenants.iter().map(|t| t.tokens_out).sum();
        out as f64 / self.horizon.as_secs_f64()
    }

    /// Fraction of the horizon each device spent busy, averaged over
    /// devices (can exceed 1 while draining past the horizon).
    pub fn mean_utilization(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.devices.iter().map(|d| d.busy.as_secs_f64()).sum();
        busy / (self.devices.len() as f64 * self.horizon.as_secs_f64().max(f64::MIN_POSITIVE))
    }

    /// Verifies the report's internal invariants:
    ///
    /// 1. conservation per tenant: `offered = admitted + rejected` and
    ///    `admitted = completed + shed`;
    /// 2. completion instants are non-decreasing in event order (the
    ///    virtual clock never runs backwards): the [`CompletionRecord`]
    ///    holds no regressing pair;
    /// 3. per tenant, the [`LatencySummary`] counts one latency per
    ///    completion, is ordered (`p50 ≤ p95 ≤ p99 ≤ max`, `mean ≤ max`)
    ///    and is all zeros without completions; `violations ≤ completed`;
    ///    and the tenants' `completed` counts sum to the record's count;
    /// 4. the makespan is the later of the last completion and the horizon
    ///    (the horizon if nothing completed);
    /// 5. fault accounting is coherent: `retries ≤ offered` per tenant,
    ///    and requests strand only when a device was actually lost;
    /// 6. token conservation per tenant:
    ///    `tokens_generated = tokens_out + recomputed_tokens` and
    ///    `tokens_good ≤ tokens_out`;
    /// 7. every device's KV pool satisfies its own conservation laws
    ///    ([`KvStats::check`](cusync_sim::KvStats::check)) and holds no
    ///    live allocation after the drain.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        for t in &self.tenants {
            if t.offered != t.admitted + t.rejected {
                return Err(format!(
                    "{}: offered {} != admitted {} + rejected {}",
                    t.name, t.offered, t.admitted, t.rejected
                ));
            }
            if t.admitted != t.completed + t.shed {
                return Err(format!(
                    "{}: admitted {} != completed {} + shed {}",
                    t.name, t.admitted, t.completed, t.shed
                ));
            }
            let l = &t.latency;
            if l.count != t.completed {
                return Err(format!(
                    "{}: {} latency samples for {} completions",
                    t.name, l.count, t.completed
                ));
            }
            if !(l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max) {
                return Err(format!(
                    "{}: latency quantiles out of order: p50 {} p95 {} p99 {} max {}",
                    t.name, l.p50, l.p95, l.p99, l.max
                ));
            }
            if l.mean > l.max {
                return Err(format!(
                    "{}: latency mean {} > max {}",
                    t.name, l.mean, l.max
                ));
            }
            if l.count == 0 && *l != LatencySummary::default() {
                return Err(format!(
                    "{}: nonzero latency summary without completions: {l:?}",
                    t.name
                ));
            }
            if t.violations > t.completed {
                return Err(format!(
                    "{}: violations {} > completed {}",
                    t.name, t.violations, t.completed
                ));
            }
            if t.retries > t.offered {
                return Err(format!(
                    "{}: retries {} > offered {}",
                    t.name, t.retries, t.offered
                ));
            }
            if t.tokens_generated != t.tokens_out + t.recomputed_tokens {
                return Err(format!(
                    "{}: tokens_generated {} != tokens_out {} + recomputed {}",
                    t.name, t.tokens_generated, t.tokens_out, t.recomputed_tokens
                ));
            }
            if t.tokens_good > t.tokens_out {
                return Err(format!(
                    "{}: tokens_good {} > tokens_out {}",
                    t.name, t.tokens_good, t.tokens_out
                ));
            }
        }
        for (i, d) in self.devices.iter().enumerate() {
            d.kv.check().map_err(|e| format!("device {i}: {e}"))?;
            if d.kv.active_now != 0 {
                return Err(format!(
                    "device {i}: {} kv blocks still live after the drain",
                    d.kv.active_now
                ));
            }
        }
        if self.faults.devices_lost == 0 && self.faults.stranded > 0 {
            return Err(format!(
                "{} stranded requests without any device loss",
                self.faults.stranded
            ));
        }
        let shed: u64 = self.tenants.iter().map(|t| t.shed).sum();
        if self.faults.stranded > shed {
            return Err(format!(
                "stranded {} > total shed {shed}",
                self.faults.stranded
            ));
        }
        if let Some((earlier, later)) = self.completions.first_regression {
            return Err(format!("completions regress: {earlier} then {later}"));
        }
        let total: u64 = self.tenants.iter().map(|t| t.completed).sum();
        if total != self.completions.count {
            return Err(format!(
                "{} tenant completions but {} completion events",
                total, self.completions.count
            ));
        }
        let last = self.completions.last.unwrap_or(self.horizon);
        if self.makespan != last.max(self.horizon) {
            return Err(format!(
                "makespan {} != max(last completion {last}, horizon {})",
                self.makespan, self.horizon
            ));
        }
        if let Some(w) = self.samples.windows(2).find(|w| w[0].time >= w[1].time) {
            return Err(format!("samples regress: {} then {}", w[0].time, w[1].time));
        }
        Ok(())
    }

    /// Renders the report as JSON (stable key order, picosecond-exact
    /// times in microseconds with fixed precision).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"horizon_us\": {:.3},", self.horizon.as_micros());
        let _ = writeln!(s, "  \"makespan_us\": {:.3},", self.makespan.as_micros());
        let _ = writeln!(s, "  \"goodput_rps\": {:.3},", self.goodput_rps());
        let _ = writeln!(s, "  \"throughput_rps\": {:.3},", self.throughput_rps());
        let _ = writeln!(s, "  \"mean_utilization\": {:.4},", self.mean_utilization());
        let _ = writeln!(
            s,
            "  \"tokens_goodput_per_sec\": {:.3},",
            self.tokens_goodput_per_sec()
        );
        let _ = writeln!(s, "  \"tokens_per_sec\": {:.3},", self.tokens_per_sec());
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \
                 \"shed\": {}, \"completed\": {}, \"violations\": {}, \
                 \"violation_rate\": {:.4}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \
                 \"p99_us\": {:.3}, \"mean_us\": {:.3}, \"max_queue_depth\": {}, \
                 \"retries\": {}, \"preemptions\": {}, \"preempt_overhead_us\": {:.3}, \
                 \"rerouted\": {}, \"tokens_generated\": {}, \"tokens_out\": {}, \
                 \"tokens_good\": {}, \"decode_preemptions\": {}, \
                 \"recomputed_tokens\": {}}}",
                json_escape(&t.name),
                t.offered,
                t.admitted,
                t.rejected,
                t.shed,
                t.completed,
                t.violations,
                t.violation_rate(),
                t.latency.p50.as_micros(),
                t.latency.p95.as_micros(),
                t.latency.p99.as_micros(),
                t.latency.mean.as_micros(),
                t.max_queue_depth,
                t.retries,
                t.preemptions,
                t.preempt_overhead.as_micros(),
                t.rerouted,
                t.tokens_generated,
                t.tokens_out,
                t.tokens_good,
                t.decode_preemptions,
                t.recomputed_tokens,
            );
            s.push_str(if i + 1 < self.tenants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"devices\": [\n");
        for (i, d) in self.devices.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"busy_us\": {:.3}, \"batches\": {}, \"requests\": {}, \
                 \"mean_width\": {:.3}, \"kv\": {{\"total\": {}, \"peak_active\": {}, \
                 \"evicted\": {}, \"alloc_failures\": {}}}}}",
                d.busy.as_micros(),
                d.batches,
                d.requests,
                d.mean_width(),
                d.kv.total,
                d.kv.peak_active,
                d.kv.evicted,
                d.kv.alloc_failures,
            );
            s.push_str(if i + 1 < self.devices.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"samples\": [\n");
        for (i, sample) in self.samples.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"time_us\": {:.3}, \"queue_depth\": {}, \"kv_active\": {}, \
                 \"devices_busy\": {}}}",
                sample.time.as_micros(),
                sample.queue_depth,
                sample.kv_active,
                sample.devices_busy,
            );
            s.push_str(if i + 1 < self.samples.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        let _ = write!(
            s,
            "  \"faults\": {{\"devices_lost\": {}, \"panics\": {}, \
             \"link_degraded\": {}, \"stranded\": {}}}\n}}",
            self.faults.devices_lost,
            self.faults.panics,
            self.faults.link_degraded,
            self.faults.stranded,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record of completions at `us`, in that order.
    fn record(us: &[f64]) -> CompletionRecord {
        let mut record = CompletionRecord::default();
        for &at in us {
            record.push(SimTime::from_micros(at));
        }
        record
    }

    fn tenant_with(latencies_us: &[f64]) -> TenantMetrics {
        let mut t = TenantMetrics::new("t");
        let mut latencies: Vec<SimTime> = latencies_us
            .iter()
            .map(|&us| SimTime::from_micros(us))
            .collect();
        t.latency = LatencySummary::from_latencies(&mut latencies);
        t.completed = t.latency.count;
        t.admitted = t.completed;
        t.offered = t.completed;
        t
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let t = tenant_with(&[100.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 10.0]);
        assert_eq!(t.latency.count, 10);
        assert_eq!(t.latency.p50, SimTime::from_micros(50.0));
        assert_eq!(t.latency.p95, SimTime::from_micros(100.0));
        assert_eq!(t.latency.p99, SimTime::from_micros(100.0));
        assert_eq!(t.latency.max, SimTime::from_micros(100.0));
        assert_eq!(t.latency.mean, SimTime::from_micros(55.0));
        assert_eq!(tenant_with(&[]).latency, LatencySummary::default());
    }

    /// A one-tenant report with latencies 10, 20, .., 100 µs: every
    /// summary field distinct, so each law below breaks on one field.
    fn summarized() -> ServeReport {
        completed_at(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0])
    }

    #[test]
    fn check_catches_a_latency_count_mismatch() {
        let mut report = summarized();
        assert_eq!(report.check(), Ok(()));
        report.tenants[0].latency.count -= 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("latency samples"), "{err}");
    }

    #[test]
    fn check_catches_unordered_latency_quantiles() {
        let mut report = summarized();
        report.tenants[0].latency.p95 = SimTime::from_micros(40.0);
        let err = report.check().unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn check_catches_a_latency_mean_above_the_max() {
        let mut report = summarized();
        report.tenants[0].latency.mean = SimTime::from_micros(101.0);
        let err = report.check().unwrap_err();
        assert!(err.contains("mean"), "{err}");
    }

    #[test]
    fn check_catches_a_nonzero_summary_without_completions() {
        let mut report = completed_at(&[]);
        assert_eq!(report.check(), Ok(()));
        report.tenants[0].latency.digest = 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("without completions"), "{err}");
    }

    #[test]
    fn check_catches_conservation_violations() {
        let mut report = ServeReport {
            tenants: vec![tenant_with(&[10.0])],
            devices: vec![],
            horizon: SimTime::from_millis(1),
            makespan: SimTime::from_millis(1),
            completions: record(&[10.0]),
            faults: FaultOutcome::default(),
            samples: vec![],
        };
        assert!(report.check().is_ok(), "{:?}", report.check());
        report.tenants[0].offered += 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("offered"), "{err}");
        report.tenants[0].rejected += 1;
        assert!(report.check().is_ok());
    }

    /// A one-tenant report whose completions happened at `us`.
    fn completed_at(us: &[f64]) -> ServeReport {
        ServeReport {
            tenants: vec![tenant_with(us)],
            devices: vec![],
            horizon: SimTime::from_micros(15.0),
            makespan: SimTime::from_micros(us.iter().copied().fold(15.0, f64::max)),
            completions: record(us),
            faults: FaultOutcome::default(),
            samples: vec![],
        }
    }

    #[test]
    fn check_catches_regressing_completions() {
        assert_eq!(completed_at(&[10.0, 20.0]).check(), Ok(()));
        let report = completed_at(&[10.0, 20.0, 5.0, 30.0, 1.0]);
        assert_eq!(
            report.completions.first_regression,
            Some((SimTime::from_micros(20.0), SimTime::from_micros(5.0))),
            "the first pair that runs backwards is kept"
        );
        let err = report.check().unwrap_err();
        assert!(err.contains("regress"), "{err}");
    }

    #[test]
    fn check_catches_a_completion_count_mismatch() {
        let mut report = completed_at(&[10.0, 20.0]);
        report.completions.count += 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("completion events"), "{err}");
    }

    #[test]
    fn check_catches_a_makespan_mismatch() {
        // Last completion 20 µs past a 15-µs horizon: makespan 20 µs.
        let mut report = completed_at(&[10.0, 20.0]);
        report.makespan = SimTime::from_micros(15.0);
        let err = report.check().unwrap_err();
        assert!(err.contains("makespan"), "{err}");
        // Nothing completed: the makespan is the horizon.
        let mut idle = completed_at(&[]);
        assert_eq!(idle.check(), Ok(()));
        idle.makespan = SimTime::from_micros(16.0);
        let err = idle.check().unwrap_err();
        assert!(err.contains("makespan"), "{err}");
    }

    #[test]
    fn one_changed_completion_instant_makes_reports_differ() {
        let report = completed_at(&[10.0, 20.0, 30.0]);
        assert_eq!(report, completed_at(&[10.0, 20.0, 30.0]));
        let mut moved = report.clone();
        moved.completions = record(&[10.0, 20.5, 30.0]);
        assert_eq!(moved.completions.count, report.completions.count);
        assert_eq!(moved.completions.last, report.completions.last);
        assert_ne!(moved, report, "the digest sees the moved instant");
        let mut swapped = report.clone();
        swapped.completions = record(&[20.0, 10.0, 30.0]);
        assert_ne!(swapped, report, "the digest sees the order");
    }

    #[test]
    fn check_catches_incoherent_fault_accounting() {
        let mut report = ServeReport {
            tenants: vec![tenant_with(&[10.0])],
            devices: vec![],
            horizon: SimTime::from_millis(1),
            makespan: SimTime::from_millis(1),
            completions: record(&[10.0]),
            faults: FaultOutcome::default(),
            samples: vec![],
        };
        report.faults.stranded = 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("stranded"), "{err}");
        // Stranding requires a lost device AND matching shed counts.
        report.faults.devices_lost = 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("stranded"), "{err}");
        report.tenants[0].shed += 1;
        report.tenants[0].admitted += 1;
        report.tenants[0].offered += 1;
        assert!(report.check().is_ok(), "{:?}", report.check());
        report.tenants[0].retries = report.tenants[0].offered + 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("retries"), "{err}");
    }

    #[test]
    fn check_catches_token_and_kv_violations() {
        let mut report = ServeReport {
            tenants: vec![tenant_with(&[10.0])],
            devices: vec![DeviceMetrics {
                busy: SimTime::ZERO,
                batches: 0,
                requests: 0,
                kv: KvStats::default(),
            }],
            horizon: SimTime::from_millis(1),
            makespan: SimTime::from_millis(1),
            completions: record(&[10.0]),
            faults: FaultOutcome::default(),
            samples: vec![],
        };
        assert!(report.check().is_ok(), "{:?}", report.check());
        report.tenants[0].tokens_generated = 5;
        let err = report.check().unwrap_err();
        assert!(err.contains("tokens_generated"), "{err}");
        report.tenants[0].tokens_out = 3;
        report.tenants[0].recomputed_tokens = 2;
        assert!(report.check().is_ok(), "{:?}", report.check());
        report.tenants[0].tokens_good = 4;
        let err = report.check().unwrap_err();
        assert!(err.contains("tokens_good"), "{err}");
        report.tenants[0].tokens_good = 3;
        assert!(report.check().is_ok());
        // A live KV allocation after the drain is a leak.
        report.devices[0].kv.active_now = 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("kv"), "{err}");
    }

    #[test]
    fn json_escapes_hostile_tenant_names() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        let mut tenant = tenant_with(&[10.0]);
        tenant.name = "evil\"name".into();
        let report = ServeReport {
            tenants: vec![tenant],
            devices: vec![],
            horizon: SimTime::from_millis(1),
            makespan: SimTime::from_millis(1),
            completions: record(&[10.0]),
            faults: FaultOutcome::default(),
            samples: vec![],
        };
        assert!(report.to_json().contains("evil\\\"name"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = ServeReport {
            tenants: vec![tenant_with(&[10.0, 20.0])],
            devices: vec![DeviceMetrics {
                busy: SimTime::from_micros(30.0),
                batches: 1,
                requests: 2,
                kv: KvStats::default(),
            }],
            horizon: SimTime::from_millis(1),
            makespan: SimTime::from_millis(1),
            completions: record(&[10.0, 20.0]),
            faults: FaultOutcome {
                devices_lost: 1,
                panics: 2,
                link_degraded: true,
                stranded: 0,
            },
            samples: vec![MetricSample {
                time: SimTime::from_micros(500.0),
                queue_depth: 3,
                kv_active: 7,
                devices_busy: 1,
            }],
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"goodput_rps\""), "{json}");
        assert!(json.contains("\"mean_width\": 2.000"), "{json}");
        assert!(json.contains("\"queue_depth\": 3"), "{json}");
    }

    #[test]
    fn check_catches_regressing_samples() {
        let mut report = ServeReport {
            tenants: vec![tenant_with(&[10.0])],
            devices: vec![],
            horizon: SimTime::from_millis(1),
            makespan: SimTime::from_millis(1),
            completions: record(&[10.0]),
            faults: FaultOutcome::default(),
            samples: vec![],
        };
        let sample = |us: f64| MetricSample {
            time: SimTime::from_micros(us),
            queue_depth: 0,
            kv_active: 0,
            devices_busy: 0,
        };
        report.samples = vec![sample(100.0), sample(200.0)];
        assert!(report.check().is_ok(), "{:?}", report.check());
        report.samples = vec![sample(200.0), sample(100.0)];
        let err = report.check().unwrap_err();
        assert!(err.contains("samples regress"), "{err}");
    }
}
