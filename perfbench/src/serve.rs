//! The `serve` workload: long-horizon `Server::run` replays over every
//! request scheduler × {no batching, dynamic batching, dynamic batching
//! with SLO-aware admission} at a saturating load, on a warmed
//! `ServicePool` of a two-GPU node.
//!
//! Why: dispatch does almost all of the work and the engine runs only
//! while the pool is built (in `setup_s`), so this is the workload on
//! which an engine change should leave `pass_s` unchanged. The tenants are
//! the `serve_smoke` mix (MLP, Conv, Attention and Stream-K; open and
//! closed virtual arrival loops) plus a continuous-batching decode tenant
//! whose paged `KvPool` runs full. Arrivals come from the seed.

use cusync_serve::{
    ArrivalModel, BatchPolicy, DecodePolicy, ModelKind, RequestSched, ServeConfig, ServeReport,
    Server, ServicePool, TenantClass, TenantSpec, WorkloadSpec,
};
use cusync_sim::{fnv1a, ClusterConfig, SimTime};

use crate::probe::Probe;
use crate::{parse_expected, Bench, Workload};

/// The seed whose reports are recorded in `expected/serve.txt`.
const RECORDED_SEED: u64 = 1;
/// `config digest` of every report at [`RECORDED_SEED`].
const EXPECTED: &str = include_str!("../expected/serve.txt");
const DEVICES: u32 = 2;
const MAX_BATCH: u32 = 8;
/// Offered load as a multiple of each tenant's fair share of the
/// unbatched pool: saturating.
const LOAD: f64 = 3.0;
/// Virtual horizon of one `Server::run`.
const HORIZON: SimTime = SimTime::from_millis(12_000);
const DECODE_MAX_NEW: u32 = 96;
/// Continuous batching over 16-token KV blocks from 2% of each device's
/// DRAM: at 1 MiB per token the pool fills, so sequences are preempted
/// and recomputed.
const DECODE: (bool, u32, u32) = (true, 16, 20);

/// `(model, closed loop, weight)` per tenant.
fn tenant_mix() -> [(ModelKind, bool, u32); 5] {
    [
        (ModelKind::MlpGpt3, false, 3),
        (ModelKind::ConvStack, true, 2),
        (ModelKind::Attention { hidden: 8192 }, false, 1),
        (ModelKind::StreamKGemm, false, 1),
        (
            ModelKind::DecodeLlm {
                prompt: 16,
                max_new: DECODE_MAX_NEW,
                step_cycles: 40_000,
                ctx_cycles: 400,
                kv_bytes_per_token: 1 << 20,
            },
            false,
            1,
        ),
    ]
}

/// The workload at `LOAD`, calibrated from each tenant's measured
/// width-1 service time `solo` (a typical-length request for the decode
/// tenant), as `serve_smoke` does.
fn spec(solo: &[SimTime], seed: u64) -> WorkloadSpec {
    let mix = tenant_mix();
    let tenants = mix
        .iter()
        .zip(solo)
        .map(|(&(model, closed, weight), &t1)| {
            let rate = LOAD * f64::from(DEVICES) / (mix.len() as f64 * t1.as_secs_f64());
            let arrival = if closed {
                let think = SimTime::from_picos(4 * t1.as_picos());
                let per_client = 1.0 / (think.as_secs_f64() + t1.as_secs_f64());
                ArrivalModel::ClosedLoop {
                    clients: ((rate / per_client).round() as u32).max(1),
                    think,
                }
            } else {
                ArrivalModel::OpenPoisson { rate_rps: rate }
            };
            TenantSpec {
                name: format!("{model}"),
                model,
                arrival,
                slo: SimTime::from_picos(16 * t1.as_picos()),
                queue_cap: 32,
                weight,
                class: TenantClass::Throughput,
                retry: None,
            }
        })
        .collect();
    WorkloadSpec {
        tenants,
        horizon: HORIZON,
        seed,
    }
}

/// The `serve_smoke` cells: every scheduler × {no batching, dynamic
/// batching, dynamic batching with SLO-aware admission}.
fn configs(window: SimTime) -> Vec<(String, ServeConfig)> {
    let mut out = Vec::new();
    for sched in RequestSched::ALL {
        for (name, batch, slo_admission) in [
            ("nobatch", BatchPolicy::off(), false),
            ("batch", BatchPolicy::new(MAX_BATCH, window), false),
            ("batch-admit", BatchPolicy::new(MAX_BATCH, window), true),
        ] {
            let config = ServeConfig {
                sched,
                batch,
                slo_admission,
                decode: DecodePolicy::new(DECODE.0, DECODE.1, DECODE.2),
                ..ServeConfig::baseline()
            };
            out.push((format!("{}-{name}", sched.name()), config));
        }
    }
    out
}

pub struct Serve {
    seed: u64,
    server: Server,
    /// `(name, config, report of the warm-up run)`.
    runs: Vec<(String, ServeConfig, ServeReport)>,
}

impl Workload for Serve {
    const TAIL_PERCENTILE: f64 = 90.0;

    fn setup(seed: u64, probe: &Probe) -> Self {
        let cluster = ClusterConfig::dgx_v100(DEVICES);
        let placeholder = vec![SimTime::from_micros(100.0); tenant_mix().len()];
        let tenants = spec(&placeholder, seed).tenants;
        let pool = probe.span("serve.pool_build", || {
            ServicePool::build(&cluster, &tenants, MAX_BATCH)
        });
        probe.count("serve.pool_pipelines", pool.num_pipelines() as u64);
        let decode = tenant_mix().len() - 1;
        let solo: Vec<SimTime> = (0..tenant_mix().len())
            .map(|t| match t == decode {
                true => pool.static_decode_service(t, 1, DECODE_MAX_NEW / 2, 0),
                false => pool.service_time(t, 1, 0),
            })
            .collect();
        let window = SimTime::from_picos(2 * solo[0].as_picos());
        let server = Server::with_pool(spec(&solo, seed), pool);
        // The warm-up run of each configuration fills the pool's lazily
        // measured decode-step table; its report is what every pass must
        // reproduce.
        let runs = configs(window)
            .into_iter()
            .map(|(name, config)| {
                let report = server.run(&config);
                (name, config, report)
            })
            .collect();
        Serve { seed, server, runs }
    }

    fn pass(&mut self, bench: &mut Bench) {
        let probe = bench.probe;
        for (name, config, first) in &self.runs {
            let server = &self.server;
            bench.unit(name, || {
                let report = probe.span("serve.run", || server.run(config));
                probe.count(
                    "serve.requests",
                    report.tenants.iter().map(|t| t.offered).sum(),
                );
                probe.count(
                    "serve.batches",
                    report.devices.iter().map(|d| d.batches).sum(),
                );
                let tokens = report.tenants.iter().map(|t| t.tokens_generated).sum();
                probe.count("serve.tokens_generated", tokens);
                let preemptions = report.tenants.iter().map(|t| t.decode_preemptions).sum();
                probe.count("serve.decode_preemptions", preemptions);
                report.check()?;
                if report != *first {
                    return Err("report differs from the warm-up run".to_owned());
                }
                Ok(())
            });
        }
    }

    fn verify(&mut self, bench: &mut Bench) {
        if self.seed != RECORDED_SEED {
            return;
        }
        let recorded = parse_expected(EXPECTED);
        for (name, _, report) in &self.runs {
            bench.check(&format!("{name} recorded digest"), || {
                let got = fnv1a(report.to_json().as_bytes());
                match recorded.get(name).map(|f| f[0].parse::<u64>()) {
                    Some(Ok(want)) if want == got => Ok(()),
                    _ => Err(format!(
                        "digest does not match the recording; got\n{name} {got}"
                    )),
                }
            });
        }
    }
}
