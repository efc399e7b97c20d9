//! Chaos: the same two-tenant service, healthy and under fire.
//!
//! Builds an interactive (latency-class) tenant and a bulk
//! (throughput-class) tenant on a simulated two-GPU node, then runs the
//! identical seeded workload twice: once fault-free, once with device 1
//! dropping out halfway through the horizon. Prints before/after goodput
//! and SLO-violation rates, and shows that every request the dead device
//! was holding is re-routed (typed in the report), never silently lost.
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos
//! ```
//!
//! The device-loss run is traced: it writes `trace_chaos.json` to the
//! current directory, the request-lifecycle Chrome trace (evacuated
//! batches show up as `preempted` phases). Open it in `chrome://tracing`
//! or <https://ui.perfetto.dev>.

use std::error::Error;

use cusync_obs::{chrome_trace_json, validate_chrome_trace};
use cusync_serve::{
    ArrivalModel, BatchPolicy, DeviceDrop, FaultPlan, ModelKind, PreemptPolicy, RequestSched,
    ServeConfig, Server, TenantClass, TenantSpec, WorkloadSpec,
};
use cusync_sim::{ClusterConfig, SimTime};

fn main() -> Result<(), Box<dyn Error>> {
    let horizon = SimTime::from_millis(60);
    let spec = WorkloadSpec {
        tenants: vec![
            TenantSpec {
                name: "interactive".into(),
                model: ModelKind::Toy {
                    blocks: 2,
                    compute_cycles: 100_000,
                },
                arrival: ArrivalModel::OpenPoisson { rate_rps: 4_000.0 },
                slo: SimTime::from_millis(1),
                queue_cap: 64,
                weight: 3,
                class: TenantClass::Latency,
                retry: None,
            },
            TenantSpec {
                name: "bulk".into(),
                model: ModelKind::Toy {
                    blocks: 4,
                    compute_cycles: 400_000,
                },
                arrival: ArrivalModel::ClosedLoop {
                    clients: 6,
                    think: SimTime::from_micros(200.0),
                },
                slo: SimTime::from_millis(20),
                queue_cap: 32,
                weight: 1,
                class: TenantClass::Throughput,
                retry: None,
            },
        ],
        horizon,
        seed: 0xC405,
    };
    let server = Server::new(spec, &ClusterConfig::dgx_v100(2), 4);
    let config = ServeConfig {
        sched: RequestSched::Edf,
        batch: BatchPolicy::new(4, SimTime::from_micros(120.0)),
        preempt: Some(PreemptPolicy::new(SimTime::from_micros(20.0))),
        ..ServeConfig::baseline()
    };

    // Fault-free baseline, then the same workload with device 1 dying at
    // mid-horizon, traced. Same seed: every arrival instant is identical,
    // so the delta is purely the fault.
    let healthy = server.run_with_faults(&config, &FaultPlan::none());
    let plan = FaultPlan {
        drops: vec![DeviceDrop {
            device: 1,
            at: SimTime::from_picos(horizon.as_picos() / 2),
        }],
        ..FaultPlan::none()
    };
    let (faulted, spans) = server.run_traced_with_faults(&config, &plan);
    for (name, report) in [("healthy", &healthy), ("device-loss", &faulted)] {
        report.check().map_err(|e| format!("{name}: {e}"))?;
    }

    println!("scenario        goodput      violation-rate   rerouted  stranded");
    for (name, report) in [("healthy", &healthy), ("device-loss", &faulted)] {
        let viol: u64 = report.tenants.iter().map(|t| t.violations).sum();
        let done: u64 = report.tenants.iter().map(|t| t.completed).sum();
        let rerouted: u64 = report.tenants.iter().map(|t| t.rerouted).sum();
        println!(
            "{name:<14} {:>8.0} rps   {:>8.2}%        {rerouted:>5}     {:>5}",
            report.goodput_rps(),
            100.0 * viol as f64 / done.max(1) as f64,
            report.faults.stranded,
        );
    }
    println!();
    for (t, tenant) in faulted.tenants.iter().enumerate() {
        println!(
            "{:>12} under device-loss: {} completed ({} healthy), p99 {} ({} healthy), {} preemptions",
            tenant.name,
            tenant.completed,
            healthy.tenants[t].completed,
            tenant.latency.p99,
            healthy.tenants[t].latency.p99,
            tenant.preemptions,
        );
    }

    // The surviving device absorbed the dead device's in-flight batch:
    // nothing stranded, nothing silently dropped.
    assert_eq!(faulted.faults.devices_lost, 1);
    assert_eq!(faulted.faults.stranded, 0, "a survivor absorbs the queue");
    let rerouted: u64 = faulted.tenants.iter().map(|t| t.rerouted).sum();
    println!(
        "\ndevice 1 died at {}; {} in-flight requests re-routed to device 0, 0 stranded",
        SimTime::from_picos(horizon.as_picos() / 2),
        rerouted,
    );

    // Request-lifecycle Chrome trace of the device-loss run (validated
    // before writing).
    let chrome = chrome_trace_json(&spans);
    let stats = validate_chrome_trace(&chrome)?;
    std::fs::write("trace_chaos.json", &chrome)?;
    println!(
        "wrote trace_chaos.json ({} spans on {} lanes)",
        stats.spans, stats.lanes
    );
    Ok(())
}
