//! Serving: a minimal two-tenant inference service on a simulated
//! two-GPU node.
//!
//! Compiles each tenant's pipeline once per batch width (the
//! compile/execute split — dynamic batching never rebuilds), submits a
//! mixed open-loop + closed-loop workload against earliest-deadline-first
//! scheduling with dynamic batching, and prints the per-tenant latency
//! summary (p50/p95/p99, mean, max) and SLO accounting. Run with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::error::Error;

use cusync_serve::{
    ArrivalModel, BatchPolicy, ModelKind, RequestSched, ServeConfig, Server, TenantClass,
    TenantSpec, WorkloadSpec,
};
use cusync_sim::{ClusterConfig, SimTime};

fn main() -> Result<(), Box<dyn Error>> {
    // Two tenants share a simulated 2×V100 node: an interactive GPT-3
    // MLP tenant under open-loop Poisson traffic with a tight SLO, and a
    // batch-tolerant convolution tenant driven by eight closed-loop
    // clients.
    let spec = WorkloadSpec {
        tenants: vec![
            TenantSpec {
                name: "chat".into(),
                model: ModelKind::MlpGpt3,
                arrival: ArrivalModel::OpenPoisson { rate_rps: 2_500.0 },
                slo: SimTime::from_millis(4),
                queue_cap: 32,
                weight: 3,
                class: TenantClass::Latency,
                retry: None,
            },
            TenantSpec {
                name: "vision".into(),
                model: ModelKind::ConvStack,
                arrival: ArrivalModel::ClosedLoop {
                    clients: 8,
                    think: SimTime::from_millis(1),
                },
                slo: SimTime::from_millis(8),
                queue_cap: 16,
                weight: 1,
                class: TenantClass::Throughput,
                retry: None,
            },
        ],
        horizon: SimTime::from_millis(100),
        seed: 42,
    };

    // Warm the pool: every (tenant, width ≤ 4) pipeline is compiled and
    // priced exactly once, here — serving below never re-enters the
    // simulator's build path.
    let server = Server::new(spec, &ClusterConfig::dgx_v100(2), 4);
    for (t, model) in server.pool().models().iter().enumerate() {
        println!(
            "{model}: service time {} (solo) .. {} (batch of 4)",
            server.pool().service_time(t, 1, 0),
            server.pool().service_time(t, 4, 0),
        );
    }

    let report = server.run(&ServeConfig {
        sched: RequestSched::Edf,
        batch: BatchPolicy::new(4, SimTime::from_micros(250.0)),
        slo_admission: true,
        ..ServeConfig::baseline()
    });
    report.check().map_err(|e| format!("invariants: {e}"))?;

    println!(
        "\nserved {:.0} req/s goodput ({:.0} req/s throughput) at {:.0}% mean device utilization\n",
        report.goodput_rps(),
        report.throughput_rps(),
        report.mean_utilization() * 100.0,
    );
    for tenant in &report.tenants {
        println!(
            "{:>8}: {} offered, {} completed, {} rejected, {} shed, {} late ({:.1}%)",
            tenant.name,
            tenant.offered,
            tenant.completed,
            tenant.rejected,
            tenant.shed,
            tenant.violations,
            tenant.violation_rate() * 100.0,
        );
        println!(
            "          p50 {} | p95 {} | p99 {} | mean {} | max {} | peak queue {}",
            tenant.latency.p50,
            tenant.latency.p95,
            tenant.latency.p99,
            tenant.latency.mean,
            tenant.latency.max,
            tenant.max_queue_depth,
        );
    }
    Ok(())
}
