//! Span extraction from a finished engine run.
//!
//! [`collect_spans`] walks a canonical [`TraceEvent`] buffer (already
//! time-sorted by the engine, identically in both engines) plus the run's
//! [`RunReport`] and renders the
//! paper's cost structure as spans:
//!
//! - one [`SpanKind::Kernel`] span per kernel (first issue → last finish),
//! - one [`SpanKind::Block`] span per thread-block residency,
//! - one [`SpanKind::Spin`] span per sem-wait park (park → wake),
//! - one [`SpanKind::GateHold`] span per held launch gate,
//! - one [`SpanKind::Link`] span per `LinkSend` wire occupancy.
//!
//! Open intervals (a block still parked when a run aborted or deadlocked)
//! are clamped to the report's total time, so every span is well-formed.

use std::collections::HashMap;

use cusync_sim::{ClusterConfig, RunReport, SimTime, TraceEvent};

use crate::span::{Lane, Span, SpanKind};

/// Maps each global SM index to its owning device, mirroring the
/// simulator's flat SM numbering (device 0's SMs first, then device 1's…).
pub(crate) fn device_of_sm(cluster: &ClusterConfig) -> Vec<u32> {
    let mut map = Vec::with_capacity(cluster.total_sms() as usize);
    for (d, gpu) in cluster.devices.iter().enumerate() {
        map.extend(std::iter::repeat_n(d as u32, gpu.num_sms as usize));
    }
    map
}

/// Renders the trace of one finished run into spans, in a deterministic
/// order (kernel spans in launch order, then event-derived spans in trace
/// order).
pub fn collect_spans(
    cluster: &ClusterConfig,
    report: &RunReport,
    trace: &[TraceEvent],
) -> Vec<Span> {
    let mut spans = Vec::new();
    let horizon = report.total;
    let sm_device = device_of_sm(cluster);
    for (k, kr) in report.kernels.iter().enumerate() {
        if kr.end > kr.start || kr.blocks > 0 {
            spans.push(Span {
                name: format!("{} (k{k})", kr.name),
                kind: SpanKind::Kernel,
                lane: Lane::Device { device: kr.device },
                start: kr.start,
                end: kr.end.max(kr.start),
            });
        }
    }
    // Open-interval registries, keyed by (kernel index, block).
    let mut resident: HashMap<(usize, cusync_sim::Dim3), (SimTime, u32)> = HashMap::new();
    let mut spinning: HashMap<(usize, cusync_sim::Dim3), SimTime> = HashMap::new();
    let mut held: HashMap<usize, SimTime> = HashMap::new();
    let kernel_name = |k: usize| {
        report
            .kernels
            .get(k)
            .map(|kr| kr.name.as_str())
            .unwrap_or("?")
    };
    for event in trace {
        match event {
            TraceEvent::BlockIssued {
                kernel,
                block,
                sm,
                time,
                ..
            } => {
                resident.insert((kernel.index(), *block), (*time, *sm));
            }
            TraceEvent::BlockFinished {
                kernel,
                block,
                time,
            } => {
                if let Some((start, sm)) = resident.remove(&(kernel.index(), *block)) {
                    let device = sm_device.get(sm as usize).copied().unwrap_or(0);
                    spans.push(Span {
                        name: format!("{} {block}", kernel_name(kernel.index())),
                        kind: SpanKind::Block,
                        lane: Lane::Sm { device, sm },
                        start,
                        end: *time,
                    });
                }
            }
            TraceEvent::BlockBlocked {
                kernel,
                block,
                time,
                ..
            } => {
                spinning.insert((kernel.index(), *block), *time);
            }
            TraceEvent::BlockWoken {
                kernel,
                block,
                time,
                ..
            } => {
                if let Some(start) = spinning.remove(&(kernel.index(), *block)) {
                    let sm = resident
                        .get(&(kernel.index(), *block))
                        .map(|&(_, sm)| sm)
                        .unwrap_or(0);
                    let device = sm_device.get(sm as usize).copied().unwrap_or(0);
                    spans.push(Span {
                        name: format!("{} {block} spin", kernel_name(kernel.index())),
                        kind: SpanKind::Spin,
                        lane: Lane::Sm { device, sm },
                        start,
                        end: *time,
                    });
                }
            }
            TraceEvent::GateHeld { kernel, time } => {
                held.insert(kernel.index(), *time);
            }
            TraceEvent::GateOpened { kernel, time, .. } => {
                if let Some(start) = held.remove(&kernel.index()) {
                    let device = report
                        .kernels
                        .get(kernel.index())
                        .map(|kr| kr.device)
                        .unwrap_or(0);
                    spans.push(Span {
                        name: format!("{} gate", kernel_name(kernel.index())),
                        kind: SpanKind::GateHold,
                        lane: Lane::Device { device },
                        start,
                        end: *time,
                    });
                }
            }
            TraceEvent::LinkSent {
                kernel,
                block,
                bytes,
                wire,
                time,
            } => {
                let device = report
                    .kernels
                    .get(kernel.index())
                    .map(|kr| kr.device)
                    .unwrap_or(0);
                spans.push(Span {
                    name: format!("{} {block} send {bytes}B", kernel_name(kernel.index())),
                    kind: SpanKind::Link,
                    lane: Lane::Link { device },
                    start: *time,
                    end: *time + *wire,
                });
            }
            _ => {}
        }
    }
    // Clamp whatever never closed (aborted or deadlocked runs) to the
    // run horizon so downstream consumers always see closed intervals.
    let mut leftovers: Vec<Span> = Vec::new();
    for (&(k, block), &(start, sm)) in &resident {
        let device = sm_device.get(sm as usize).copied().unwrap_or(0);
        leftovers.push(Span {
            name: format!("{} {block} (unfinished)", kernel_name(k)),
            kind: SpanKind::Block,
            lane: Lane::Sm { device, sm },
            start,
            end: horizon.max(start),
        });
    }
    for (&(k, block), &start) in &spinning {
        let sm = resident.get(&(k, block)).map(|&(_, sm)| sm).unwrap_or(0);
        let device = sm_device.get(sm as usize).copied().unwrap_or(0);
        leftovers.push(Span {
            name: format!("{} {block} spin (unwoken)", kernel_name(k)),
            kind: SpanKind::Spin,
            lane: Lane::Sm { device, sm },
            start,
            end: horizon.max(start),
        });
    }
    for (&k, &start) in &held {
        let device = report.kernels.get(k).map(|kr| kr.device).unwrap_or(0);
        leftovers.push(Span {
            name: format!("{} gate (unopened)", kernel_name(k)),
            kind: SpanKind::GateHold,
            lane: Lane::Device { device },
            start,
            end: horizon.max(start),
        });
    }
    leftovers.sort_by(|a, b| (a.start, &a.name).cmp(&(b.start, &b.name)));
    spans.extend(leftovers);
    spans
}
