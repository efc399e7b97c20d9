//! Critical-path extraction and slot-picosecond attribution.
//!
//! Attribution buckets every *slot-picosecond* — one SM capacity unit
//! occupied for one picosecond — of a finished run into
//! `{compute, spin, link, idle}` per device and per kernel, plus a
//! `gate-hold` overlay (time a launch-gated kernel sat at its stream head
//! waiting, weighted by the SM demand it was denied). The exact-partition
//! invariant, pinned by proptests:
//!
//! ```text
//! compute + spin + link            == busy            (per device)
//! busy + idle                      == capacity × makespan
//! ```
//!
//! The *sync-wait share* — `(spin + gate_hold) / (capacity × makespan)` —
//! is the quantity the paper's Figure 6 argument is about: fine-grained
//! per-tile sync converts long gate holds (stream serialization) into
//! short overlapped spins, shrinking the share. `tests/bench_golden.rs`
//! asserts that direction on the figure grid of `BENCH_PR10.json`.

use std::collections::HashMap;

use cusync_sim::{ClusterConfig, KernelId, RunReport, SimTime, TraceEvent, SM_CAPACITY_UNITS};

/// Slot-picosecond buckets of one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceAttribution {
    /// Device index within the cluster.
    pub device: u32,
    /// Total capacity over the run: `SM_CAPACITY_UNITS × SMs × makespan`.
    pub capacity_slot_ps: u128,
    /// Residency doing useful work (busy minus spin minus link).
    pub compute_slot_ps: u128,
    /// Residency spent spinning on unmet semaphore waits.
    pub spin_slot_ps: u128,
    /// Residency spent inside `LinkSend` wire time.
    pub link_slot_ps: u128,
    /// Capacity never occupied: `capacity − busy`.
    pub idle_slot_ps: u128,
    /// Overlay (not part of the partition): launch-gate hold time weighted
    /// by the held kernel's SM demand, capped at device capacity.
    pub gate_hold_slot_ps: u128,
}

impl DeviceAttribution {
    /// Total occupied residency: `compute + spin + link`.
    pub fn busy_slot_ps(&self) -> u128 {
        self.compute_slot_ps + self.spin_slot_ps + self.link_slot_ps
    }
}

/// Slot-picosecond buckets of one kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelAttribution {
    /// Kernel launch index.
    pub kernel: usize,
    /// Kernel name (from the run report).
    pub name: String,
    /// Total block residency of the kernel.
    pub busy_slot_ps: u128,
    /// Residency spent spinning on unmet semaphore waits.
    pub spin_slot_ps: u128,
    /// Residency spent inside `LinkSend` wire time.
    pub link_slot_ps: u128,
    /// Launch-gate hold duration (plain picoseconds, unweighted).
    pub gate_hold_ps: u128,
}

/// Sync cost attributed to one dependence edge `from → to`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeAttribution {
    /// Producer kernel index.
    pub from: usize,
    /// Consumer kernel index.
    pub to: usize,
    /// Spin residency of `to` blocks whose wake was satisfied by a post
    /// from `from`.
    pub spin_slot_ps: u128,
    /// Gate-hold duration of `to` whose final gate was opened by `from`.
    pub gate_hold_ps: u128,
}

/// How one hop of the critical path was reached from its successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopVia {
    /// First hop (the kernel that finishes last).
    Terminal,
    /// The successor's last sem-wait wake was satisfied by this kernel.
    SemPost,
    /// The successor's final launch gate was opened by this kernel.
    Gate,
    /// No sync edge: this kernel's completion most recently preceded the
    /// successor's start (stream order / SM availability).
    Resource,
}

/// One kernel segment of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Kernel index.
    pub kernel: usize,
    /// Kernel name.
    pub name: String,
    /// Start of the segment charged to this kernel (clamped).
    pub seg_start: SimTime,
    /// End of the segment charged to this kernel (clamped).
    pub seg_end: SimTime,
    /// Why this hop is on the path.
    pub via: HopVia,
}

/// The longest dependency chain, built by a backward frontier walk.
///
/// Each hop is charged `min(end, frontier) − start` and moves the
/// frontier to its own (clamped) start, so the charged segments are
/// pairwise disjoint sub-intervals of `[0, makespan]` — the path length
/// is `≤ makespan` *by construction*, not by measurement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Sum of charged segments.
    pub length: SimTime,
    /// Hops from the terminal kernel back toward the root.
    pub hops: Vec<CriticalHop>,
}

/// Full attribution of one finished run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// The run's horizon (`RunReport::total`).
    pub makespan: SimTime,
    /// Per-device buckets, indexed by device.
    pub devices: Vec<DeviceAttribution>,
    /// Per-kernel buckets, in launch order.
    pub kernels: Vec<KernelAttribution>,
    /// Per-dependence-edge sync cost, sorted by `(from, to)`.
    pub edges: Vec<EdgeAttribution>,
    /// The longest dependency chain.
    pub critical_path: CriticalPath,
    /// `false` when an interval had to be clamped inconsistently (only
    /// possible on aborted runs); the partition invariants hold exactly
    /// when `true`.
    pub exact: bool,
}

impl Attribution {
    /// Analyzes one finished run: `trace` must be the canonical trace of
    /// the run `report` describes ([`Session::trace`](cusync_sim::Session)
    /// with tracing enabled).
    pub fn analyze(cluster: &ClusterConfig, report: &RunReport, trace: &[TraceEvent]) -> Self {
        let makespan = report.total;
        let ndev = cluster.devices.len();
        let mut exact = true;
        let mut devices: Vec<DeviceAttribution> = (0..ndev)
            .map(|d| DeviceAttribution {
                device: d as u32,
                capacity_slot_ps: (SM_CAPACITY_UNITS as u128)
                    * (cluster.devices[d].num_sms as u128)
                    * (makespan.as_picos() as u128),
                ..DeviceAttribution::default()
            })
            .collect();
        let mut kernels: Vec<KernelAttribution> = report
            .kernels
            .iter()
            .enumerate()
            .map(|(k, kr)| KernelAttribution {
                kernel: k,
                name: kr.name.clone(),
                ..KernelAttribution::default()
            })
            .collect();
        let kdev = |k: usize| report.kernels.get(k).map(|kr| kr.device).unwrap_or(0) as usize;

        // Pass 1: interval matching over the canonical (time-sorted) trace.
        let mut busy_dev = vec![0u128; ndev];
        let mut resident: HashMap<(usize, cusync_sim::Dim3), (SimTime, u32)> = HashMap::new();
        let mut spinning: HashMap<(usize, cusync_sim::Dim3), SimTime> = HashMap::new();
        let mut held: HashMap<usize, SimTime> = HashMap::new();
        let mut block_units: Vec<u32> = vec![0; kernels.len()];
        // Latest visible poster per semaphore slot — the producer a wake
        // is attributed to.
        let mut last_poster: HashMap<(cusync_sim::SemArrayId, u32), KernelId> = HashMap::new();
        // Edge accumulators and critical-path inputs.
        let mut edge_map: HashMap<(usize, usize), EdgeAttribution> = HashMap::new();
        let mut last_wake_from: HashMap<usize, usize> = HashMap::new();
        let mut gate_opened_by: HashMap<usize, usize> = HashMap::new();
        let charge_spin = |k: usize,
                           units: u32,
                           start: SimTime,
                           end: SimTime,
                           devices: &mut [DeviceAttribution],
                           kernels: &mut [KernelAttribution]| {
            let d = kdev(k);
            let slot = (units as u128) * (end.saturating_sub(start).as_picos() as u128);
            devices[d].spin_slot_ps += slot;
            kernels[k].spin_slot_ps += slot;
            slot
        };
        for event in trace {
            match event {
                TraceEvent::BlockIssued {
                    kernel,
                    block,
                    units,
                    time,
                    ..
                } => {
                    block_units[kernel.index()] = *units;
                    resident.insert((kernel.index(), *block), (*time, *units));
                }
                TraceEvent::BlockFinished {
                    kernel,
                    block,
                    time,
                } => {
                    let k = kernel.index();
                    if let Some((start, units)) = resident.remove(&(k, *block)) {
                        let slot =
                            (units as u128) * (time.saturating_sub(start).as_picos() as u128);
                        busy_dev[kdev(k)] += slot;
                        kernels[k].busy_slot_ps += slot;
                    } else {
                        exact = false;
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
                    table,
                    index,
                    time,
                } => {
                    let k = kernel.index();
                    if let Some(start) = spinning.remove(&(k, *block)) {
                        let units =
                            resident
                                .get(&(k, *block))
                                .map(|&(_, u)| u)
                                .unwrap_or_else(|| {
                                    exact = false;
                                    0
                                });
                        let slot = charge_spin(k, units, start, *time, &mut devices, &mut kernels);
                        if let Some(&poster) = last_poster.get(&(*table, *index)) {
                            if poster.index() != k {
                                let e = edge_map.entry((poster.index(), k)).or_insert_with(|| {
                                    EdgeAttribution {
                                        from: poster.index(),
                                        to: k,
                                        ..EdgeAttribution::default()
                                    }
                                });
                                e.spin_slot_ps += slot;
                                last_wake_from.insert(k, poster.index());
                            }
                        }
                    } else {
                        exact = false;
                    }
                }
                TraceEvent::SemPosted {
                    table,
                    index,
                    poster: Some(p),
                    ..
                } => {
                    last_poster.insert((*table, *index), *p);
                }
                TraceEvent::GateHeld { kernel, time } => {
                    held.insert(kernel.index(), *time);
                }
                TraceEvent::GateOpened { kernel, by, time } => {
                    let k = kernel.index();
                    gate_opened_by.insert(k, by.index());
                    if let Some(start) = held.remove(&k) {
                        let hold = time.saturating_sub(start).as_picos() as u128;
                        kernels[k].gate_hold_ps += hold;
                        let e =
                            edge_map
                                .entry((by.index(), k))
                                .or_insert_with(|| EdgeAttribution {
                                    from: by.index(),
                                    to: k,
                                    ..EdgeAttribution::default()
                                });
                        e.gate_hold_ps += hold;
                    }
                }
                TraceEvent::LinkSent {
                    kernel,
                    block,
                    wire,
                    ..
                } => {
                    let k = kernel.index();
                    let units = resident
                        .get(&(k, *block))
                        .map(|&(_, u)| u)
                        .unwrap_or(block_units[k]);
                    let slot = (units as u128) * (wire.as_picos() as u128);
                    devices[kdev(k)].link_slot_ps += slot;
                    kernels[k].link_slot_ps += slot;
                }
                _ => {}
            }
        }
        // Clamp open intervals (aborted/deadlocked runs) to the horizon.
        for (&(k, _block), &(start, units)) in &resident {
            let end = makespan.max(start);
            let slot = (units as u128) * (end.saturating_sub(start).as_picos() as u128);
            busy_dev[kdev(k)] += slot;
            kernels[k].busy_slot_ps += slot;
        }
        let still_spinning: Vec<(usize, cusync_sim::Dim3, SimTime)> =
            spinning.iter().map(|(&(k, b), &t)| (k, b, t)).collect();
        for (k, block, start) in still_spinning {
            let units = resident
                .get(&(k, block))
                .map(|&(_, u)| u)
                .unwrap_or_else(|| {
                    exact = false;
                    0
                });
            charge_spin(
                k,
                units,
                start,
                makespan.max(start),
                &mut devices,
                &mut kernels,
            );
        }
        for (&k, &start) in &held {
            kernels[k].gate_hold_ps += makespan.max(start).saturating_sub(start).as_picos() as u128;
        }

        // Pass 2: close the partition. compute = busy − spin − link;
        // idle = capacity − busy. Both subtractions are honest — a clamp
        // that broke containment surfaces as `exact: false`, never as a
        // silently wrong bucket.
        for (d, dev) in devices.iter_mut().enumerate() {
            let overlap = dev.spin_slot_ps + dev.link_slot_ps;
            dev.compute_slot_ps = match busy_dev[d].checked_sub(overlap) {
                Some(c) => c,
                None => {
                    exact = false;
                    0
                }
            };
            dev.idle_slot_ps = match dev.capacity_slot_ps.checked_sub(busy_dev[d]) {
                Some(i) => i,
                None => {
                    exact = false;
                    0
                }
            };
        }
        // Gate-hold overlay, demand-weighted: a held kernel was denied
        // min(its whole-grid demand, device capacity) units for the hold.
        for (k, ka) in kernels.iter().enumerate() {
            if ka.gate_hold_ps == 0 {
                continue;
            }
            let d = kdev(k);
            let per_block = if block_units[k] > 0 {
                block_units[k]
            } else {
                let occ = report.kernels[k].occupancy.max(1);
                cluster.devices[d].units_per_block(occ)
            };
            let demand = (per_block as u128) * (report.kernels[k].blocks as u128);
            let cap = (SM_CAPACITY_UNITS as u128) * (cluster.devices[d].num_sms as u128);
            devices[d].gate_hold_slot_ps += ka.gate_hold_ps * demand.min(cap);
        }

        let mut edges: Vec<EdgeAttribution> = edge_map.into_values().collect();
        edges.sort_by_key(|e| (e.from, e.to));
        let critical_path = critical_path(report, &last_wake_from, &gate_opened_by);
        Attribution {
            makespan,
            devices,
            kernels,
            edges,
            critical_path,
            exact,
        }
    }

    /// `(spin + gate_hold) / (capacity × makespan)` summed over devices —
    /// the fraction of the machine's total capacity spent *waiting* on
    /// dependence edges. 0.0 for an empty run.
    pub fn sync_wait_share(&self) -> f64 {
        let capacity: u128 = self.devices.iter().map(|d| d.capacity_slot_ps).sum();
        if capacity == 0 {
            return 0.0;
        }
        let sync: u128 = self
            .devices
            .iter()
            .map(|d| d.spin_slot_ps + d.gate_hold_slot_ps)
            .sum();
        sync as f64 / capacity as f64
    }
}

/// Backward frontier walk (see [`CriticalPath`]). `last_wake_from` and
/// `gate_opened_by` map each consumer kernel to the producer that satisfied
/// its last spin wake / opened its final gate.
fn critical_path(
    report: &RunReport,
    last_wake_from: &HashMap<usize, usize>,
    gate_opened_by: &HashMap<usize, usize>,
) -> CriticalPath {
    let Some(mut current) = report
        .kernels
        .iter()
        .enumerate()
        .filter(|(_, kr)| kr.blocks > 0 || kr.end > kr.start)
        .max_by_key(|(k, kr)| (kr.end, std::cmp::Reverse(*k)))
        .map(|(k, _)| k)
    else {
        return CriticalPath::default();
    };
    let mut frontier = report.total;
    let mut length = SimTime::ZERO;
    let mut hops = Vec::new();
    let mut via = HopVia::Terminal;
    let budget = report.kernels.len() + 1;
    while hops.len() < budget {
        let kr = &report.kernels[current];
        let seg_end = kr.end.min(frontier);
        let seg_start = kr.start.min(seg_end);
        length += seg_end.saturating_sub(seg_start);
        hops.push(CriticalHop {
            kernel: current,
            name: kr.name.clone(),
            seg_start,
            seg_end,
            via,
        });
        if seg_start == SimTime::ZERO {
            break;
        }
        frontier = seg_start;
        let next = if let Some(&p) = last_wake_from.get(&current) {
            Some((p, HopVia::SemPost))
        } else if let Some(&p) = gate_opened_by.get(&current) {
            Some((p, HopVia::Gate))
        } else {
            // Resource hop: the kernel (other than this one) whose end
            // most recently preceded our start.
            report
                .kernels
                .iter()
                .enumerate()
                .filter(|&(k, o)| k != current && o.end <= kr.start && o.blocks > 0)
                .max_by_key(|(k, o)| (o.end, std::cmp::Reverse(*k)))
                .map(|(k, _)| (k, HopVia::Resource))
        };
        let Some((p, v)) = next else { break };
        // Frontier must strictly move: a predecessor starting at or after
        // the frontier contributes nothing and could cycle.
        if report.kernels[p].start >= frontier || p == current {
            break;
        }
        current = p;
        via = v;
    }
    CriticalPath { length, hops }
}
