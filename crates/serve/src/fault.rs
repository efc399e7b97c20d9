//! Deterministic failure injection for the serving layer.
//!
//! A [`FaultPlan`] schedules hardware misbehaviour at fixed virtual-time
//! instants: device dropout (the device vanishes mid-horizon and its
//! in-flight requests are re-routed across the survivors), worker panics
//! (the in-flight batch is lost and re-executed from scratch on a device
//! that keeps serving), and link degradation
//! (subsequent batches are priced with `LinkSend` wire time scaled by a
//! [`LinkScale`]). Because the plan is plain data and every injection
//! lands at a fixed instant, a faulted serve run is exactly as
//! deterministic as a fault-free one: same seed, same plan, bit-identical
//! [`ServeReport`](crate::ServeReport).

use cusync_sim::{splitmix64, LinkScale, SimTime};

/// A device permanently leaving the cluster at a fixed instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDrop {
    /// Device index within the cluster.
    pub device: usize,
    /// Virtual instant of the dropout.
    pub at: SimTime,
}

/// A worker panic at a fixed instant: the batch running on `device` (if
/// any) is aborted, its partial work wasted, and its requests requeued
/// for re-execution. The device itself survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// Device index within the cluster.
    pub device: usize,
    /// Virtual instant of the panic.
    pub at: SimTime,
}

/// Interconnect degradation: from `at` onward, every newly dispatched
/// batch is priced with `LinkSend` wire time scaled by `scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDegrade {
    /// Virtual instant the degradation begins.
    pub at: SimTime,
    /// Wire-time multiplier (e.g. `LinkScale::times(8)`).
    pub scale: LinkScale,
}

/// A deterministic, seed-keyed schedule of injected faults.
///
/// The empty plan ([`FaultPlan::none`]) reproduces the fault-free
/// behaviour of `Server::run` exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Permanent device dropouts.
    pub drops: Vec<DeviceDrop>,
    /// Transient worker panics.
    pub panics: Vec<PanicInjection>,
    /// At most one link-degradation onset.
    pub link: Option<LinkDegrade>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_none(&self) -> bool {
        self.drops.is_empty() && self.panics.is_empty() && self.link.is_none()
    }

    /// A seed-keyed chaos schedule for a cluster of `devices` devices
    /// over `horizon`: possibly one device drop in the middle 40% of the
    /// horizon (never the whole cluster when more than one device
    /// exists), zero to two worker panics, and possibly a 2–9× link
    /// degradation. Pure in `(seed, devices, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn chaos(seed: u64, devices: usize, horizon: SimTime) -> Self {
        assert!(devices > 0, "chaos plan needs at least one device");
        let mut k = splitmix64(seed ^ 0xFA17_FA17);
        let mut draw = move || {
            k = splitmix64(k);
            k
        };
        let at = |frac_lo: u64, frac_span: u64, d: u64| {
            // An instant in [lo%, lo%+span%) of the horizon.
            SimTime::from_picos(horizon.as_picos() / 100 * (frac_lo + d % frac_span.max(1)))
        };
        let mut plan = FaultPlan::none();
        if draw() % 2 == 0 {
            let device = if devices > 1 {
                (draw() % (devices as u64 - 1) + 1) as usize
            } else {
                0
            };
            plan.drops.push(DeviceDrop {
                device,
                at: at(30, 40, draw()),
            });
        }
        for _ in 0..draw() % 3 {
            plan.panics.push(PanicInjection {
                device: (draw() % devices as u64) as usize,
                at: at(10, 80, draw()),
            });
        }
        if draw() % 2 == 0 {
            plan.link = Some(LinkDegrade {
                at: at(20, 40, draw()),
                scale: LinkScale::times((draw() % 8 + 2) as u32),
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(
            !FaultPlan::chaos(0, 4, SimTime::from_millis(1)).is_none() || {
                // Some seeds legitimately draw an empty plan; at least one
                // nearby seed must not.
                !FaultPlan::chaos(1, 4, SimTime::from_millis(1)).is_none()
                    || !FaultPlan::chaos(2, 4, SimTime::from_millis(1)).is_none()
            }
        );
    }

    #[test]
    fn chaos_is_seed_deterministic_and_in_range() {
        let horizon = SimTime::from_millis(2);
        for seed in 0..64 {
            let a = FaultPlan::chaos(seed, 3, horizon);
            assert_eq!(a, FaultPlan::chaos(seed, 3, horizon));
            for d in &a.drops {
                assert!(d.device < 3);
                assert!(d.device != 0, "multi-device chaos never drops device 0");
                assert!(d.at <= horizon);
            }
            for p in &a.panics {
                assert!(p.device < 3);
                assert!(p.at <= horizon);
            }
            if let Some(l) = a.link {
                assert!(l.at <= horizon);
                let wire = SimTime::from_picos(1_000);
                assert!(l.scale.apply(wire) >= SimTime::from_picos(2_000));
            }
        }
    }
}
