//! Build errors, deadlock reports and the link degradation scale.

use std::fmt;

use super::Exec;
use crate::config::{ConfigError, SM_CAPACITY_UNITS};
use crate::dim::Dim3;
use crate::sem::SemArrayId;
use crate::time::SimTime;
use crate::trace::KernelId;

/// What kind of input a kernel or pipeline builder rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuildErrorKind {
    /// A required input (operand buffer, stage) was never provided.
    MissingInput,
    /// A provided shape is degenerate: a zero-sized problem dimension or
    /// thread-block tile, which would launch an empty or undefined grid.
    InvalidShape,
}

/// Error from a kernel or pipeline builder: a required input was never
/// provided — or a provided shape was degenerate — before `build()` was
/// called.
///
/// Builders used to `panic!` on missing operands (and aborted deep in
/// `Gpu::launch` on empty grids); they now return this typed error so
/// library callers (model assemblers, autotuners) can surface the problem
/// instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    /// Which builder rejected the build (e.g. `"GemmBuilder(gemm1)"`).
    pub builder: String,
    /// The offending input: the required input that was not set (e.g.
    /// `"A operand"`), or a description of the degenerate shape.
    pub missing: String,
    /// How the input was rejected.
    pub kind: BuildErrorKind,
}

impl BuildError {
    /// A "required input not set" error.
    pub fn missing(builder: impl Into<String>, missing: impl Into<String>) -> Self {
        BuildError {
            builder: builder.into(),
            missing: missing.into(),
            kind: BuildErrorKind::MissingInput,
        }
    }

    /// A "degenerate shape" error.
    pub fn invalid(builder: impl Into<String>, what: impl Into<String>) -> Self {
        BuildError {
            builder: builder.into(),
            missing: what.into(),
            kind: BuildErrorKind::InvalidShape,
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BuildErrorKind::MissingInput => write!(
                f,
                "{}: required input not set: {}",
                self.builder, self.missing
            ),
            BuildErrorKind::InvalidShape => {
                write!(f, "{}: invalid shape: {}", self.builder, self.missing)
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// One thread block stalled on an unmet semaphore at deadlock time: a
/// node of the wait cycle a [`DeadlockReport`] describes.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedBlock {
    /// Kernel the block belongs to.
    pub kernel: KernelId,
    /// Name of that kernel.
    pub kernel_name: String,
    /// Block index within the kernel grid.
    pub block: Dim3,
    /// SM whose slot the spinning block occupies.
    pub sm: u32,
    /// Device that SM belongs to.
    pub device: u32,
    /// Semaphore array being polled.
    pub sem: SemArrayId,
    /// Name of that array.
    pub sem_name: String,
    /// Index polled within the array.
    pub index: u32,
    /// Value the block is waiting for the semaphore to reach.
    pub target: u32,
    /// Value the semaphore actually held when progress stopped.
    pub current: u32,
}

impl fmt::Display for BlockedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} block {} waits {}[{}] >= {} (currently {})",
            self.kernel_name, self.block, self.sem_name, self.index, self.target, self.current,
        )
    }
}

/// An unfinished kernel at deadlock time, with its launch progress — the
/// *resident vs. unlaunched* split that closes the wait cycle (unlaunched
/// blocks are the ones that would have posted the spun-on semaphores).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingKernel {
    /// The kernel.
    pub kernel: KernelId,
    /// Its name.
    pub name: String,
    /// Device its blocks occupy SMs on.
    pub device: u32,
    /// Total thread blocks of the grid.
    pub total: u64,
    /// Blocks that were issued onto an SM.
    pub issued: u64,
    /// Blocks that ran to completion.
    pub completed: u64,
}

impl PendingKernel {
    /// Blocks that never reached an SM — the starved half of the cycle.
    pub fn unissued(&self) -> u64 {
        self.total - self.issued
    }
}

impl fmt::Display for PendingKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} blocks issued ({} unlaunched, {} completed) on device {}",
            self.name,
            self.issued,
            self.total,
            self.unissued(),
            self.completed,
            self.device,
        )
    }
}

/// Occupancy of one SM at deadlock time. At a true occupancy deadlock
/// every resident unit is a spinner: `active_units` (units still making
/// progress) is zero while `spinning_units` holds the busy-waiters that
/// keep the slot hostage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmOccupancy {
    /// Global SM index.
    pub sm: u32,
    /// Owning device.
    pub device: u32,
    /// Capacity units still free (out of [`SM_CAPACITY_UNITS`]).
    pub free_units: u32,
    /// Units of resident blocks that were actively executing.
    pub active_units: u32,
    /// Units of resident blocks parked busy-waiting on semaphores.
    pub spinning_units: u32,
}

/// Structured description of a detected deadlock: the wait cycle of
/// Section III-B, as data.
///
/// The cycle reads: the [`blocked`](DeadlockReport::blocked) blocks
/// occupy SM slots spinning on semaphores; the semaphores can only be
/// posted by the [`unissued`](PendingKernel::unissued) blocks of the
/// [`pending`](DeadlockReport::pending) kernels; those blocks cannot
/// launch because the [`sms`](DeadlockReport::sms) have no free capacity
/// — which the spinning blocks are holding. [`DeadlockReport::wait_cycle`]
/// renders exactly that sentence from the data; `Display` prints the full
/// diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockReport {
    /// Simulated time at which progress stopped.
    pub time: SimTime,
    /// Every resident block parked on an unmet semaphore.
    pub blocked: Vec<BlockedBlock>,
    /// Every unfinished kernel with its issue/completion progress.
    pub pending: Vec<PendingKernel>,
    /// Occupancy of every SM holding at least one resident block.
    pub sms: Vec<SmOccupancy>,
}

impl DeadlockReport {
    /// Names of the unfinished kernels, in launch order.
    pub fn pending_names(&self) -> Vec<String> {
        self.pending.iter().map(|p| p.name.clone()).collect()
    }

    /// The pending kernels with unlaunched blocks — the kernels starved of
    /// SM capacity by the spinners.
    pub fn starved(&self) -> impl Iterator<Item = &PendingKernel> {
        self.pending.iter().filter(|p| p.unissued() > 0)
    }

    /// Distinct `array[index]` semaphore names the blocked blocks poll.
    pub fn polled_sems(&self) -> Vec<String> {
        let mut sems: Vec<String> = self
            .blocked
            .iter()
            .map(|b| format!("{}[{}]", b.sem_name, b.index))
            .collect();
        sems.sort();
        sems.dedup();
        sems
    }

    /// Renders the wait cycle as one sentence, or `None` when the stall is
    /// not an occupancy cycle (e.g. a semaphore that simply has no poster:
    /// blocked blocks but no starved kernel).
    pub fn wait_cycle(&self) -> Option<String> {
        if self.blocked.is_empty() {
            return None;
        }
        let spinners: Vec<&str> = {
            let mut names: Vec<&str> = self
                .blocked
                .iter()
                .map(|b| b.kernel_name.as_str())
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let starved: Vec<String> = self.starved().map(|p| p.name.clone()).collect();
        if starved.is_empty() {
            return None;
        }
        Some(format!(
            "[{}] occupy SM slots spinning on [{}] -> [{}] cannot launch their remaining \
             blocks (no free SM capacity) -> the polled semaphores never reach their targets",
            spinners.join(", "),
            self.polled_sems().join(", "),
            starved.join(", "),
        ))
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock at {}: {} blocked thread block(s), pending kernels [{}]",
            self.time,
            self.blocked.len(),
            self.pending_names().join(", "),
        )?;
        for b in &self.blocked {
            write!(f, "\n  blocked: {b} (sm {}, device {})", b.sm, b.device)?;
        }
        for p in &self.pending {
            write!(f, "\n  pending: {p}")?;
        }
        for s in &self.sms {
            write!(
                f,
                "\n  occupancy: sm{} d{}: {} free, {} active, {} spinning (of {})",
                s.sm, s.device, s.free_units, s.active_units, s.spinning_units, SM_CAPACITY_UNITS,
            )?;
        }
        if let Some(cycle) = self.wait_cycle() {
            write!(f, "\n  wait cycle: {cycle}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockReport {}

/// Error raised by [`Gpu::compile`](crate::Gpu::compile) and
/// [`Session::run`](crate::Session::run).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No event can make progress but kernels remain incomplete: every
    /// resident block is busy-waiting on a semaphore and no SM slot is free
    /// for the blocks that would post — the hazard of omitting the
    /// wait-kernel (Section III-B). The report names the wait cycle; see
    /// [`DeadlockReport`].
    Deadlock(Box<DeadlockReport>),
    /// A kernel builder rejected its inputs (surfaced here so pipeline
    /// assembly code can use one error type end to end).
    Build(BuildError),
    /// A hardware-model field is out of range
    /// ([`GpuConfig::validate`](crate::GpuConfig::validate));
    /// [`Gpu::compile`](crate::Gpu::compile) rejects it before any event
    /// is simulated.
    Config(ConfigError),
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<BuildError> for SimError {
    fn from(e: BuildError) -> Self {
        SimError::Build(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(report) => write!(f, "{report}"),
            SimError::Build(e) => write!(f, "{e}"),
            SimError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Build(e) => Some(e),
            SimError::Config(e) => Some(e),
            SimError::Deadlock(report) => Some(report.as_ref()),
        }
    }
}

/// A rational scale factor on simulated link wire time — the knob fault
/// injection turns to model a degraded interconnect (flapping NVLink lane,
/// congested PCIe switch). Applied to the
/// [`Op::LinkSend`](crate::Op::LinkSend) wire-time term only: link
/// latency (the post→observe edge) and every SM-side cost are untouched,
/// so a degraded link slows collectives without perturbing the compute
/// timeline. Exact integer arithmetic keeps scaled runs
/// bit-identical across engine modes. Built only by [`LinkScale::times`]
/// and [`LinkScale::ratio`], so the denominator is never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkScale {
    num: u32,
    den: u32,
}

impl LinkScale {
    /// The no-op scale (wire time unchanged).
    pub const IDENTITY: LinkScale = LinkScale { num: 1, den: 1 };

    /// An integer slowdown: `times(4)` makes every `LinkSend` pay 4× its
    /// healthy wire time.
    pub fn times(factor: u32) -> Self {
        LinkScale {
            num: factor,
            den: 1,
        }
    }

    /// An arbitrary rational scale `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn ratio(num: u32, den: u32) -> Self {
        assert!(den != 0, "LinkScale denominator must be non-zero");
        LinkScale { num, den }
    }

    /// Whether this scale leaves wire time unchanged.
    pub fn is_identity(self) -> bool {
        self.num == self.den
    }

    /// `t * num / den` in exact integer picoseconds.
    pub fn apply(self, t: SimTime) -> SimTime {
        SimTime::from_picos((t.as_picos() as u128 * self.num as u128 / self.den as u128) as u64)
    }
}

/// The deadlock report of a run that stalled.
impl Exec<'_> {
    pub(super) fn deadlock_error(&self, incomplete: &[usize]) -> SimError {
        // Slots are reused, so slot order is not issue order: list the
        // parked blocks by issue sequence.
        let mut parked: Vec<_> = self
            .st
            .blocks
            .iter()
            .filter_map(|slot| Some((slot, slot.waiting?)))
            .collect();
        parked.sort_unstable_by_key(|(slot, _)| slot.issue_seq);
        let blocked: Vec<BlockedBlock> = parked
            .into_iter()
            .map(|(slot, (table, index, value))| BlockedBlock {
                kernel: KernelId(slot.kernel),
                kernel_name: self.desc.kernels[slot.kernel].name.clone(),
                block: slot.idx,
                sm: slot.sm,
                device: self.desc.kernels[slot.kernel].device,
                sem: table,
                sem_name: self.st.sems.name(table).to_owned(),
                index,
                target: value,
                current: self.st.sems.value(table, index),
            })
            .collect();
        let pending = incomplete
            .iter()
            .map(|&k| PendingKernel {
                kernel: KernelId(k),
                name: self.desc.kernels[k].name.clone(),
                device: self.desc.kernels[k].device,
                total: self.desc.kernels[k].total,
                issued: self.st.kernels[k].issued,
                completed: self.st.kernels[k].completed,
            })
            .collect();
        let sms = (0..self.st.sm_free.len())
            .filter(|&sm| self.st.sm_free[sm] < SM_CAPACITY_UNITS)
            .map(|sm| {
                let occupied = SM_CAPACITY_UNITS - self.st.sm_free[sm];
                let active = self.st.sm_active[sm];
                SmOccupancy {
                    sm: sm as u32,
                    device: self.desc.device_of_sm[sm],
                    free_units: self.st.sm_free[sm],
                    active_units: active,
                    spinning_units: occupied - active,
                }
            })
            .collect();
        SimError::Deadlock(Box::new(DeadlockReport {
            time: self.st.now,
            blocked,
            pending,
            sms,
        }))
    }
}
