//! Pre-driven op programs, interned.
//!
//! A kernel whose blocks are context-independent emits every block's op
//! program up front ([`KernelSource::static_programs`]). Those programs
//! repeat a few ops many times: blocks of one grid row share their waits,
//! and blocks of one extent class share their main loop and store. So
//! [`Programs`] stores each distinct op once and each block's program as
//! 4-byte ids into that table.

use std::hash::{Hash, Hasher};

use crate::kernel::KernelSource;
use crate::mem::GlobalMemory;
use crate::ops::Op;

/// The pre-driven block programs of a pipeline's statically emitting
/// kernels ([`KernelSource::static_programs`]), stored once per compiled
/// pipeline ([`CompiledPipeline::programs`](crate::CompiledPipeline::programs)),
/// so optimized-engine runs replay them through a cursor without
/// constructing or interpreting any coroutine body.
///
/// Each distinct op is stored once ([`Programs::ops`]); each block's
/// program is a contiguous run of ids into that table.
#[derive(Debug, Default)]
pub struct Programs {
    /// Every distinct op of every program, each once.
    ops: Vec<Op>,
    /// Ids into `ops`; each block's program is contiguous.
    block_ops: Vec<u32>,
    /// Flat `(start, len)` spans into `block_ops`, one per pre-driven
    /// block, grouped per kernel in linear block order.
    prog_spans: Vec<(u32, u32)>,
    /// Per kernel: index of its first span in `prog_spans`, or
    /// `u32::MAX` for kernels that are not pre-driven. A kernel is
    /// pre-driven exactly when its entry is set.
    prog_base: Vec<u32>,
}

impl Programs {
    /// Collects the op program of every block of every kernel in
    /// `kernels` (in launch order) that emits them statically under `mem`.
    ///
    /// # Panics
    ///
    /// Panics if a kernel breaks the emitter contract: a block count other
    /// than its grid's, or `sink` calls followed by `false`.
    pub fn collect<'a>(
        kernels: impl IntoIterator<Item = &'a dyn KernelSource>,
        mem: &GlobalMemory,
    ) -> Programs {
        let mut programs = Programs::default();
        let mut ids = OpIds::default();
        for kernel in kernels {
            let base = programs.prog_spans.len();
            let emitted = kernel.static_programs(mem, &mut |block: &[Op], same: usize| {
                programs.push(base, block, same, &mut ids)
            });
            let blocks = (programs.prog_spans.len() - base) as u64;
            let total = kernel.grid().count();
            if emitted {
                assert_eq!(
                    blocks,
                    total,
                    "kernel `{}` emitted {blocks} static programs for {total} blocks",
                    kernel.name()
                );
                programs.prog_base.push(base as u32);
            } else {
                assert_eq!(
                    blocks,
                    0,
                    "kernel `{}` emitted static programs but declined",
                    kernel.name()
                );
                programs.prog_base.push(u32::MAX);
            }
        }
        programs
    }

    /// Appends one block's program, whose first `same` ops repeat the
    /// previous block's (see [`KernelSource::static_programs`]): their
    /// ids are copied. `base` is the kernel's first span.
    ///
    /// In a block that repeats nothing, each op is looked up in `ids`
    /// only when it differs from the two ops it most often repeats: this
    /// block's op one main-loop step back (consecutive steps often wait on
    /// the same semaphores and run the same main step), then the previous
    /// block's op at the same position (blocks of one extent class share
    /// their main loop). A step's length is learned from the lookups.
    fn push(&mut self, base: usize, block: &[Op], same: usize, ids: &mut OpIds) {
        let (prev, prev_len) = match self.prog_spans[base..].last() {
            Some(&(start, len)) => (start as usize, len as usize),
            None => (0, 0),
        };
        assert!(
            same <= prev_len.min(block.len()),
            "repeats more ops than the previous block has"
        );
        let start = self.block_ops.len();
        self.prog_spans.push((start as u32, block.len() as u32));
        self.block_ops.extend_from_within(prev..prev + same);
        debug_assert!(
            block[..same]
                .iter()
                .zip(&self.block_ops[start..])
                .all(|(&op, &id)| self.ops[id as usize] == op),
            "the repeated ops differ from the previous block's"
        );
        for (i, &op) in block.iter().enumerate().skip(same) {
            let here = start + i;
            let id = if same > 0 {
                // After a shared middle come the block's own posts, which
                // no nearby op repeats.
                ids.id(op, &mut self.ops)
            } else if (1..=i).contains(&ids.step)
                && self.ops[self.block_ops[here - ids.step] as usize] == op
            {
                self.block_ops[here - ids.step]
            } else if i < prev_len && self.ops[self.block_ops[prev + i] as usize] == op {
                self.block_ops[prev + i]
            } else {
                let id = ids.id(op, &mut self.ops);
                let recent = &self.block_ops[here - i.min(OpIds::MAX_STEP)..here];
                if let Some(k) = recent.iter().rev().position(|&r| r == id) {
                    ids.step = k + 1;
                }
                id
            };
            self.block_ops.push(id);
        }
    }

    /// Every distinct op of the programs, each once, in order of first
    /// emission.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total number of program ops, over all blocks.
    pub fn len(&self) -> usize {
        self.block_ops.len()
    }

    /// Whether no block has a program op.
    pub fn is_empty(&self) -> bool {
        self.block_ops.is_empty()
    }

    /// The program of block `linear` of kernel `kernel` (launch order),
    /// or `None` when the kernel is not pre-driven.
    pub fn block(
        &self,
        kernel: usize,
        linear: u64,
    ) -> Option<impl ExactSizeIterator<Item = Op> + '_> {
        let (start, len) = self.span(kernel, linear)?;
        let ids = &self.block_ops[start as usize..(start + len) as usize];
        Some(ids.iter().map(|&id| self.ops[id as usize]))
    }

    /// The `(start, len)` span of block `linear` of kernel `k`, or `None`
    /// when the kernel is not pre-driven (always, on the empty table).
    pub(crate) fn span(&self, k: usize, linear: u64) -> Option<(u32, u32)> {
        match self.prog_base.get(k) {
            Some(&base) if base != u32::MAX => {
                Some(self.prog_spans[base as usize + linear as usize])
            }
            _ => None,
        }
    }

    /// The op at position `at` of the flat program sequence (a span's
    /// start plus the block's program counter).
    pub(crate) fn op(&self, at: u32) -> Op {
        self.ops[self.block_ops[at as usize] as usize]
    }
}

/// The id of each op already in [`Programs::ops`]: an open-addressed
/// table of ids (or [`OpIds::EMPTY`]), probed linearly from the op's
/// hash and kept at most half full. Local to one [`Programs::collect`]
/// call.
#[derive(Default)]
struct OpIds {
    slots: Vec<u32>,
    /// Length of a main-loop step as last seen: the distance back, within
    /// one block, to the last use of a looked-up id.
    step: usize,
    /// `64 - log2(slots.len())`: the hash's top bits pick the first slot.
    shift: u32,
}

impl OpIds {
    const EMPTY: u32 = u32::MAX;
    /// The longest step [`Programs::push`] looks back for.
    const MAX_STEP: usize = 8;

    /// The id of `op` in `ops`, appending it first if it is new.
    fn id(&mut self, op: Op, ops: &mut Vec<Op>) -> u32 {
        if 2 * ops.len() >= self.slots.len() {
            self.grow(ops);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.first_slot(&op);
        loop {
            match self.slots[i] {
                Self::EMPTY => {
                    self.slots[i] = ops.len() as u32;
                    ops.push(op);
                    return self.slots[i];
                }
                id if ops[id as usize] == op => return id,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the table (1,024 slots at first) and re-inserts `ops`.
    fn grow(&mut self, ops: &[Op]) {
        let len = (2 * self.slots.len()).max(1 << 10);
        self.slots = vec![Self::EMPTY; len];
        self.shift = 64 - len.trailing_zeros();
        for (id, op) in ops.iter().enumerate() {
            let mut i = self.first_slot(op);
            while self.slots[i] != Self::EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = id as u32;
        }
    }

    fn first_slot(&self, op: &Op) -> usize {
        let mut h = FxHasher::default();
        op.hash(&mut h);
        (h.finish() >> self.shift) as usize
    }
}

/// The multiply-rotate word hash rustc uses for its own tables: a few
/// cycles per op, where the standard SipHash would dominate interning.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
