//! Building blocks of the kernels' static op programs
//! ([`KernelSource::static_programs`](cusync_sim::KernelSource)).
//!
//! Without a tile-order counter, the blocks of a tiled kernel differ only
//! in their tile's extents (full or ragged), the waits of their grid row
//! and the semaphore their posts hit. Emitters therefore price each
//! extent class once ([`ShapeClass`]) and assemble consecutive blocks of
//! a row from one shared program middle ([`RowPrograms`]).

use cusync::StageRuntime;
use cusync_sim::{Dim3, Op};

/// The ops of a tiled kernel's main loop and store that depend only on
/// the tile's `(rows, cols)` extents and z-slice: a grid has at most four
/// classes per slice (full or ragged in each dimension), each priced
/// once.
pub(crate) struct ShapeClass {
    /// `(rows, cols, z)` of the tiles in this class.
    key: (u32, u32, u32),
    /// Main-loop op of each step (`None`: the step moves no data).
    pub(crate) mains: Vec<Option<Op>>,
    pub(crate) epilogue: Option<Op>,
    pub(crate) write: Op,
}

impl ShapeClass {
    pub(crate) fn new(
        (rows, cols): (u32, u32),
        z: u32,
        mains: Vec<Option<Op>>,
        epilogue: Option<Op>,
        write: Op,
    ) -> Self {
        ShapeClass {
            key: (rows, cols, z),
            mains,
            epilogue,
            write,
        }
    }

    /// The class of extents `extents` in z-slice `z`, built by `make` on
    /// first use.
    pub(crate) fn find(
        classes: &mut Vec<ShapeClass>,
        (rows, cols): (u32, u32),
        z: u32,
        make: impl FnOnce() -> ShapeClass,
    ) -> &ShapeClass {
        let key = (rows, cols, z);
        let i = match classes.iter().position(|c| c.key == key) {
            Some(i) => i,
            None => {
                classes.push(make());
                classes.len() - 1
            }
        };
        &classes[i]
    }

    /// Appends a main loop of `steps` steps — step `i`'s waits, pushed by
    /// `waits(i, out)`, then its main op, if any — then the epilogue and
    /// the store.
    pub(crate) fn push_loop(
        &self,
        steps: usize,
        mut waits: impl FnMut(u32, &mut Vec<Op>),
        out: &mut Vec<Op>,
    ) {
        for i in 0..steps {
            waits(i as u32, out);
            out.extend(self.mains.get(i).copied().flatten());
        }
        out.extend(self.epilogue);
        out.push(self.write);
    }
}

/// Assembles block programs as `[start post] ++ middle ++ posts`. The
/// middle — every op but the `stage.start()` post of block (0, 0, 0) and
/// the block's own `stage.post()` ops — can be shared by consecutive
/// blocks of one grid row with equal extents: it is built once, and each
/// further block only swaps in its own posts before the program is
/// handed over, with the middle's length as the count of ops it repeats.
#[derive(Default)]
pub(crate) struct RowPrograms {
    /// `(y, z, extents)` of the block the middle was built for.
    key: Option<(u32, u32, (u32, u32))>,
    /// The program being emitted; its first `shared` ops are reused.
    prog: Vec<Op>,
    shared: usize,
}

impl RowPrograms {
    /// Hands `sink` the program of `tile`: the start post (block
    /// (0, 0, 0) only), the middle, and the tile's posts. `share` is the
    /// tile's extents when its row's blocks share their waits (`None`
    /// when its waits are its own, as under a custom dependency plan);
    /// `build` then runs only if the previous block's row or extents
    /// differ.
    pub(crate) fn emit(
        &mut self,
        stage: Option<&StageRuntime>,
        tile: Dim3,
        share: Option<(u32, u32)>,
        build: impl FnOnce(&mut Vec<Op>),
        sink: &mut dyn FnMut(&[Op], usize),
    ) {
        let start = stage.and_then(|s| s.start_op(tile));
        // A start post is block-specific: never share its program.
        let key = share
            .filter(|_| start.is_none())
            .map(|extents| (tile.y, tile.z, extents));
        let same = if key.is_some() && key == self.key {
            self.shared
        } else {
            self.prog.clear();
            self.prog.extend(start);
            build(&mut self.prog);
            self.shared = self.prog.len();
            0
        };
        self.key = key;
        self.prog.truncate(self.shared);
        self.prog
            .extend(stage.and_then(|s| s.post_ops(tile)).into_iter().flatten());
        sink(&self.prog, same);
    }
}
