//! Synchronization policies: mappings from tiles to semaphores.
//!
//! A policy decides how many semaphores a producer stage owns, which
//! semaphore each computed tile *posts* to, and which semaphore (and
//! expected value) a consumer *waits* on for a requested tile (Section
//! III-D/III-E of the paper). The built-in policies are the ones the paper
//! evaluates; [`cusyncgen`](https://docs.rs/cusyncgen) synthesizes further
//! policies from dependency specifications.
//!
//! Split-K note: when a producer grid has `z > 1`, every z-slice of a tile
//! posts once, so expected values are scaled by `grid.z` — the semantics of
//! CUTLASS split-K accumulation.

use std::fmt;
use std::sync::Arc;

use cusync_sim::Dim3;

/// A synchronization policy: the `sem`/`value` pair of Fig. 4b, split into
/// a posting-side and a waiting-side mapping (they differ only for
/// [`Conv2DTileSync`], where consumers request tiles in implicit-GeMM
/// coordinates).
pub trait SyncPolicy: Send + Sync + fmt::Debug {
    /// Display name (used in reports: "TileSync", "RowSync", ...).
    fn name(&self) -> String;

    /// Number of semaphores this policy needs for a producer `grid`.
    /// Returning 0 disables synchronization entirely (see [`NoSync`]).
    fn num_sems(&self, grid: Dim3) -> usize;

    /// Semaphore that the producer tile `tile` posts to.
    fn post_sem(&self, tile: Dim3, grid: Dim3) -> u32;

    /// Semaphore a consumer waits on when requesting `requested`.
    ///
    /// Defaults to [`post_sem`](SyncPolicy::post_sem): for most policies
    /// consumers request tiles in the producer's own tile coordinates.
    fn wait_sem(&self, requested: Dim3, grid: Dim3) -> u32 {
        self.post_sem(requested, grid)
    }

    /// Semaphore value that signals "ready" for `requested`.
    fn expected(&self, requested: Dim3, grid: Dim3) -> u32;

    /// [`wait_sem`](SyncPolicy::wait_sem) and
    /// [`expected`](SyncPolicy::expected) of `requested` in one call, so
    /// a consumer pays one dynamic dispatch per wait.
    fn wait_on(&self, requested: Dim3, grid: Dim3) -> (u32, u32) {
        (
            self.wait_sem(requested, grid),
            self.expected(requested, grid),
        )
    }
}

/// Shared handle to a policy.
pub type PolicyRef = Arc<dyn SyncPolicy>;

/// The finest-grained policy: one semaphore per producer tile, expected
/// value `grid.z` (1 without split-K). Fig. 4b lines 16–20.
///
/// # Examples
///
/// ```
/// use cusync::{SyncPolicy, TileSync};
/// use cusync_sim::Dim3;
///
/// let grid = Dim3::new(4, 3, 1);
/// let p = TileSync;
/// assert_eq!(p.num_sems(grid), 12);
/// assert_eq!(p.post_sem(Dim3::new(2, 1, 0), grid), 6);
/// assert_eq!(p.expected(Dim3::new(2, 1, 0), grid), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileSync;

impl SyncPolicy for TileSync {
    fn name(&self) -> String {
        "TileSync".into()
    }

    fn num_sems(&self, grid: Dim3) -> usize {
        (grid.x as usize) * (grid.y as usize)
    }

    fn post_sem(&self, tile: Dim3, grid: Dim3) -> u32 {
        tile.y * grid.x + tile.x
    }

    fn expected(&self, _requested: Dim3, grid: Dim3) -> u32 {
        grid.z
    }
}

/// One semaphore per row of producer tiles; ready when all `grid.x` tiles
/// of the row have posted. Trades concurrency for fewer synchronizations
/// (Fig. 4b lines 22–27).
///
/// # Examples
///
/// ```
/// use cusync::{RowSync, SyncPolicy};
/// use cusync_sim::Dim3;
///
/// let grid = Dim3::new(4, 3, 1);
/// assert_eq!(RowSync.num_sems(grid), 3);
/// assert_eq!(RowSync.post_sem(Dim3::new(2, 1, 0), grid), 1);
/// assert_eq!(RowSync.expected(Dim3::new(2, 1, 0), grid), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowSync;

impl SyncPolicy for RowSync {
    fn name(&self) -> String {
        "RowSync".into()
    }

    fn num_sems(&self, grid: Dim3) -> usize {
        grid.y as usize
    }

    fn post_sem(&self, tile: Dim3, _grid: Dim3) -> u32 {
        tile.y
    }

    fn expected(&self, _requested: Dim3, grid: Dim3) -> u32 {
        grid.x * grid.z
    }
}

/// Synchronizes groups of `count` producer tiles spaced `stride` apart in
/// the x dimension on one semaphore — the Attention policy of Section IV-B,
/// where the Q, K and V slices of the fused QKV GeMM live at
/// `x`, `x + stride`, `x + 2*stride`.
///
/// # Examples
///
/// ```
/// use cusync::{StridedSync, SyncPolicy};
/// use cusync_sim::Dim3;
///
/// // 9 column tiles, three slices of 3: tiles 0, 3 and 6 share semaphore 0.
/// let grid = Dim3::new(9, 1, 1);
/// let p = StridedSync::new(3, 3);
/// assert_eq!(p.num_sems(grid), 3);
/// assert_eq!(p.post_sem(Dim3::new(0, 0, 0), grid), 0);
/// assert_eq!(p.post_sem(Dim3::new(3, 0, 0), grid), 0);
/// assert_eq!(p.post_sem(Dim3::new(6, 0, 0), grid), 0);
/// assert_eq!(p.expected(Dim3::new(0, 0, 0), grid), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedSync {
    stride: u32,
    count: u32,
}

impl StridedSync {
    /// Groups `count` tiles spaced `stride` apart on one semaphore.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `count` is zero.
    pub fn new(stride: u32, count: u32) -> Self {
        assert!(stride > 0 && count > 0, "stride and count must be positive");
        StridedSync { stride, count }
    }

    /// Distance between grouped tiles.
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// Number of tiles grouped per semaphore.
    pub fn count(&self) -> u32 {
        self.count
    }
}

impl SyncPolicy for StridedSync {
    fn name(&self) -> String {
        "StridedSync".into()
    }

    fn num_sems(&self, grid: Dim3) -> usize {
        self.stride as usize * grid.y as usize
    }

    fn post_sem(&self, tile: Dim3, _grid: Dim3) -> u32 {
        tile.y * self.stride + tile.x % self.stride
    }

    fn expected(&self, _requested: Dim3, grid: Dim3) -> u32 {
        self.count * grid.z
    }
}

/// Tile-grained synchronization for implicit-GeMM Conv2D chains (Section
/// IV-B, Fig. 5c). Producers post one semaphore per output tile; consumers
/// request coordinates `x = cb * R*S + rs` in implicit-GeMM k-space, which
/// the policy folds back onto the producing channel-block tile `cb = x /
/// (R*S)`.
///
/// # Examples
///
/// ```
/// use cusync::{Conv2DTileSync, SyncPolicy};
/// use cusync_sim::Dim3;
///
/// let grid = Dim3::new(2, 4, 1); // 2 channel tiles, 4 pixel-row tiles
/// let p = Conv2DTileSync::new(9); // 3x3 kernel
/// assert_eq!(p.num_sems(grid), 8);
/// // Consumer k-step 10 = channel block 1, kernel position 1.
/// assert_eq!(p.wait_sem(Dim3::new(10, 2, 0), grid), 2 * 2 + 1);
/// assert_eq!(p.post_sem(Dim3::new(1, 2, 0), grid), 2 * 2 + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2DTileSync {
    rs: u32,
}

impl Conv2DTileSync {
    /// `rs` is the number of kernel positions `R * S` (9 for the 3×3
    /// convolutions of ResNet and VGG).
    ///
    /// # Panics
    ///
    /// Panics if `rs` is zero.
    pub fn new(rs: u32) -> Self {
        assert!(rs > 0, "R*S must be positive");
        Conv2DTileSync { rs }
    }

    /// Number of kernel positions folded onto each producer tile.
    pub fn rs(&self) -> u32 {
        self.rs
    }
}

impl SyncPolicy for Conv2DTileSync {
    fn name(&self) -> String {
        "Conv2DTileSync".into()
    }

    fn num_sems(&self, grid: Dim3) -> usize {
        (grid.x as usize) * (grid.y as usize)
    }

    fn post_sem(&self, tile: Dim3, grid: Dim3) -> u32 {
        tile.y * grid.x + tile.x
    }

    fn wait_sem(&self, requested: Dim3, grid: Dim3) -> u32 {
        requested.y * grid.x + (requested.x / self.rs).min(grid.x - 1)
    }

    fn expected(&self, _requested: Dim3, grid: Dim3) -> u32 {
        grid.z
    }
}

/// Disables synchronization: no semaphores, no posts, no waits. Used for
/// terminal stages and for constructing deliberately racy runs in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoSync;

impl SyncPolicy for NoSync {
    fn name(&self) -> String {
        "NoSync".into()
    }

    fn num_sems(&self, _grid: Dim3) -> usize {
        0
    }

    fn post_sem(&self, _tile: Dim3, _grid: Dim3) -> u32 {
        0
    }

    fn expected(&self, _requested: Dim3, _grid: Dim3) -> u32 {
        0
    }
}

/// Groups `rows_per_sem` adjacent rows on one semaphore — a coarser
/// RowSync. This is the natural extension point between RowSync and a
/// single kernel-wide semaphore; the paper's generator explores exactly
/// this distinct-vs-shared axis per dimension (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedRowSync {
    rows_per_sem: u32,
}

impl BatchedRowSync {
    /// Groups `rows_per_sem` adjacent tile rows per semaphore.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_sem` is zero.
    pub fn new(rows_per_sem: u32) -> Self {
        assert!(rows_per_sem > 0, "rows_per_sem must be positive");
        BatchedRowSync { rows_per_sem }
    }
}

impl SyncPolicy for BatchedRowSync {
    fn name(&self) -> String {
        format!("BatchedRowSync({})", self.rows_per_sem)
    }

    fn num_sems(&self, grid: Dim3) -> usize {
        grid.y.div_ceil(self.rows_per_sem) as usize
    }

    fn post_sem(&self, tile: Dim3, _grid: Dim3) -> u32 {
        tile.y / self.rows_per_sem
    }

    fn expected(&self, requested: Dim3, grid: Dim3) -> u32 {
        let first_row = (requested.y / self.rows_per_sem) * self.rows_per_sem;
        let rows = (grid.y - first_row).min(self.rows_per_sem);
        rows * grid.x * grid.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tilesync_sems_are_distinct_per_tile() {
        let grid = Dim3::new(3, 2, 1);
        let mut seen = std::collections::HashSet::new();
        for tile in grid.iter() {
            assert!(seen.insert(TileSync.post_sem(tile, grid)));
        }
        assert_eq!(seen.len(), TileSync.num_sems(grid));
    }

    #[test]
    fn paper_example_sync_counts() {
        // Fig. 4 example: producer grid 3x2 (12x8 output, 4x4 tiles).
        // "TileSync requires 12 synchronizations in total, while RowSync
        // requires 6": each consumer tile of the 3x2 consumer grid waits on
        // its producer row's tiles. Posting side: TileSync posts 6 sems
        // (one per tile), RowSync 2 sems (one per row) with value 3.
        let grid = Dim3::new(3, 2, 1);
        assert_eq!(TileSync.num_sems(grid), 6);
        assert_eq!(RowSync.num_sems(grid), 2);
        assert_eq!(RowSync.expected(Dim3::new(0, 1, 0), grid), 3);
    }

    #[test]
    fn split_k_scales_expected_values() {
        let grid = Dim3::new(24, 1, 4); // Table IV batch 1-64 producer
        assert_eq!(TileSync.expected(Dim3::new(3, 0, 0), grid), 4);
        assert_eq!(RowSync.expected(Dim3::new(3, 0, 0), grid), 96);
    }

    #[test]
    fn strided_sync_groups_q_k_v_slices() {
        // Attention QKV GeMM: 3 slices of 2 column tiles each.
        let grid = Dim3::new(6, 2, 1);
        let p = StridedSync::new(2, 3);
        assert_eq!(p.num_sems(grid), 4);
        // Tiles 0, 2, 4 of row 1 share a semaphore.
        let s = p.post_sem(Dim3::new(0, 1, 0), grid);
        assert_eq!(p.post_sem(Dim3::new(2, 1, 0), grid), s);
        assert_eq!(p.post_sem(Dim3::new(4, 1, 0), grid), s);
        // Tiles 1, 3, 5 share a different one.
        let t = p.post_sem(Dim3::new(1, 1, 0), grid);
        assert_ne!(s, t);
        assert_eq!(p.expected(Dim3::new(0, 1, 0), grid), 3);
    }

    #[test]
    fn conv2d_wait_folds_kernel_positions() {
        let grid = Dim3::new(4, 2, 1);
        let p = Conv2DTileSync::new(9);
        for rs in 0..9 {
            // Any kernel position within channel block 2 waits on tile 2.
            assert_eq!(
                p.wait_sem(Dim3::new(2 * 9 + rs, 1, 0), grid),
                p.post_sem(Dim3::new(2, 1, 0), grid)
            );
        }
    }

    #[test]
    fn nosync_allocates_nothing() {
        assert_eq!(NoSync.num_sems(Dim3::new(100, 100, 4)), 0);
    }

    #[test]
    fn batched_rowsync_interpolates_between_row_and_kernel() {
        let grid = Dim3::new(4, 6, 1);
        let p = BatchedRowSync::new(3);
        assert_eq!(p.num_sems(grid), 2);
        assert_eq!(p.post_sem(Dim3::new(0, 2, 0), grid), 0);
        assert_eq!(p.post_sem(Dim3::new(0, 3, 0), grid), 1);
        assert_eq!(p.expected(Dim3::new(0, 0, 0), grid), 12);
        // A batch of 1 row behaves exactly like RowSync.
        let p1 = BatchedRowSync::new(1);
        for tile in grid.iter() {
            assert_eq!(p1.post_sem(tile, grid), RowSync.post_sem(tile, grid));
            assert_eq!(p1.expected(tile, grid), RowSync.expected(tile, grid));
        }
        // Ragged final batch expects only the remaining rows.
        let p4 = BatchedRowSync::new(4);
        assert_eq!(p4.expected(Dim3::new(0, 5, 0), grid), 2 * 4);
    }
}
