//! Global-memory semaphore arrays and atomic counters.
//!
//! cuSync stores one `u32` semaphore per synchronization unit in GPU global
//! memory (Section III-D). The same storage backs the atomic tile counters
//! used by custom tile processing orders (Section III-C).

use std::fmt;

/// Handle to an array of semaphores (or counters) allocated on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SemArrayId(pub(crate) usize);

impl fmt::Display for SemArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sems{}", self.0)
    }
}

/// All semaphore arrays of a simulated GPU.
///
/// # Examples
///
/// ```
/// use cusync_sim::SemTable;
///
/// let mut sems = SemTable::new();
/// let arr = sems.alloc("row-sems", 8, 0);
/// assert_eq!(sems.add(arr, 3, 2), 0); // atomicAdd returns the old value
/// assert_eq!(sems.value(arr, 3), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SemTable {
    arrays: Vec<SemArray>,
}

#[derive(Debug, Clone)]
struct SemArray {
    name: String,
    values: Vec<u32>,
    init: u32,
    posts: u64,
    /// Device whose global memory holds this array. Operations from other
    /// devices pay the cluster's link latency on the post→observe edge.
    device: u32,
}

impl SemTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SemTable { arrays: Vec::new() }
    }

    /// Allocates `len` semaphores initialized to `init`, homed in device
    /// 0's global memory (the single-GPU case).
    pub fn alloc(&mut self, name: &str, len: usize, init: u32) -> SemArrayId {
        self.alloc_on(name, len, init, 0)
    }

    /// Allocates `len` semaphores initialized to `init` in the global
    /// memory of device `device`. Posts and polls from other devices
    /// traverse the interconnect (see
    /// [`ClusterConfig`](crate::ClusterConfig)).
    pub fn alloc_on(&mut self, name: &str, len: usize, init: u32, device: u32) -> SemArrayId {
        let id = SemArrayId(self.arrays.len());
        self.arrays.push(SemArray {
            name: name.to_owned(),
            values: vec![init; len],
            init,
            posts: 0,
            device,
        });
        id
    }

    /// Device whose memory holds array `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn device(&self, id: SemArrayId) -> u32 {
        self.arrays[id.0].device
    }

    /// Current value of semaphore `index` in array `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `index` is out of bounds.
    pub fn value(&self, id: SemArrayId, index: u32) -> u32 {
        self.arrays[id.0].values[index as usize]
    }

    /// Atomically adds `inc` to semaphore `index`, returning the previous
    /// value (the semantics of CUDA `atomicAdd`).
    ///
    /// # Panics
    ///
    /// Panics if `id` or `index` is out of bounds.
    pub fn add(&mut self, id: SemArrayId, index: u32, inc: u32) -> u32 {
        let array = &mut self.arrays[id.0];
        let prev = array.values[index as usize];
        array.values[index as usize] = prev.wrapping_add(inc);
        array.posts += 1;
        prev
    }

    /// Number of semaphores in array `id`.
    pub fn len(&self, id: SemArrayId) -> usize {
        self.arrays[id.0].values.len()
    }

    /// True if the table holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Name given at allocation.
    pub fn name(&self, id: SemArrayId) -> &str {
        &self.arrays[id.0].name
    }

    /// Resets every semaphore in `id` to its initial value (used between
    /// repeated launches in auto-tuning).
    pub fn reset(&mut self, id: SemArrayId) {
        let array = &mut self.arrays[id.0];
        let init = array.init;
        array.values.fill(init);
    }

    /// Restores every array to the state of `template`, reusing existing
    /// allocations when the layouts match (a [`Session`](crate::Session)
    /// re-running one compiled pipeline). Post counters are restored from
    /// the template too, so repeated runs report identical
    /// synchronization counts.
    pub fn reset_from(&mut self, template: &SemTable) {
        let compatible = self.arrays.len() == template.arrays.len()
            && self.arrays.iter().zip(&template.arrays).all(|(a, t)| {
                a.values.len() == t.values.len() && a.name == t.name && a.device == t.device
            });
        if compatible {
            for (a, t) in self.arrays.iter_mut().zip(&template.arrays) {
                a.values.copy_from_slice(&t.values);
                a.init = t.init;
                a.posts = t.posts;
            }
        } else {
            self.arrays.clone_from(&template.arrays);
        }
    }

    /// Total number of atomic post operations performed on array `id`,
    /// used to verify policy synchronization counts (e.g. the paper's
    /// "TileSync requires 12 synchronizations, RowSync 6" example).
    pub fn posts(&self, id: SemArrayId) -> u64 {
        self.arrays[id.0].posts
    }

    /// Ids of all allocated arrays.
    pub fn ids(&self) -> impl Iterator<Item = SemArrayId> + '_ {
        (0..self.arrays.len()).map(SemArrayId)
    }
}

/// Dense per-array wait-lists: for each `(semaphore array, index)` pair,
/// the thread blocks currently parked on it.
///
/// This is the optimized engine's replacement for the original
/// `BTreeMap<(table, index), Vec<usize>>` waiter registry: park and wake
/// become direct `Vec` indexing, and a post to a semaphore nobody waits on
/// costs two bounds checks instead of a tree descent. Storage grows lazily
/// to the highest `(array, index)` actually waited on, and emptied lists
/// keep their capacity across park/wake cycles (the dominant pattern in
/// tile synchronization, where the same semaphores are waited on wave
/// after wave).
#[derive(Debug, Default)]
pub struct WaitLists {
    lists: Vec<Vec<Vec<usize>>>,
}

impl WaitLists {
    /// Creates an empty registry.
    pub fn new() -> Self {
        WaitLists { lists: Vec::new() }
    }

    /// Parks `block` on semaphore `index` of array `id`.
    pub fn park(&mut self, id: SemArrayId, index: u32, block: usize) {
        if self.lists.len() <= id.0 {
            self.lists.resize_with(id.0 + 1, Vec::new);
        }
        let array = &mut self.lists[id.0];
        if array.len() <= index as usize {
            array.resize_with(index as usize + 1, Vec::new);
        }
        array[index as usize].push(block);
    }

    /// Removes and returns the blocks parked on `(id, index)` (in park
    /// order), without growing storage when nothing ever waited there.
    /// Pair with [`WaitLists::put`] to return the storage for reuse.
    pub fn take(&mut self, id: SemArrayId, index: u32) -> Vec<usize> {
        match self
            .lists
            .get_mut(id.0)
            .and_then(|array| array.get_mut(index as usize))
        {
            Some(list) => std::mem::take(list),
            None => Vec::new(),
        }
    }

    /// Empties every wait-list while keeping all allocated storage —
    /// used by the session layer's `RunState::reset` so repeated runs
    /// park/wake into already-sized lists. (After a completed run the
    /// lists are empty anyway; a deadlocked run leaves waiters behind.)
    pub fn clear_all(&mut self) {
        for array in &mut self.lists {
            for list in array {
                list.clear();
            }
        }
    }

    /// Returns a list taken with [`WaitLists::take`], preserving both the
    /// still-parked blocks and the allocation.
    pub fn put(&mut self, id: SemArrayId, index: u32, list: Vec<usize>) {
        if list.is_empty()
            && self
                .lists
                .get(id.0)
                .is_none_or(|a| a.len() <= index as usize)
        {
            // Nothing parked and no slot allocated: stay lazy.
            return;
        }
        if self.lists.len() <= id.0 {
            self.lists.resize_with(id.0 + 1, Vec::new);
        }
        let array = &mut self.lists[id.0];
        if array.len() <= index as usize {
            array.resize_with(index as usize + 1, Vec::new);
        }
        array[index as usize] = list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_initializes_all_values() {
        let mut sems = SemTable::new();
        let a = sems.alloc("a", 4, 7);
        assert_eq!(sems.len(a), 4);
        for i in 0..4 {
            assert_eq!(sems.value(a, i), 7);
        }
        assert_eq!(sems.name(a), "a");
    }

    #[test]
    fn add_returns_previous_value_like_atomic_add() {
        let mut sems = SemTable::new();
        let a = sems.alloc("a", 2, 0);
        assert_eq!(sems.add(a, 0, 1), 0);
        assert_eq!(sems.add(a, 0, 1), 1);
        assert_eq!(sems.value(a, 0), 2);
        assert_eq!(sems.value(a, 1), 0);
        assert_eq!(sems.posts(a), 2);
    }

    #[test]
    fn reset_restores_initial_values() {
        let mut sems = SemTable::new();
        let a = sems.alloc("a", 3, 5);
        sems.add(a, 1, 10);
        sems.reset(a);
        assert_eq!(sems.value(a, 1), 5);
    }

    #[test]
    fn arrays_record_their_home_device() {
        let mut sems = SemTable::new();
        let local = sems.alloc("local", 1, 0);
        let remote = sems.alloc_on("remote", 2, 0, 3);
        assert_eq!(sems.device(local), 0);
        assert_eq!(sems.device(remote), 3);
        // reset_from treats a different home device as a layout change.
        let mut other = SemTable::new();
        other.alloc("local", 1, 0);
        other.alloc_on("remote", 2, 0, 1);
        other.reset_from(&sems);
        assert_eq!(other.device(remote), 3);
    }

    #[test]
    fn arrays_are_independent() {
        let mut sems = SemTable::new();
        let a = sems.alloc("a", 1, 0);
        let b = sems.alloc("b", 1, 0);
        sems.add(a, 0, 3);
        assert_eq!(sems.value(b, 0), 0);
        assert_eq!(sems.ids().count(), 2);
    }

    #[test]
    fn wait_lists_park_take_put_roundtrip() {
        let mut waits = WaitLists::new();
        let id = SemArrayId(2);
        assert!(waits.take(id, 7).is_empty(), "untouched slots are empty");
        waits.park(id, 7, 11);
        waits.park(id, 7, 12);
        waits.park(id, 0, 13);
        let taken = waits.take(id, 7);
        assert_eq!(taken, vec![11, 12], "park order is preserved");
        waits.put(id, 7, vec![12]);
        assert_eq!(waits.take(id, 7), vec![12]);
        assert_eq!(waits.take(id, 0), vec![13]);
    }

    #[test]
    fn wait_lists_stay_lazy_for_untouched_slots() {
        let mut waits = WaitLists::new();
        // take + empty put of a never-parked slot must not allocate rows.
        let empty = waits.take(SemArrayId(100), 4000);
        waits.put(SemArrayId(100), 4000, empty);
        assert!(waits.lists.is_empty());
    }
}
