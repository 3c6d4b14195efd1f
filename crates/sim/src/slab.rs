//! A free-list slab arena for per-request simulation state.
//!
//! The event loop keeps one slab of in-flight request records and
//! routes only the `u32` key through the event queue, instead of copying
//! the full request payload (descriptor, timestamps, stage context) into
//! every event variant. Vacant slots form an **intrusive free list** —
//! each vacancy stores the index of the next free slot in place — so a
//! run allocates O(peak in-flight) slots regardless of how many requests
//! it processes, and insert/remove touch exactly one slot with no side
//! allocation. Recycling is LIFO: the hottest slot (most recently freed,
//! still in cache) is reused first.
//!
//! Two arenas are provided:
//!
//! * [`Slab`] — the general arena: one `Vec` of tagged entries, each
//!   slot a value or a free-list link.
//! * [`HotColdSlab`] — the structure-of-arrays split for hot loops: the
//!   fields an event loop touches on *every* event (a few bytes of
//!   timestamps and indices) live in one dense parallel array, while
//!   the cold remainder (descriptors, stage contexts) lives in a second
//!   array the common fast path never loads. Removal returns only the
//!   hot half and never reads cold memory, so a completion-heavy loop's
//!   cache footprint scales with the hot record size, not the full
//!   record.
//!
//! # Example
//!
//! ```
//! use tpv_sim::Slab;
//!
//! let mut slab: Slab<&str> = Slab::with_capacity(4);
//! let a = slab.insert("alpha");
//! let b = slab.insert("beta");
//! assert_eq!(*slab.get(a), "alpha");
//! assert_eq!(slab.remove(b), "beta");
//! // Freed keys are recycled.
//! let c = slab.insert("gamma");
//! assert_eq!(c, b);
//! assert_eq!(slab.len(), 2);
//! ```

/// Free-list terminator.
const NONE: u32 = u32::MAX;

/// One slot: either a live value or a link in the free list.
#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    /// Index of the next vacant slot ([`NONE`] ends the list).
    Vacant(u32),
}

/// A slab of `T` values addressed by recycled `u32` keys.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Head of the intrusive free list ([`NONE`] when full).
    free_head: u32,
    live: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab { entries: Vec::new(), free_head: NONE, live: 0 }
    }

    /// An empty slab with room for `capacity` concurrent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab { entries: Vec::with_capacity(capacity), free_head: NONE, live: 0 }
    }

    /// Stores `value` and returns its key.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        match self.free_head {
            NONE => {
                let key = u32::try_from(self.entries.len()).expect("slab exceeded u32::MAX slots");
                assert!(key != NONE, "slab exceeded u32::MAX slots");
                self.entries.push(Entry::Occupied(value));
                key
            }
            key => {
                let slot = &mut self.entries[key as usize];
                let Entry::Vacant(next) = *slot else { unreachable!("free list points at a live slot") };
                self.free_head = next;
                *slot = Entry::Occupied(value);
                key
            }
        }
    }

    /// The value stored under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is vacant or out of bounds.
    #[inline]
    pub fn get(&self, key: u32) -> &T {
        match &self.entries[key as usize] {
            Entry::Occupied(value) => value,
            Entry::Vacant(_) => panic!("slab key is vacant"),
        }
    }

    /// Mutable access to the value stored under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is vacant or out of bounds.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> &mut T {
        match &mut self.entries[key as usize] {
            Entry::Occupied(value) => value,
            Entry::Vacant(_) => panic!("slab key is vacant"),
        }
    }

    /// Removes and returns the value under `key`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` is vacant or out of bounds.
    #[inline]
    pub fn remove(&mut self, key: u32) -> T {
        let slot = &mut self.entries[key as usize];
        match std::mem::replace(slot, Entry::Vacant(self.free_head)) {
            Entry::Occupied(value) => {
                self.free_head = key;
                self.live -= 1;
                value
            }
            vacant @ Entry::Vacant(_) => {
                // Undo the speculative replace so the free list stays intact.
                *slot = vacant;
                panic!("slab key is vacant")
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + recyclable) — the slab's
    /// high-water mark of concurrent entries.
    pub fn high_water(&self) -> usize {
        self.entries.len()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A slab whose records are split structure-of-arrays style: the `H`alf
/// touched on every event lives in one dense array, the `C`old remainder
/// in a parallel array loaded only when actually needed. One key
/// addresses both halves.
///
/// Both halves are `Copy`, which is what lets [`HotColdSlab::remove`]
/// hand back the hot half without reading (or dropping) the cold slot —
/// the vacated cold bytes simply go stale until the slot is recycled.
/// The free list lives in a third parallel array of `u32` links, so slot
/// bookkeeping never touches either payload array.
///
/// # Example
///
/// ```
/// use tpv_sim::HotColdSlab;
///
/// let mut slab: HotColdSlab<u64, [u8; 64]> = HotColdSlab::with_capacity(4);
/// let k = slab.insert(7, [0; 64]);
/// assert_eq!(*slab.hot(k), 7);
/// slab.cold_mut(k)[0] = 1;
/// assert_eq!(slab.cold(k)[0], 1);
/// assert_eq!(slab.remove(k), 7); // returns the hot half
/// assert!(slab.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct HotColdSlab<H, C> {
    hot: Vec<H>,
    cold: Vec<C>,
    /// Parallel free-list links: `links[i]` is the next vacant slot when
    /// slot `i` is vacant ([`NONE`] ends the list) and [`OCCUPIED`] when
    /// it is live.
    links: Vec<u32>,
    /// Head of the intrusive free list ([`NONE`] when full).
    free_head: u32,
    live: usize,
}

/// Link value marking a live [`HotColdSlab`] slot.
const OCCUPIED: u32 = u32::MAX - 1;

impl<H: Copy, C: Copy> HotColdSlab<H, C> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty slab with room for `capacity` concurrent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        HotColdSlab {
            hot: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            links: Vec::with_capacity(capacity),
            free_head: NONE,
            live: 0,
        }
    }

    /// Stores a record and returns its key.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 2` slots.
    pub fn insert(&mut self, hot: H, cold: C) -> u32 {
        self.live += 1;
        match self.free_head {
            NONE => {
                let key = u32::try_from(self.hot.len()).expect("slab exceeded u32::MAX slots");
                assert!(key < OCCUPIED, "slab exceeded u32::MAX slots");
                self.hot.push(hot);
                self.cold.push(cold);
                self.links.push(OCCUPIED);
                key
            }
            key => {
                let slot = key as usize;
                debug_assert!(self.links[slot] != OCCUPIED, "free list points at a live slot");
                self.free_head = self.links[slot];
                self.links[slot] = OCCUPIED;
                self.hot[slot] = hot;
                self.cold[slot] = cold;
                key
            }
        }
    }

    /// The hot half of the record under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of bounds; vacancy is checked in debug
    /// builds only (the hot path trades the tag check for density).
    #[inline]
    pub fn hot(&self, key: u32) -> &H {
        debug_assert!(self.links[key as usize] == OCCUPIED, "slab key is vacant");
        &self.hot[key as usize]
    }

    /// The cold half of the record under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of bounds; vacancy is checked in debug
    /// builds only.
    #[inline]
    pub fn cold(&self, key: u32) -> &C {
        debug_assert!(self.links[key as usize] == OCCUPIED, "slab key is vacant");
        &self.cold[key as usize]
    }

    /// Mutable access to the cold half of the record under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of bounds; vacancy is checked in debug
    /// builds only.
    #[inline]
    pub fn cold_mut(&mut self, key: u32) -> &mut C {
        debug_assert!(self.links[key as usize] == OCCUPIED, "slab key is vacant");
        &mut self.cold[key as usize]
    }

    /// Removes the record under `key`, recycling the slot, and returns
    /// its hot half. The cold half is *not* read — completion paths that
    /// only need the hot fields never load the cold array.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of bounds; double-removal is caught in
    /// debug builds only.
    #[inline]
    pub fn remove(&mut self, key: u32) -> H {
        let slot = key as usize;
        debug_assert!(self.links[slot] == OCCUPIED, "slab key is vacant");
        self.links[slot] = self.free_head;
        self.free_head = key;
        self.live -= 1;
        self.hot[slot]
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + recyclable) — the slab's
    /// high-water mark of concurrent entries.
    pub fn high_water(&self) -> usize {
        self.hot.len()
    }
}

impl<H: Copy, C: Copy> Default for HotColdSlab<H, C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let keys: Vec<u32> = (0..100).map(|i| slab.insert(i * 3)).collect();
        assert_eq!(slab.len(), 100);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(*slab.get(k), i as i32 * 3);
        }
        for &k in &keys {
            slab.remove(k);
        }
        assert!(slab.is_empty());
        assert_eq!(slab.high_water(), 100);
    }

    #[test]
    fn keys_are_recycled_lifo() {
        let mut slab = Slab::with_capacity(8);
        let a = slab.insert('a');
        let b = slab.insert('b');
        slab.remove(a);
        slab.remove(b);
        // LIFO recycling: most recently freed slot is reused first.
        assert_eq!(slab.insert('c'), b);
        assert_eq!(slab.insert('d'), a);
        assert_eq!(slab.high_water(), 2, "no new slots while the free list serves");
    }

    #[test]
    fn free_list_survives_interleaved_churn() {
        let mut slab = Slab::new();
        let mut live: Vec<u32> = (0..16u32).map(|i| slab.insert(i)).collect();
        // Free every other key, insert replacements, and verify the
        // arena never grows past the true peak.
        for round in 0..10u32 {
            for _ in 0..8 {
                let k = live.remove((round as usize) % live.len());
                slab.remove(k);
            }
            for i in 0..8u32 {
                live.push(slab.insert(round * 100 + i));
            }
        }
        assert_eq!(slab.len(), 16);
        assert_eq!(slab.high_water(), 16, "churn must recycle, not grow");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut slab = Slab::new();
        let k = slab.insert(vec![1, 2]);
        slab.get_mut(k).push(3);
        assert_eq!(*slab.get(k), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let k = slab.insert(1);
        slab.remove(k);
        slab.remove(k);
    }

    #[test]
    fn hot_cold_round_trip_and_lifo_recycling() {
        let mut slab: HotColdSlab<u32, (u64, u64)> = HotColdSlab::with_capacity(8);
        let a = slab.insert(1, (10, 100));
        let b = slab.insert(2, (20, 200));
        assert_eq!(*slab.hot(a), 1);
        assert_eq!(*slab.cold(b), (20, 200));
        slab.cold_mut(b).0 = 21;
        assert_eq!(slab.cold(b).0, 21);
        assert_eq!(slab.remove(a), 1);
        assert_eq!(slab.remove(b), 2);
        assert!(slab.is_empty());
        // LIFO recycling, matching `Slab`.
        assert_eq!(slab.insert(3, (0, 0)), b);
        assert_eq!(slab.insert(4, (0, 0)), a);
        assert_eq!(slab.high_water(), 2, "no new slots while the free list serves");
    }

    #[test]
    fn hot_cold_keys_match_slab_keys_under_churn() {
        // The kernel swaps `Slab` for `HotColdSlab`; identical recycling
        // keeps the request keys (and so the event payloads) identical.
        let mut plain: Slab<u32> = Slab::new();
        let mut split: HotColdSlab<u32, u32> = HotColdSlab::new();
        let mut live = Vec::new();
        for round in 0..50u32 {
            let kp = plain.insert(round);
            let ks = split.insert(round, round * 2);
            assert_eq!(kp, ks, "key divergence at round {round}");
            live.push(kp);
            if round % 3 == 0 {
                let victim = live.remove((round as usize * 7) % live.len());
                assert_eq!(plain.remove(victim), *split.hot(victim));
                split.remove(victim);
            }
        }
        assert_eq!(plain.len(), split.len());
        assert_eq!(plain.high_water(), split.high_water());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "vacant")]
    fn hot_cold_double_remove_panics_in_debug() {
        let mut slab: HotColdSlab<u8, u8> = HotColdSlab::new();
        let k = slab.insert(1, 2);
        slab.remove(k);
        slab.remove(k);
    }
}
