//! Fixed-capacity sorted buckets.
//!
//! A DyTIS bucket (§3.2) stores a fixed number of key-value pairs in two
//! separate arrays — a sorted key array and a value array — exactly like an
//! ALEX data node keeps keys and payloads apart. The bucket size is a byte
//! budget (2 KiB by default, §4.1), which at 8-byte keys and values yields
//! 128 slots.

use crate::simd;
use index_traits::{Key, Value};

// Compare counter for the hint fast-path regression test: counts the
// *explicit* key compares `search_from_hint` performs before handing the
// bracketed window to the lower-bound kernel, so a perfect remap hint is
// observable as exactly one compare.
#[cfg(test)]
thread_local! {
    pub(crate) static HINT_COMPARES: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

/// Counts one explicit compare on the hint path (no-op outside tests).
#[inline(always)]
fn note_compare() {
    #[cfg(test)]
    HINT_COMPARES.with(|c| c.set(c.get() + 1));
}

/// A sorted, fixed-capacity container of key-value pairs.
///
/// Capacity is not stored per bucket; the owning segment passes it in, so a
/// bucket is just two parallel vectors. Keys are raw (original) keys: the
/// remapped key is only used to *choose* the bucket (§3.3, "a remapped key is
/// used to find the bucket index but the raw key is stored in the bucket").
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    keys: Vec<Key>,
    vals: Vec<Value>,
}

impl Bucket {
    /// Creates an empty bucket with space reserved for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Bucket {
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of stored pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the bucket holds no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sorted view of the stored keys.
    #[inline]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Values, parallel to [`Bucket::keys`].
    #[inline]
    pub fn vals(&self) -> &[Value] {
        &self.vals
    }

    /// Key-value pair at `idx`.
    #[inline]
    pub fn pair(&self, idx: usize) -> (Key, Value) {
        (self.keys[idx], self.vals[idx])
    }

    /// Locates `key` with an exponential search started from `hint`
    /// (the position predicted by the remapping function, §3.3).
    ///
    /// Returns `Ok(idx)` if the key is stored at `idx`, `Err(idx)` with the
    /// insertion position otherwise. An exact hint returns after a single
    /// equality compare; otherwise doubling steps bracket `key` in a window
    /// around the hint, which the lower-bound kernel then resolves, so a
    /// good hint costs a couple of compares and a bad one degrades to the
    /// plain whole-bucket search.
    pub fn search_from_hint(&self, key: Key, hint: usize) -> Result<usize, usize> {
        let n = self.keys.len();
        if n == 0 {
            return Err(0);
        }
        let pos = hint.min(n - 1);
        // Perfect prediction — the common case once the remap has learned
        // the local distribution — is one compare.
        note_compare();
        if self.keys[pos] == key {
            return Ok(pos);
        }
        // Exponential search: widen a window around `pos` with doubling
        // steps until it brackets `key`.
        note_compare();
        let (wlo, whi) = if self.keys[pos] < key {
            let mut step = 1usize;
            let mut hi = pos;
            loop {
                if hi >= n - 1 {
                    break (pos + 1, n);
                }
                hi = (hi + step).min(n - 1);
                note_compare();
                if self.keys[hi] >= key {
                    break (pos + 1, hi + 1);
                }
                step *= 2;
            }
        } else {
            let mut step = 1usize;
            let mut lo = pos;
            loop {
                if lo == 0 {
                    break (0, pos + 1);
                }
                lo = lo.saturating_sub(step);
                note_compare();
                if self.keys[lo] <= key {
                    break (lo, pos + 1);
                }
                step *= 2;
            }
        };
        let window = &self.keys[wlo..whi];
        let i = wlo + simd::lower_bound(window, key);
        if i < n && self.keys[i] == key {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// Kernel-dispatched search for `key` over the whole bucket (see
    /// [`crate::simd`] for the kernel selection).
    #[inline]
    pub fn search(&self, key: Key) -> Result<usize, usize> {
        let i = simd::lower_bound(&self.keys, key);
        if i < self.keys.len() && self.keys[i] == key {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// Inserts `(key, value)` preserving sorted order, shifting larger keys
    /// (and their values) right. Returns `false` and updates in place if the
    /// key already exists.
    ///
    /// The caller must have checked the bucket is not full.
    pub fn insert(&mut self, key: Key, value: Value) -> bool {
        match self.search(key) {
            Ok(i) => {
                self.vals[i] = value;
                false
            }
            Err(i) => {
                self.keys.insert(i, key);
                self.vals.insert(i, value);
                true
            }
        }
    }

    /// Appends a sorted run of pairs; the caller guarantees every key in
    /// `pairs` is greater than every stored key (used by segment rebuilds
    /// over sorted input).
    #[inline]
    pub fn extend_sorted(&mut self, pairs: &[(Key, Value)]) {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(self
            .keys
            .last()
            .is_none_or(|&last| pairs.first().is_none_or(|&(k, _)| last < k)));
        self.keys.extend(pairs.iter().map(|&(k, _)| k));
        self.vals.extend(pairs.iter().map(|&(_, v)| v));
    }

    /// Updates `key` in place; returns `false` if absent.
    pub fn update(&mut self, key: Key, value: Value) -> bool {
        match self.search(key) {
            Ok(i) => {
                self.vals[i] = value;
                true
            }
            Err(_) => false,
        }
    }

    /// Removes `key`, shifting larger keys and values left.
    pub fn remove(&mut self, key: Key) -> Option<Value> {
        match self.search(key) {
            Ok(i) => {
                self.keys.remove(i);
                Some(self.vals.remove(i))
            }
            Err(_) => None,
        }
    }

    /// Index of the first key `>= start`, or `len()` if none.
    #[inline]
    pub fn lower_bound(&self, start: Key) -> usize {
        simd::lower_bound(&self.keys, start)
    }

    /// Bulk-appends pairs starting at `slot` into `out`, at most `max` of
    /// them; returns how many were appended. One bounds check per call
    /// instead of one per pair, and the pair copy vectorizes — this is the
    /// scan walk's per-bucket step.
    pub fn append_range(&self, slot: usize, max: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let end = self.keys.len().min(slot.saturating_add(max));
        if slot >= end {
            return 0;
        }
        out.extend(
            self.keys[slot..end]
                .iter()
                .copied()
                .zip(self.vals[slot..end].iter().copied()),
        );
        end - slot
    }

    /// Heap bytes held by this bucket's allocations.
    pub fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.vals.capacity()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(keys: &[Key]) -> Bucket {
        let mut b = Bucket::with_capacity(keys.len() + 8);
        for &k in keys {
            b.insert(k, k * 10);
        }
        b
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let b = filled(&[5, 1, 9, 3, 7]);
        assert_eq!(b.keys(), &[1, 3, 5, 7, 9]);
        assert_eq!(b.vals(), &[10, 30, 50, 70, 90]);
    }

    #[test]
    fn insert_existing_key_updates_in_place() {
        let mut b = filled(&[1, 2, 3]);
        assert!(!b.insert(2, 999));
        assert_eq!(b.len(), 3);
        assert_eq!(b.pair(1), (2, 999));
    }

    #[test]
    fn search_from_hint_finds_all_positions() {
        let b = filled(&[2, 4, 6, 8, 10, 12, 14, 16]);
        for hint in 0..b.len() {
            for (i, &k) in b.keys().iter().enumerate() {
                assert_eq!(b.search_from_hint(k, hint), Ok(i), "key {k} hint {hint}");
            }
            assert_eq!(b.search_from_hint(1, hint), Err(0));
            assert_eq!(b.search_from_hint(7, hint), Err(3));
            assert_eq!(b.search_from_hint(17, hint), Err(8));
        }
    }

    /// Explicit hint-path compares spent by one `search_from_hint` call.
    fn compares_for(b: &Bucket, key: Key, hint: usize) -> u64 {
        let before = HINT_COMPARES.with(|c| c.get());
        let _ = b.search_from_hint(key, hint);
        HINT_COMPARES.with(|c| c.get()) - before
    }

    #[test]
    fn perfect_hint_costs_one_compare() {
        let keys: Vec<Key> = (0..64u64).map(|k| k * 3 + 1).collect();
        let b = filled(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(compares_for(&b, k, i), 1, "exact hint at {i}");
        }
        // Non-vacuity: a far-off hint must pay the doubling loop.
        assert!(compares_for(&b, keys[0], 63) > 1, "bad hint counted as 1");
        assert!(compares_for(&b, keys[63], 0) > 1, "bad hint counted as 1");
    }

    #[test]
    fn search_from_hint_on_empty_bucket() {
        let b = Bucket::with_capacity(4);
        assert_eq!(b.search_from_hint(5, 0), Err(0));
    }

    #[test]
    fn remove_shifts_left() {
        let mut b = filled(&[1, 2, 3, 4]);
        assert_eq!(b.remove(2), Some(20));
        assert_eq!(b.keys(), &[1, 3, 4]);
        assert_eq!(b.remove(2), None);
    }

    #[test]
    fn lower_bound_points_at_first_geq() {
        let b = filled(&[10, 20, 30]);
        assert_eq!(b.lower_bound(5), 0);
        assert_eq!(b.lower_bound(10), 0);
        assert_eq!(b.lower_bound(11), 1);
        assert_eq!(b.lower_bound(31), 3);
    }

    #[test]
    fn search_matches_std_binary_search() {
        // Exhaustive cross-check of the branchless search against the
        // standard-library reference over every length up to a full bucket.
        for n in 0..=128usize {
            let keys: Vec<Key> = (0..n as u64).map(|k| k * 2 + 1).collect();
            let b = filled(&keys);
            for probe in 0..=(2 * n as u64 + 2) {
                assert_eq!(
                    b.search(probe),
                    keys.binary_search(&probe),
                    "n {n} probe {probe}"
                );
                assert_eq!(
                    b.lower_bound(probe),
                    keys.partition_point(|&k| k < probe),
                    "n {n} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn append_range_copies_bulk_pairs() {
        let b = filled(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(b.append_range(1, 3, &mut out), 3);
        assert_eq!(out, vec![(2, 20), (3, 30), (4, 40)]);
        assert_eq!(b.append_range(4, 10, &mut out), 1);
        assert_eq!(out.last(), Some(&(5, 50)));
        assert_eq!(b.append_range(5, 10, &mut out), 0);
        assert_eq!(b.append_range(9, 1, &mut out), 0);
        assert_eq!(b.append_range(0, 0, &mut out), 0);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn update_only_touches_existing() {
        let mut b = filled(&[1]);
        assert!(b.update(1, 7));
        assert!(!b.update(2, 7));
        assert_eq!(b.pair(0), (1, 7));
    }
}
