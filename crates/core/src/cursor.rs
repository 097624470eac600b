//! Resumable structural scan cursor.
//!
//! `DyTis::range` used to re-run the whole descent — first-level table,
//! directory lookup, remapping prediction, bucket lower bound — once per
//! 256-key batch. A [`ScanCursor`] pays that positioning cost once:
//! because bucket indices are monotone in the key (§3.2), one remap
//! prediction plus one branchless lower bound lands on the first
//! qualifying pair, and everything after it in structural order (table →
//! directory span → bucket → slot) already satisfies the predicate.
//! Resuming is O(1).
//!
//! # Invalidation
//!
//! The position is structural (directory index, bucket, slot), not
//! key-based, so any mutation of the index invalidates it: a split or remap
//! moves pairs, a doubling renumbers every directory index, and even a
//! plain in-bucket insert shifts slot indices. Rather
//! than documenting the hazard and hoping, the index carries a generation
//! counter ([`DyTis::generation`]) bumped by every `insert`/`remove`;
//! [`DyTis::scan_next`] compares it against the generation recorded at
//! [`DyTis::scan_cursor`] time and returns [`CursorInvalidated`] instead of
//! walking stale structure. [`DyTis::resume_cursor`] restarts cleanly from
//! just past the last yielded key.
//!
//! The cursor belongs to the exclusive mode only: the check relies on
//! every mutation taking `&mut self`, and a latched write takes `&self`.

use crate::table::{Exclusive, Table};
use crate::DyTis;
use index_traits::{Key, Value};

/// The index was mutated after this cursor was created; its structural
/// position can no longer be trusted. Recover with [`DyTis::resume_cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorInvalidated;

impl std::fmt::Display for CursorInvalidated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("scan cursor invalidated by index mutation")
    }
}

impl std::error::Error for CursorInvalidated {}

/// A resumable position inside a [`DyTis`] scan.
///
/// Obtained from [`DyTis::scan_cursor`], advanced by [`DyTis::scan_next`].
/// Mutating the index invalidates outstanding cursors; unlike iterator
/// invalidation on the standard collections this is *checked*: a stale
/// cursor makes `scan_next` return [`CursorInvalidated`] rather than
/// walking recycled structure.
#[derive(Debug, Clone, Copy)]
pub struct ScanCursor {
    /// First-level table currently being walked.
    table: usize,
    /// Resume position (directory index, bucket, slot) within `table`;
    /// `None` means the table is entered from its first segment.
    pos: Option<(usize, usize, usize)>,
    /// All tables have been walked to their end.
    exhausted: bool,
    /// [`DyTis::generation`] at creation time; a mismatch on resume means
    /// the structural position may be stale.
    generation: u64,
    /// The key the cursor was created with, so an invalidated cursor that
    /// has not yielded anything yet can restart from the right place.
    start: Key,
    /// Key of the last pair yielded through this cursor, if any.
    last_key: Option<Key>,
}

impl ScanCursor {
    /// Returns `true` once the cursor has walked past the last stored pair.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Key of the last pair this cursor yielded, or `None` before the first
    /// batch. [`DyTis::resume_cursor`] continues from just past it.
    pub fn last_key(&self) -> Option<Key> {
        self.last_key
    }
}

impl DyTis {
    /// Creates a cursor positioned at the first pair with key `>= start`.
    pub fn scan_cursor(&self, start: Key) -> ScanCursor {
        let table = self.table_of(start);
        let pos = self.tables[table].0.position(self.sub_key(start), start);
        ScanCursor {
            table,
            pos: Some(pos),
            exhausted: false,
            generation: self.generation(),
            start,
            last_key: None,
        }
    }

    /// Appends pairs in ascending key order until `out` holds `count`
    /// entries or the index is exhausted. Returns `Ok(true)` while more
    /// pairs may remain (call again to continue), `Ok(false)` once the
    /// cursor is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`CursorInvalidated`] when the index was mutated after the
    /// cursor was created; nothing is appended to `out` in that case. Use
    /// [`DyTis::resume_cursor`] to continue from the last yielded key.
    pub fn scan_next(
        &self,
        cur: &mut ScanCursor,
        count: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Result<bool, CursorInvalidated> {
        if cur.generation != self.generation() {
            return Err(CursorInvalidated);
        }
        // A re-entered cursor starts cold: hint its resume bucket in while
        // the walk below re-derives the structural position.
        if let Some((idx, b, _)) = cur.pos {
            self.tables[cur.table].0.prefetch(idx, b);
        }
        let before = out.len();
        let more = loop {
            if out.len() >= count {
                break !cur.exhausted;
            }
            if cur.exhausted {
                break false;
            }
            let table = &self.tables[cur.table].0;
            let walked = match cur.pos {
                Some((idx, b, slot)) => table.walk(idx, |_| (b, slot), count, out),
                // Empty tables are skipped without touching their directory.
                None if table.is_empty() => None,
                None => table.walk(0, |_| (0, 0), count, out),
            };
            match walked {
                Some(pos) => cur.pos = Some(pos),
                None => {
                    cur.pos = None;
                    if cur.table + 1 < self.tables.len() {
                        cur.table += 1;
                    } else {
                        cur.exhausted = true;
                    }
                }
            }
        };
        if out.len() > before {
            cur.last_key = Some(out[out.len() - 1].0);
        }
        Ok(more)
    }

    /// Rebuilds a (possibly invalidated) cursor against the index's current
    /// structure: positioned just past the last key `cur` yielded, or at
    /// its original start key when it yielded nothing yet.
    ///
    /// Pairs the cursor already yielded are never re-yielded; pairs
    /// inserted or removed by the invalidating mutation are reflected from
    /// the resume point on — the same semantics as restarting a keyset scan
    /// at `last_key + 1`.
    pub fn resume_cursor(&self, cur: &ScanCursor) -> ScanCursor {
        match cur.last_key {
            // The last yielded key was the maximum possible key: nothing
            // can follow it, the resumed cursor starts exhausted.
            Some(Key::MAX) => ScanCursor {
                table: self.tables.len() - 1,
                pos: None,
                exhausted: true,
                generation: self.generation(),
                start: cur.start,
                last_key: cur.last_key,
            },
            Some(last) => {
                let mut fresh = self.scan_cursor(last + 1);
                fresh.start = cur.start;
                fresh.last_key = cur.last_key;
                fresh
            }
            None => self.scan_cursor(cur.start),
        }
    }
}

impl Table<Exclusive> {
    /// Structural position (directory index, bucket, slot) of the first
    /// pair with key `>= start_key` (sub-key `start_sk`): one directory
    /// lookup, then [`crate::segment::Segment::seek`]. Every pair at or
    /// after this position has a key `>= start_key`, so a scan resumed
    /// from such a position never needs to re-predict.
    fn position(&self, start_sk: u64, start_key: Key) -> (usize, usize, usize) {
        let idx = self.dir.index(start_sk);
        let seg = &self.segs[self.dir.entries()[idx] as usize].0;
        let (b, slot) = seg.seek(start_sk, start_key, self.dir.m_total());
        (idx, b, slot)
    }

    /// Cache hint for a resume position: pulls the bucket the next
    /// [`Table::walk`] will start from into cache ahead of the walk's
    /// directory work (see [`DyTis::scan_next`]).
    fn prefetch(&self, idx: usize, b: usize) {
        let seg = self
            .dir
            .entries()
            .get(idx)
            .map(|&id| &self.segs[id as usize].0);
        if let Some(bucket) = seg.and_then(|s| s.buckets.get(b)) {
            crate::simd::prefetch_slice(bucket.keys());
            crate::simd::prefetch_slice(bucket.vals());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CursorInvalidated, DyTis, Params};
    use index_traits::KvIndex;

    fn grown() -> DyTis {
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..10_000u64 {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
        }
        idx
    }

    #[test]
    fn cursor_batches_concatenate_to_one_scan() {
        let idx = grown();
        let mut whole = Vec::new();
        idx.scan(0, 10_000, &mut whole);
        assert_eq!(whole.len(), 10_000);

        for batch in [1usize, 7, 97, 1024] {
            let mut cur = idx.scan_cursor(0);
            let mut stepped = Vec::new();
            while idx
                .scan_next(&mut cur, stepped.len() + batch, &mut stepped)
                .expect("no mutation during scan")
            {}
            assert!(cur.is_exhausted());
            assert_eq!(stepped, whole, "batch {batch}");
        }
    }

    #[test]
    fn cursor_from_midpoint_matches_scan() {
        let idx = grown();
        let start = 1u64 << 63;
        let mut want = Vec::new();
        idx.scan(start, 2_000, &mut want);

        let mut cur = idx.scan_cursor(start);
        let mut got = Vec::new();
        while got.len() < 2_000
            && idx
                .scan_next(&mut cur, got.len() + 128, &mut got)
                .expect("no mutation during scan")
        {}
        got.truncate(2_000);
        assert_eq!(got, want);
    }

    #[test]
    fn cursor_on_empty_index_is_exhausted_immediately() {
        let idx = DyTis::with_params(Params::small());
        let mut cur = idx.scan_cursor(0);
        let mut out = Vec::new();
        assert!(!idx
            .scan_next(&mut cur, 10, &mut out)
            .expect("no mutation during scan"));
        assert!(out.is_empty());
        assert!(cur.is_exhausted());
    }

    #[test]
    fn cursor_past_last_key_yields_nothing() {
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..100u64 {
            idx.insert(k, k);
        }
        let mut cur = idx.scan_cursor(1_000_000);
        let mut out = Vec::new();
        idx.scan_next(&mut cur, 10, &mut out)
            .expect("no mutation during scan");
        assert!(out.is_empty());
        assert!(cur.is_exhausted());
    }

    #[test]
    fn any_mutation_invalidates_cursor() {
        let mut idx = grown();
        let mut cur = idx.scan_cursor(0);
        let mut out = Vec::new();
        assert!(idx
            .scan_next(&mut cur, 100, &mut out)
            .expect("fresh cursor is valid"));
        assert_eq!(out.len(), 100);

        idx.insert(42, 42);
        assert_eq!(
            idx.scan_next(&mut cur, 200, &mut out),
            Err(CursorInvalidated)
        );
        // The error is sticky and appends nothing.
        assert_eq!(out.len(), 100);
        assert_eq!(
            idx.scan_next(&mut cur, 200, &mut out),
            Err(CursorInvalidated)
        );

        idx.remove(42);
        let mut cur = idx.scan_cursor(0);
        idx.remove(out[0].0);
        assert_eq!(
            idx.scan_next(&mut cur, 10, &mut Vec::new()),
            Err(CursorInvalidated)
        );
    }

    #[test]
    fn split_mid_scan_is_detected_and_resumable() {
        // Build a small-params index, walk part of it, then force splits by
        // inserting a dense cluster: the resumed scan must neither skip nor
        // duplicate surviving keys even though segment ids were reshuffled.
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..10_000u64 {
            idx.insert(k * 16, k);
        }
        let mut cur = idx.scan_cursor(0);
        let mut got = Vec::new();
        assert!(idx
            .scan_next(&mut cur, 3_000, &mut got)
            .expect("fresh cursor is valid"));
        assert_eq!(got.len(), 3_000);
        let resume_floor = got[got.len() - 1].0;

        // Tripling the key run forces structural maintenance — the same
        // pattern that split segments during the initial load — so segment
        // ids get reshuffled under the outstanding cursor. All new keys lie
        // above `resume_floor`, so the resumed tail must include them.
        let splits_before = idx.stats().ops.splits;
        for k in 10_000..30_000u64 {
            idx.insert(k * 16, k);
        }
        assert!(
            idx.stats().ops.splits > splits_before,
            "growing the run was expected to split at least one segment"
        );

        assert_eq!(
            idx.scan_next(&mut cur, got.len() + 100, &mut got),
            Err(CursorInvalidated)
        );

        // Resume: everything from just past the last yielded key, against
        // the post-split structure.
        let mut cur = idx.resume_cursor(&cur);
        assert_eq!(cur.last_key(), Some(resume_floor));
        let mut tail = Vec::new();
        while idx
            .scan_next(&mut cur, tail.len() + 512, &mut tail)
            .expect("no mutation after resume")
        {}
        let mut all: Vec<(u64, u64)> = got.clone();
        all.extend(&tail);
        assert_eq!(all.len(), idx.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no dups");
        // The resumed walk reflects the mutation: the new keys appear.
        assert!(tail.iter().any(|&(k, _)| k == 29_999 * 16));
    }

    #[test]
    fn resume_before_first_batch_restarts_at_start() {
        let mut idx = grown();
        let cur = idx.scan_cursor(1 << 62);
        idx.insert(7, 7);
        let mut cur = idx.resume_cursor(&cur);
        let mut out = Vec::new();
        idx.scan_next(&mut cur, 10, &mut out)
            .expect("resumed cursor is valid");
        assert!(out.iter().all(|&(k, _)| k >= 1 << 62));
    }

    #[test]
    fn resume_after_max_key_is_exhausted() {
        let mut idx = DyTis::with_params(Params::small());
        idx.insert(u64::MAX, 1);
        let mut cur = idx.scan_cursor(u64::MAX);
        let mut out = Vec::new();
        while idx
            .scan_next(&mut cur, out.len() + 8, &mut out)
            .expect("no mutation during scan")
        {}
        assert_eq!(out, vec![(u64::MAX, 1)]);
        idx.insert(3, 3);
        let mut cur = idx.resume_cursor(&cur);
        assert!(cur.is_exhausted());
        let mut out = Vec::new();
        assert!(!idx
            .scan_next(&mut cur, 8, &mut out)
            .expect("resumed cursor is valid"));
        assert!(out.is_empty());
    }
}
