//! The extendible-hash directory of one second-level table (§3.1–§3.3).
//!
//! [`Directory`] holds the `2^GD` entries, the global depth, the §3.3
//! segment-size limit state and the table's [`MaintRecord`]. Each entry is
//! a [`SegId`], an index into the segment arena of its `table::Table`, in
//! either latch mode. Entry `i` names the segment holding the sub-keys
//! whose top `GD` bits equal `i`; a segment at local depth `LD` fills an
//! aligned span of `2^(GD − LD)` entries, so key order is directory order
//! and a scan steps from span to span.

use crate::audit::{audit_segment, segment_key_bounds};
use crate::params::Params;
use crate::remap::mask64;
use crate::segment::{adaptive_limit_mult, Segment};
use crate::stats::{Maint, MaintRecord};
use index_traits::{AuditReport, Key};
use std::ops::Deref;
use std::time::Instant;

/// Audit invariant ID of a table's key accounting, named once so the
/// seeded-corruption tests cannot drift from the audit.
pub(crate) const TABLE_KEY_COUNT: &str = "table-key-count";

/// Index of a segment in its table's arena.
pub(crate) type SegId = u32;

/// One second-level table's directory; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    /// Number of sub-key bits the table indexes (`n − R`).
    m_total: u32,
    global_depth: u32,
    entries: Vec<SegId>,
    /// Active segment-size limit multiplier (`Limit_seg`, §3.3).
    active_limit_mult: u32,
    /// Whether the adaptive limit decision has been made.
    limit_decided: bool,
    /// Maintenance counts, keys moved and times of this table.
    pub(crate) record: MaintRecord,
}

impl Directory {
    /// A one-entry directory (`GD = 0`) naming segment 0.
    pub(crate) fn new(m_total: u32, params: &Params) -> Self {
        Self::built(m_total, 0, vec![0], params)
    }

    /// A directory of `2^global_depth` `entries` laid out by a bulk build.
    /// A build that already reaches `L_start + 2` has no maintenance
    /// history to decide the §3.3 limit from, so it counts as decided, at
    /// the default `limit_mult`.
    pub(crate) fn built(
        m_total: u32,
        global_depth: u32,
        entries: Vec<SegId>,
        params: &Params,
    ) -> Self {
        assert!((1..=63).contains(&m_total));
        debug_assert_eq!(entries.len(), 1usize << global_depth);
        Directory {
            m_total,
            global_depth,
            entries,
            active_limit_mult: params.limit_mult,
            limit_decided: global_depth >= params.l_start + 2,
            record: MaintRecord::default(),
        }
    }

    /// Sub-key bits of the table.
    #[inline]
    pub(crate) fn m_total(&self) -> u32 {
        self.m_total
    }

    /// Global depth `GD`.
    #[inline]
    pub(crate) fn global_depth(&self) -> u32 {
        self.global_depth
    }

    /// The active segment-size limit multiplier (`limit_mult` until the
    /// §3.3 decision raises it to `limit_mult_raised`).
    #[inline]
    pub(crate) fn active_limit_mult(&self) -> u32 {
        self.active_limit_mult
    }

    /// All `2^GD` entries, in key order.
    #[inline]
    pub(crate) fn entries(&self) -> &[SegId] {
        &self.entries
    }

    /// Directory index of sub-key `sk`: its top `GD` bits.
    #[inline]
    pub(crate) fn index(&self, sk: u64) -> usize {
        (sk >> (self.m_total - self.global_depth)) as usize
    }

    /// The segment of sub-key `sk`.
    #[inline]
    pub(crate) fn entry(&self, sk: u64) -> SegId {
        self.entries[self.index(sk)]
    }

    /// `Limit_seg(LD)` in buckets under the active multiplier.
    #[inline]
    pub(crate) fn segment_cap(&self, local_depth: u32, params: &Params) -> usize {
        params.segment_cap(local_depth, self.active_limit_mult)
    }

    /// Doubles the directory (`GD += 1`), duplicating every entry. The
    /// doubling that brings `GD` to `L_start + 2` makes the §3.3 limit
    /// decision (`L' = L_start + 2`) from the table's maintenance so far.
    pub(crate) fn double(&mut self, params: &Params) {
        let t0 = Instant::now();
        let mut doubled = Vec::with_capacity(self.entries.len() * 2);
        for &e in &self.entries {
            doubled.push(e);
            doubled.push(e);
        }
        self.entries = doubled;
        self.global_depth += 1;
        if !self.limit_decided && self.global_depth >= params.l_start + 2 {
            self.limit_decided = true;
            let s = self.record.snapshot().ops;
            self.active_limit_mult = adaptive_limit_mult(s.splits, s.expansions, s.remaps, params);
        }
        self.record.note(Maint::Double, 0, t0);
    }

    /// Points the directory range of a segment split at local depth `ld`
    /// (any of its entries is `idx`; `ld < GD`) at its halves: the lower
    /// half of the range at `left`, the upper half at `right`.
    pub(crate) fn install_split(&mut self, idx: usize, ld: u32, left: SegId, right: SegId) {
        debug_assert!(ld < self.global_depth);
        let span = 1usize << (self.global_depth - ld - 1);
        let base = idx & !(span * 2 - 1);
        self.entries[base..base + span].fill(left);
        self.entries[base + span..base + 2 * span].fill(right);
    }

    /// First directory index past the span of the segment at local depth
    /// `ld` that entry `idx` names: the scans' step to the next segment in
    /// key order.
    #[inline]
    pub(crate) fn next_index(&self, idx: usize, ld: u32) -> usize {
        let span = 1usize << (self.global_depth - ld);
        (idx & !(span - 1)) + span
    }

    /// Heap bytes of the entry array.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<SegId>()
    }

    /// Audits table `table`'s directory, visiting each segment once in key
    /// order through `segment` (`None` for an entry that names no live
    /// segment: `dir-dangling`): the directory size, and per segment its
    /// local depth and the alignment and coverage of its span. `keys`, the
    /// parameters and the key count the table claims, adds the deep part:
    /// every segment's contents, the key range its prefix allows, key
    /// order across segments, and the key count.
    pub(crate) fn audit<S: Deref<Target = Segment>>(
        &self,
        table: usize,
        keys: Option<(&Params, usize)>,
        report: &mut AuditReport,
        segment: impl Fn(SegId) -> Option<S>,
    ) {
        let (gd, n) = (self.global_depth, self.entries.len());
        let at = |idx: usize| format!("table {table} / dir[{idx}]");
        let size = || (format!("table {table}"), format!("{n} entries at GD {gd}"));
        report.check(n == 1usize << gd, "dir-size", size);
        let (mut total, mut last_key, mut idx) = (0usize, None::<Key>, 0usize);
        while idx < n {
            let entry = self.entries[idx];
            let Some(seg) = segment(entry) else {
                let detail = "entry names no live segment".to_string();
                report.fail("dir-dangling", at(idx), detail);
                idx += 1;
                continue;
            };
            let ld = seg.local_depth;
            let deep = || (at(idx), format!("local depth {ld} exceeds GD {gd}"));
            if !report.check(ld <= gd, "local-depth", deep) {
                idx += 1;
                continue;
            }
            let span = 1usize << (gd - ld);
            let end = (idx + span).min(n);
            let unaligned = || (at(idx), format!("span of {span} starts unaligned"));
            report.check(idx.is_multiple_of(span), "dir-alignment", unaligned);
            let covered = self.entries[idx..end].iter().all(|&e| e == entry);
            let mixed = || (at(idx), format!("span ..{end} mixes directory targets"));
            report.check(covered, "dir-coverage", mixed);
            if let Some((params, _)) = keys {
                let loc = at(idx);
                audit_segment(&seg, self.m_total, params, &loc, report);
                if let Some((first, last)) = segment_key_bounds(&seg) {
                    // Keys are strictly sorted within a segment (checked
                    // above), so range membership of the extremes covers
                    // every key.
                    let (prefix, shift) = ((idx / span) as u64, self.m_total - ld);
                    for key in [first, last] {
                        let inside = ld == 0 || (key & mask64(self.m_total)) >> shift == prefix;
                        let outside = || (loc.clone(), format!("key {key:#x} outside {prefix:#x}"));
                        report.check(inside, "key-range", outside);
                    }
                    let after = || (loc.clone(), format!("key {first:#x} after {last_key:?}"));
                    report.check(last_key.is_none_or(|p| p < first), "table-key-order", after);
                    last_key = Some(last);
                }
                total += seg.num_keys;
            }
            idx += span;
        }
        if let Some((_, claimed)) = keys {
            let loc = format!("table {table}");
            let count = || {
                (
                    loc,
                    format!("segments hold {total} keys, table claims {claimed}"),
                )
            };
            report.check(total == claimed, TABLE_KEY_COUNT, count);
        }
    }
}
