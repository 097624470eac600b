//! Deep structural audits ([`index_traits::Auditable`]) for DyTIS.
//!
//! One audit serves both latch modes of [`Index`] — [`crate::DyTis`] and
//! [`crate::ConcurrentDyTis`] — and checks:
//!
//! * the remapping function is a trie whose leaves tile the segment's key
//!   range in order, with cumulative bucket offsets equal to the in-order
//!   prefix sums (the monotone-CDF property of §3.2);
//! * every bucket respects its capacity, is strictly sorted, and holds only
//!   keys the remapping function maps to it;
//! * per-segment and per-table key counts add up.
//!
//! Directory-level checks (size, alignment, coverage, key ranges and
//! order across segments) are `Directory::audit` (`directory.rs`), which
//! calls [`audit_segment`] on every segment; the arena check (every
//! segment named by the directory) is `Table::audit_into` (`table.rs`).

use crate::params::Params;
use crate::remap::mask64;
use crate::segment::Segment;
use crate::table::Mode;
use crate::Index;
use index_traits::{AuditReport, Auditable, Key};

/// Smallest and largest key stored in `seg`, or `None` when empty.
pub(crate) fn segment_key_bounds(seg: &Segment) -> Option<(Key, Key)> {
    let first = seg.buckets.iter().find_map(|b| b.keys().first().copied())?;
    let last = seg
        .buckets
        .iter()
        .rev()
        .find_map(|b| b.keys().last().copied())?;
    Some((first, last))
}

/// Audits one segment's internal invariants, prefixing violation locations
/// with `loc` (e.g. `"table 3 / seg 7"`).
pub(crate) fn audit_segment(
    seg: &Segment,
    m_total: u32,
    params: &Params,
    loc: &str,
    report: &mut AuditReport,
) {
    let ld = seg.local_depth;
    if !report.check(ld <= m_total, "local-depth", || {
        (
            loc.to_string(),
            format!("local_depth {ld} exceeds m_total {m_total}"),
        )
    }) {
        return; // The key-bit arithmetic below would underflow.
    }
    let m = m_total - ld;
    let total = seg.remap.total_buckets() as usize;
    report.check(seg.buckets.len() == total, "remap-bucket-count", || {
        (
            loc.to_string(),
            format!(
                "segment has {} buckets but remap function covers {total}",
                seg.buckets.len()
            ),
        )
    });
    report.check(total >= 1, "remap-nonempty", || {
        (loc.to_string(), "remap function has zero buckets".into())
    });

    // Remap shape: leaves tile [0, 2^m) in key order and the cumulative
    // bucket offset of each leaf equals the prefix sum of leaf counts, which
    // makes the function monotone over bucket boundaries.
    if m > 0 {
        let leaves = seg.remap.leaves(m);
        let mut next_start = 0u64;
        let mut cum = 0u64;
        let mut ok_shape = true;
        for (i, leaf) in leaves.iter().enumerate() {
            if !report.check(leaf.depth <= m, "remap-depth", || {
                (
                    format!("{loc} / piece {i}"),
                    format!("leaf depth {} exceeds key width {m}", leaf.depth),
                )
            }) {
                ok_shape = false;
                break;
            }
            if !report.check(leaf.start == next_start, "remap-coverage", || {
                (
                    format!("{loc} / piece {i}"),
                    format!("leaf starts at {:#x}, expected {next_start:#x}", leaf.start),
                )
            }) {
                ok_shape = false;
                break;
            }
            let first_bucket = seg.remap.bucket_index(leaf.start, m) as u64;
            let expected = cum.min(total.saturating_sub(1) as u64);
            report.check(first_bucket == expected, "remap-monotone", || {
                (
                    format!("{loc} / piece {i}"),
                    format!(
                        "first bucket of piece is {first_bucket}, expected cumulative {expected}"
                    ),
                )
            });
            next_start += 1u64 << (m - leaf.depth);
            cum += u64::from(leaf.count);
        }
        if ok_shape {
            report.check(next_start == 1u64 << m, "remap-coverage", || {
                (
                    loc.to_string(),
                    format!(
                        "leaves cover [0, {next_start:#x}), domain is [0, {:#x})",
                        1u64 << m
                    ),
                )
            });
            report.check(cum == total as u64, "remap-total", || {
                (
                    loc.to_string(),
                    format!("leaf counts sum to {cum}, total_buckets is {total}"),
                )
            });
        }
    }

    // Buckets: capacity, occupancy mirror, strict global ordering, remap
    // placement, counts.
    let cap = params.bucket_entries;
    report.check(
        seg.occupancy.len() == seg.buckets.len(),
        "occupancy",
        || {
            (
                loc.to_string(),
                format!(
                    "occupancy array has {} entries for {} buckets",
                    seg.occupancy.len(),
                    seg.buckets.len()
                ),
            )
        },
    );
    let mut keys = 0usize;
    let mut prev: Option<Key> = None;
    for (b, bucket) in seg.buckets.iter().enumerate() {
        report.check(bucket.len() <= cap, "bucket-capacity", || {
            (
                format!("{loc} / bucket {b}"),
                format!("{} entries exceed capacity {cap}", bucket.len()),
            )
        });
        report.check(
            seg.occupancy.get(b).copied() == Some(bucket.len() as u16),
            "occupancy",
            || {
                (
                    format!("{loc} / bucket {b}"),
                    format!(
                        "occupancy says {:?}, bucket holds {}",
                        seg.occupancy.get(b),
                        bucket.len()
                    ),
                )
            },
        );
        for &key in bucket.keys() {
            if let Some(p) = prev {
                report.check(p < key, "key-order", || {
                    (
                        format!("{loc} / bucket {b}"),
                        format!("key {key:#x} follows {p:#x}"),
                    )
                });
            }
            prev = Some(key);
            keys += 1;
            let want = seg.bucket_of(key & mask64(m), m_total);
            report.check(want == b, "key-placement", || {
                (
                    format!("{loc} / bucket {b}"),
                    format!("key {key:#x} remaps to bucket {want}"),
                )
            });
        }
    }
    report.check(keys == seg.num_keys, "segment-key-count", || {
        (
            loc.to_string(),
            format!("buckets hold {keys} keys, segment claims {}", seg.num_keys),
        )
    });
}

impl<M: Mode> Auditable for Index<M> {
    /// Walks every first-level table, directory entry, segment, and
    /// bucket. The latched mode takes each table's read latch, then each
    /// of its segments' read latches in directory order, one at a time;
    /// the caller must hold none of this index's latches.
    fn audit(&self) -> AuditReport {
        let mut report = AuditReport::new(M::NAME);
        let expected_tables = 1usize << self.params.first_level_bits;
        report.check(self.tables.len() == expected_tables, "table-count", || {
            (
                "first level".into(),
                format!("{} tables, expected {expected_tables}", self.tables.len()),
            )
        });
        for (t, table) in self.tables.iter().enumerate() {
            M::read(table).audit_into(Some(&self.params), t, &mut report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DyTis;
    use index_traits::KvIndex;

    #[test]
    fn fresh_index_audits_clean() {
        let idx = DyTis::with_params(Params::small());
        let report = idx.audit();
        assert!(report.checks > 0, "audit must evaluate checks");
        report.assert_clean();
    }

    #[test]
    fn grown_index_audits_clean() {
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..20_000u64 {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
        }
        for k in 0..5_000u64 {
            idx.remove(k.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let report = idx.audit();
        assert!(report.checks > 20_000);
        report.assert_clean();
    }

    #[test]
    fn segment_bounds_of_empty_segment() {
        let seg = Segment::new(0);
        assert_eq!(segment_key_bounds(&seg), None);
    }
}
