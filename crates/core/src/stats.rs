//! Maintenance statistics and timing breakdown (§4.3 "Insertion Breakdown").

use crate::sync::atomic::{AtomicU64, Ordering};
use index_traits::MaintenanceStats;
use std::time::Instant;

/// Wall-clock time spent in each maintenance operation, in nanoseconds.
///
/// Timing is only taken around the (rare) structure-changing operations, so
/// the overhead on the insert fast path is zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpTimes {
    /// Nanoseconds spent performing segment splits.
    pub split_ns: u64,
    /// Nanoseconds spent performing expansions.
    pub expansion_ns: u64,
    /// Nanoseconds spent performing remappings.
    pub remap_ns: u64,
    /// Nanoseconds spent performing directory doublings.
    pub doubling_ns: u64,
    /// Nanoseconds spent performing delete-driven segment shrinks.
    pub shrink_ns: u64,
}

impl OpTimes {
    /// Total maintenance time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.split_ns + self.expansion_ns + self.remap_ns + self.doubling_ns + self.shrink_ns
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &OpTimes) {
        self.split_ns += other.split_ns;
        self.expansion_ns += other.expansion_ns;
        self.remap_ns += other.remap_ns;
        self.doubling_ns += other.doubling_ns;
        self.shrink_ns += other.shrink_ns;
    }
}

/// Combined counters + timing for a DyTIS instance.
#[derive(Debug, Default, Clone, Copy)]
pub struct DytisStats {
    /// Structure-maintenance counters (shared shape with the baselines).
    pub ops: MaintenanceStats,
    /// Per-operation timing breakdown.
    pub times: OpTimes,
}

impl DytisStats {
    /// Adds another instance's statistics into this one.
    pub fn merge(&mut self, other: &DytisStats) {
        self.ops.merge(&other.ops);
        self.times.merge(&other.times);
    }
}

/// One structural maintenance operation, as [`MaintRecord::note`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Maint {
    Split,
    Expand,
    Remap,
    Double,
    Shrink,
}

/// The maintenance record of one second-level table, filled in both latch
/// modes: per-operation counts and time, plus the keys the rebuilds moved.
/// Atomic so the latched mode can record segment-local repairs under its
/// table *read* latch.
#[derive(Debug, Default)]
pub(crate) struct MaintRecord {
    /// Indexed by [`Maint`].
    counts: [AtomicU64; 5],
    /// Nanoseconds, indexed by [`Maint`].
    times: [AtomicU64; 5],
    keys_moved: AtomicU64,
}

impl MaintRecord {
    /// Records one `op` that started at `t0` and moved `keys` keys, and
    /// emits its `dytis.*` obs counter and timing histogram.
    pub(crate) fn note(&self, op: Maint, keys: u64, t0: Instant) {
        let dt = t0.elapsed().as_nanos() as u64;
        let i = op as usize;
        // relaxed: monotonic statistics. The one reader that acts on them,
        // the §3.3 limit decision, holds the table write latch, which
        // orders every increment made under a table latch before it; all
        // other reads happen after the writers quiesced.
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        // relaxed: see above.
        self.times[i].fetch_add(dt, Ordering::Relaxed);
        // relaxed: see above.
        self.keys_moved.fetch_add(keys, Ordering::Relaxed);
        // `counter!` caches its handle per call site, so each name needs
        // its own site.
        macro_rules! emit {
            ($name:literal) => {{
                obs::counter!($name).inc();
                obs::histogram!(concat!($name, "_ns")).record(dt);
            }};
        }
        match op {
            Maint::Split => emit!("dytis.split"),
            Maint::Expand => emit!("dytis.expand"),
            Maint::Remap => emit!("dytis.remap"),
            Maint::Double => emit!("dytis.double"),
            Maint::Shrink => emit!("dytis.shrink"),
        }
    }

    /// The record as plain numbers.
    pub(crate) fn snapshot(&self) -> DytisStats {
        // relaxed: see `note`.
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let [splits, expansions, remaps, doublings, shrinks] = self.counts.each_ref().map(load);
        let [split_ns, expansion_ns, remap_ns, doubling_ns, shrink_ns] =
            self.times.each_ref().map(load);
        DytisStats {
            ops: MaintenanceStats {
                splits,
                expansions,
                remaps,
                doublings,
                shrinks,
                keys_moved: load(&self.keys_moved),
            },
            times: OpTimes {
                split_ns,
                expansion_ns,
                remap_ns,
                doubling_ns,
                shrink_ns,
            },
        }
    }
}

impl Clone for MaintRecord {
    fn clone(&self) -> Self {
        // relaxed: only the exclusive mode's tables, which one thread
        // owns, are cloned, so no note is in flight.
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        MaintRecord {
            counts: self.counts.each_ref().map(copy),
            times: self.times.each_ref().map(copy),
            keys_moved: copy(&self.keys_moved),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimes_total_and_merge() {
        let mut a = OpTimes {
            split_ns: 1,
            expansion_ns: 2,
            remap_ns: 3,
            doubling_ns: 4,
            shrink_ns: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total_ns(), 30);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = DytisStats::default();
        let mut b = DytisStats::default();
        b.ops.splits = 3;
        b.ops.shrinks = 2;
        b.ops.keys_moved = 7;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.ops.splits, 6);
        assert_eq!(a.ops.shrinks, 4);
        assert_eq!(a.ops.keys_moved, 14);
    }
}
