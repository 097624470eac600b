//! Loom models of the §3.4 two-level locking protocol.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"` (the `loom` CI
//! job); each test explores every bounded interleaving of a 2–3 thread,
//! tiny-keyspace scenario through `crates/core`'s `sync` facade and
//! asserts linearizability against a sequential oracle plus the
//! [`Auditable`] deep invariants at quiescence.
//!
//! | model | protocol checked |
//! |---|---|
//! | `insert_vs_split` | concurrent insert while another insert splits the segment and doubles the directory |
//! | `get_vs_directory_doubling` | read-path (dir read → segment read) racing structural surgery under the dir write lock |
//! | `get_vs_remap` | point read (dir read → segment read) racing an in-place `remap_adjust` under the segment write lock |
//! | `scan_vs_remap` | scan's directory walk racing a segment-local remap (`remap_adjust`) |
//! | `counter_dispatch_maintenance_race` | the PR 4 counter fast path: both threads see a full bucket, one repairs, the other must re-check (`bucket_len`) and retry, losing nothing |
//! | `seeded_torn_counter_is_caught` | non-vacuity: a deliberately broken insert (torn counter update outside the lock) must produce a counterexample |
//!
//! Keyspace: `K(i) = i << 40` with 1 first-level bit and 2-entry buckets,
//! chosen (see the maintenance-trigger sweep in the PR introducing this
//! file) so the 3rd insert forces split + directory doubling and the 7th
//! forces a pure remap.
#![cfg(loom)]

use dytis::{ConcurrentDyTis, Params};
use index_traits::{Auditable, ConcurrentKvIndex};
use loom::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parameters shrunk until every structural operation fires within a
/// handful of inserts: 2 tables, 2-entry buckets, maintenance from LD 1.
fn tiny() -> Params {
    Params {
        first_level_bits: 1,
        bucket_entries: 2,
        l_start: 1,
        limit_mult: 2,
        limit_mult_raised: 4,
        ..Params::default()
    }
}

/// Key layout: high bit 0 (single table), spread across the sub-key space.
fn key(i: u64) -> u64 {
    i << 40
}

fn prefilled(n: u64) -> Arc<ConcurrentDyTis> {
    let idx = Arc::new(ConcurrentDyTis::with_params(tiny()));
    for i in 0..n {
        idx.insert(key(i), i);
    }
    idx
}

/// `loom::model`, plus a line on stderr (`--nocapture`) with the number of
/// schedules explored; the shim itself only reports the count on failure.
fn model(name: &str, f: impl Fn() + Send + Sync + 'static) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let schedules = std::sync::Arc::new(AtomicUsize::new(0));
    let seen = std::sync::Arc::clone(&schedules);
    loom::model(move || {
        seen.fetch_add(1, Ordering::Relaxed);
        f();
    });
    let n = schedules.load(Ordering::Relaxed);
    eprintln!("loom: {name}: {n} schedule(s)");
}

/// Insert racing a segment split + directory doubling: the 3rd and 4th
/// inserts both overflow the only bucket, so both threads race through
/// `maintain` (directory write lock) and the fast-path retry loop.
#[test]
fn insert_vs_split() {
    model("insert_vs_split", || {
        let idx = prefilled(2);
        let t = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || idx.insert(key(2), 2))
        };
        idx.insert(key(3), 3);
        t.join().expect("writer");
        // Sequential oracle: exactly keys 0..=3, each with its value.
        assert_eq!(idx.len(), 4);
        for i in 0..4 {
            assert_eq!(idx.get(key(i)), Some(i), "key {i} lost");
        }
        let stats = idx.maintenance_stats();
        assert!(stats.splits >= 1, "split never exercised: {stats:?}");
        assert!(stats.doublings >= 1, "doubling never exercised: {stats:?}");
        idx.audit().assert_clean();
    });
}

/// Point read racing directory doubling + split: `get` takes the directory
/// read lock then a segment read lock; the writer rewrites the directory
/// under the write lock. A prefilled key must be visible in every
/// interleaving — keys are never dropped by structural surgery.
#[test]
fn get_vs_directory_doubling() {
    model("get_vs_directory_doubling", || {
        let idx = prefilled(2);
        let t = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || idx.insert(key(2), 2))
        };
        assert_eq!(idx.get(key(0)), Some(0), "reader lost a stable key");
        assert_eq!(idx.get(key(7)), None, "phantom key");
        t.join().expect("writer");
        assert_eq!(idx.len(), 3);
        assert!(idx.maintenance_stats().doublings >= 1);
        idx.audit().assert_clean();
    });
}

/// Scan's directory walk racing a segment-local remap: the 7th insert
/// triggers `remap_adjust` (no split, no doubling), which rebuilds the
/// segment's bucket array while a scanner walks segments under read locks.
/// Every prefilled key must appear, in order, in every interleaving.
#[test]
fn scan_vs_remap() {
    model("scan_vs_remap", || {
        let idx = prefilled(6);
        let remaps_before = idx.maintenance_stats().remaps;
        let t = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || idx.insert(key(6), 6))
        };
        let mut out = Vec::new();
        // key(6) sorts after every prefilled key, so the first 6 scanned
        // pairs are exactly the prefill regardless of insert timing.
        idx.scan(0, 6, &mut out);
        let expected: Vec<(u64, u64)> = (0..6).map(|i| (key(i), i)).collect();
        assert_eq!(out, expected, "scan dropped or reordered keys");
        t.join().expect("writer");
        assert!(
            idx.maintenance_stats().remaps > remaps_before,
            "remap never exercised"
        );
        assert_eq!(idx.len(), 7);
        idx.audit().assert_clean();
    });
}

/// The PR 4 maintenance-counter fast path: both writers overflow the same
/// bucket and call `maintain`; whichever arrives second must take the
/// `bucket_len(b) < bucket_entries` early return (the repair already
/// happened) and succeed on retry. No insert may be lost and the
/// occupancy counters must audit clean.
#[test]
fn counter_dispatch_maintenance_race() {
    model("counter_dispatch_maintenance_race", || {
        let idx = prefilled(2);
        // Both keys land in the region of the (full) initial bucket.
        let t = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || idx.insert(key(2), 102))
        };
        idx.insert(key(2) + (1 << 39), 103);
        t.join().expect("writer");
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.get(key(2)), Some(102));
        assert_eq!(idx.get(key(2) + (1 << 39)), Some(103));
        // Occupancy/segment-key-count invariants (the counters behind the
        // fast-path dispatch) are part of the deep audit.
        idx.audit().assert_clean();
    });
}

/// Point read racing an in-place `remap_adjust`: the remap rebuilds the
/// segment's bucket array under its write lock while the reader holds the
/// directory read lock and waits for the segment read lock. Both stable
/// keys must be found in every interleaving.
#[test]
fn get_vs_remap() {
    model("get_vs_remap", || {
        let idx = prefilled(6);
        let remaps_before = idx.maintenance_stats().remaps;
        let t = {
            let idx = Arc::clone(&idx);
            loom::thread::spawn(move || idx.insert(key(6), 6))
        };
        assert_eq!(idx.get(key(0)), Some(0), "reader lost a stable key");
        assert_eq!(idx.get(key(5)), Some(5), "reader lost a stable key");
        t.join().expect("writer");
        assert!(
            idx.maintenance_stats().remaps > remaps_before,
            "remap never exercised"
        );
        assert_eq!(idx.len(), 7);
        idx.audit().assert_clean();
    });
}

/// Non-vacuity: the deliberately broken insert (torn counter update after
/// the segment lock is dropped — see `insert_seeded_torn_counter`) must
/// yield a schedule where one increment is lost. If this test fails, the
/// model checker is not exploring the interleavings the other models rely
/// on.
#[test]
fn seeded_torn_counter_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let idx = Arc::new(ConcurrentDyTis::with_params(tiny()));
            let t = {
                let idx = Arc::clone(&idx);
                loom::thread::spawn(move || idx.insert_seeded_torn_counter(key(0), 0))
            };
            idx.insert_seeded_torn_counter(key(1), 1);
            t.join().expect("writer");
            assert_eq!(idx.len(), 2, "torn counter lost an increment");
        });
    }));
    assert!(
        result.is_err(),
        "loom failed to catch the seeded torn-counter bug — models are vacuous"
    );
}
