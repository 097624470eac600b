//! Property-based checkpoint roundtrips: for every `KvIndex + BulkLoad`
//! implementation, a `DYTIS2` save → restore cycle must reproduce the exact
//! pair set — via both builds over the one reader (collect-then-bulk-load
//! and insert-by-insert) — for arbitrary key sets including the empty and
//! single-key edges.
//!
//! Gated behind the `proptest` feature (`cargo test --features proptest`)
//! so the default offline test run stays lean.
#![cfg(feature = "proptest")]

use dytis_repro::alex_index::Alex;
use dytis_repro::durability;
use dytis_repro::dytis::{DyTis, Params};
use dytis_repro::index_traits::{BulkLoad, KvIndex};
use dytis_repro::lipp::Lipp;
use dytis_repro::stx_btree::BPlusTree;
use dytis_repro::xindex::XIndex;
use proptest::prelude::*;
use std::io::Cursor;

/// Sorted, deduplicated pairs from an arbitrary key set.
fn pairs_from_keys(keys: &std::collections::HashSet<u64>) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = keys
        .iter()
        .map(|&k| (k, k.wrapping_mul(0xA24B_AED4_963E_E407)))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Full-contents read-back: scan from 0 in chunks until exhausted.
fn dump<I: KvIndex>(idx: &I) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(idx.len());
    idx.scan(0, idx.len() + 16, &mut out);
    out
}

/// Save via the generic `DYTIS2` writer, then restore through BOTH builds
/// fed by the one reader and demand exact equality with the source pairs.
fn roundtrip<I: KvIndex + BulkLoad>(new: impl Fn() -> I, pairs: &[(u64, u64)]) {
    // Source index built through the normal insert path.
    let mut src = new();
    for &(k, v) in pairs {
        src.insert(k, v);
    }
    assert_eq!(src.len(), pairs.len(), "{}: bad source build", src.name());

    let mut buf = Vec::new();
    durability::save_index(&src, &mut buf).expect("save");

    // Path 1: collect the stream, then bulk load (how the learned
    // baselines reload).
    let mut read = Vec::new();
    durability::read_checkpoint(&mut Cursor::new(&buf), |k, v| read.push((k, v))).expect("read");
    let bulk = I::bulk_load(&read);
    assert_eq!(bulk.len(), pairs.len(), "{}: bulk len", bulk.name());
    assert_eq!(dump(&bulk), pairs, "{}: bulk contents", bulk.name());

    // Path 2: insert-by-insert restore into a fresh index.
    let mut incremental = new();
    durability::read_checkpoint(&mut Cursor::new(&buf), |k, v| incremental.insert(k, v))
        .expect("insert restore");
    assert_eq!(
        dump(&incremental),
        pairs,
        "{}: incremental contents",
        incremental.name()
    );
}

/// The deterministic edges the sweep must always cover, independent of what
/// the random cases draw (the shim has no shrinking, so explicit edges
/// matter).
fn edges<I: KvIndex + BulkLoad>(new: impl Fn() -> I) {
    roundtrip(&new, &[]);
    roundtrip(&new, &[(0, 17)]);
    roundtrip(&new, &[(u64::MAX, 1)]);
    roundtrip(&new, &[(0, 1), (u64::MAX, 2)]);
}

#[test]
fn edge_cases_every_impl() {
    edges(|| DyTis::with_params(Params::small()));
    edges(DyTis::new);
    edges(BPlusTree::new);
    edges(Alex::new);
    edges(XIndex::new);
    edges(Lipp::new);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 32 }))]

    #[test]
    fn dytis_roundtrip(keys in prop::collection::hash_set(any::<u64>(), 0..500)) {
        roundtrip(|| DyTis::with_params(Params::small()), &pairs_from_keys(&keys));
    }

    #[test]
    fn btree_roundtrip(keys in prop::collection::hash_set(any::<u64>(), 0..500)) {
        roundtrip(BPlusTree::new, &pairs_from_keys(&keys));
    }

    #[test]
    fn alex_roundtrip(keys in prop::collection::hash_set(any::<u64>(), 0..500)) {
        roundtrip(Alex::new, &pairs_from_keys(&keys));
    }

    #[test]
    fn xindex_roundtrip(keys in prop::collection::hash_set(any::<u64>(), 0..500)) {
        roundtrip(XIndex::new, &pairs_from_keys(&keys));
    }

    #[test]
    fn lipp_roundtrip(keys in prop::collection::hash_set(any::<u64>(), 0..500)) {
        roundtrip(Lipp::new, &pairs_from_keys(&keys));
    }

    /// Dense key ranges stress the sortedness check and scan batching
    /// differently from sparse draws.
    #[test]
    fn dense_range_roundtrip(start in any::<u32>(), len in 0usize..2_000) {
        let pairs: Vec<(u64, u64)> = (0..len as u64)
            .map(|i| (start as u64 + i, i))
            .collect();
        roundtrip(|| DyTis::with_params(Params::small()), &pairs);
        roundtrip(BPlusTree::new, &pairs);
    }
}
