//! Property-based equivalence tests for the vectorized probe kernels
//! (DESIGN.md §15). The dispatched `simd::lower_bound` — AVX2 where the
//! CPU has it, the chunked scalar kernel elsewhere — must agree exactly
//! with the branchless reference and with `partition_point` on every
//! input: all lengths through several vector widths (so every lane
//! remainder 0..8 is hit), adjacent duplicates, probes at/around stored
//! keys, and the extremes. Under miri (or with `DYTIS_FORCE_SCALAR` set)
//! the dispatcher pins itself to the scalar kernel, so the same suite
//! proves the fallback too.
//!
//! Gated behind the `proptest` feature (`cargo test --features proptest`)
//! so the default offline test run stays lean.
#![cfg(feature = "proptest")]

use dytis::simd;
use proptest::prelude::*;

/// Sorted (not deduplicated) key array: adjacent duplicates are exactly
/// what a plain binary search gets wrong first, so keep them.
fn sorted_keys(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..=max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Small-domain variant: keys drawn from 0..32 force dense duplicate runs.
fn clustered_keys(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..32, 0..=max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

fn check_all_kernels(keys: &[u64], probe: u64) -> Result<(), TestCaseError> {
    let want = keys.partition_point(|&k| k < probe);
    prop_assert_eq!(
        simd::lower_bound(keys, probe),
        want,
        "dispatched kernel ({}) diverged: len {} probe {:#x}",
        simd::active_kernel(),
        keys.len(),
        probe
    );
    prop_assert_eq!(
        simd::lower_bound_scalar(keys, probe),
        want,
        "scalar kernel diverged: len {} probe {:#x}",
        keys.len(),
        probe
    );
    prop_assert_eq!(
        simd::lower_bound_branchless(keys, probe),
        want,
        "branchless reference diverged: len {} probe {:#x}",
        keys.len(),
        probe
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 192 }))]

    /// All three kernels equal `partition_point` on arbitrary sorted input
    /// for arbitrary probes plus probes at/next to stored keys and the
    /// domain extremes.
    #[test]
    fn kernels_match_partition_point(
        keys in sorted_keys(64),
        probes in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        let mut all = probes;
        for &k in keys.iter().take(12) {
            all.extend([k, k.wrapping_sub(1), k.wrapping_add(1)]);
        }
        all.extend([0, 1, u64::MAX - 1, u64::MAX]);
        for &p in &all {
            check_all_kernels(&keys, p)?;
        }
    }

    /// Dense duplicate runs: the counting kernels must still return the
    /// index of the *first* equal slot, not any equal slot.
    #[test]
    fn kernels_agree_on_adjacent_duplicates(
        keys in clustered_keys(64),
    ) {
        for p in 0u64..33 {
            check_all_kernels(&keys, p)?;
        }
    }

    /// Every length 0..=64 (so every AVX2 lane remainder, head chunk
    /// count, and the empty slice) with a fixed stride-and-duplicate
    /// pattern, probed everywhere a boundary can sit.
    #[test]
    fn kernels_cover_every_lane_remainder(offset in 0u64..1024) {
        for n in 0usize..=64 {
            let keys: Vec<u64> = (0..n as u64).map(|i| offset + (i / 3) * 5 + 2).collect();
            for p in (0..=(n as u64 / 3) * 5 + 4).chain([u64::MAX]) {
                check_all_kernels(&keys, p)?;
            }
        }
    }

    /// `Bucket::search_from_hint` stays consistent with plain `search`
    /// under the SIMD window resolution, for every hint position.
    #[test]
    fn hinted_search_consistent_under_simd(
        keys in prop::collection::vec(any::<u64>(), 0..96),
        probes in prop::collection::vec(any::<u64>(), 1..16),
        wild_hint in any::<usize>(),
    ) {
        use dytis::bucket::Bucket;
        let mut sorted = keys;
        sorted.sort_unstable();
        sorted.dedup();
        let mut b = Bucket::with_capacity(sorted.len().max(1));
        for &k in &sorted {
            b.insert(k, k ^ 0x5A5A);
        }
        let mut all = probes;
        all.extend(sorted.iter().take(6).copied());
        for &p in &all {
            let want = b.search(p);
            for hint in (0..=b.len()).chain([wild_hint]) {
                prop_assert_eq!(b.search_from_hint(p, hint), want, "probe {} hint {}", p, hint);
            }
        }
    }
}
