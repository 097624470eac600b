//! Runtime-dispatched probe kernels: wide-compare lower bound, software
//! prefetch, and a cycle counter for the hotpath bench.
//!
//! The per-`get` cost of DyTIS is dominated by the in-bucket probe — a
//! lower bound over at most `bucket_entries` (128 by default) sorted
//! `u64` keys. At that size a *counting* lower bound beats a binary
//! search: `lower_bound(keys, k)` equals the number of keys `< k`, which
//! a SIMD loop computes 8 keys per step with no data-dependent control
//! flow, early-exiting the first time a chunk contains a key `>= k`
//! (sortedness makes the `< k` region a prefix). ALEX and DILI report the
//! same structure as decisive for learned-index probe latency.
//!
//! Three kernels, one contract (`lower_bound` over a **sorted** slice):
//!
//! * `lower_bound_avx2` — 8×u64 per step via `core::arch::x86_64`
//!   (two 256-bit compares per iteration, unsigned order via sign-bit
//!   flip, movemask + trailing-ones for the in-chunk position);
//! * `lower_bound_scalar` — the portable fallback, written as chunked
//!   count-accumulate loops the compiler can autovectorize;
//! * [`lower_bound_branchless`] — the original cmov halving search, kept
//!   as the reference the property tests compare both kernels against.
//!
//! Selection happens **once**, on the first probe (`OnceLock`), never
//! per call: AVX2 when `is_x86_feature_detected!` says so, scalar
//! otherwise, and scalar unconditionally under `cfg(miri)` (no intrinsics
//! in the interpreter), under the `force-scalar` cargo feature, or when
//! `DYTIS_FORCE_SCALAR` is set in the environment (the CI dispatch
//! matrix drives the last two). [`active_kernel`] names the selected
//! kernel so benches only assert SIMD speedup bars where SIMD actually
//! dispatched.

// This module is the crate's one sanctioned unsafe boundary: CPU
// intrinsics behind runtime feature detection. Each unsafe site carries a
// `justified:` argument; the xtask `unsafe-blocks` lint allowlists this
// file by path and enforces their presence.
#![allow(unsafe_code)]
// Each unsafe operation needs its own block + justification even inside
// the `target_feature` fn below.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::OnceLock;

/// A lower-bound kernel: index of the first element `>= key` in a sorted
/// slice, or `len` if none.
type LowerBoundFn = fn(&[u64], u64) -> usize;

struct Kernel {
    func: LowerBoundFn,
    name: &'static str,
}

static KERNEL: OnceLock<Kernel> = OnceLock::new();

#[inline]
fn kernel() -> &'static Kernel {
    KERNEL.get_or_init(select_kernel)
}

/// One-time kernel selection (see module doc for the override order).
fn select_kernel() -> Kernel {
    let scalar = Kernel {
        func: lower_bound_scalar,
        name: "scalar",
    };
    if cfg!(any(miri, feature = "force-scalar")) {
        return scalar;
    }
    if std::env::var_os("DYTIS_FORCE_SCALAR").is_some() {
        return scalar;
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Kernel {
            func: x86::lower_bound_avx2_entry,
            name: "avx2",
        };
    }
    scalar
}

/// Name of the kernel the dispatcher selected (`"avx2"` or `"scalar"`).
/// Forces selection if it has not happened yet.
pub fn active_kernel() -> &'static str {
    kernel().name
}

/// Index of the first element `>= key` (or `len`) in a **sorted** slice,
/// via the kernel selected at startup. On an unsorted slice the result is
/// unspecified (but still in `0..=len`, never out of bounds).
#[inline]
pub fn lower_bound(keys: &[u64], key: u64) -> usize {
    (kernel().func)(keys, key)
}

/// The selected kernel as a bare fn pointer. For A/B harnesses that
/// compare kernels call-for-call: resolving once strips the per-call
/// dispatch (`OnceLock` check + second indirection) from the measurement,
/// so both legs pay the same call overhead.
pub fn kernel_fn() -> fn(&[u64], u64) -> usize {
    kernel().func
}

/// Branchless cmov halving search — the scalar *reference* kernel. Each
/// step is a compare plus an unconditional arithmetic update (no
/// data-dependent branch to mispredict), for a fixed ceil(log2 len)
/// dependent-load chain.
#[inline]
pub fn lower_bound_branchless(keys: &[u64], key: u64) -> usize {
    let mut base = 0usize;
    let mut len = keys.len();
    if len == 0 {
        return 0;
    }
    while len > 1 {
        let half = len / 2;
        // Answer lies in base..=base+len; step keeps it there: everything
        // left of `base` is < key, everything from base+len on is >= key.
        base += usize::from(keys[base + half - 1] < key) * half;
        len -= half;
    }
    base + usize::from(keys[base] < key)
}

/// Portable counting lower bound, chunked so the compiler can
/// autovectorize the inner count: per 8-key chunk, sum the `< key` flags
/// (one wide compare, no branches), stop at the first chunk that is not
/// entirely `< key` — sortedness makes everything after it `>= key`.
pub fn lower_bound_scalar(keys: &[u64], key: u64) -> usize {
    let mut count = 0usize;
    let mut chunks = keys.chunks_exact(8);
    for c in &mut chunks {
        let hits: usize = c.iter().map(|&k| usize::from(k < key)).sum();
        count += hits;
        if hits < 8 {
            return count;
        }
    }
    count + chunks.remainder().iter().take_while(|&&k| k < key).count()
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_set1_epi64x, _mm256_xor_si256,
    };

    /// Safe entry the dispatcher installs.
    pub fn lower_bound_avx2_entry(keys: &[u64], key: u64) -> usize {
        // justified: this entry is only installed by `select_kernel` after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU, so
        // the target-feature contract of `lower_bound_avx2` holds.
        unsafe { lower_bound_avx2(keys, key) }
    }

    /// Window width below which the wide compare takes over from the
    /// halving descent. 32 keys = four 8-lane steps, all of whose loads
    /// and compares are independent — past experiments (see DESIGN.md
    /// §15) put the crossover between one and two cachelines of serial
    /// binary-search steps.
    const WIDE_WINDOW: usize = 16;

    /// AVX2 hybrid lower bound: a branchless cmov descent narrows the
    /// window to [`WIDE_WINDOW`] slots (each halving step is one
    /// dependent load, so stopping ~2 steps early trims the longest
    /// chain), then the window is resolved 8 keys per step as two 4×u64
    /// vectors. `_mm256_cmpgt_epi64` is a *signed* compare, so both
    /// sides have their sign bit flipped first (`x ^ i64::MIN` maps
    /// unsigned order onto signed order). Per 8-key step the two compare
    /// masks collapse to one 8-bit movemask whose trailing ones count
    /// the `< key` prefix of the chunk; a chunk that is not all-ones
    /// ends the search (sortedness makes the `< key` region a prefix).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    // justified: the `unsafe fn` below only *requires* AVX2 (enforced by
    // the runtime-detected entry above); its memory accesses are bounded
    // by `keys` and individually justified inside.
    #[target_feature(enable = "avx2")]
    unsafe fn lower_bound_avx2(keys: &[u64], key: u64) -> usize {
        let mut base = 0usize;
        let mut len = keys.len();
        while len > WIDE_WINDOW {
            let half = len / 2;
            // Same invariant as `lower_bound_branchless`: the answer
            // stays in base..=base+len.
            base += usize::from(keys[base + half - 1] < key) * half;
            len -= half;
        }
        let bias = _mm256_set1_epi64x(i64::MIN);
        let needle = _mm256_set1_epi64x((key ^ (1u64 << 63)) as i64);
        let ptr = keys.as_ptr();
        let end = base + len;
        let mut i = base;
        while i + 8 <= end {
            // justified: i + 8 <= end <= keys.len() bounds both 4-lane
            // unaligned loads (loadu has no alignment requirement)
            // inside the slice.
            let a = unsafe { _mm256_loadu_si256(ptr.add(i) as *const __m256i) };
            // justified: see above — lanes i+4..i+8 are in bounds.
            let b = unsafe { _mm256_loadu_si256(ptr.add(i + 4) as *const __m256i) };
            let lt_a = _mm256_cmpgt_epi64(needle, _mm256_xor_si256(a, bias));
            let lt_b = _mm256_cmpgt_epi64(needle, _mm256_xor_si256(b, bias));
            // Movemask over the f64 view takes each lane's top bit: bit j
            // of the low nibble is lane i+j, the high nibble lanes i+4...
            let mask = (_mm256_movemask_pd(_mm256_castsi256_pd(lt_a)) as u32)
                | ((_mm256_movemask_pd(_mm256_castsi256_pd(lt_b)) as u32) << 4);
            if mask != 0xff {
                return i + mask.trailing_ones() as usize;
            }
            i += 8;
        }
        while i < end && keys[i] < key {
            i += 1;
        }
        i
    }
}

/// Software prefetch of the cacheline holding `*p` into all cache levels.
/// A hint only: it cannot fault (the CPU drops prefetches of bad
/// addresses), has no memory effects, and compiles to nothing off x86.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // justified: PREFETCHT0 is architecturally defined to be free of side
    // effects and to never fault, whatever the address — it is a pure
    // cache hint, so no pointer validity precondition exists.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// Prefetches the start of a slice's backing storage (no-op when empty).
#[inline(always)]
pub fn prefetch_slice<T>(s: &[T]) {
    if !s.is_empty() {
        prefetch_read(s.as_ptr());
    }
}

/// Reads the CPU timestamp counter, or `None` where unavailable (non-x86,
/// miri) — the hotpath bench divides this through op counts for
/// cycles/op cells and falls back to `Instant`-derived figures on `None`.
#[inline]
pub fn cycles_now() -> Option<u64> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        // justified: RDTSC reads the time-stamp counter register; it
        // accesses no memory and cannot fault in user mode.
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    None
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn reference(keys: &[u64], key: u64) -> usize {
        keys.partition_point(|&k| k < key)
    }

    /// Probes that exercise below/at/above every stored key plus the
    /// extremes.
    fn probes(keys: &[u64]) -> Vec<u64> {
        let mut p = vec![0, 1, u64::MAX, u64::MAX - 1];
        for &k in keys {
            p.extend([k.wrapping_sub(1), k, k.wrapping_add(1)]);
        }
        p
    }

    fn check_kernel(f: LowerBoundFn, name: &str) {
        // Every length through two full 8-lane chunks plus change, with
        // adjacent duplicates (k/3 collapses neighbours).
        for n in 0..=64usize {
            let keys: Vec<u64> = (0..n as u64).map(|k| (k / 3) * 5 + 2).collect();
            for probe in probes(&keys) {
                assert_eq!(
                    f(&keys, probe),
                    reference(&keys, probe),
                    "{name} n={n} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn branchless_matches_partition_point() {
        check_kernel(lower_bound_branchless, "branchless");
    }

    #[test]
    fn scalar_matches_partition_point() {
        check_kernel(lower_bound_scalar, "scalar");
    }

    #[test]
    fn avx2_matches_partition_point() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            check_kernel(x86::lower_bound_avx2_entry, "avx2");
        }
    }

    #[test]
    fn dispatched_kernel_matches_partition_point() {
        check_kernel(lower_bound, "dispatched");
    }

    #[test]
    fn active_kernel_is_stable_and_named() {
        let k = active_kernel();
        assert!(k == "avx2" || k == "scalar", "unexpected kernel {k}");
        assert_eq!(active_kernel(), k, "selection must be one-time");
        if cfg!(any(miri, feature = "force-scalar")) {
            assert_eq!(k, "scalar");
        }
    }

    #[test]
    fn prefetch_and_cycles_are_callable() {
        let v = [1u64, 2, 3];
        prefetch_slice(&v);
        prefetch_read(std::ptr::null::<u64>()); // hint only: must not fault
        let a = cycles_now();
        let b = cycles_now();
        if let (Some(a), Some(b)) = (a, b) {
            assert!(b >= a, "tsc went backwards within one thread");
        }
    }
}
