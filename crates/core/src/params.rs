//! Tunable parameters of DyTIS (§4.1, "Parameter Effect").

/// Configuration knobs of a DyTIS instance.
///
/// Defaults follow the paper's default setting (§4.1): first-level array of
/// `2^9` EH tables (`R = 9`), utilization threshold `U_t = 0.6`, 2 KiB
/// buckets (128 key slots at 8-byte keys/values), remapping/expansion
/// starting at local depth 6, and a segment-size limit multiplier of 2 that
/// the adaptive policy can raise to 128 for expansion-heavy datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Number of key MSBs used by the static first level (`R`).
    pub first_level_bits: u32,
    /// Key slots per bucket (`B_size / 16` for 8-byte keys and values).
    pub bucket_entries: usize,
    /// Utilization threshold `U_t` deciding between split/expansion (high
    /// utilization) and remapping (low utilization).
    pub utilization_threshold: f64,
    /// Local depth `L_start` at which remapping and expansion begin; below
    /// it DyTIS behaves as plain Extendible hashing.
    pub l_start: u32,
    /// Default segment-size limit multiplier (`Limit_seg`): a segment at
    /// local depth `LD >= L_start` may hold at most
    /// `limit_mult << min(LD, 24)` buckets ([`Params::segment_cap`]).
    /// Whether that matches the paper's §3.3 formula is not yet checked
    /// against the paper's text.
    pub limit_mult: u32,
    /// Raised limit multiplier applied when the adaptive policy (observed at
    /// `L' = L_start + 2`) detects an expansion-heavy (uniform-ish) dataset.
    pub limit_mult_raised: u32,
    /// Fraction of maintenance operations that must be expansions for the
    /// raised limit to kick in.
    pub expansion_heavy_fraction: f64,
    /// Segment utilization below which deletions trigger a shrink.
    pub shrink_threshold: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            first_level_bits: 9,
            bucket_entries: 128,
            utilization_threshold: 0.6,
            l_start: 6,
            limit_mult: 2,
            limit_mult_raised: 128,
            expansion_heavy_fraction: 0.5,
            shrink_threshold: 0.15,
        }
    }
}

impl Params {
    /// Parameters scaled for unit tests: tiny buckets, early remapping.
    pub fn small() -> Self {
        Params {
            first_level_bits: 2,
            bucket_entries: 8,
            l_start: 2,
            ..Params::default()
        }
    }

    /// Bucket byte size implied by `bucket_entries` (16 bytes per pair).
    pub fn bucket_bytes(&self) -> usize {
        self.bucket_entries * 16
    }

    /// Sets the bucket size in bytes (must be a multiple of 16).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of 16.
    pub fn with_bucket_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes >= 16 && bytes.is_multiple_of(16));
        self.bucket_entries = bytes / 16;
        self
    }

    /// Segment-size cap in buckets for a segment at `local_depth`, under the
    /// currently active limit multiplier: `Limit_seg(LD) = mult · 2^LD`.
    ///
    /// The limit doubles with each local depth (§3.3 "Selecting a segment
    /// size"), so deeper segments can absorb more keys before forcing a
    /// directory doubling — this is what keeps the directory small for
    /// clustered key distributions (§3.2).
    pub fn segment_cap(&self, local_depth: u32, active_mult: u32) -> usize {
        if local_depth < self.l_start {
            1
        } else {
            let shift = local_depth.min(24);
            (active_mult as usize) << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = Params::default();
        assert_eq!(p.first_level_bits, 9);
        assert_eq!(p.bucket_bytes(), 2048);
        assert_eq!(p.utilization_threshold, 0.6);
        assert_eq!(p.l_start, 6);
        assert_eq!(p.limit_mult, 2);
        assert_eq!(p.limit_mult_raised, 128);
    }

    #[test]
    fn segment_cap_doubles_per_depth() {
        let p = Params::default();
        assert_eq!(p.segment_cap(5, 2), 1); // below L_start: plain EH
        assert_eq!(p.segment_cap(6, 2), 128);
        assert_eq!(p.segment_cap(7, 2), 256);
        assert_eq!(p.segment_cap(8, 2), 512);
        assert_eq!(p.segment_cap(8, 128), 32768);
    }

    #[test]
    fn bucket_bytes_roundtrip() {
        let p = Params::default().with_bucket_bytes(1024);
        assert_eq!(p.bucket_entries, 64);
        assert_eq!(p.bucket_bytes(), 1024);
    }

    #[test]
    #[should_panic]
    fn bad_bucket_bytes_panics() {
        let _ = Params::default().with_bucket_bytes(100);
    }
}
