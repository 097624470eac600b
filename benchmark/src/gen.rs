//! Input generation shared by the workloads. Everything derives from the
//! run's `--seed`; the program under test only ever sees generated keys.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a cheap bijective mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expected-result sentinel for "the key is absent". [`value_of`] never
/// produces it.
pub const MISS: u64 = u64::MAX;

/// The value stored under `key`. Values are a pure function of the key, so
/// every reply can be checked without a shadow map on the timed path.
#[inline]
pub fn value_of(key: u64) -> u64 {
    mix64(key ^ 0xD1B5_4A32_D192_ED03) >> 1
}

/// Folds a reply into the form expectations are stored in.
#[inline]
pub fn reply(v: Option<u64>) -> u64 {
    v.unwrap_or(MISS)
}

/// A generator for one named purpose within a run, so adding a draw to one
/// stream never shifts another.
pub fn rng_for(seed: u64, purpose: &str) -> StdRng {
    let mut h = StreamHash::default();
    h.bytes(purpose.as_bytes());
    StdRng::seed_from_u64(mix64(seed) ^ h.finish())
}

/// FNV-1a over the generated inputs: equal seeds give equal hashes, and the
/// hash goes into every result file so two runs can show they saw the same
/// inputs.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Timings of the input-side layers (`datasets`, `ycsb`) during set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimes {
    /// Key generation (`datasets`).
    pub keys_s: f64,
    /// Op-stream generation (`ycsb` distributions + the mix).
    pub ops_s: f64,
    /// Building expected results.
    pub oracle_s: f64,
}

/// Runs `f`, adding its wall time to `acc`.
pub fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = std::time::Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn values_never_collide_with_the_miss_sentinel() {
        for k in [0, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_ne!(value_of(k), MISS);
            assert_eq!(reply(Some(value_of(k))), value_of(k));
        }
        assert_eq!(reply(None), MISS);
    }

    #[test]
    fn purpose_streams_are_independent_and_seeded() {
        let a: u64 = rng_for(1, "keys").gen();
        assert_eq!(a, rng_for(1, "keys").gen::<u64>());
        assert_ne!(a, rng_for(1, "ops").gen::<u64>());
        assert_ne!(a, rng_for(2, "keys").gen::<u64>());
    }
}
