//! CRC-64/XZ (aka CRC-64/GO-ECMA): reflected polynomial `0xC96C5795D7870F42`,
//! init and xorout all-ones.
//!
//! This replaces the seed repo's XOR-rotate fold checksum, whose per-step
//! invertibility makes second preimages trivially constructible (flip one
//! word, cancel it with one compensating edit later). CRC64 carries the
//! standard guarantees: all burst errors up to 64 bits are detected, as is
//! any odd number of bit flips, and random corruption survives with
//! probability 2^-64.

/// Lookup table for one byte of the reflected CRC-64/XZ polynomial.
const TABLE: [u64; 256] = build_table();

const fn build_table() -> [u64; 256] {
    // Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693.
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Incremental CRC-64/XZ digest.
///
/// ```
/// let mut crc = durability::Crc64::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finalize(), 0x995D_C9BB_DF19_39FA); // standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Starts a fresh digest.
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Returns the digest of everything fed so far (the digest itself is
    /// unchanged and can keep accumulating).
    pub fn finalize(&self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        // The published CRC-64/XZ check value for the ASCII digits 1..9.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc64::new();
        for chunk in data.chunks(37) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), crc64(&data));
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn detects_order() {
        // Unlike an XOR fold, swapping two words changes the digest.
        let a = [1u8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        let b = [2u8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
        assert_ne!(crc64(&a), crc64(&b));
    }

    #[test]
    fn single_bit_flip_detected_everywhere() {
        let base: Vec<u8> = (0..64u8).collect();
        let want = crc64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut tampered = base.clone();
                tampered[byte] ^= 1 << bit;
                assert_ne!(crc64(&tampered), want, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
