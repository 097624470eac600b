//! The one checkpoint stream shared by every index implementation.
//!
//! Format `DYTIS2` (little-endian): magic `DYTIS2\0\0` (8 bytes), key count
//! (u64), then `count` key/value pairs (16 bytes each) in strictly ascending
//! key order, then a CRC-64/XZ (u64) of every byte after the magic (see
//! [`crate::crc64`] for why a real CRC and not a cheaper fold).
//!
//! The stream is structure-free — just the sorted pair set — so any
//! [`KvIndex`] can write it with [`save_index`], and [`read_checkpoint`]
//! hands its pairs to whatever rebuilds an index: per-key inserts, or a
//! collected slice for a `BulkLoad` build. That is what lets one checkpoint
//! format serve DyTIS, the B+-tree, and the learned-index baselines alike.
//! The file-level protocol around the stream (atomic publish, recovery with
//! log replay) lives in `dytis::persist`.

use crate::crc64::Crc64;
use index_traits::{Key, KvIndex, Value};
use std::io::{self, Read, Write};

/// File magic for version-2 checkpoint streams.
pub const CKPT_MAGIC: [u8; 8] = *b"DYTIS2\0\0";

/// Scan batch size used when streaming pairs out of an index.
const SCAN_BATCH: usize = 4096;

/// Writes a `DYTIS2` checkpoint of `index` to `w` ([`save_scan`] over
/// its `len` and `scan`).
///
/// # Errors
///
/// As [`save_scan`].
pub fn save_index<I: KvIndex + ?Sized, W: Write>(index: &I, w: &mut W) -> io::Result<()> {
    save_scan(
        index.len(),
        |start, count, out| index.scan(start, count, out),
        w,
    )
}

/// Writes a `DYTIS2` checkpoint of `len` pairs that `scan` reads — with
/// [`KvIndex::scan`]'s contract, for an index reached some other way, such
/// as one shared behind latches — to `w`, verifying it on the way: the
/// header count is `len`, so a scan that disagrees with it or does not
/// strictly ascend is refused before the CRC is written — a stream
/// [`read_checkpoint`] would reject is never completed.
///
/// # Errors
///
/// Returns `InvalidData` for such a scan, besides propagating I/O errors
/// from `w`.
pub fn save_scan<W: Write>(
    len: usize,
    scan: impl Fn(Key, usize, &mut Vec<(Key, Value)>),
    w: &mut W,
) -> io::Result<()> {
    w.write_all(&CKPT_MAGIC)?;
    let n = len as u64;
    let mut crc = Crc64::new();
    let count_bytes = n.to_le_bytes();
    crc.update(&count_bytes);
    w.write_all(&count_bytes)?;
    let mut batch = Vec::with_capacity(SCAN_BATCH);
    let mut cursor = Some(0);
    let mut prev: Option<Key> = None;
    let mut written = 0u64;
    // Scan until the index is exhausted, not until `n` pairs: a `len` that
    // under-reports must show up as a count mismatch, not a silent cut.
    while let Some(start) = cursor {
        batch.clear();
        scan(start, SCAN_BATCH, &mut batch);
        for &(k, v) in &batch {
            if prev.is_some_and(|p| p >= k) {
                return Err(bad("index scan out of order"));
            }
            prev = Some(k);
            let mut pair = [0u8; 16];
            pair[..8].copy_from_slice(&k.to_le_bytes());
            pair[8..].copy_from_slice(&v.to_le_bytes());
            crc.update(&pair);
            w.write_all(&pair)?;
            written += 1;
        }
        cursor = batch.last().and_then(|&(k, _)| k.checked_add(1));
    }
    if written != n {
        return Err(bad("index len disagrees with its scan"));
    }
    w.write_all(&crc.finalize().to_le_bytes())?;
    Ok(())
}

/// Reads a whole `DYTIS2` stream — magic, count, strictly ascending pairs,
/// CRC — calling `on_pair` for each pair in key order. Returns the pair
/// count. Pairs reach `on_pair` before the trailing CRC is checked, so a
/// caller must discard what it built when this returns an error.
///
/// # Errors
///
/// Returns `InvalidData` on bad magic, unsorted or duplicate keys, or CRC
/// mismatch, and `UnexpectedEof` on a truncated stream, besides propagating
/// I/O errors.
pub fn read_checkpoint<R: Read>(r: &mut R, mut on_pair: impl FnMut(Key, Value)) -> io::Result<u64> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != CKPT_MAGIC {
        return Err(bad("bad checkpoint magic"));
    }
    let mut crc = Crc64::new();
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    crc.update(&count_bytes);
    let n = u64::from_le_bytes(count_bytes);
    let mut prev: Option<Key> = None;
    for _ in 0..n {
        let mut pair = [0u8; 16];
        r.read_exact(&mut pair)?;
        crc.update(&pair);
        // invariant: both subslices of the 16-byte pair are 8 bytes long.
        let k = u64::from_le_bytes(pair[..8].try_into().expect("fixed slice"));
        // invariant: both subslices of the 16-byte pair are 8 bytes long.
        let v = u64::from_le_bytes(pair[8..].try_into().expect("fixed slice"));
        if prev.is_some_and(|p| p >= k) {
            return Err(bad("checkpoint pairs out of order"));
        }
        prev = Some(k);
        on_pair(k, v);
    }
    let mut want = [0u8; 8];
    r.read_exact(&mut want)?;
    if u64::from_le_bytes(want) != crc.finalize() {
        return Err(bad("checkpoint CRC mismatch"));
    }
    Ok(n)
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::io::Cursor;

    /// A `BTreeMap`-backed index that can also lie the way a buggy
    /// `KvIndex` could: `len` off by `len_error`, or `scan` repeating a key.
    #[derive(Default)]
    struct Oracle {
        map: BTreeMap<Key, Value>,
        len_error: isize,
        repeat_key: bool,
    }

    impl KvIndex for Oracle {
        fn insert(&mut self, key: Key, value: Value) {
            self.map.insert(key, value);
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.map.get(&key).copied()
        }
        fn remove(&mut self, key: Key) -> Option<Value> {
            self.map.remove(&key)
        }
        fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
            let from = out.len();
            out.extend(self.map.range(start..).take(count).map(|(k, v)| (*k, *v)));
            if let Some(&first) = out.get(from).filter(|_| self.repeat_key) {
                out.push(first);
            }
        }
        fn len(&self) -> usize {
            self.map.len().wrapping_add_signed(self.len_error)
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn memory_bytes(&self) -> usize {
            self.map.len() * 16
        }
    }

    fn sample() -> Oracle {
        let mut o = Oracle::default();
        for k in 0..10_000u64 {
            o.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1, k);
        }
        o
    }

    /// Every pair of a stream, in order.
    fn read_pairs(buf: &[u8]) -> io::Result<Vec<(Key, Value)>> {
        let mut pairs = Vec::new();
        read_checkpoint(&mut Cursor::new(buf), |k, v| pairs.push((k, v)))?;
        Ok(pairs)
    }

    #[test]
    fn roundtrip() {
        let idx = sample();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        let mut restored = Oracle::default();
        let n =
            read_checkpoint(&mut Cursor::new(&buf), |k, v| restored.insert(k, v)).expect("load");
        assert_eq!(n as usize, idx.len());
        assert_eq!(restored.map, idx.map);
    }

    #[test]
    fn empty_roundtrip() {
        let idx = Oracle::default();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        assert_eq!(buf.len(), 8 + 8 + 8); // magic + count + crc
        let pairs = read_pairs(&buf).expect("load");
        assert!(pairs.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        save_index(&sample(), &mut buf).expect("save");
        let mut flipped = buf.clone();
        flipped[0] ^= 0xFF;
        // The retired v1 magic is as unknown as any other.
        buf[..8].copy_from_slice(b"DYTIS1\0\0");
        for stream in [flipped, buf] {
            let err = read_pairs(&stream).expect_err("bad magic accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn every_single_bit_flip_rejected_in_small_stream() {
        let mut idx = Oracle::default();
        idx.insert(3, 30);
        idx.insert(9, 90);
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut tampered = buf.clone();
                tampered[byte] ^= 1 << bit;
                assert!(
                    read_pairs(&tampered).is_err(),
                    "flip at {byte}:{bit} accepted"
                );
            }
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        save_index(&sample(), &mut buf).expect("save");
        buf.truncate(buf.len() - 9);
        assert!(read_pairs(&buf).is_err());
    }

    #[test]
    fn unsorted_pairs_rejected() {
        // Hand-build a stream with a sorted CRC but out-of-order keys.
        let mut body = Vec::new();
        body.extend_from_slice(&2u64.to_le_bytes());
        for (k, v) in [(5u64, 50u64), (1u64, 10u64)] {
            body.extend_from_slice(&k.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crate::crc64::crc64(&body);
        let mut buf = CKPT_MAGIC.to_vec();
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc.to_le_bytes());
        let err = read_pairs(&buf).expect_err("unsorted accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// The exact `DYTIS2` image of a fixed 3-pair index: magic, count 3,
    /// the pairs in key order, CRC-64/XZ of everything after the magic.
    /// Files already on disk must keep loading, so these bytes never move.
    #[test]
    fn dytis2_bytes_are_pinned() {
        let mut idx = Oracle::default();
        idx.insert(u64::MAX, 7);
        idx.insert(1, 10);
        idx.insert(0x0102_0304_0506_0708, u64::MAX);
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        let golden: [u8; 72] = [
            68, 89, 84, 73, 83, 50, 0, 0, // magic "DYTIS2\0\0"
            3, 0, 0, 0, 0, 0, 0, 0, // count
            1, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, // (1, 10)
            8, 7, 6, 5, 4, 3, 2, 1, 255, 255, 255, 255, 255, 255, 255, 255, // (0x0102.., MAX)
            255, 255, 255, 255, 255, 255, 255, 255, 7, 0, 0, 0, 0, 0, 0, 0, // (MAX, 7)
            15, 180, 120, 205, 215, 23, 175, 210, // crc64
        ];
        assert_eq!(buf, golden);
    }

    #[test]
    fn save_rejects_an_index_whose_len_and_scan_disagree() {
        for (len_error, repeat_key) in [(1, false), (-1, false), (0, true)] {
            let idx = Oracle {
                len_error,
                repeat_key,
                ..sample()
            };
            let mut buf = Vec::new();
            let err = save_index(&idx, &mut buf).expect_err("inconsistent index saved");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            // Refused before the CRC: no stream that could pass for whole.
            assert!(read_pairs(&buf).is_err());
        }
    }
}
