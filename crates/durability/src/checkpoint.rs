//! Versioned checkpoint streams shared by every index implementation.
//!
//! Format `DYTIS2` (little-endian): magic `DYTIS2\0\0` (8 bytes), key count
//! (u64), then `count` key/value pairs (16 bytes each) in strictly ascending
//! key order, then a CRC-64/XZ (u64) of every byte after the magic (see
//! [`crate::crc64`] for why a real CRC and not a cheaper fold).
//!
//! The stream is structure-free — just the sorted pair set — so any
//! [`KvIndex`] can write it and any [`KvIndex`] or [`BulkLoad`]
//! implementation can restore it, which is what lets one checkpoint format
//! serve DyTIS, the B+-tree, and the learned-index baselines alike.

use crate::crc64::Crc64;
use index_traits::{BulkLoad, Key, KvIndex, Value};
use std::io::{self, Read, Write};

/// File magic for version-2 checkpoint streams.
pub const CKPT_MAGIC: [u8; 8] = *b"DYTIS2\0\0";

/// Scan batch size used when streaming pairs out of an index.
const SCAN_BATCH: usize = 4096;

/// Writes a `DYTIS2` checkpoint of `index` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn save_index<I: KvIndex + ?Sized, W: Write>(index: &I, w: &mut W) -> io::Result<()> {
    w.write_all(&CKPT_MAGIC)?;
    let n = index.len() as u64;
    let mut crc = Crc64::new();
    let count_bytes = n.to_le_bytes();
    crc.update(&count_bytes);
    w.write_all(&count_bytes)?;
    let mut batch = Vec::with_capacity(SCAN_BATCH);
    let mut cursor: Key = 0;
    let mut written = 0u64;
    while written < n {
        batch.clear();
        index.scan(cursor, SCAN_BATCH, &mut batch);
        if batch.is_empty() {
            break;
        }
        for &(k, v) in &batch {
            let mut pair = [0u8; 16];
            pair[..8].copy_from_slice(&k.to_le_bytes());
            pair[8..].copy_from_slice(&v.to_le_bytes());
            crc.update(&pair);
            w.write_all(&pair)?;
            written += 1;
        }
        match batch.last() {
            Some(&(k, _)) if k < Key::MAX => cursor = k + 1,
            _ => break,
        }
    }
    debug_assert_eq!(written, n, "scan did not visit every key");
    w.write_all(&crc.finalize().to_le_bytes())?;
    Ok(())
}

/// Reads the body of a `DYTIS2` stream — everything *after* the magic,
/// which the caller has already consumed (so a loader can dispatch on the
/// version byte-by-byte) — calling `on_pair` for each pair in key order.
/// Returns the pair count.
///
/// # Errors
///
/// Returns `InvalidData` on truncated streams, unsorted or duplicate keys,
/// or CRC mismatch, besides propagating I/O errors.
pub fn load_body<R: Read>(r: &mut R, mut on_pair: impl FnMut(Key, Value)) -> io::Result<u64> {
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
        if let Some(p) = prev {
            if p >= k {
                return Err(bad("checkpoint pairs out of order"));
            }
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

/// Restores a `DYTIS2` stream (magic included) into an existing index via
/// its insert path. Returns the pair count.
///
/// # Errors
///
/// Returns `InvalidData` on bad magic or any [`load_body`] failure.
pub fn load_into<R: Read, I: KvIndex + ?Sized>(r: &mut R, index: &mut I) -> io::Result<u64> {
    expect_magic(r)?;
    load_body(r, |k, v| index.insert(k, v))
}

/// Restores a `DYTIS2` stream (magic included) by bulk loading a fresh
/// index — the restore path for the learned-index baselines, whose models
/// train best from the full sorted array.
///
/// # Errors
///
/// Returns `InvalidData` on bad magic or any [`load_body`] failure.
pub fn load_index<R: Read, I: BulkLoad>(r: &mut R) -> io::Result<I> {
    let pairs = load_pairs(r)?;
    Ok(I::bulk_load(&pairs))
}

/// Reads a `DYTIS2` stream (magic included) into a sorted pair vector.
///
/// # Errors
///
/// Returns `InvalidData` on bad magic or any [`load_body`] failure.
pub fn load_pairs<R: Read>(r: &mut R) -> io::Result<Vec<(Key, Value)>> {
    expect_magic(r)?;
    let mut pairs = Vec::new();
    load_body(r, |k, v| pairs.push((k, v)))?;
    Ok(pairs)
}

fn expect_magic<R: Read>(r: &mut R) -> io::Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != CKPT_MAGIC {
        return Err(bad("bad checkpoint magic"));
    }
    Ok(())
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::io::Cursor;

    #[derive(Default)]
    struct Oracle(BTreeMap<Key, Value>);

    impl KvIndex for Oracle {
        fn insert(&mut self, key: Key, value: Value) {
            self.0.insert(key, value);
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(&key).copied()
        }
        fn remove(&mut self, key: Key) -> Option<Value> {
            self.0.remove(&key)
        }
        fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) {
            out.extend(self.0.range(start..).take(count).map(|(k, v)| (*k, *v)));
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn memory_bytes(&self) -> usize {
            self.0.len() * 16
        }
    }

    fn sample() -> Oracle {
        let mut o = Oracle::default();
        for k in 0..10_000u64 {
            o.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1, k);
        }
        o
    }

    #[test]
    fn roundtrip_via_insert() {
        let idx = sample();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        let mut restored = Oracle::default();
        let n = load_into(&mut Cursor::new(&buf), &mut restored).expect("load");
        assert_eq!(n as usize, idx.len());
        assert_eq!(restored.0, idx.0);
    }

    #[test]
    fn roundtrip_via_pairs() {
        let idx = sample();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        let pairs = load_pairs(&mut Cursor::new(&buf)).expect("load");
        assert_eq!(pairs.len(), idx.len());
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_roundtrip() {
        let idx = Oracle::default();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).expect("save");
        assert_eq!(buf.len(), 8 + 8 + 8); // magic + count + crc
        let pairs = load_pairs(&mut Cursor::new(&buf)).expect("load");
        assert!(pairs.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        save_index(&sample(), &mut buf).expect("save");
        buf[0] ^= 0xFF;
        assert!(load_pairs(&mut Cursor::new(&buf)).is_err());
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
                    load_pairs(&mut Cursor::new(&tampered)).is_err(),
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
        assert!(load_pairs(&mut Cursor::new(&buf)).is_err());
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
        let err = load_pairs(&mut Cursor::new(&buf)).expect_err("unsorted accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
