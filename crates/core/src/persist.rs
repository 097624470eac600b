//! Checkpoint / restore for DyTIS.
//!
//! Data management systems checkpoint their indexes across restarts. DyTIS
//! needs no training, so the natural checkpoint is simply the sorted pair
//! stream: restoring replays it through normal inserts, and the remapping
//! functions re-learn the distribution on the way in (they converge
//! immediately because the stream is sorted — every segment sees its final
//! key set before overflowing twice).
//!
//! Checkpoints are written in the `DYTIS2` format of
//! [`durability::checkpoint`]: magic `DYTIS2\0\0` (8 bytes), key count
//! (u64), `count` key/value pairs (16 bytes each) in ascending key order,
//! then a CRC-64/XZ of everything after the magic. Any other magic is
//! `InvalidData`.

use crate::{DyTis, Params};
use index_traits::{Key, KvIndex};
use std::io::{self, Read, Write};

/// File magic of the current checkpoint format (re-exported from
/// [`durability::checkpoint`]).
pub const MAGIC: [u8; 8] = durability::CKPT_MAGIC;

/// Writes a `DYTIS2` checkpoint of `index` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn save_to<W: Write>(index: &DyTis, w: &mut W) -> io::Result<()> {
    durability::save_index(index, w)
}

/// Restores a checkpoint written by [`save_to`], building the index with
/// `params`.
///
/// # Errors
///
/// Returns `InvalidData` on bad magic, truncated streams, unsorted pairs, or
/// checksum mismatch, besides propagating I/O errors.
pub fn load_from<R: Read>(r: &mut R, params: Params) -> io::Result<DyTis> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("bad magic"));
    }
    let mut index = DyTis::with_params(params);
    durability::load_body(r, |k, v| index.insert(k, v))?;
    // Debug-build hook: a freshly recovered index must satisfy every
    // structural invariant before it is handed to the caller.
    #[cfg(debug_assertions)]
    index_traits::Auditable::audit(&index).assert_clean();
    Ok(index)
}

/// A write-ahead log of individual operations, complementing [`save_to`]
/// checkpoints: recovery = load the latest checkpoint, then [`replay`] the
/// log written since.
///
/// This is the seed's single-threaded, unchecksummed logger, kept for the
/// simple embedded use case. The production path — CRC64-framed records,
/// group commit, crash-point-tested recovery — lives in the `durability`
/// crate (`durability::Wal`) and is what `kvstore`'s durable store uses.
///
/// Record format (little-endian): op byte (1 = insert, 2 = remove), key
/// (u64), value (u64; zero for removes). A torn final record (crash during
/// append) is tolerated and ignored by [`replay`].
pub struct Wal<W: Write> {
    w: W,
}

impl<W: Write> Wal<W> {
    /// Wraps a writer (typically an append-mode, buffered file).
    pub fn new(w: W) -> Self {
        Wal { w }
    }

    /// Appends an insert/update record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn log_insert(&mut self, key: Key, value: u64) -> io::Result<()> {
        self.w.write_all(&[1u8])?;
        self.w.write_all(&key.to_le_bytes())?;
        self.w.write_all(&value.to_le_bytes())
    }

    /// Appends a remove record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn log_remove(&mut self, key: Key) -> io::Result<()> {
        self.w.write_all(&[2u8])?;
        self.w.write_all(&key.to_le_bytes())?;
        self.w.write_all(&0u64.to_le_bytes())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Replays a WAL stream into `index`, returning the number of applied
/// records. A torn trailing record is ignored; a corrupt op byte is an
/// error.
///
/// # Errors
///
/// Returns `InvalidData` for unknown op bytes, besides propagating I/O
/// errors.
pub fn replay<R: Read>(r: &mut R, index: &mut DyTis) -> io::Result<usize> {
    let mut applied = 0usize;
    let mut rec = [0u8; 17];
    loop {
        // Read one record, tolerating EOF mid-record (torn final write).
        let mut got = 0usize;
        while got < rec.len() {
            match r.read(&mut rec[got..]) {
                Ok(0) => {
                    return if got == 0 || got < rec.len() {
                        Ok(applied)
                    } else {
                        unreachable!("loop exits before a full record")
                    };
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // invariant: both subslices of the 17-byte record are 8 bytes long.
        let key = u64::from_le_bytes(rec[1..9].try_into().expect("fixed slice"));
        // invariant: both subslices of the 17-byte record are 8 bytes long.
        let value = u64::from_le_bytes(rec[9..17].try_into().expect("fixed slice"));
        match rec[0] {
            1 => index.insert(key, value),
            2 => {
                index.remove(key);
            }
            op => return Err(bad(&format!("unknown WAL op {op}"))),
        }
        applied += 1;
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_index() -> DyTis {
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..5_000u64 {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15) >> 1, k);
        }
        idx
    }

    #[test]
    fn save_load_roundtrip() {
        let idx = sample_index();
        let mut buf = Vec::new();
        save_to(&idx, &mut buf).expect("save");
        let restored = load_from(&mut Cursor::new(&buf), Params::small()).expect("load");
        assert_eq!(restored.len(), idx.len());
        for k in (0..5_000u64).step_by(37) {
            let key = k.wrapping_mul(0x9E3779B97F4A7C15) >> 1;
            assert_eq!(restored.get(key), Some(k));
        }
    }

    #[test]
    fn saves_are_v2() {
        let mut buf = Vec::new();
        save_to(&sample_index(), &mut buf).expect("save");
        assert_eq!(&buf[..8], &MAGIC);
    }

    #[test]
    fn empty_index_roundtrip() {
        let idx = DyTis::with_params(Params::small());
        let mut buf = Vec::new();
        save_to(&idx, &mut buf).expect("save");
        let restored = load_from(&mut Cursor::new(&buf), Params::small()).expect("load");
        assert_eq!(restored.len(), 0);
    }

    #[test]
    fn restore_with_different_params() {
        // The checkpoint is structure-free: any parameterization can load it.
        let idx = sample_index();
        let mut buf = Vec::new();
        save_to(&idx, &mut buf).expect("save");
        let restored = load_from(&mut Cursor::new(&buf), Params::default()).expect("load");
        assert_eq!(restored.len(), idx.len());
    }

    #[test]
    fn wal_replay_roundtrip() {
        let mut wal = Wal::new(Vec::new());
        let mut oracle = std::collections::BTreeMap::new();
        for k in 0..2_000u64 {
            wal.log_insert(k * 3, k).expect("log");
            oracle.insert(k * 3, k);
        }
        for k in 0..500u64 {
            wal.log_remove(k * 3).expect("log");
            oracle.remove(&(k * 3));
        }
        let buf = wal.into_inner().expect("flush");
        let mut idx = DyTis::with_params(Params::small());
        let applied = replay(&mut Cursor::new(&buf), &mut idx).expect("replay");
        assert_eq!(applied, 2_500);
        assert_eq!(idx.len(), oracle.len());
        for (&k, &v) in &oracle {
            assert_eq!(idx.get(k), Some(v));
        }
    }

    #[test]
    fn wal_tolerates_torn_tail() {
        let mut wal = Wal::new(Vec::new());
        wal.log_insert(1, 10).expect("log");
        wal.log_insert(2, 20).expect("log");
        let mut buf = wal.into_inner().expect("flush");
        buf.truncate(buf.len() - 5); // Tear the last record.
        let mut idx = DyTis::with_params(Params::small());
        let applied = replay(&mut Cursor::new(&buf), &mut idx).expect("replay");
        assert_eq!(applied, 1);
        assert_eq!(idx.get(1), Some(10));
        assert_eq!(idx.get(2), None);
    }

    #[test]
    fn wal_rejects_unknown_op() {
        let buf = vec![9u8; 17];
        let mut idx = DyTis::with_params(Params::small());
        assert!(replay(&mut Cursor::new(&buf), &mut idx).is_err());
    }

    #[test]
    fn checkpoint_plus_wal_recovery() {
        // The full recovery protocol: checkpoint, more writes into a WAL,
        // crash, restore checkpoint + replay.
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..1_000u64 {
            idx.insert(k, k);
        }
        let mut ckpt = Vec::new();
        save_to(&idx, &mut ckpt).expect("checkpoint");
        let mut wal = Wal::new(Vec::new());
        for k in 1_000..1_500u64 {
            idx.insert(k, k);
            wal.log_insert(k, k).expect("log");
        }
        idx.remove(0);
        wal.log_remove(0).expect("log");
        let log = wal.into_inner().expect("flush");

        let mut recovered = load_from(&mut Cursor::new(&ckpt), Params::small()).expect("restore");
        replay(&mut Cursor::new(&log), &mut recovered).expect("replay");
        assert_eq!(recovered.len(), idx.len());
        assert_eq!(recovered.get(0), None);
        assert_eq!(recovered.get(1_250), Some(1_250));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        save_to(&sample_index(), &mut buf).expect("save");
        let mut flipped = buf.clone();
        flipped[0] ^= 0xFF;
        // The retired v1 magic is as unknown as any other.
        let mut v1 = buf;
        v1[..8].copy_from_slice(b"DYTIS1\0\0");
        for stream in [flipped, v1] {
            let err = load_from(&mut Cursor::new(&stream), Params::small()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        save_to(&sample_index(), &mut buf).expect("save");
        buf.truncate(buf.len() - 9);
        assert!(load_from(&mut Cursor::new(&buf), Params::small()).is_err());
    }

    #[test]
    fn corruption_rejected() {
        let mut buf = Vec::new();
        save_to(&sample_index(), &mut buf).expect("save");
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(load_from(&mut Cursor::new(&buf), Params::small()).is_err());
    }
}
