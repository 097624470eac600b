//! Checkpoint / restore for DyTIS, and the one recovery routine.
//!
//! Data management systems checkpoint their indexes across restarts. DyTIS
//! needs no training, so the natural checkpoint is simply the sorted pair
//! stream: restoring replays it through normal inserts, and the remapping
//! functions re-learn the distribution on the way in (they converge
//! immediately because the stream is sorted — every segment sees its final
//! key set before overflowing twice).
//!
//! The byte formats belong to the `durability` crate: checkpoints are
//! `DYTIS2` streams ([`durability::save_index`] /
//! [`durability::read_checkpoint`]), logs are `DYWAL1` ([`durability::Wal`]).
//! This module owns the on-disk protocol over them, as two halves that rely
//! on each other: [`write_checkpoint`] publishes a checkpoint atomically, so
//! [`recover`] may treat any checkpoint it finds as complete, restore it,
//! and replay the log's valid prefix on top. Both latch modes checkpoint
//! through [`write_checkpoint`]; a served index is restored by converting
//! what [`load_from`] or [`recover`] returns (`ConcurrentDyTis::from`).

use crate::table::Mode;
use crate::{DyTis, Index, Params};
use durability::{RecoveredLog, WalOp};
use index_traits::KvIndex;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read};
use std::path::Path;

/// Restores a `DYTIS2` checkpoint stream by per-key insert, building the
/// index with `params` (the stream is structure-free, so any
/// parameterization can load it).
///
/// # Errors
///
/// Any [`durability::read_checkpoint`] error: `InvalidData` on bad magic,
/// unsorted pairs, or checksum mismatch, `UnexpectedEof` on a truncated
/// stream, besides propagating I/O errors.
pub fn load_from<R: Read>(r: &mut R, params: Params) -> io::Result<DyTis> {
    let index = restore(r, params)?;
    // Debug-build hook: a freshly recovered index must satisfy every
    // structural invariant before it is handed to the caller.
    #[cfg(debug_assertions)]
    index_traits::Auditable::audit(&index).assert_clean();
    Ok(index)
}

/// [`load_from`] without the audit; [`recover`] audits once, after replay.
fn restore<R: Read>(r: &mut R, params: Params) -> io::Result<DyTis> {
    let mut index = DyTis::with_params(params);
    durability::read_checkpoint(r, |k, v| index.insert(k, v))?;
    Ok(index)
}

/// Writes a checkpoint of `index`, in either latch mode, to `path`
/// atomically: the stream goes to `<path>.tmp`, is synced, renamed over
/// `path`, and the rename is made durable with a directory fsync. A crash
/// at any point leaves either the previous checkpoint or the new one,
/// never a partial file, so a caller may drop the log the new checkpoint
/// covers once this returns.
///
/// # Errors
///
/// Propagates I/O errors, and [`durability::save_scan`]'s `InvalidData`
/// for an index whose `len` and `scan` disagree — a latched index written
/// to while it is checkpointed, for one — in which case `path` is left
/// untouched.
pub fn write_checkpoint<M: Mode>(index: &Index<M>, path: &Path) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        let scan = |start, count, out: &mut Vec<_>| index.scan_into(start, count, out);
        durability::save_scan(index.key_count(), scan, &mut w)?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable before the log is rotated away.
    #[cfg(unix)]
    File::open(path.with_file_name("."))?.sync_all()?;
    Ok(())
}

/// Recovers an index from the checkpoint at `ckpt_path` (an absent one is
/// an empty index) plus the valid prefix of the `DYWAL1` log at `log_path`,
/// replayed through [`durability::recover_log_file`] — which repairs the
/// file and returns it positioned for [`durability::Wal::start`]. Replay is
/// idempotent (records are absolute puts and deletes), so a log older than
/// the checkpoint is harmless.
///
/// # Errors
///
/// Any [`load_from`] error for a checkpoint that exists but does not read
/// back — returned before the log is opened, so the log is left exactly as
/// it was — and I/O errors from log recovery. A damaged log tail is not an
/// error: it is truncated and reported in [`RecoveredLog`].
pub fn recover(
    ckpt_path: &Path,
    log_path: &Path,
    params: Params,
) -> io::Result<(DyTis, RecoveredLog)> {
    let mut index = match File::open(ckpt_path) {
        Ok(f) => restore(&mut BufReader::new(f), params)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => DyTis::with_params(params),
        Err(e) => return Err(e),
    };
    let log = durability::recover_log_file(log_path, |rec| match rec.op {
        WalOp::Put => index.insert(rec.key, rec.value),
        WalOp::Delete => {
            index.remove(rec.key);
        }
    })?;
    // Debug-build hook, once, over checkpoint and replay together.
    #[cfg(debug_assertions)]
    index_traits::Auditable::audit(&index).assert_clean();
    Ok((index, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::{FileStorage, Wal, WalOptions, HEADER_LEN, RECORD_LEN};
    use std::io::Cursor;
    use std::path::PathBuf;

    fn sample_index() -> DyTis {
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..5_000u64 {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15) >> 1, k);
        }
        idx
    }

    fn save(idx: &DyTis) -> Vec<u8> {
        let mut buf = Vec::new();
        durability::save_index(idx, &mut buf).expect("save");
        buf
    }

    /// A fresh, empty directory private to one test.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dytis-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// A fresh `DYWAL1` log at `path` holding `ops` as synced records.
    fn write_log(path: &Path, ops: &[(WalOp, u64, u64)]) {
        let file = File::create(path).expect("create log");
        let wal = Wal::create(FileStorage::new(file), 1, WalOptions::default()).expect("wal");
        let mut last = 0;
        for &(op, k, v) in ops {
            last = wal.append(op, k, v).expect("append");
        }
        wal.sync(last).expect("sync");
        wal.close().1.expect("close");
    }

    #[test]
    fn save_load_roundtrip() {
        // The checkpoint is structure-free: any parameterization can load it.
        for idx in [sample_index(), DyTis::with_params(Params::small())] {
            let buf = save(&idx);
            for params in [Params::small(), Params::default()] {
                let restored = load_from(&mut Cursor::new(&buf), params).expect("load");
                assert_eq!(restored.len(), idx.len());
                for k in (0..5_000u64).step_by(37) {
                    let key = k.wrapping_mul(0x9E3779B97F4A7C15) >> 1;
                    assert_eq!(restored.get(key), idx.get(key));
                }
            }
        }
    }

    #[test]
    fn checkpoint_plus_wal_recovery() {
        // The full recovery protocol: checkpoint, more writes into a WAL,
        // crash, restore checkpoint + replay.
        let dir = temp_dir("ckpt-plus-wal");
        let (ckpt, log) = (dir.join("idx.ckpt"), dir.join("idx.wal"));
        let mut idx = DyTis::with_params(Params::small());
        for k in 0..1_000u64 {
            idx.insert(k, k);
        }
        write_checkpoint(&idx, &ckpt).expect("checkpoint");
        let mut ops: Vec<_> = (1_000..1_500u64).map(|k| (WalOp::Put, k, k)).collect();
        ops.push((WalOp::Delete, 0, 0));
        write_log(&log, &ops);

        let (recovered, rec) = recover(&ckpt, &log, Params::small()).expect("recover");
        assert_eq!(rec.replayed, 501);
        assert_eq!(recovered.len(), 1_499);
        assert_eq!(recovered.get(0), None);
        assert_eq!(recovered.get(1_250), Some(1_250));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_from_nothing_is_empty() {
        let dir = temp_dir("nothing");
        let log = dir.join("idx.wal");
        let (idx, rec) = recover(&dir.join("idx.ckpt"), &log, Params::small()).expect("recover");
        assert_eq!(idx.len(), 0);
        assert_eq!((rec.next_seq, rec.replayed, rec.truncated_bytes), (1, 0, 0));
        let header_only = std::fs::metadata(&log).expect("log created").len();
        assert_eq!(header_only, HEADER_LEN as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_leaves_the_log_untouched() {
        let dir = temp_dir("corrupt-ckpt");
        let (ckpt, log) = (dir.join("idx.ckpt"), dir.join("idx.wal"));
        let mut bytes = save(&sample_index());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ckpt, &bytes).expect("write checkpoint");
        // A torn header, which opening the log would replace.
        let image = &durability::encode_header(1)[..HEADER_LEN - 1];
        std::fs::write(&log, image).expect("write log");
        let err = recover(&ckpt, &log, Params::small()).expect_err("corrupt checkpoint");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&log).expect("read log"), image);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn-log");
        let (ckpt, log) = (dir.join("idx.ckpt"), dir.join("idx.wal"));
        write_checkpoint(&DyTis::with_params(Params::small()), &ckpt).expect("checkpoint");
        write_log(&log, &[(WalOp::Put, 7, 70), (WalOp::Put, 8, 80)]);
        let image = std::fs::read(&log).expect("read log");
        std::fs::write(&log, &image[..image.len() - 5]).expect("tear log");
        let (idx, rec) = recover(&ckpt, &log, Params::small()).expect("recover");
        assert_eq!((idx.get(7), idx.get(8)), (Some(70), None));
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.truncated_bytes, RECORD_LEN as u64 - 5);
        let repaired = std::fs::metadata(&log).expect("stat").len();
        assert_eq!(repaired, (HEADER_LEN + RECORD_LEN) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_streams_rejected() {
        // Exhaustive damage (every bit flip, v1 magic) is the reader's own
        // suite in `durability::checkpoint`; this pins that `load_from`
        // surfaces each kind.
        let buf = save(&sample_index());
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        let truncated = buf[..buf.len() - 9].to_vec();
        let mut flipped = buf.clone();
        flipped[buf.len() / 2] ^= 0x01;
        for (stream, kind) in [
            (bad_magic, io::ErrorKind::InvalidData),
            (truncated, io::ErrorKind::UnexpectedEof),
            (flipped, io::ErrorKind::InvalidData),
        ] {
            let err = load_from(&mut Cursor::new(&stream), Params::small()).unwrap_err();
            assert_eq!(err.kind(), kind);
        }
    }
}
