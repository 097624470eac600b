//! Durability subsystem: per-shard write-ahead logging with group commit,
//! CRC64-framed records, checkpoint streams, crash recovery, and
//! deterministic crash-point fault injection.
//!
//! The pieces compose into the classic checkpoint + log protocol:
//!
//! 1. Every mutation is appended to a [`Wal`] and acknowledged only after
//!    the committer thread has fsynced the batch containing it (group
//!    commit — one fsync covers every writer that arrived while the
//!    previous batch was at the device).
//! 2. Periodically the index is checkpointed with [`save_index`] (the
//!    `DYTIS2` format, CRC-64/XZ protected) and the log is rotated with
//!    [`Wal::rotate`].
//! 3. On startup, [`read_checkpoint`] restores the checkpoint and
//!    [`recover_log_file`] replays the log's valid prefix over it,
//!    truncating the file at the first torn or corrupt record. Records are
//!    absolute (`Put key value` / `Delete key`), so replaying a whole log
//!    over a newer checkpoint is idempotent and no sequence-number fencing
//!    is needed.
//!
//! This crate owns the two byte formats and their readers; the file-level
//! protocol over them — the atomic checkpoint publish and the one recovery
//! routine — is `dytis::persist::{write_checkpoint, recover}`.
//!
//! The recovery invariant, tested byte-by-byte via [`FailpointWriter`]:
//! after a crash at *any* point in the byte stream, recovery yields exactly
//! the acknowledged writes — never fewer, and never a corrupt state.

pub mod checkpoint;
pub mod crc64;
pub mod failpoint;
pub mod record;
pub mod recover;
pub mod wal;

pub use checkpoint::{read_checkpoint, save_index, save_scan, CKPT_MAGIC};
pub use crc64::{crc64, Crc64};
pub use failpoint::{CrashPlan, FailpointWriter, CRASH_MSG};
pub use record::{
    decode_header, decode_record, encode_header, encode_record, Decoded, DecodedHeader, Record,
    Seq, WalOp, HEADER_LEN, PAYLOAD_LEN, RECORD_LEN, WAL_MAGIC,
};
pub use recover::{recover_log_file, scan_bytes, Damage, RecoveredLog, ScanReport};
pub use wal::{FileStorage, VecStorage, Wal, WalOptions, WalStats, WalStorage};
