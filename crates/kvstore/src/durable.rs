//! The embedded durable store (§3.4, DESIGN.md §9): the latched
//! [`ConcurrentDyTis`] that [`crate::TpcServer`] serves, under the
//! checkpoint + write-ahead-log protocol of the `durability` crate.
//!
//! Every mutation appends its record to the one `DYWAL1` log and applies
//! it while holding the store's writer mutex, so log order is apply order;
//! it then waits for the group-commit fsync outside the mutex, so
//! concurrent writers share fsync batches. Reads go straight to the
//! latched index. Startup recovers from the latest checkpoint plus log
//! replay and moves the result into the latched mode.

use durability::{FileStorage, Wal, WalOp, WalOptions, WalStats};
use dytis::{ConcurrentDyTis, Params};
use index_traits::{AuditReport, Auditable, ConcurrentKvIndex, Key, MaintenanceStats, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Tuning for [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Mutations applied between automatic checkpoints (and the log
    /// rotations that bound replay time). `0` disables automatic
    /// checkpointing; [`DurableStore::checkpoint_now`] still works.
    pub ops_per_checkpoint: u64,
    /// Geometry of the index. Checkpoints carry raw pairs, so reopening a
    /// store with different params is safe.
    pub params: Params,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            ops_per_checkpoint: 100_000,
            params: Params::default(),
        }
    }
}

/// An embedded store with durability: every mutation is appended to the
/// write-ahead log and acknowledged only after the group-commit fsync;
/// checkpoints rotate the log so replay stays bounded.
///
/// Files live under the store's directory as `index.ckpt` (a `DYTIS2`
/// checkpoint, `durability::checkpoint`) and `index.wal` (the `DYWAL1`
/// framing of `durability::record`). [`DurableStore::open`] recovers with
/// `dytis::persist::recover` — checkpoint, then the log's valid prefix;
/// replay is idempotent (records are absolute puts/deletes), so a log that
/// predates the newest checkpoint is harmless.
pub struct DurableStore {
    index: ConcurrentDyTis,
    wal: Wal<FileStorage>,
    /// Mutations applied since the last checkpoint. Every mutation holds
    /// it across its append and apply; checkpoints and audits hold it to
    /// see a key set no write is changing.
    writer: Mutex<u64>,
    ckpt_path: PathBuf,
    ops_per_checkpoint: u64,
}

impl DurableStore {
    /// Opens (or creates) a durable store in `dir`, recovering it from its
    /// checkpoint + log. Starts one thread, the log's committer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from recovery, and `InvalidData` for a corrupt
    /// checkpoint. (A corrupt or torn *log tail* is not an error: it is
    /// truncated, per the recovery contract.)
    pub fn open(dir: &Path, opts: DurabilityOptions) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let ckpt_path = dir.join("index.ckpt");
        let (idx, recovered) =
            dytis::persist::recover(&ckpt_path, &dir.join("index.wal"), opts.params)?;
        if recovered.truncated_bytes > 0 {
            obs::counter!("kv.wal.truncated_recoveries").inc();
        }
        let wal = Wal::start(
            FileStorage::new(recovered.file),
            recovered.next_seq,
            WalOptions::default(),
        );
        Ok(DurableStore {
            index: ConcurrentDyTis::from(idx),
            wal,
            writer: Mutex::new(0),
            ckpt_path,
            ops_per_checkpoint: opts.ops_per_checkpoint,
        })
    }

    /// Inserts or updates a pair; returns once the write is durable (the
    /// group-commit fsync covering its WAL record has completed).
    ///
    /// # Errors
    ///
    /// Returns the WAL's sticky error if durability cannot be guaranteed;
    /// the write must then be considered lost.
    pub fn set(&self, key: Key, value: Value) -> io::Result<()> {
        let seq = {
            let mut ops = self.writer();
            let seq = self.wal.append(WalOp::Put, key, value)?;
            self.index.insert(key, value);
            self.applied(&mut ops);
            seq
        };
        self.wal.sync(seq)
    }

    /// Point lookup (reads need no WAL interaction).
    pub fn get(&self, key: Key) -> Option<Value> {
        self.index.get(key)
    }

    /// Deletes a key, returning its value once the delete is durable.
    /// Deleting an absent key logs nothing and returns `Ok(None)`.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::set`].
    pub fn del(&self, key: Key) -> io::Result<Option<Value>> {
        let (prev, seq) = {
            let mut ops = self.writer();
            if self.index.get(key).is_none() {
                return Ok(None);
            }
            let seq = self.wal.append(WalOp::Delete, key, 0)?;
            let prev = self.index.remove(key);
            self.applied(&mut ops);
            (prev, seq)
        };
        self.wal.sync(seq)?;
        Ok(prev)
    }

    /// Ordered scan of up to `count` pairs from `start`.
    pub fn scan(&self, start: Key, count: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(count.min(4096));
        self.index.scan(start, count, &mut out);
        out
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when the store holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoints the index and rotates the log.
    ///
    /// # Errors
    ///
    /// Returns the checkpoint or rotation error.
    pub fn checkpoint_now(&self) -> io::Result<()> {
        let mut ops = self.writer();
        self.checkpoint(&mut ops)
    }

    /// Structure-maintenance counters of the index (splits, expansions,
    /// remaps, doublings, shrinks, keys moved). The scenario lab samples
    /// this live to correlate drift with maintenance.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.index.maintenance_stats()
    }

    /// Deep structural audit of the index, taken with writers held off so
    /// the result is exact.
    pub fn audit(&self) -> AuditReport {
        let _quiesced = self.writer();
        self.index.audit()
    }

    /// Group-commit statistics of the log.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Simulates `kill -9`: the WAL committer aborts without flushing its
    /// queue, pending acks fail, and nothing is checkpointed. The on-disk
    /// state is whatever the committer had already written — reopen with
    /// [`DurableStore::open`] to recover exactly the acknowledged writes.
    pub fn crash(self) {
        self.wal.crash();
    }

    /// Graceful shutdown: flushes the WAL and joins its committer.
    ///
    /// # Errors
    ///
    /// Returns the WAL's sticky error, if any.
    pub fn shutdown(self) -> io::Result<()> {
        self.wal.close().1
    }

    fn writer(&self) -> MutexGuard<'_, u64> {
        // Poison is ignored, as in `durability::wal`: the mutex guards only
        // a checkpoint counter, which any value leaves valid.
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one applied mutation and takes the automatic checkpoint when
    /// it is due; `ops` is the held writer mutex.
    fn applied(&self, ops: &mut u64) {
        *ops += 1;
        if self.ops_per_checkpoint > 0 && *ops >= self.ops_per_checkpoint {
            // Leave the log growing; the next mutation retries. The WAL
            // still guarantees durability, only replay time grows.
            if self.checkpoint(ops).is_err() {
                obs::counter!("kv.ckpt.errors").inc();
            }
        }
    }

    /// Writes `index.ckpt` atomically (see
    /// [`dytis::persist::write_checkpoint`]), then rotates the WAL — only
    /// after the rename is durable, so the log is never dropped before the
    /// checkpoint that covers it. `ops` is the held writer mutex.
    fn checkpoint(&self, ops: &mut u64) -> io::Result<()> {
        let _t = obs::Timer::start(obs::histogram!("kv.ckpt_ns"));
        // justified: the writer mutex spans the checkpoint I/O so that the
        // scan sees a key set no write is changing, and so that this is the
        // sole appender: every record below the rotation's base was applied
        // before the scan, and `rotate` drops only records it holds.
        dytis::persist::write_checkpoint(&self.index, &self.ckpt_path)?;
        self.wal.rotate()?;
        *ops = 0;
        obs::counter!("kv.ckpt.written").inc();
        Ok(())
    }
}
