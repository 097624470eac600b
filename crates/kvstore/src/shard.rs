//! Sharded single-threaded engines (§3.4).
//!
//! "Storage systems developed for distributed clusters and/or multi-core
//! servers may leverage multiple single-threaded engines for data access as
//! in H-Store and Redis Cluster. Such systems may also use the
//! single-threaded version of DyTIS that does not use locks."
//!
//! [`DurableShardedStore`] partitions keys with [`shard_of`], so shards
//! cover ordered, disjoint key ranges and a cross-shard scan is a simple
//! in-order visit: N engine threads each owning a
//! *lock-free-by-construction* single-threaded [`DyTis`] under the
//! checkpoint + write-ahead-log protocol of the `durability` crate — each
//! engine appends every mutation to its shard's WAL before applying it,
//! clients block on the group-commit ack, and startup recovers each shard
//! from its latest checkpoint plus log replay.

use durability::{FileStorage, Seq, Wal, WalOp, WalStats};
use dytis::{DyTis, Params};
use index_traits::{AuditReport, Auditable, Key, KvIndex, MaintenanceStats, Value};
use std::io;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The shard that owns `key` among `shards` shards: contiguous, monotone
/// key ranges (`shard_of(a) <= shard_of(b)` for `a <= b`), so cross-shard
/// scans visit shards in index order. The one partition function of the
/// crate: [`DurableShardedStore`] computes it on every op and at recovery,
/// so both sides of a restart agree on who owns a key.
#[inline]
pub fn shard_of(key: Key, shards: usize) -> usize {
    ((u128::from(key) * shards as u128) >> 64) as usize
}

/// Tuning for [`DurableShardedStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// `2^shard_bits` engine threads, each with its own WAL + checkpoint.
    pub shard_bits: u32,
    /// Mutations an engine applies between automatic checkpoints (and the
    /// log rotations that bound replay time). `0` disables automatic
    /// checkpointing; [`DurableShardedStore::checkpoint_now`] still works.
    pub ops_per_checkpoint: u64,
    /// Per-fsync batch cap for each shard's WAL committer.
    pub max_batch_records: usize,
    /// Geometry of each shard's private DyTIS engine. Checkpoints carry
    /// raw pairs, so reopening a store with different params is safe.
    pub params: Params,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            shard_bits: 2,
            ops_per_checkpoint: 100_000,
            max_batch_records: 1024,
            params: Params::default(),
        }
    }
}

enum DurableCmd {
    /// Append to the WAL, apply, reply with the sequence to sync on.
    Set(Key, Value, SyncSender<io::Result<Seq>>),
    Get(Key, SyncSender<Option<Value>>),
    /// Reply: previous value (if any) and, when a delete was logged, the
    /// sequence to sync on.
    Del(Key, SyncSender<(Option<Value>, Option<io::Result<Seq>>)>),
    Scan(Key, usize, SyncSender<Vec<(Key, Value)>>),
    Len(SyncSender<usize>),
    Checkpoint(SyncSender<io::Result<()>>),
    /// Snapshot of the shard engine's maintenance counters.
    Stats(SyncSender<MaintenanceStats>),
    /// Deep structural audit of the shard's private index.
    Audit(SyncSender<AuditReport>),
    Stop,
}

/// An embedded sharded store with per-shard durability: every mutation is
/// appended to the owning shard's write-ahead log and acknowledged only
/// after the group-commit fsync; checkpoints rotate the log so replay stays
/// bounded. Cross-shard reads (`len`, a `scan` spanning range boundaries)
/// visit shards one after another without stopping writers, so they are
/// not atomic across shards.
///
/// Files live under the store's directory as `shard-<i>.ckpt` (a `DYTIS2`
/// checkpoint, `durability::checkpoint`) and `shard-<i>.wal` (the `DYWAL1`
/// framing of `durability::record`); shard `i` holds the keys whose top
/// `shard_bits` bits are `i`, which is what [`shard_of`] computes for a
/// power-of-two shard count. [`DurableShardedStore::open`] recovers each
/// shard with `dytis::persist::recover` — checkpoint, then the log's valid
/// prefix; replay is idempotent (records are absolute puts/deletes), so a
/// log that predates the newest checkpoint is harmless.
pub struct DurableShardedStore {
    senders: Vec<SyncSender<DurableCmd>>,
    handles: Vec<JoinHandle<()>>,
    wals: Vec<Arc<Wal<FileStorage>>>,
}

impl DurableShardedStore {
    /// Opens (or creates) a durable store in `dir`, recovering every shard
    /// from its checkpoint + log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from recovery, and `InvalidData` for corrupt
    /// checkpoints. (A corrupt or torn *log tail* is not an error: it is
    /// truncated, per the recovery contract.)
    ///
    /// # Panics
    ///
    /// Panics if `opts.shard_bits > 8`.
    pub fn open(dir: &Path, opts: DurabilityOptions) -> io::Result<Self> {
        assert!(opts.shard_bits <= 8, "at most 256 shards");
        std::fs::create_dir_all(dir)?;
        let n = 1usize << opts.shard_bits;
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut wals = Vec::with_capacity(n);
        for i in 0..n {
            let (idx, recovered) = dytis::persist::recover(
                &dir.join(format!("shard-{i}.ckpt")),
                &dir.join(format!("shard-{i}.wal")),
                opts.params,
            )?;
            if recovered.truncated_bytes > 0 {
                obs::counter!("kv.wal.truncated_recoveries").inc();
            }
            let wal = Arc::new(Wal::start(
                FileStorage::new(recovered.file),
                recovered.next_seq,
                durability::WalOptions {
                    max_batch_records: opts.max_batch_records,
                },
            ));
            let (tx, rx): (SyncSender<DurableCmd>, Receiver<DurableCmd>) = sync_channel(1024);
            senders.push(tx);
            wals.push(Arc::clone(&wal));
            let shard_dir = dir.to_path_buf();
            handles.push(std::thread::spawn(move || {
                durable_engine(rx, idx, &wal, &shard_dir, i, opts.ops_per_checkpoint);
            }));
        }
        Ok(DurableShardedStore {
            senders,
            handles,
            wals,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Inserts or updates a pair; returns once the write is durable (the
    /// group-commit fsync covering its WAL record has completed).
    ///
    /// # Errors
    ///
    /// Returns the shard WAL's sticky error if durability cannot be
    /// guaranteed; the write must then be considered lost.
    pub fn set(&self, key: Key, value: Value) -> io::Result<()> {
        let shard = shard_of(key, self.senders.len());
        let (tx, rx) = sync_channel(1);
        // invariant: each engine thread holds its receiver until it sees
        // Stop, which is only sent from shutdown()/crash()/drop.
        self.senders[shard]
            .send(DurableCmd::Set(key, value, tx))
            .expect("engine alive");
        // invariant: the engine replied above before dropping `tx`.
        let seq = rx.recv().expect("engine replies")?;
        self.wals[shard].sync(seq)
    }

    /// Point lookup (reads need no WAL interaction).
    pub fn get(&self, key: Key) -> Option<Value> {
        let shard = shard_of(key, self.senders.len());
        let (tx, rx) = sync_channel(1);
        // invariant: the engine outlives `self` and replies to every Get.
        self.senders[shard]
            .send(DurableCmd::Get(key, tx))
            .expect("engine alive");
        // invariant: the engine replied above before dropping `tx`.
        rx.recv().expect("engine replies")
    }

    /// Deletes a key, returning its value once the delete is durable.
    /// Deleting an absent key logs nothing and returns `Ok(None)`.
    ///
    /// # Errors
    ///
    /// As [`DurableShardedStore::set`].
    pub fn del(&self, key: Key) -> io::Result<Option<Value>> {
        let shard = shard_of(key, self.senders.len());
        let (tx, rx) = sync_channel(1);
        // invariant: the engine outlives `self` and replies to every Del.
        self.senders[shard]
            .send(DurableCmd::Del(key, tx))
            .expect("engine alive");
        // invariant: the engine replied above before dropping `tx`.
        let (prev, seq) = rx.recv().expect("engine replies");
        match seq {
            Some(seq) => {
                self.wals[shard].sync(seq?)?;
                Ok(prev)
            }
            None => Ok(prev),
        }
    }

    /// Ordered scan across shards (shards own ordered, disjoint ranges).
    pub fn scan(&self, start: Key, count: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(count.min(4096));
        let mut cursor = start;
        for s in shard_of(start, self.senders.len())..self.senders.len() {
            let (tx, rx) = sync_channel(1);
            // invariant: the engine outlives `self` and replies to every Scan.
            self.senders[s]
                .send(DurableCmd::Scan(cursor, count - out.len(), tx))
                .expect("engine alive");
            // invariant: the engine replied above before dropping `tx`.
            out.extend(rx.recv().expect("engine replies"));
            if out.len() >= count {
                break;
            }
            cursor = 0;
        }
        out
    }

    /// Total keys across shards.
    pub fn len(&self) -> usize {
        let mut total = 0;
        for s in &self.senders {
            let (tx, rx) = sync_channel(1);
            // invariant: the engine outlives `self` and replies to every Len.
            s.send(DurableCmd::Len(tx)).expect("engine alive");
            // invariant: the engine replied above before dropping `tx`.
            total += rx.recv().expect("engine replies");
        }
        total
    }

    /// Returns `true` when no shard holds a key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoints every shard and rotates its log.
    ///
    /// # Errors
    ///
    /// Returns the first shard's checkpoint or rotation error.
    pub fn checkpoint_now(&self) -> io::Result<()> {
        for s in &self.senders {
            let (tx, rx) = sync_channel(1);
            // invariant: the engine outlives `self` and replies to every
            // Checkpoint.
            s.send(DurableCmd::Checkpoint(tx)).expect("engine alive");
            // invariant: the engine replied above before dropping `tx`.
            rx.recv().expect("engine replies")?;
        }
        Ok(())
    }

    /// Pooled structure-maintenance counters across all shard engines
    /// (splits, expansions, remaps, doublings, shrinks, keys moved). The
    /// scenario lab samples this live to correlate drift with maintenance.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let mut agg = MaintenanceStats::default();
        for s in &self.senders {
            let (tx, rx) = sync_channel(1);
            // invariant: the engine outlives `self` and replies to every
            // Stats.
            s.send(DurableCmd::Stats(tx)).expect("engine alive");
            // invariant: the engine replied above before dropping `tx`.
            agg.merge(&rx.recv().expect("engine replies"));
        }
        agg
    }

    /// Deep structural audit of every shard's index, merged into one
    /// report. Each shard audits quiesced (its engine thread runs the
    /// audit between commands), so the result is exact.
    pub fn audit(&self) -> AuditReport {
        let mut agg = AuditReport::new("DurableShardedStore");
        for s in &self.senders {
            let (tx, rx) = sync_channel(1);
            // invariant: the engine outlives `self` and replies to every
            // Audit.
            s.send(DurableCmd::Audit(tx)).expect("engine alive");
            // invariant: the engine replied above before dropping `tx`.
            agg.merge(rx.recv().expect("engine replies"));
        }
        agg
    }

    /// Aggregated group-commit statistics across all shard WALs.
    pub fn wal_stats(&self) -> WalStats {
        let mut agg = WalStats {
            batches: 0,
            records: 0,
            synced_bytes: 0,
            rotations: 0,
        };
        for w in &self.wals {
            let s = w.stats();
            agg.batches += s.batches;
            agg.records += s.records;
            agg.synced_bytes += s.synced_bytes;
            agg.rotations += s.rotations;
        }
        agg
    }

    /// Simulates `kill -9`: WAL committers abort without flushing their
    /// queues, pending acks fail, and nothing is checkpointed. The on-disk
    /// state is whatever the committers had already written — reopen with
    /// [`DurableShardedStore::open`] to recover exactly the acknowledged
    /// writes.
    pub fn crash(mut self) {
        for w in &self.wals {
            w.crash();
        }
        for s in &self.senders {
            let _ = s.send(DurableCmd::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: flushes every WAL and joins all threads.
    ///
    /// # Errors
    ///
    /// Returns the first shard's sticky WAL error, if any.
    pub fn shutdown(mut self) -> io::Result<()> {
        for s in &self.senders {
            let _ = s.send(DurableCmd::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let mut result = Ok(());
        for w in self.wals.drain(..) {
            match Arc::try_unwrap(w) {
                Ok(wal) => {
                    let (_storage, health) = wal.close();
                    if result.is_ok() {
                        result = health;
                    }
                }
                // invariant: engines are joined above, so the store holds
                // the only remaining reference to each WAL.
                Err(_) => unreachable!("engine threads joined before close"),
            }
        }
        result
    }
}

impl Drop for DurableShardedStore {
    fn drop(&mut self) {
        for s in &self.senders {
            let _ = s.send(DurableCmd::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Remaining Arc<Wal> drops flush gracefully via Wal's own Drop.
    }
}

/// One shard's engine loop: WAL-append before apply, periodic checkpoint +
/// rotation.
fn durable_engine(
    rx: Receiver<DurableCmd>,
    mut idx: DyTis,
    wal: &Wal<FileStorage>,
    dir: &Path,
    shard: usize,
    ops_per_checkpoint: u64,
) {
    let mut ops_since_ckpt = 0u64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            DurableCmd::Set(k, v, reply) => {
                // Log first: the record must be queued before the apply so
                // an ack (sync on the replied seq) implies the WAL covers
                // the state the client observed.
                let seq = wal.append(WalOp::Put, k, v);
                if seq.is_ok() {
                    idx.insert(k, v);
                    ops_since_ckpt += 1;
                }
                let _ = reply.send(seq);
            }
            DurableCmd::Get(k, reply) => {
                let _ = reply.send(idx.get(k));
            }
            DurableCmd::Del(k, reply) => {
                if idx.get(k).is_some() {
                    let seq = wal.append(WalOp::Delete, k, 0);
                    let prev = if seq.is_ok() { idx.remove(k) } else { None };
                    ops_since_ckpt += u64::from(prev.is_some());
                    let _ = reply.send((prev, Some(seq)));
                } else {
                    let _ = reply.send((None, None));
                }
            }
            DurableCmd::Scan(start, count, reply) => {
                let mut out = Vec::with_capacity(count.min(1024));
                idx.scan(start, count, &mut out);
                let _ = reply.send(out);
            }
            DurableCmd::Len(reply) => {
                let _ = reply.send(idx.len());
            }
            DurableCmd::Checkpoint(reply) => {
                let r = checkpoint_shard(&idx, wal, dir, shard);
                if r.is_ok() {
                    ops_since_ckpt = 0;
                }
                let _ = reply.send(r);
            }
            DurableCmd::Stats(reply) => {
                let _ = reply.send(idx.stats().ops);
            }
            DurableCmd::Audit(reply) => {
                let _ = reply.send(idx.audit());
            }
            DurableCmd::Stop => break,
        }
        if ops_per_checkpoint > 0 && ops_since_ckpt >= ops_per_checkpoint {
            match checkpoint_shard(&idx, wal, dir, shard) {
                Ok(()) => ops_since_ckpt = 0,
                // Leave the log growing; the next threshold retries. The
                // WAL still guarantees durability, only replay time grows.
                Err(_) => obs::counter!("kv.ckpt.errors").inc(),
            }
        }
    }
}

/// Writes `shard-<i>.ckpt` atomically (see
/// [`dytis::persist::write_checkpoint`]), then rotates the shard's WAL —
/// only after the rename is durable, so the log is never dropped before the
/// checkpoint that covers it.
fn checkpoint_shard(
    idx: &DyTis,
    wal: &Wal<FileStorage>,
    dir: &Path,
    shard: usize,
) -> io::Result<()> {
    let _t = obs::Timer::start(obs::histogram!("kv.ckpt_ns"));
    dytis::persist::write_checkpoint(idx, &dir.join(format!("shard-{shard}.ckpt")))?;
    wal.rotate()?;
    obs::counter!("kv.ckpt.written").inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_monotone_and_total() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            assert_eq!(shard_of(0, shards), 0);
            assert_eq!(shard_of(u64::MAX, shards), shards - 1);
            let mut prev = 0;
            for i in 0..1000u64 {
                let s = shard_of(i * (u64::MAX / 1000), shards);
                assert!(s >= prev, "shard_of must be monotone");
                assert!(s < shards);
                prev = s;
            }
        }
    }

    /// On-disk compatibility: for every supported `shard_bits`, `shard_of`
    /// routes each range-boundary key exactly like the top-bits shift the
    /// durable store used to carry privately.
    #[test]
    fn shard_of_matches_top_bits_for_powers_of_two() {
        for bits in 0..=8u32 {
            let top_bits = |k: u64| {
                if bits == 0 {
                    0
                } else {
                    (k >> (64 - bits)) as usize
                }
            };
            let mut keys = vec![0, 1, u64::MAX - 1, u64::MAX];
            for i in 1..(1u64 << bits) {
                let edge = i << (64 - bits);
                keys.extend([edge - 1, edge, edge + 1]);
            }
            for k in keys {
                assert_eq!(
                    shard_of(k, 1 << bits),
                    top_bits(k),
                    "bits={bits} key={k:#x}"
                );
            }
        }
    }
}
