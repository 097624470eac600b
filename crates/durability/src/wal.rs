//! Group-commit write-ahead logging.
//!
//! Writers [`Wal::append`] records (a cheap in-memory enqueue that assigns
//! the next sequence number) and then block in [`Wal::sync`] until their
//! record is durable. A dedicated committer thread drains the queue in
//! batches, writes the encoded frames to the backing [`WalStorage`], issues
//! **one** fsync for the whole batch, and only then advances the durable
//! watermark that releases the waiting writers. Under concurrent load the
//! batch grows to cover every writer that arrived during the previous
//! fsync, amortizing the dominant cost of durability exactly as the
//! query/update tradeoff in *Dynamic Indexability* (Yi) prescribes for
//! write-optimized structures.
//!
//! Failure model: any storage error is **sticky** — once a write or sync
//! fails, every pending and future `sync` returns an error, so an
//! acknowledgement is never released for a record that did not reach the
//! device. [`Wal::crash`] flips the same switch deliberately, letting tests
//! kill the committer at a precise point (see [`crate::FailpointWriter`]).

use crate::record::{encode_header, encode_record, Seq, WalOp};
use index_traits::{Key, Value};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Byte sink a WAL writes through. Implementations must make `sync`
/// durable: once it returns, every previously appended byte survives a
/// crash.
pub trait WalStorage: Send + 'static {
    /// Appends `buf` at the end of the log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a partial (torn) write may survive.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Makes every appended byte durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync(&mut self) -> io::Result<()>;

    /// Truncates the log to zero bytes, writes `header`, and makes the
    /// result durable (log rotation after a checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn reset(&mut self, header: &[u8]) -> io::Result<()>;
}

/// File-backed storage: `append` = buffered-free `write_all`, `sync` =
/// `sync_data`.
#[derive(Debug)]
pub struct FileStorage {
    file: std::fs::File,
}

impl FileStorage {
    /// Wraps a file positioned at the end of its valid contents (see
    /// [`crate::recover_log_file`]).
    pub fn new(file: std::fs::File) -> Self {
        FileStorage { file }
    }
}

impl WalStorage for FileStorage {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn reset(&mut self, header: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(header)?;
        self.file.sync_data()
    }
}

/// In-memory storage for tests: the written byte stream stays readable
/// through the shared handle after the `Wal` (or a simulated crash) is
/// gone. `sync` is a no-op — pair it with [`crate::FailpointWriter`] to
/// model lost tails.
#[derive(Debug, Default)]
pub struct VecStorage {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl VecStorage {
    /// An empty in-memory log.
    pub fn new() -> Self {
        VecStorage::default()
    }

    /// Shared handle to the written bytes.
    pub fn handle(&self) -> Arc<Mutex<Vec<u8>>> {
        Arc::clone(&self.buf)
    }
}

impl WalStorage for VecStorage {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn reset(&mut self, header: &[u8]) -> io::Result<()> {
        let mut b = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        b.clear();
        b.extend_from_slice(header);
        Ok(())
    }
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Maximum queue items the committer drains per batch (and therefore
    /// per fsync). The default is effectively unbounded for realistic
    /// queues; benchmarks lower it to pin the batch size.
    pub max_batch_records: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            max_batch_records: 1024,
        }
    }
}

/// Always-on commit statistics (plain atomics, independent of the obs
/// `metrics` feature — dybench's `wal_group` workload reads these in
/// default builds, like the maintenance counters of the concurrent indexes).
#[derive(Debug, Default)]
struct StatsInner {
    batches: AtomicU64,
    records: AtomicU64,
    synced_bytes: AtomicU64,
    rotations: AtomicU64,
}

/// Snapshot of a WAL's commit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Commit batches flushed (= fsync calls for record batches).
    pub batches: u64,
    /// Records made durable across all batches.
    pub records: u64,
    /// Payload bytes written to storage.
    pub synced_bytes: u64,
    /// Log rotations performed.
    pub rotations: u64,
}

impl WalStats {
    /// Mean records per commit batch (0 when no batch has been flushed).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.records as f64 / self.batches as f64
        }
    }
}

enum QueueItem {
    Record { seq: Seq, frame: Vec<u8> },
    Rotate { base: Seq },
}

struct State {
    queue: Vec<QueueItem>,
    next_seq: Seq,
    durable_seq: Seq,
    rotate_tickets: u64,
    rotate_done: u64,
    error: Option<(io::ErrorKind, String)>,
    shutdown: bool,
    crash: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the committer when work arrives or the WAL shuts down.
    work: Condvar,
    /// Wakes writers when the durable watermark advances or an error lands.
    done: Condvar,
}

/// A group-commit write-ahead log over any [`WalStorage`].
///
/// Cloneable access is by `&self`; share a `Wal` across threads with `Arc`.
pub struct Wal<S: WalStorage> {
    shared: Arc<Shared>,
    stats: Arc<StatsInner>,
    committer: Option<JoinHandle<S>>,
}

impl<S: WalStorage> Wal<S> {
    /// Starts a WAL whose storage already holds a valid log (header
    /// present, positioned at the end); the first appended record receives
    /// sequence number `next_seq`.
    pub fn start(storage: S, next_seq: Seq, options: WalOptions) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: Vec::new(),
                next_seq,
                durable_seq: next_seq.saturating_sub(1),
                rotate_tickets: 0,
                rotate_done: 0,
                error: None,
                shutdown: false,
                crash: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let stats = Arc::new(StatsInner::default());
        let committer = {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || committer_loop(&shared, &stats, storage, options))
        };
        Wal {
            shared,
            stats,
            committer: Some(committer),
        }
    }

    /// Creates a fresh log: truncates `storage`, writes a header with
    /// `base_seq`, and starts the committer.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from writing the header.
    pub fn create(mut storage: S, base_seq: Seq, options: WalOptions) -> io::Result<Self> {
        storage.reset(&encode_header(base_seq))?;
        Ok(Self::start(storage, base_seq, options))
    }

    /// Enqueues one record and returns its sequence number. The record is
    /// **not durable** until [`Wal::sync`] returns for that sequence.
    ///
    /// # Errors
    ///
    /// Returns the sticky storage error if the WAL has already failed, or
    /// an error if it is shut down.
    pub fn append(&self, op: WalOp, key: Key, value: Value) -> io::Result<Seq> {
        let mut st = self.lock_state();
        if let Some((kind, msg)) = &st.error {
            return Err(io::Error::new(*kind, msg.clone()));
        }
        if st.shutdown || st.crash {
            return Err(io::Error::other("wal is closed"));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let mut frame = Vec::with_capacity(crate::record::RECORD_LEN);
        encode_record(seq, op, key, value, &mut frame);
        st.queue.push(QueueItem::Record { seq, frame });
        obs::counter!("wal.appends").inc();
        self.shared.work.notify_one();
        Ok(seq)
    }

    /// Blocks until every record up to and including `seq` is durable.
    ///
    /// # Errors
    ///
    /// Returns the sticky storage error if the batch containing `seq`
    /// failed before it became durable — in which case the write was never
    /// acknowledged and must be considered lost.
    pub fn sync(&self, seq: Seq) -> io::Result<()> {
        let mut st = self.lock_state();
        loop {
            // Durable wins over sticky errors: a record whose batch
            // completed is acknowledged even if a later batch failed.
            if st.durable_seq >= seq {
                return Ok(());
            }
            if let Some((kind, msg)) = &st.error {
                return Err(io::Error::new(*kind, msg.clone()));
            }
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until everything appended so far is durable.
    ///
    /// # Errors
    ///
    /// As [`Wal::sync`].
    pub fn sync_all(&self) -> io::Result<()> {
        let last = {
            let st = self.lock_state();
            st.next_seq.saturating_sub(1)
        };
        self.sync(last)
    }

    /// Rotates the log after a checkpoint: truncates storage to a fresh
    /// header and declares every previously appended record
    /// checkpoint-covered (their pending [`Wal::sync`] calls release, since
    /// the data is durable in the checkpoint). Returns the new segment's
    /// base sequence; numbering continues monotonically.
    ///
    /// # Errors
    ///
    /// Returns the sticky storage error if rotation (or an earlier write)
    /// failed.
    pub fn rotate(&self) -> io::Result<Seq> {
        let (ticket, base) = {
            let mut st = self.lock_state();
            if let Some((kind, msg)) = &st.error {
                return Err(io::Error::new(*kind, msg.clone()));
            }
            if st.shutdown || st.crash {
                return Err(io::Error::other("wal is closed"));
            }
            let ticket = st.rotate_tickets;
            st.rotate_tickets += 1;
            let base = st.next_seq;
            st.queue.push(QueueItem::Rotate { base });
            (ticket, base)
        };
        self.shared.work.notify_one();
        let mut st = self.lock_state();
        loop {
            if st.rotate_done > ticket {
                return Ok(base);
            }
            if let Some((kind, msg)) = &st.error {
                return Err(io::Error::new(*kind, msg.clone()));
            }
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Simulates a crash: the committer stops immediately without flushing
    /// the queue, and every pending or future [`Wal::sync`] fails. Records
    /// already durable stay acknowledged.
    pub fn crash(&self) {
        {
            let mut st = self.lock_state();
            st.crash = true;
            if st.error.is_none() {
                st.error = Some((
                    io::ErrorKind::BrokenPipe,
                    "wal crashed (simulated)".to_string(),
                ));
            }
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
    }

    /// The sequence number the next [`Wal::append`] will receive.
    pub fn next_seq(&self) -> Seq {
        self.lock_state().next_seq
    }

    /// The highest acknowledged (durable) sequence number.
    pub fn durable_seq(&self) -> Seq {
        self.lock_state().durable_seq
    }

    /// Commit statistics so far.
    pub fn stats(&self) -> WalStats {
        WalStats {
            // relaxed: independent monotone statistics counters; readers
            // tolerate a momentary lower bound and totals are exact once
            // the committer has quiesced.
            batches: self.stats.batches.load(Ordering::Relaxed),
            // relaxed: see above.
            records: self.stats.records.load(Ordering::Relaxed),
            // relaxed: see above.
            synced_bytes: self.stats.synced_bytes.load(Ordering::Relaxed),
            // relaxed: see above.
            rotations: self.stats.rotations.load(Ordering::Relaxed),
        }
    }

    /// Flushes everything, stops the committer, and returns the storage
    /// together with the final health of the log.
    pub fn close(mut self) -> (S, io::Result<()>) {
        {
            let mut st = self.lock_state();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        // invariant: the committer handle is Some until close/drop, and the
        // committer thread does not panic (all errors are routed into the
        // sticky error state).
        let storage = self.committer.take().expect("committer present").join();
        let storage = match storage {
            Ok(s) => s,
            Err(p) => std::panic::resume_unwind(p),
        };
        let health = {
            let st = self.lock_state();
            match &st.error {
                Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
                None => Ok(()),
            }
        };
        (storage, health)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<S: WalStorage> Drop for Wal<S> {
    fn drop(&mut self) {
        if let Some(handle) = self.committer.take() {
            {
                let mut st = self
                    .shared
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                st.shutdown = true;
            }
            self.shared.work.notify_all();
            let _ = handle.join();
        }
    }
}

fn committer_loop<S: WalStorage>(
    shared: &Shared,
    stats: &StatsInner,
    mut storage: S,
    options: WalOptions,
) -> S {
    loop {
        let batch: Vec<QueueItem> = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.crash {
                    return storage;
                }
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return storage;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            let n = st.queue.len().min(options.max_batch_records.max(1));
            st.queue.drain(..n).collect()
        };

        // Apply the batch outside the lock: appends stay cheap while the
        // committer is at the device, which is what lets the next batch
        // grow (group commit).
        let mut high: Option<Seq> = None;
        let mut rotations_done = 0u64;
        let mut record_count = 0u64;
        let mut byte_count = 0u64;
        let mut failure: Option<io::Error> = None;
        for item in &batch {
            let step = match item {
                QueueItem::Record { seq, frame } => match storage.append(frame) {
                    Ok(()) => {
                        high = Some(*seq);
                        record_count += 1;
                        byte_count += frame.len() as u64;
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
                QueueItem::Rotate { base } => {
                    match storage.reset(&encode_header(*base)) {
                        Ok(()) => {
                            // Everything below `base` is checkpoint-covered:
                            // release its waiters.
                            high = Some(base.saturating_sub(1));
                            rotations_done += 1;
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            if let Err(e) = step {
                failure = Some(e);
                break;
            }
        }
        if failure.is_none() && record_count > 0 {
            let fsync_timer = obs::Timer::start(obs::histogram!("wal.fsync_ns"));
            let r = storage.sync();
            drop(fsync_timer);
            if let Err(e) = r {
                failure = Some(e);
            } else {
                obs::histogram!("wal.batch_records").record(record_count);
                obs::counter!("wal.batches").inc();
                // relaxed: independent monotone statistics counters (see
                // WalStats); no memory is published through them.
                stats.batches.fetch_add(1, Ordering::Relaxed);
                // relaxed: see above.
                stats.records.fetch_add(record_count, Ordering::Relaxed);
                // relaxed: see above.
                stats.synced_bytes.fetch_add(byte_count, Ordering::Relaxed);
            }
        }
        if failure.is_none() && rotations_done > 0 {
            // relaxed: independent monotone statistics counter.
            stats.rotations.fetch_add(rotations_done, Ordering::Relaxed);
        }

        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        match failure {
            None => {
                if let Some(h) = high {
                    st.durable_seq = st.durable_seq.max(h);
                }
                st.rotate_done += rotations_done;
            }
            Some(e) => {
                if st.error.is_none() {
                    st.error = Some((e.kind(), e.to_string()));
                }
                shared.done.notify_all();
                return storage;
            }
        }
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_header, DecodedHeader, HEADER_LEN, RECORD_LEN};

    fn read_bytes(handle: &Arc<Mutex<Vec<u8>>>) -> Vec<u8> {
        handle.lock().unwrap().clone()
    }

    #[test]
    fn append_sync_makes_records_durable() {
        let storage = VecStorage::new();
        let bytes = storage.handle();
        let wal = Wal::create(storage, 1, WalOptions::default()).expect("create");
        let s1 = wal.append(WalOp::Put, 10, 100).expect("append");
        let s2 = wal.append(WalOp::Put, 20, 200).expect("append");
        wal.sync(s2).expect("sync");
        assert_eq!((s1, s2), (1, 2));
        assert!(wal.durable_seq() >= 2);
        let buf = read_bytes(&bytes);
        assert_eq!(buf.len(), HEADER_LEN + 2 * RECORD_LEN);
        assert_eq!(decode_header(&buf), DecodedHeader::Complete(1));
        let (_s, health) = wal.close();
        health.expect("clean close");
    }

    #[test]
    fn close_flushes_pending_appends() {
        let storage = VecStorage::new();
        let bytes = storage.handle();
        let wal = Wal::create(storage, 1, WalOptions::default()).expect("create");
        for k in 0..50u64 {
            wal.append(WalOp::Put, k, k).expect("append");
        }
        let (_s, health) = wal.close();
        health.expect("clean close");
        assert_eq!(read_bytes(&bytes).len(), HEADER_LEN + 50 * RECORD_LEN);
    }

    #[test]
    fn group_commit_batches_concurrent_writers() {
        let storage = VecStorage::new();
        let wal = Arc::new(Wal::create(storage, 1, WalOptions::default()).expect("create"));
        let threads = 8;
        let per_thread = 200u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let seq = wal.append(WalOp::Put, t * 10_000 + i, i).expect("append");
                        wal.sync(seq).expect("sync");
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.records, threads * per_thread);
        // With 8 threads racing one committer, at least some batches must
        // carry more than one record (the whole point of group commit).
        assert!(
            stats.batches < stats.records,
            "no batching: {} batches for {} records",
            stats.batches,
            stats.records
        );
    }

    #[test]
    fn max_batch_records_caps_batches() {
        let storage = VecStorage::new();
        let wal = Wal::create(
            storage,
            1,
            WalOptions {
                max_batch_records: 4,
            },
        )
        .expect("create");
        for k in 0..64u64 {
            wal.append(WalOp::Put, k, k).expect("append");
        }
        wal.sync_all().expect("sync");
        let stats = wal.stats();
        assert!(stats.batches >= 16, "batches {} < 16", stats.batches);
        let (_s, health) = wal.close();
        health.expect("clean close");
    }

    #[test]
    fn rotation_truncates_and_continues_sequence() {
        let storage = VecStorage::new();
        let bytes = storage.handle();
        let wal = Wal::create(storage, 1, WalOptions::default()).expect("create");
        for k in 0..10u64 {
            wal.append(WalOp::Put, k, k).expect("append");
        }
        wal.sync_all().expect("sync");
        let base = wal.rotate().expect("rotate");
        assert_eq!(base, 11);
        let s = wal.append(WalOp::Put, 99, 99).expect("append");
        assert_eq!(s, 11);
        wal.sync(s).expect("sync");
        let buf = read_bytes(&bytes);
        assert_eq!(buf.len(), HEADER_LEN + RECORD_LEN);
        assert_eq!(decode_header(&buf), DecodedHeader::Complete(11));
        assert_eq!(wal.stats().rotations, 1);
        let (_s, health) = wal.close();
        health.expect("clean close");
    }

    #[test]
    fn rotation_releases_unsynced_waiters() {
        // A record sitting in the queue when rotation lands is declared
        // checkpoint-covered; its sync must release, not hang or fail.
        let storage = VecStorage::new();
        let wal = Wal::create(storage, 1, WalOptions::default()).expect("create");
        let seq = wal.append(WalOp::Put, 1, 1).expect("append");
        wal.rotate().expect("rotate");
        wal.sync(seq).expect("covered by rotation");
        let (_s, health) = wal.close();
        health.expect("clean close");
    }

    #[test]
    fn storage_failure_is_sticky_and_blocks_acks() {
        use crate::failpoint::{CrashPlan, FailpointWriter};
        let inner = VecStorage::new();
        let bytes = inner.handle();
        // Allow the header plus one full record, then crash.
        let cut = (HEADER_LEN + RECORD_LEN) as u64;
        let storage = FailpointWriter::new(inner, CrashPlan::CutAt(cut));
        let wal = Wal::create(storage, 1, WalOptions::default()).expect("create");
        let s1 = wal.append(WalOp::Put, 1, 1).expect("append");
        wal.sync(s1).expect("first record fits");
        let s2 = wal.append(WalOp::Put, 2, 2).expect("append");
        assert!(wal.sync(s2).is_err(), "ack released past the crash point");
        assert!(
            wal.append(WalOp::Put, 3, 3).is_err(),
            "appends after a sticky failure must fail"
        );
        // The durable prefix still holds the acknowledged record only.
        let buf = read_bytes(&bytes);
        assert!(buf.len() < HEADER_LEN + 2 * RECORD_LEN);
    }

    #[test]
    fn crash_stops_without_flushing() {
        let storage = VecStorage::new();
        let bytes = storage.handle();
        let wal = Wal::create(storage, 1, WalOptions::default()).expect("create");
        let s = wal.append(WalOp::Put, 1, 1).expect("append");
        wal.sync(s).expect("sync");
        wal.crash();
        assert!(wal.append(WalOp::Put, 2, 2).is_err());
        drop(wal);
        // Only the synced record survives (plus anything the committer had
        // already picked up, which is none here).
        assert_eq!(read_bytes(&bytes).len(), HEADER_LEN + RECORD_LEN);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn metrics_report_batch_histogram_and_fsync_latency() {
        let storage = VecStorage::new();
        let wal = Arc::new(Wal::create(storage, 1, WalOptions::default()).expect("create"));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..100 {
                        let seq = wal.append(WalOp::Put, t * 1_000 + i, i).expect("append");
                        wal.sync(seq).expect("sync");
                    }
                });
            }
        });
        let (_s, health) = Arc::try_unwrap(wal)
            .unwrap_or_else(|_| panic!("sole owner"))
            .close();
        health.expect("clean close");
        let snap = obs::snapshot();
        let batch = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "wal.batch_records")
            .map(|(_, h)| h.clone())
            .expect("wal.batch_records registered");
        assert!(batch.count > 0, "batch histogram empty");
        let fsync = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "wal.fsync_ns")
            .map(|(_, h)| h.clone())
            .expect("wal.fsync_ns registered");
        assert_eq!(fsync.count, batch.count, "one fsync per record batch");
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "wal.appends" && *v >= 400));
    }
}
