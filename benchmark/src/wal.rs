//! `wal_group`: one appender doing group commits on a file-backed WAL. The
//! only workload where `durability` works and `dytis` / `kvstore` idle.
//!
//! Flush policy, stated because it is not the program's default: the
//! committer `write`s each committed batch to the log file and stops at the
//! operating system's page cache ([`PageCacheLog`]); no device flush is in
//! the measured loop. A group is acknowledged when `Wal::sync(last_seq)`
//! returns, so acknowledged records survive a killed process, not a power
//! cut. The reason is this sandbox's virtual disk, not the program: with
//! `FileStorage`'s `sync_data` per batch the disk alternates, minutes at a
//! time, between a fast and a slow regime (175k against 303k records/s, p99
//! 417 against 196 us on the same commit), so no bound could separate a
//! change in `durability` from the host's storage. What a device flush adds
//! on this box is reported beside it, as `wal.device_sync_ns` in the traced
//! run, measured on `FileStorage` itself and labelled as the sandbox's.

use crate::gen::{mix64, value_of, GenTimes, StreamHash};
use crate::harness::{push_latencies, Finish, PassOut, Res, Rounds, Scope, Workload};
use crate::json::Json;
use crate::stats::percentile;
use crate::trace::{durations, totals, Name, NoProbe, Probe, Tracer};
use durability::{
    recover_log_file, FileStorage, Wal, WalOp, WalOptions, WalStats, WalStorage, RECORD_LEN,
};
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The log file as the WAL's storage, durable up to the page cache.
struct PageCacheLog {
    file: File,
}

impl WalStorage for PageCacheLog {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn reset(&mut self, header: &[u8]) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(header)
    }
}

fn create(path: &Path) -> Res<File> {
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Debug, Clone)]
pub struct WalCfg {
    /// Records per group: the roadmap's "group commit = a worker's wakeup
    /// batch".
    pub group: usize,
    /// Groups written during set-up, so file allocation and the committer
    /// thread are warm before the clock starts.
    pub warm_groups: usize,
    /// Groups per pass.
    pub groups: usize,
    pub trace_div: usize,
}

pub fn full() -> WalCfg {
    WalCfg {
        group: 32,
        warm_groups: 2_000,
        groups: 4_000,
        trace_div: 8,
    }
}

pub struct WalBench {
    cfg: WalCfg,
    seed: u64,
    path: PathBuf,
    wal: Option<Wal<PageCacheLog>>,
    /// Records appended and acknowledged so far; record `i` of the run has
    /// key `key_at(seed, i)`.
    acked: u64,
    stats_before: WalStats,
}

fn key_at(seed: u64, i: u64) -> u64 {
    mix64(mix64(seed) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl WalBench {
    fn wal(&self) -> Res<&Wal<PageCacheLog>> {
        self.wal
            .as_ref()
            .ok_or_else(|| "the WAL is open until finish".to_string())
    }

    fn groups<P: Probe>(&mut self, probe: &mut P, groups: usize) -> Res<()> {
        let seed = self.seed;
        for g in 0..groups {
            let wal = self.wal()?;
            let root = probe.root(Name::Batch, g as u32);
            let mut last = 0;
            for j in 0..self.cfg.group as u64 {
                let key = key_at(seed, self.acked + j);
                let t = probe.child(Name::Append);
                let seq = wal.append(WalOp::Put, key, value_of(key));
                probe.close(t);
                last = seq.map_err(|e| format!("append refused: {e}"))?;
            }
            let t = probe.child(Name::Sync);
            let durable = wal.sync(last);
            probe.close(t);
            probe.close(root);
            durable.map_err(|e| format!("sync failed: {e}"))?;
            self.acked += self.cfg.group as u64;
        }
        Ok(())
    }
}

impl Workload for WalBench {
    type Cfg = WalCfg;

    fn setup(cfg: &WalCfg, seed: u64, _traced: bool, out_dir: &Path) -> Res<WalBench> {
        let path = out_dir.join(format!("wal-{}.log", std::process::id()));
        let log = PageCacheLog {
            file: create(&path)?,
        };
        let wal =
            Wal::create(log, 1, WalOptions::default()).map_err(|e| format!("wal create: {e}"))?;
        let mut w = WalBench {
            cfg: cfg.clone(),
            seed,
            path,
            stats_before: wal.stats(),
            wal: Some(wal),
            acked: 0,
        };
        w.groups(&mut NoProbe, cfg.warm_groups)?;
        Ok(w)
    }

    fn gen_times(&self) -> GenTimes {
        // Keys are computed on the fly from the record number.
        GenTimes::default()
    }

    fn stream_hash(&self) -> u64 {
        let mut h = StreamHash::default();
        for i in 0..(self.cfg.groups * self.cfg.group) as u64 {
            h.word(key_at(
                self.seed,
                self.cfg.warm_groups as u64 * self.cfg.group as u64 + i,
            ));
        }
        h.finish()
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("records_per_group", Json::Num(self.cfg.group as f64)),
            ("warm_up_groups", Json::Num(self.cfg.warm_groups as f64)),
            ("groups_per_pass", Json::Num(self.cfg.groups as f64)),
            ("traced_groups_per_pass", Json::Num((self.cfg.groups / self.cfg.trace_div) as f64)),
            (
                "flush_policy",
                Json::str("one write per committed batch, to the page cache; no device flush; ack after Wal::sync"),
            ),
            ("appenders", Json::Num(1.0)),
        ])
    }

    fn pass<P: Probe>(&mut self, probe: &mut P, scope: Scope) -> Res<PassOut> {
        let groups = match scope {
            Scope::Full => self.cfg.groups,
            Scope::Prefix => self.cfg.groups / self.cfg.trace_div,
        };
        self.stats_before = self.wal()?.stats();
        let t = Instant::now();
        self.groups(probe, groups)?;
        Ok(PassOut {
            ops: (groups * self.cfg.group) as u64,
            // A refused append or failed sync aborts the run instead.
            failed: 0,
            wall_ns: t.elapsed().as_nanos() as u64,
        })
    }

    fn layer_metrics(&mut self, tracer: &Tracer, rounds: &mut Rounds) {
        let t = totals(&tracer.spans);
        let (append, sync) = (t[Name::Append as usize], t[Name::Sync as usize]);
        rounds.push("wal.append.calls", append.calls as f64);
        rounds.push("wal.append.busy_ns", append.busy_ns as f64);
        rounds.push(
            "wal.sync.wait_ns",
            sync.busy_ns as f64 / sync.calls.max(1) as f64,
        );
        push_latencies(
            rounds,
            &mut durations(&tracer.spans, Name::Batch),
            "insert_p50_ns",
            "insert_p99_ns",
            Some("insert_p9999_ns"),
        );
        let Some(wal) = &self.wal else { return };
        let (now, before) = (wal.stats(), self.stats_before);
        let batches = now.batches - before.batches;
        let records = now.records - before.records;
        let bytes = now.synced_bytes - before.synced_bytes;
        rounds.push("wal.batches", batches as f64);
        rounds.push("wal.mean_batch", records as f64 / batches.max(1) as f64);
        rounds.push("wal.synced_bytes", bytes as f64);
        rounds.push("wal.bytes_per_record", bytes as f64 / records.max(1) as f64);
    }

    /// What the program's own `FileStorage` pays to flush one group to this
    /// sandbox's disk: the cost the measured loop leaves out.
    fn extras(&mut self, _seed: u64, rounds: &mut Rounds) -> Res<()> {
        let path = self.path.with_extension("device");
        let mut storage = FileStorage::new(create(&path)?);
        let group = vec![0xA5u8; self.cfg.group * RECORD_LEN];
        let mut ns = Vec::with_capacity(300);
        for _ in 0..300 {
            storage
                .append(&group)
                .map_err(|e| format!("device append: {e}"))?;
            let t = Instant::now();
            storage.sync().map_err(|e| format!("device sync: {e}"))?;
            ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
        drop(storage);
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        rounds.push("wal.device_sync_ns", f64::from(percentile(&mut ns, 0.5)));
        Ok(())
    }

    /// Recovery must return exactly the acknowledged records, in order.
    fn finish(mut self, rounds: &mut Rounds) -> Res<Finish> {
        let wal = self.wal.take().ok_or("the WAL is open until finish")?;
        let (_storage, health) = wal.close();
        health.map_err(|e| format!("wal close: {e}"))?;
        let file_bytes = std::fs::metadata(&self.path)
            .map_err(|e| format!("stat: {e}"))?
            .len();

        let (seed, mut next, mut wrong) = (self.seed, 0u64, 0u64);
        let t = Instant::now();
        let recovered = recover_log_file(&self.path, |rec| {
            let key = key_at(seed, next);
            let ok = rec.seq == next + 1
                && rec.op == WalOp::Put
                && rec.key == key
                && rec.value == value_of(key);
            wrong += u64::from(!ok);
            next += 1;
        })
        .map_err(|e| format!("recover: {e}"))?;
        rounds.push("wal.recover_s", t.elapsed().as_secs_f64());
        rounds.push("wal.recovered_records", recovered.replayed as f64);
        drop(recovered);
        std::fs::remove_file(&self.path).map_err(|e| format!("remove log: {e}"))?;

        let missing_or_extra = next.abs_diff(self.acked);
        Ok(Finish {
            attempted: self.acked,
            failed: wrong + missing_or_extra,
            bytes_per_key: file_bytes as f64 / self.acked.max(1) as f64,
        })
    }
}

impl Drop for WalBench {
    /// A set-up that is thrown away (all but the last) leaves no file behind.
    fn drop(&mut self) {
        if let Some(wal) = self.wal.take() {
            drop(wal);
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn tiny() -> WalCfg {
        WalCfg {
            group: 32,
            warm_groups: 4,
            groups: 16,
            trace_div: 8,
        }
    }

    fn out_dir(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recovery_returns_exactly_the_acked_records() {
        let dir = out_dir("ok");
        let mut w = WalBench::setup(&tiny(), 1, false, &dir).unwrap();
        let out = w.pass(&mut NoProbe, Scope::Full).unwrap();
        assert_eq!(out.ops, 16 * 32);
        let mut rounds = Rounds::default();
        let fin = w.finish(&mut rounds).unwrap();
        assert_eq!((fin.attempted, fin.failed), (20 * 32, 0));
        assert_eq!(rounds.median("wal.recovered_records"), Some(640.0));
        assert!(fin.bytes_per_key >= durability::RECORD_LEN as f64);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_wrong_expected_record_is_counted_as_a_failure() {
        let dir = out_dir("bad");
        let mut w = WalBench::setup(&tiny(), 1, false, &dir).unwrap();
        w.pass(&mut NoProbe, Scope::Full).unwrap();
        // Expect a different key stream than the one that was written.
        w.seed ^= 1;
        assert!(w.finish(&mut Rounds::default()).unwrap().failed > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn traced_groups_are_a_span_tree() {
        let dir = out_dir("trace");
        let mut w = WalBench::setup(&tiny(), 1, true, &dir).unwrap();
        let mut tracer = Tracer::default();
        w.pass(&mut tracer, Scope::Prefix).unwrap();
        // 2 groups x (1 batch + 32 appends + 1 sync).
        assert_eq!(tracer.spans.len(), 2 * 34);
        let mut rounds = Rounds::default();
        w.layer_metrics(&tracer, &mut rounds);
        assert_eq!(rounds.median("wal.append.calls"), Some(64.0));
        assert_eq!(
            rounds.median("wal.bytes_per_record"),
            Some(durability::RECORD_LEN as f64)
        );
        drop(w);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
