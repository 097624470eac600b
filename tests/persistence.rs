//! Cross-crate persistence integration: checkpoint + WAL recovery over real
//! files, fed by the synthetic datasets.

use dytis_repro::datasets::{load_keys, save_keys, Dataset, DatasetSpec};
use dytis_repro::durability::{FileStorage, Wal, WalOp, WalOptions};
use dytis_repro::dytis::persist::{load_from, recover, write_checkpoint};
use dytis_repro::dytis::{DyTis, Params};
use dytis_repro::index_traits::KvIndex;
use std::fs::File;
use std::io::BufReader;

const N: usize = if cfg!(debug_assertions) {
    8_000
} else {
    50_000
};

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dytis_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

#[test]
fn checkpoint_file_roundtrip_per_dataset() {
    let dir = tempdir();
    for ds in [Dataset::ReviewM, Dataset::Taxi, Dataset::Uniform] {
        let keys = DatasetSpec::new(ds, N).generate();
        let mut idx = DyTis::new();
        for (i, &k) in keys.iter().enumerate() {
            idx.insert(k, i as u64);
        }
        let path = dir.join(format!("{}.ckpt", ds.short_name()));
        write_checkpoint(&idx, &path).expect("save");
        let mut r = BufReader::new(File::open(&path).expect("open"));
        let restored = load_from(&mut r, Params::default()).expect("load");
        assert_eq!(restored.len(), idx.len(), "{ds:?}");
        for (i, &k) in keys.iter().enumerate().step_by(479) {
            assert_eq!(restored.get(k), Some(i as u64), "{ds:?} key {k}");
        }
        std::fs::remove_file(&path).expect("cleanup");
    }
}

#[test]
fn crash_recovery_checkpoint_plus_wal() {
    let dir = tempdir();
    let keys = DatasetSpec::new(Dataset::ReviewL, N).generate();
    let split = keys.len() / 2;

    // Run 1: load half, checkpoint, keep writing through a WAL, "crash".
    let mut idx = DyTis::new();
    for (i, k) in keys[..split].iter().enumerate() {
        idx.insert(*k, i as u64);
    }
    let ckpt_path = dir.join("crash.ckpt");
    write_checkpoint(&idx, &ckpt_path).expect("checkpoint");

    let wal_path = dir.join("crash.wal");
    let file = File::create(&wal_path).expect("create");
    let wal = Wal::create(FileStorage::new(file), 1, WalOptions::default()).expect("log");
    let mut last = 0;
    for (i, k) in keys[split..].iter().enumerate() {
        idx.insert(*k, (split + i) as u64);
        last = wal.append(WalOp::Put, *k, (split + i) as u64).expect("log");
    }
    // Deletions also go through the log.
    for k in keys[..100].iter() {
        idx.remove(*k);
        last = wal.append(WalOp::Delete, *k, 0).expect("log");
    }
    wal.sync(last).expect("sync");
    // "Crash": the committer stops; the synced log is all that remains.
    wal.crash();
    drop(wal);

    // Run 2: recover from disk only.
    let (recovered, log) = recover(&ckpt_path, &wal_path, Params::default()).expect("recover");
    assert_eq!(log.replayed, ((keys.len() - split) + 100) as u64);
    assert_eq!(log.truncated_bytes, 0);
    assert_eq!(recovered.len(), idx.len());
    for (i, k) in keys.iter().enumerate().step_by(331) {
        assert_eq!(recovered.get(*k), idx.get(*k), "key {k} (i={i})");
    }
    std::fs::remove_file(&ckpt_path).expect("cleanup");
    std::fs::remove_file(&wal_path).expect("cleanup");
}

#[test]
fn sosd_key_file_feeds_the_index() {
    let dir = tempdir();
    let path = dir.join("keys.sosd");
    let keys = DatasetSpec::new(Dataset::Lognormal, N).generate();
    save_keys(&path, &keys).expect("save");
    let loaded = load_keys(&path).expect("load");
    assert_eq!(loaded, keys);
    let mut idx = DyTis::new();
    for &k in &loaded {
        idx.insert(k, k);
    }
    assert_eq!(idx.len(), keys.len());
    std::fs::remove_file(&path).expect("cleanup");
}
