//! A KV service with checkpoint/restore: the full "data management system"
//! loop the paper's introduction motivates.
//!
//! Starts the thread-per-core server on DyTIS shards, ingests a review-like
//! dataset over TCP, checkpoints the store to disk, restarts a server that
//! serves the restored checkpoint, and reads the keys back over the wire.
//!
//! ```sh
//! cargo run --release --example checkpoint_server
//! ```

use dytis_repro::datasets::{Dataset, DatasetSpec};
use dytis_repro::dytis::persist;
use dytis_repro::dytis::{DyTis, Params};
use dytis_repro::index_traits::KvIndex;
use dytis_repro::kvstore::{shard_of, BinClient, ServerOptions, TpcServer};
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    let n = 50_000;
    let keys = DatasetSpec::new(Dataset::ReviewM, n).generate();
    let pairs: Vec<(u64, u64)> = keys.iter().zip(0u64..).map(|(&k, i)| (k, i)).collect();

    // Phase 1: serve and ingest over TCP.
    let server = TpcServer::start("127.0.0.1:0").expect("bind");
    let mut client = BinClient::connect(server.addr()).expect("connect");
    client.set_batch(&pairs).expect("ingest");
    assert_eq!(client.len().expect("len"), n as u64);
    println!(
        "ingested {n} keys over TCP into {} shards",
        server.workers()
    );

    // Phase 2: checkpoint. The shards live inside the worker threads, so
    // the (quiesced) store is drained over the wire — `scan` chains
    // frame-sized requests until the key space is exhausted — into one
    // single-threaded index, which is written as one DYTIS2 stream.
    let mut snapshot = DyTis::new();
    for (k, v) in client.scan(0, usize::MAX).expect("scan") {
        snapshot.insert(k, v);
    }
    let path = std::env::temp_dir().join("dytis_checkpoint.bin");
    let mut w = BufWriter::new(File::create(&path).expect("create"));
    persist::save_to(&snapshot, &mut w).expect("checkpoint");
    drop(w);
    client.quit().expect("quit");
    server.shutdown();
    println!(
        "checkpointed {} keys to {} ({} bytes)",
        snapshot.len(),
        path.display(),
        std::fs::metadata(&path).expect("stat").len()
    );

    // Phase 3: restart. Load the checkpoint, deal its pairs out to one
    // shard per worker with the server's own partition function, and serve
    // those shards.
    let mut r = BufReader::new(File::open(&path).expect("open"));
    let restored = persist::load_from(&mut r, Params::default()).expect("restore");
    assert_eq!(restored.len(), n);
    let workers = 2;
    let mut shards: Vec<DyTis> = (0..workers).map(|_| DyTis::new()).collect();
    let mut all = Vec::with_capacity(n);
    restored.scan(0, n, &mut all);
    for (k, v) in all {
        shards[shard_of(k, workers)].insert(k, v);
    }
    let server = TpcServer::with_shards("127.0.0.1:0", ServerOptions::default(), shards)
        .expect("restart from checkpoint");
    let mut client = BinClient::connect(server.addr()).expect("connect");
    assert_eq!(client.len().expect("len"), n as u64);
    let probe: Vec<(u64, u64)> = pairs.iter().copied().step_by(487).collect();
    let probe_keys: Vec<u64> = probe.iter().map(|&(k, _)| k).collect();
    let got = client.get_batch(&probe_keys).expect("get_batch");
    for (&(k, v), got) in probe.iter().zip(got) {
        assert_eq!(got, Some(v), "key {k} lost across the restart");
    }
    println!(
        "restarted on {} shards from the checkpoint; {} spot checks passed over TCP",
        server.workers(),
        probe.len()
    );
    client.quit().expect("quit");
    server.shutdown();
    std::fs::remove_file(&path).expect("cleanup");
}
