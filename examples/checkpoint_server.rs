//! A KV service with checkpoint/restore: the full "data management system"
//! loop the paper's introduction motivates.
//!
//! Starts the thread-per-core server on one shared concurrent DyTIS,
//! ingests a review-like dataset over TCP, checkpoints the served index to
//! disk, restarts a server that serves the restored checkpoint, and reads
//! the keys back over the wire.
//!
//! ```sh
//! cargo run --release --example checkpoint_server
//! ```

use dytis_repro::datasets::{Dataset, DatasetSpec};
use dytis_repro::dytis::persist;
use dytis_repro::dytis::{ConcurrentDyTis, Params};
use dytis_repro::index_traits::ConcurrentKvIndex;
use dytis_repro::kvstore::{BinClient, TpcOptions, TpcServer};
use std::fs::File;
use std::io::BufReader;

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
        "ingested {n} keys over TCP through {} workers",
        server.workers()
    );

    // Phase 2: checkpoint. The (quiesced) served index is published
    // atomically as one DYTIS2 file, straight from its latched tables.
    let path = std::env::temp_dir().join("dytis_checkpoint.bin");
    persist::write_checkpoint(server.index(), &path).expect("checkpoint");
    let saved = server.index().len();
    client.quit().expect("quit");
    server.shutdown();
    println!(
        "checkpointed {saved} keys to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).expect("stat").len()
    );

    // Phase 3: restart. Restore the checkpoint (debug builds audit it),
    // move it into latches, and serve it.
    let mut r = BufReader::new(File::open(&path).expect("open"));
    let restored = persist::load_from(&mut r, Params::default()).expect("restore");
    let index = ConcurrentDyTis::from(restored);
    assert_eq!(index.len(), n);
    let opts = TpcOptions {
        workers: 2,
        ..TpcOptions::default()
    };
    let server =
        TpcServer::with_index("127.0.0.1:0", opts, index).expect("restart from checkpoint");
    let mut client = BinClient::connect(server.addr()).expect("connect");
    assert_eq!(client.len().expect("len"), n as u64);
    let probe: Vec<(u64, u64)> = pairs.iter().copied().step_by(487).collect();
    let probe_keys: Vec<u64> = probe.iter().map(|&(k, _)| k).collect();
    let got = client.get_batch(&probe_keys).expect("get_batch");
    for (&(k, v), got) in probe.iter().zip(got) {
        assert_eq!(got, Some(v), "key {k} lost across the restart");
    }
    println!(
        "restarted {} workers from the checkpoint; {} spot checks passed over TCP",
        server.workers(),
        probe.len()
    );
    client.quit().expect("quit");
    server.shutdown();
    std::fs::remove_file(&path).expect("cleanup");
}
