//! The resource envelope under attack (DESIGN.md §16): connection budget
//! with `ERR busy` admission, capped request lines with resync, idle
//! reaping, a deadline-bounded drain, and raw wire abuse that must never
//! drop a connection or misalign a pipeline. Every server here runs ≥ 2
//! workers, and cases with small keys dial worker 1 (`far_conn`), so the
//! cross-worker forwarding hop is on the path.

#![cfg(unix)]

use kvstore::{Client, RetryPolicy, ServerOptions, TpcOptions, TpcServer};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn tpc(workers: usize, server: ServerOptions) -> TpcServer {
    TpcServer::with_options("127.0.0.1:0", TpcOptions { workers, server }).expect("start tpc")
}

fn raw_conn(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// A raw connection to worker 1 of a 2-worker server: every key below
/// `2^63` belongs to worker 0, so each keyed op takes the forwarding hop.
fn far_conn(server: &TpcServer) -> (TcpStream, BufReader<TcpStream>) {
    raw_conn(server.worker_addrs()[1])
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line.trim_end().to_string()
}

/// Resident set size of this process in bytes (Linux only).
#[cfg(target_os = "linux")]
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: usize = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .expect("parse VmRSS");
            return kb * 1024;
        }
    }
    panic!("VmRSS not found in /proc/self/status");
}

/// A newline-free flood must neither balloon worker memory nor kill the
/// connection: the per-connection input buffer is capped at the line
/// limit, the stream is discarded as it arrives, and the session resyncs
/// at the next newline.
#[test]
fn newline_free_flood_is_bounded_and_survivable() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = raw_conn(server.addr());

    #[cfg(target_os = "linux")]
    let rss_before = rss_bytes();

    let chunk = vec![b'A'; 1 << 20];
    for _ in 0..64 {
        stream.write_all(&chunk).expect("write flood chunk");
    }
    stream.write_all(b"\nLEN\n").expect("write tail");

    let resp = read_line(&mut reader);
    assert!(
        resp.starts_with("ERR line too long"),
        "expected oversized-line error, got {resp:?}"
    );
    assert_eq!(read_line(&mut reader), "LEN 0");

    #[cfg(target_os = "linux")]
    {
        let grown = rss_bytes().saturating_sub(rss_before);
        assert!(
            grown < 32 << 20,
            "RSS grew by {} MiB while streaming a 64 MiB garbage line",
            grown >> 20
        );
    }
    let report = server.shutdown();
    assert!(report.drained, "flooded tpc server failed to drain");
}

/// Oversized lines inside a pipelined burst: one error per long line,
/// every short line answered, strict request order — the in-order
/// pending-slot queue must hold even with the error path interleaved.
#[test]
fn oversized_line_resyncs_within_a_burst() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = raw_conn(server.addr());

    let long = "X".repeat(kvstore::protocol::MAX_LINE_BYTES + 1);
    let burst = format!("SET 1 10\n{long}\nGET 1\n{long}\nLEN\n");
    stream.write_all(burst.as_bytes()).expect("write burst");

    assert_eq!(read_line(&mut reader), "OK");
    assert!(read_line(&mut reader).starts_with("ERR line too long"));
    assert_eq!(read_line(&mut reader), "VALUE 10");
    assert!(read_line(&mut reader).starts_with("ERR line too long"));
    assert_eq!(read_line(&mut reader), "LEN 1");
    server.shutdown();
}

/// The connection budget is global across workers: with
/// `max_connections = 2`, the third concurrent connection gets `ERR busy`
/// and is closed at accept time; freeing a slot re-opens admission.
#[test]
fn busy_rejection_at_budget_then_recovery() {
    let opts = ServerOptions {
        max_connections: 2,
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);

    let mut c1 = Client::connect(server.addr()).expect("connect c1");
    c1.set(1, 1).expect("c1 set");
    let mut c2 = Client::connect(server.addr()).expect("connect c2");
    c2.set(2, 2).expect("c2 set");
    assert_eq!(server.live_connections(), 2);

    let (_s3, mut r3) = raw_conn(server.addr());
    assert_eq!(read_line(&mut r3), "ERR busy");
    let mut rest = Vec::new();
    r3.read_to_end(&mut rest).expect("rejected conn EOF");
    assert!(rest.is_empty(), "rejected conn got extra bytes {rest:?}");

    // Admitted connections were not disturbed — including cross-shard ops
    // that forward between the two workers.
    assert_eq!(c1.get(2).expect("c1 get"), Some(2));
    assert_eq!(c2.get(1).expect("c2 get"), Some(1));

    c1.quit().expect("quit c1");
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while Instant::now() < deadline {
        if let Ok(mut c) = Client::connect_with_retry(server.addr(), &RetryPolicy::default()) {
            if c.set(3, 3).is_ok() {
                admitted = Some(c);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c3 = admitted.expect("no admission after freeing a slot");
    assert_eq!(c3.get(3).expect("c3 get"), Some(3));
    server.shutdown();
}

/// An idle connection is reaped by the read timeout: the worker's sweep
/// says why (`ERR idle timeout`) and closes, and the budget slot frees.
#[test]
fn idle_connection_is_reaped() {
    let opts = ServerOptions {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);

    let (mut stream, mut reader) = raw_conn(server.addr());
    stream.write_all(b"LEN\n").expect("write");
    assert_eq!(read_line(&mut reader), "LEN 0");
    assert_eq!(server.live_connections(), 1);

    assert_eq!(read_line(&mut reader), "ERR idle timeout");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after reap");
    assert!(rest.is_empty());

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), 0, "reaped conn still registered");
    server.shutdown();
}

/// Shutdown drains: idle connections and one parked mid-line are all
/// force-closed and the worker threads joined within the deadline.
#[test]
fn shutdown_drains_live_connections() {
    let opts = ServerOptions {
        drain_deadline: Duration::from_secs(5),
        ..ServerOptions::default()
    };
    let server = tpc(3, opts);

    let mut parked: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::new();
    for _ in 0..3 {
        let (mut s, mut r) = raw_conn(server.addr());
        s.write_all(b"LEN\n").expect("write");
        assert_eq!(read_line(&mut r), "LEN 0");
        parked.push((s, r));
    }
    let (mut mid, mid_r) = raw_conn(server.addr());
    mid.write_all(b"SET 1 ").expect("partial write");
    parked.push((mid, mid_r));
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() != 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), 4);

    let start = Instant::now();
    let report = server.shutdown();
    let took = start.elapsed();
    assert!(
        report.drained,
        "shutdown abandoned {} workers",
        report.abandoned
    );
    assert_eq!(report.abandoned, 0);
    assert!(
        took < Duration::from_secs(5),
        "drain took {took:?}, deadline was 5s"
    );

    for (_s, mut r) in parked {
        let mut rest = Vec::new();
        match r.read_to_end(&mut rest) {
            Ok(_) => {}
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ),
                "unexpected error after drain: {e:?}"
            ),
        }
    }
}

/// New connections after shutdown are refused — every worker listener is
/// gone.
#[test]
fn no_admission_after_shutdown() {
    let server = tpc(2, ServerOptions::default());
    let addrs: Vec<_> = server.worker_addrs().to_vec();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set(1, 1).expect("set");
    c.quit().expect("quit");
    let report = server.shutdown();
    assert!(report.drained);

    for addr in addrs {
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut r = BufReader::new(stream.try_clone().expect("clone"));
            let _ = stream.set_nodelay(true);
            let mut line = String::new();
            let n = r.read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection was served: {line:?}");
        }
    }
}

/// Concurrent text clients on different workers observe one coherent
/// store: writes land on their key's shard regardless of which listener
/// the client happened to dial.
#[test]
fn clients_on_different_workers_share_the_keyspace() {
    let server = tpc(3, ServerOptions::default());
    let addrs: Vec<_> = server.worker_addrs().to_vec();
    let writers: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(t, addr)| {
            let addr = *addr;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for i in 0..100u64 {
                    // Keys spread over the whole u64 range: most ops land
                    // on a worker other than the connection's own.
                    let k = (t as u64 * 100 + i) * (u64::MAX / 300);
                    c.set(k, t as u64 * 100 + i).expect("set");
                }
                c.quit().expect("quit");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    let mut c = Client::connect(server.addr()).expect("connect");
    assert_eq!(c.len().expect("len"), 300);
    let scan = c.scan(0, 300).expect("scan");
    assert_eq!(scan.len(), 300);
    assert!(
        scan.windows(2).all(|w| w[0].0 < w[1].0),
        "cross-shard scan must be globally sorted"
    );
    server.shutdown();
}

#[test]
fn invalid_utf8_gets_err_and_connection_survives() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = far_conn(&server);

    // 0xFF 0xFE is not valid UTF-8 anywhere in a line.
    stream.write_all(b"\xff\xfe garbage\n").expect("write");
    let resp = read_line(&mut reader);
    assert!(resp.starts_with("ERR"), "expected ERR, got {resp:?}");

    stream.write_all(b"SET 1 100\nGET 1\n").expect("write");
    assert_eq!(read_line(&mut reader), "OK");
    assert_eq!(read_line(&mut reader), "VALUE 100");
    server.shutdown();
}

#[test]
fn malformed_command_stream_yields_err_per_line() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = far_conn(&server);

    stream
        .write_all(b"FROB 1\nSET 1\nSET a b\nGET 1 2 3\nLEN\n")
        .expect("write");
    for _ in 0..4 {
        let resp = read_line(&mut reader);
        assert!(resp.starts_with("ERR"), "expected ERR, got {resp:?}");
    }
    assert_eq!(read_line(&mut reader), "LEN 0");
    server.shutdown();
}

#[test]
fn crlf_and_blank_lines_are_tolerated() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = far_conn(&server);

    // Windows-style line endings and blank lines (skipped, no response).
    stream
        .write_all(b"SET 7 70\r\n\r\n\nGET 7\r\n")
        .expect("write");
    assert_eq!(read_line(&mut reader), "OK");
    assert_eq!(read_line(&mut reader), "VALUE 70");
    server.shutdown();
}

#[test]
fn quit_closes_cleanly_after_errors() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = far_conn(&server);

    stream.write_all(b"\xff\xff\xff\nQUIT\n").expect("write");
    assert!(read_line(&mut reader).starts_with("ERR"));
    assert_eq!(read_line(&mut reader), "BYE");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());
    server.shutdown();
}

/// A request is complete only at its newline: a peer that dies mid-write
/// must not get the prefix it managed to send applied as a shorter request.
#[test]
fn truncated_request_is_never_applied() {
    let server = tpc(2, ServerOptions::default());
    let (mut stream, mut reader) = far_conn(&server);

    stream.write_all(b"SET 7 70\nSET 8 8").expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = String::new();
    reader.read_to_string(&mut replies).expect("read to EOF");
    assert_eq!(replies, "OK\n", "only the terminated request is answered");

    let mut c = Client::connect(server.worker_addrs()[1]).expect("connect");
    assert_eq!(c.get(7).expect("get 7"), Some(70));
    assert_eq!(c.get(8).expect("get 8"), None, "`SET 8 8` had no newline");
    assert_eq!(c.len().expect("len"), 1);
    server.shutdown();
}

/// A slowloris writer — bytes trickling in with no newline — cannot hold
/// a line buffer open past the cap; it gets the oversized-line error and
/// the connection then resyncs normally.
#[test]
fn slowloris_writer_hits_the_line_cap() {
    let opts = ServerOptions {
        max_line_bytes: 64,
        read_timeout: Some(Duration::from_secs(10)),
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);
    let (mut stream, mut reader) = far_conn(&server);

    // 16 bytes at a time; after 5 writes (80 bytes > 64) the server must
    // refuse the line even though no newline ever arrived.
    for _ in 0..5 {
        stream.write_all(&[b'z'; 16]).expect("trickle");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(read_line(&mut reader).starts_with("ERR line too long"));

    stream.write_all(b"\nSET 9 90\nGET 9\n").expect("write");
    assert_eq!(read_line(&mut reader), "OK");
    assert_eq!(read_line(&mut reader), "VALUE 90");
    server.shutdown();
}

/// Byte-exact cap boundary over a real socket: a request line of exactly
/// `max_line_bytes` is served, one byte more gets `ERR line too long` and
/// the connection resyncs — whether the line arrives in one write or one
/// byte per write (every incremental accumulation path in the worker).
#[test]
fn line_cap_boundary_over_the_wire() {
    let cap = 64usize;
    let opts = ServerOptions {
        max_line_bytes: cap,
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);
    // "GET 7" padded with trailing spaces: the parser tolerates
    // whitespace, so the at-cap line is a well-formed request.
    let at_cap = format!("GET 7{}\n", " ".repeat(cap - 5));
    let over_cap = format!("GET 7{}\n", " ".repeat(cap - 4));
    assert_eq!((at_cap.len(), over_cap.len()), (cap + 1, cap + 2));

    for trickle in [false, true] {
        let (mut stream, mut reader) = far_conn(&server);
        let mut send = |line: &str| {
            if trickle {
                for b in line.bytes() {
                    stream.write_all(&[b]).expect("trickle byte");
                }
            } else {
                stream.write_all(line.as_bytes()).expect("write");
            }
        };
        send(&at_cap);
        assert_eq!(read_line(&mut reader), "MISS", "trickle={trickle}");
        send(&over_cap);
        let resp = read_line(&mut reader);
        assert!(resp.starts_with("ERR line too long"), "got {resp:?}");
        send("SET 7 70\nGET 7\nDEL 7\n");
        assert_eq!(read_line(&mut reader), "OK");
        assert_eq!(read_line(&mut reader), "VALUE 70");
        assert_eq!(read_line(&mut reader), "DELETED 70");
    }
    server.shutdown();
}

/// A mid-pipeline `ERR` must not misalign batch replies. The line cap
/// rejects exactly one op of the batch; the client must consume one reply
/// per op, report which op failed, and stay in lockstep afterwards.
#[test]
fn mid_pipeline_err_does_not_misalign_batches() {
    // Cap of 20 bytes: "SET <20-digit-key> <v>" exceeds it, "SET 1 10"
    // does not — so one specific op of the batch draws the error.
    let opts = ServerOptions {
        max_line_bytes: 20,
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);
    let mut c = Client::connect(server.worker_addrs()[1]).expect("connect");

    let long_key = u64::MAX; // 20 decimal digits
    let pairs = [(1u64, 10u64), (long_key, 20), (3, 30)];
    let report = c.set_batch_report(&pairs).expect("set_batch_report");
    assert_eq!(report.failures.len(), 1, "exactly one op must fail");
    assert_eq!(report.failures[0].0, 1, "the oversized op is index 1");
    assert!(
        report.failures[0].1.contains("line too long"),
        "failure must carry the server message, got {:?}",
        report.failures[0].1
    );

    // The stream is still aligned. (The long key cannot be GETted — its
    // request line also exceeds the cap — so its absence shows up as
    // LEN 2 and a 2-row scan.)
    assert_eq!(c.get(1).expect("get"), Some(10));
    assert_eq!(c.get(3).expect("get"), Some(30));
    assert_eq!(c.len().expect("len"), 2);
    assert_eq!(c.scan(0, 10).expect("scan"), vec![(1, 10), (3, 30)]);

    let (vals, report) = c
        .get_batch_report(&[1, long_key, 3])
        .expect("get_batch_report");
    assert_eq!(vals, vec![Some(10), None, Some(30)]);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, 1);

    // The Result-shaped wrappers surface the failure as an error but
    // still drain the pipeline: the connection survives.
    let err = c.set_batch(&pairs).expect_err("set_batch must error");
    assert!(err.to_string().contains("op 1"), "got {err}");
    assert_eq!(c.len().expect("len after err"), 2);
    c.quit().expect("quit");
    server.shutdown();
}

#[test]
fn batched_ops_round_trip() {
    let server = tpc(2, ServerOptions::default());
    let mut c = Client::connect(server.worker_addrs()[1]).expect("connect");
    let pairs: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k * 2)).collect();
    c.set_batch(&pairs).expect("set_batch");
    assert_eq!(c.len().expect("len"), pairs.len());
    let keys: Vec<u64> = (0..3_001u64).collect();
    let got = c.get_batch(&keys).expect("get_batch");
    let want: Vec<Option<u64>> = keys.iter().map(|&k| (k < 3_000).then_some(k * 2)).collect();
    assert_eq!(got, want);
    // The connection is still in lockstep after batches.
    assert_eq!(c.get(1).expect("get"), Some(2));
    c.quit().expect("quit");
    server.shutdown();
}

#[test]
fn connect_with_retry_reaches_a_live_server() {
    let server = tpc(2, ServerOptions::default());
    let mut c = Client::connect_with_retry(server.worker_addrs()[1], &RetryPolicy::default())
        .expect("retry connect");
    c.set(1, 1).expect("set");
    c.quit().expect("quit");
    server.shutdown();
}

#[test]
fn connect_with_retry_gives_up_on_dead_address() {
    // Bind-then-drop guarantees a port with no listener.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("probe addr");
    let policy = RetryPolicy {
        attempts: 3,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
    };
    let err = Client::connect_with_retry(addr, &policy);
    assert!(err.is_err(), "connect to a dropped listener succeeded");
}
