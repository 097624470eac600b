//! The resource envelope under attack (DESIGN.md §16): connection budget
//! with `ERR_BUSY` admission, capped frames, idle reaping, a
//! deadline-bounded drain, and raw wire abuse that must never be applied,
//! leak memory or stall another connection; plus the served SCAN contract
//! while another worker writes. Every server here but two runs ≥ 2 workers
//! over one shared index, and most raw cases dial worker 1 (`far_conn`),
//! so they run on a worker other than the one `addr()` names.

#![cfg(unix)]

use dytis::{ConcurrentDyTis, Params};
use kvstore::frame;
use kvstore::{BinClient, ServerOptions, TpcOptions, TpcServer};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tpc(workers: usize, server: ServerOptions) -> TpcServer {
    TpcServer::with_options("127.0.0.1:0", TpcOptions { workers, server }).expect("start tpc")
}

/// A raw socket that has not said anything yet.
fn silent_conn(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// A raw DYF1 session: connected, preamble sent.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let mut stream = silent_conn(addr);
    stream.write_all(&frame::PREAMBLE).expect("preamble");
    stream
}

/// A raw session on worker 1 of a 2-worker server.
fn far_conn(server: &TpcServer) -> TcpStream {
    raw_conn(server.worker_addrs()[1])
}

fn send(stream: &mut TcpStream, op: u8, words: &[u64]) {
    frame::write_frame(stream, op, words).expect("write frame");
}

fn recv(stream: &mut TcpStream) -> (u8, Vec<u64>) {
    let (header, words) = frame::read_frame(stream).expect("read frame");
    (header.op, words)
}

/// The server closed: nothing more arrives. A reset counts — the server
/// drops connections whose unread input it will never parse.
fn assert_eof(stream: &mut TcpStream, why: &str) {
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "{why}: extra bytes {rest:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "{why}: {e:?}"
        ),
    }
}

fn wait_for_live(server: &TpcServer, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), want);
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

/// A frameless flood must neither balloon worker memory nor disturb other
/// connections: its first six bytes announce an over-cap frame, so the
/// server answers `ERR_TOO_LARGE` once, stops reading and closes — the
/// rest of the 64 MiB is never buffered.
#[test]
fn frameless_flood_is_refused_and_bounded() {
    let oversized_before = obs::counter("kv.oversized").get();
    let server = tpc(2, ServerOptions::default());
    let mut flood = raw_conn(server.addr());
    let mut bystander = BinClient::connect(server.worker_addrs()[1]).expect("bystander");
    bystander.set(1, 10).expect("bystander set");

    #[cfg(target_os = "linux")]
    let rss_before = rss_bytes();

    let chunk = vec![b'A'; 1 << 20];
    for i in 0..64u64 {
        // Once the server has closed, the writer sees EPIPE / a reset.
        let refused = flood.write_all(&chunk).is_err();
        assert_eq!(bystander.get(1).expect("served during flood"), Some(10));
        bystander.set(2, i).expect("set during flood");
        if refused {
            break;
        }
    }
    assert_eq!(
        recv(&mut flood),
        (frame::RESP_ERR, vec![frame::ERR_TOO_LARGE])
    );
    assert_eof(&mut flood, "flooded conn");
    if obs::ENABLED {
        assert!(obs::counter("kv.oversized").get() > oversized_before);
    }

    #[cfg(target_os = "linux")]
    {
        let grown = rss_bytes().saturating_sub(rss_before);
        assert!(
            grown < 32 << 20,
            "RSS grew by {} MiB while streaming a 64 MiB frameless flood",
            grown >> 20
        );
    }
    assert_eq!(bystander.len().expect("len"), 2);
    bystander.quit().expect("quit");
    let report = server.shutdown();
    assert!(report.drained, "flooded tpc server failed to drain");
}

/// The connection budget is global across workers: with
/// `max_connections = 2`, the third concurrent connection is answered one
/// `ERR_BUSY` frame and closed at accept time — a `BinClient` reports it
/// as the server's error, not as a garbled header — and freeing a slot
/// re-opens admission.
#[test]
fn busy_rejection_at_budget_then_recovery() {
    let opts = ServerOptions {
        max_connections: 2,
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);
    let hi = 1u64 << 63;

    let mut c1 = BinClient::connect(server.worker_addrs()[0]).expect("connect c1");
    c1.set(1, 1).expect("c1 set");
    let mut c2 = BinClient::connect(server.worker_addrs()[1]).expect("connect c2");
    c2.set(hi, 2).expect("c2 set");
    assert_eq!(server.live_connections(), 2);

    let mut c3 = BinClient::connect(server.addr()).expect("tcp connect c3");
    let err = c3.len().expect_err("third connection must be rejected");
    assert_eq!(err.to_string(), "server error 4: busy");
    assert_eq!(frame::ERR_BUSY, 4);

    // Admitted connections were not disturbed, and each sees what the
    // other worker's connection wrote.
    assert_eq!(c1.get(hi).expect("c1 get"), Some(2));
    assert_eq!(c2.get(1).expect("c2 get"), Some(1));

    c1.quit().expect("quit c1");
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while Instant::now() < deadline {
        if let Ok(mut c) = BinClient::connect(server.addr()) {
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
/// says why (`ERR_IDLE`) and closes, and the budget slot frees — for a
/// session gone quiet and for a socket that never sent its preamble alike.
#[test]
fn idle_connection_is_reaped() {
    let opts = ServerOptions {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);

    let mut quiet = raw_conn(server.addr());
    send(&mut quiet, frame::OP_LEN, &[]);
    assert_eq!(recv(&mut quiet), (frame::RESP_LEN, vec![0]));
    let mut mute = silent_conn(server.worker_addrs()[1]);
    wait_for_live(&server, 2);

    for (conn, name) in [(&mut quiet, "quiet session"), (&mut mute, "mute socket")] {
        assert_eq!(
            recv(conn),
            (frame::RESP_ERR, vec![frame::ERR_IDLE]),
            "{name}"
        );
        assert_eof(conn, name);
    }
    wait_for_live(&server, 0);
    server.shutdown();
}

/// Shutdown drains: idle connections and one parked mid-frame are all
/// force-closed and the worker threads joined within the deadline.
#[test]
fn shutdown_drains_live_connections() {
    let opts = ServerOptions {
        drain_deadline: Duration::from_secs(5),
        ..ServerOptions::default()
    };
    let server = tpc(3, opts);

    let mut parked: Vec<TcpStream> = Vec::new();
    for _ in 0..3 {
        let mut s = raw_conn(server.addr());
        send(&mut s, frame::OP_LEN, &[]);
        assert_eq!(recv(&mut s), (frame::RESP_LEN, vec![0]));
        parked.push(s);
    }
    let mut mid = raw_conn(server.addr());
    let mut set = Vec::new();
    frame::encode_frame(&mut set, frame::OP_SET, &[1, 10]);
    mid.write_all(&set[..frame::HEADER_LEN + 3])
        .expect("partial write");
    parked.push(mid);
    wait_for_live(&server, 4);

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

    for mut s in parked {
        assert_eof(&mut s, "parked conn after drain");
    }
}

/// New connections after shutdown are refused — every worker listener is
/// gone.
#[test]
fn no_admission_after_shutdown() {
    let server = tpc(2, ServerOptions::default());
    let addrs: Vec<_> = server.worker_addrs().to_vec();
    let mut c = BinClient::connect(server.addr()).expect("connect");
    c.set(1, 1).expect("set");
    c.quit().expect("quit");
    let report = server.shutdown();
    assert!(report.drained);

    for addr in addrs {
        if let Ok(mut c) = BinClient::connect(addr) {
            let served = c.len();
            assert!(
                served.is_err(),
                "post-shutdown connection served: {served:?}"
            );
        }
    }
}

/// Concurrent clients on different workers observe one coherent store,
/// whichever listener each client happened to dial.
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
                let mut c = BinClient::connect(addr).expect("connect");
                for i in 0..100u64 {
                    // Keys spread over the whole u64 range.
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
    let mut c = BinClient::connect(server.addr()).expect("connect");
    assert_eq!(c.len().expect("len"), 300);
    let scan = c.scan(0, 300).expect("scan");
    assert_eq!(scan.len(), 300);
    assert!(
        scan.windows(2).all(|w| w[0].0 < w[1].0),
        "scan must be globally sorted"
    );
    server.shutdown();
}

/// A non-fatal `ERR` leaves the session usable: QUIT behind it still gets
/// its `BYE`, and then the server — not the client — ends the connection.
#[test]
fn quit_closes_cleanly_after_errors() {
    let server = tpc(2, ServerOptions::default());
    let mut stream = far_conn(&server);

    let too_many = vec![0u64; frame::MAX_KEYS_PER_FRAME as usize + 1];
    send(&mut stream, frame::OP_GET, &too_many);
    send(&mut stream, frame::OP_QUIT, &[]);
    assert_eq!(
        recv(&mut stream),
        (frame::RESP_ERR, vec![frame::ERR_KEY_COUNT])
    );
    assert_eq!(recv(&mut stream), (frame::RESP_BYE, vec![]));
    assert_eof(&mut stream, "after BYE");
    server.shutdown();
}

/// A request is complete only at its last CRC byte (`kvstore::frame`): a
/// peer that dies mid-write must not get the pairs it managed to send
/// applied as a shorter request.
#[test]
fn truncated_request_is_never_applied() {
    let server = tpc(2, ServerOptions::default());
    let mut stream = far_conn(&server);

    let mut wire = Vec::new();
    frame::encode_frame(&mut wire, frame::OP_SET, &[7, 70]);
    let whole = wire.len();
    frame::encode_frame(&mut wire, frame::OP_SET, &[8, 80, 9, 90]);
    // Cut inside the second frame's payload: pair (8, 80) is fully sent.
    wire.truncate(whole + frame::HEADER_LEN + 20);
    stream.write_all(&wire).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");

    assert_eq!(recv(&mut stream), (frame::RESP_SET, vec![1]));
    assert_eof(&mut stream, "only the whole frame is answered");

    let mut c = BinClient::connect(server.worker_addrs()[1]).expect("connect");
    assert_eq!(c.get(7).expect("get 7"), Some(70));
    assert_eq!(c.get(8).expect("get 8"), None, "cut frame was applied");
    assert_eq!(c.len().expect("len"), 1);
    server.shutdown();
}

/// A slowloris writer — a request trickling in one byte at a time,
/// preamble included — is assembled across wakeups and answered.
#[test]
fn trickled_request_is_answered() {
    let opts = ServerOptions {
        read_timeout: Some(Duration::from_secs(10)),
        ..ServerOptions::default()
    };
    let server = tpc(2, opts);
    let mut seed = BinClient::connect(server.addr()).expect("connect");
    seed.set(9, 90).expect("seed");

    let mut stream = silent_conn(server.worker_addrs()[1]);
    let mut wire = frame::PREAMBLE.to_vec();
    frame::encode_frame(&mut wire, frame::OP_GET, &[9]);
    for b in wire {
        stream.write_all(&[b]).expect("trickle");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(recv(&mut stream), (frame::RESP_GET, vec![1, 90]));
    server.shutdown();
}

/// A worker reads every connection through one read buffer. Two sessions
/// on a one-worker server send SET + GET frames cut mid-frame, each half
/// interleaved with the other session's halves, so every read holds a
/// partial frame: each session gets exactly its own replies, in order.
#[test]
fn interleaved_half_frames_share_one_read_buffer() {
    let server = tpc(1, ServerOptions::default());
    let mut conns = [raw_conn(server.addr()), raw_conn(server.addr())];
    for round in 0..20u64 {
        // Session c stores c + 1 pairs under its own keys, then reads them
        // back: its SET ack and GET values are its own and no one else's.
        let mut wires = Vec::new();
        let mut wants = Vec::new();
        for c in 0..2u64 {
            let pairs: Vec<(u64, u64)> = (0..=c)
                .map(|j| {
                    let k = (c + 1) << 40 | round << 8 | j;
                    (k, k ^ 0xC0FFEE)
                })
                .collect();
            let mut wire = Vec::new();
            let set: Vec<u64> = pairs.iter().flat_map(|&(k, v)| [k, v]).collect();
            frame::encode_frame(&mut wire, frame::OP_SET, &set);
            let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
            frame::encode_frame(&mut wire, frame::OP_GET, &keys);
            let got: Vec<u64> = pairs.iter().flat_map(|&(_, v)| [1, v]).collect();
            wants.push([(frame::RESP_SET, vec![c + 1]), (frame::RESP_GET, got)]);
            wires.push(wire);
        }
        // Cut inside each SET frame: the first half ends mid-payload.
        let cut = frame::HEADER_LEN + 5;
        for half in 0..2 {
            for (c, wire) in wires.iter().enumerate() {
                let (first, second) = wire.split_at(cut);
                conns[c]
                    .write_all(if half == 0 { first } else { second })
                    .expect("half frame");
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        for (c, want) in wants.iter().enumerate() {
            for w in want {
                assert_eq!(&recv(&mut conns[c]), w, "session {c}, round {round}");
            }
        }
    }
    server.shutdown();
}

/// Cap boundary over a real socket: a SET of exactly `MAX_FRAME_WORDS`
/// words is served — whether it arrives in one write or with header and
/// trailer one byte per write (every incremental accumulation path in the
/// worker) — and the stream stays aligned for the request behind it. One
/// word more is `oversized_frame_header_rejects_and_closes`.
#[test]
fn frame_cap_boundary_over_the_wire() {
    let server = tpc(2, ServerOptions::default());
    let pairs = u64::from(frame::MAX_FRAME_WORDS) / 2;

    for (trickle, base) in [(false, 1_000_000u64), (true, 2_000_000)] {
        let mut stream = far_conn(&server);
        let words: Vec<u64> = (0..pairs).flat_map(|k| [k, base + k]).collect();
        let mut wire = Vec::new();
        frame::encode_frame(&mut wire, frame::OP_SET, &words);
        if trickle {
            let (header, rest) = wire.split_at(frame::HEADER_LEN);
            let (payload, trailer) = rest.split_at(rest.len() - frame::TRAILER_LEN);
            for b in header {
                stream.write_all(&[*b]).expect("header byte");
            }
            for chunk in payload.chunks(100_000) {
                stream.write_all(chunk).expect("payload chunk");
            }
            for b in trailer {
                stream.write_all(&[*b]).expect("trailer byte");
            }
        } else {
            stream.write_all(&wire).expect("write");
        }
        assert_eq!(
            recv(&mut stream),
            (frame::RESP_SET, vec![pairs]),
            "trickle={trickle}"
        );
        send(&mut stream, frame::OP_GET, &[7, pairs]);
        assert_eq!(
            recv(&mut stream),
            (frame::RESP_GET, vec![1, base + 7, 0, 0]),
            "trickle={trickle}"
        );
    }
    server.shutdown();
}

/// The fatal request faults no other test sends: each draws its typed
/// `ERR` frame and a close, and a valid SET pipelined behind it in the
/// same write is never applied.
#[test]
fn fatal_request_faults_are_typed_and_poison_the_stream() {
    let cases: [(&str, u8, &[u64], u64); 5] = [
        ("unknown op", 0x42, &[], frame::ERR_UNKNOWN_OP),
        ("odd-length SET", frame::OP_SET, &[1], frame::ERR_BAD_COUNT),
        (
            "SCAN with 1 word",
            frame::OP_SCAN,
            &[0],
            frame::ERR_BAD_COUNT,
        ),
        (
            "SCAN with 3 words",
            frame::OP_SCAN,
            &[0, 1, 2],
            frame::ERR_BAD_COUNT,
        ),
        (
            "LEN with a payload",
            frame::OP_LEN,
            &[1],
            frame::ERR_BAD_COUNT,
        ),
    ];
    let malformed_before = obs::counter("kv.malformed").get();
    let server = tpc(2, ServerOptions::default());
    let mut witness = BinClient::connect(server.addr()).expect("witness");

    for (i, (name, op, words, code)) in cases.into_iter().enumerate() {
        let behind = 100 + i as u64;
        let mut wire = frame::PREAMBLE.to_vec();
        frame::encode_frame(&mut wire, op, words);
        frame::encode_frame(&mut wire, frame::OP_SET, &[behind, 1]);
        let mut stream = silent_conn(server.worker_addrs()[1]);
        stream.write_all(&wire).expect("write");

        assert_eq!(recv(&mut stream), (frame::RESP_ERR, vec![code]), "{name}");
        assert_eof(&mut stream, name);
        assert_eq!(witness.get(behind).expect("get"), None, "{name}");
    }
    assert_eq!(witness.len().expect("len"), 0);
    if obs::ENABLED {
        let counted = obs::counter("kv.malformed").get() - malformed_before;
        assert!(counted >= 5, "kv.malformed counted {counted} of 5 faults");
    }
    server.shutdown();
}

#[test]
fn batched_ops_round_trip() {
    let server = tpc(2, ServerOptions::default());
    let mut c = BinClient::connect(server.worker_addrs()[1]).expect("connect");
    let pairs: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k * 2)).collect();
    assert_eq!(c.set_batch(&pairs).expect("set_batch"), 3_000);
    assert_eq!(c.len().expect("len"), 3_000);
    let keys: Vec<u64> = (0..3_001u64).collect();
    let got = c.get_batch(&keys).expect("get_batch");
    let want: Vec<Option<u64>> = keys.iter().map(|&k| (k < 3_000).then_some(k * 2)).collect();
    assert_eq!(got, want);
    // The connection is still in lockstep after batches.
    assert_eq!(c.get(1).expect("get"), Some(2));
    c.quit().expect("quit");
    server.shutdown();
}

/// One read's worth of large requests cannot queue unbounded replies:
/// 2,000 pipelined `SCAN(i, 16384)` frames arrive in one 52,004-byte
/// write and would answer ~512 MiB. With the client not reading, the
/// worker stops answering at its unsent-reply high-water mark and keeps
/// the rest of the requests unparsed. Once the client reads, all 2,000
/// replies arrive in order, resumed as the replies drain — the client
/// sends no further byte.
#[test]
fn pipelined_scan_burst_is_bounded_then_answered_in_order() {
    const FRAMES: u64 = 2_000;
    let rows = u64::from(frame::MAX_KEYS_PER_FRAME);
    let v = |k: u64| k ^ 0xA5A5;
    let server = tpc(1, ServerOptions::default());
    let mut seed = BinClient::connect(server.addr()).expect("seed");
    let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k, v(k))).collect();
    assert_eq!(seed.set_batch(&pairs).expect("load"), 20_000);

    let mut wire = frame::PREAMBLE.to_vec();
    for i in 0..FRAMES {
        frame::encode_frame(&mut wire, frame::OP_SCAN, &[i, rows]);
    }
    assert_eq!(wire.len(), 52_004);
    let mut stream = silent_conn(server.addr());

    #[cfg(target_os = "linux")]
    let rss_before = rss_bytes();
    stream.write_all(&wire).expect("burst");
    #[cfg(target_os = "linux")]
    {
        let mut grown = 0;
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(25));
            grown = grown.max(rss_bytes().saturating_sub(rss_before));
        }
        assert!(
            grown < 32 << 20,
            "RSS grew by {} MiB while {FRAMES} pipelined scans went unread",
            grown >> 20
        );
    }

    // A server that never resumes the held-back requests fails here
    // rather than hanging the suite.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut replies = BufReader::new(stream);
    for i in 0..FRAMES {
        let (header, words) = frame::read_frame(&mut replies).expect("scan reply");
        assert_eq!(header.op, frame::RESP_SCAN, "reply {i}");
        assert_eq!(words.len() as u64, 2 * rows, "reply {i}");
        assert_eq!((words[0], words[1]), (i, v(i)), "reply {i} out of order");
    }
    assert_eq!(seed.len().expect("len"), 20_000);
    seed.quit().expect("quit");
    assert!(server.shutdown().drained);
}

/// The served SCAN contract (`kvstore::tpc`), over the wire, on one shared
/// index: a writer on worker 1 SETs and DELs odd key slots while a reader
/// on worker 0 scans. Every reply ascends strictly, every row carries its
/// key's one value, every even (stable) key in the scanned range is
/// present, and no key outside the written slots appears. Non-vacuous:
/// every write lands while scans run, and the index splits meanwhile.
#[test]
fn scans_keep_their_contract_while_another_worker_writes() {
    const SLOTS: u64 = 4_000;
    const STRIDE: u64 = u64::MAX / SLOTS;
    let f = |k: u64| k.rotate_left(17) ^ 0x5EED;
    let opts = TpcOptions {
        workers: 2,
        server: ServerOptions::default(),
    };
    let index = ConcurrentDyTis::with_params(Params::small());
    let server = TpcServer::with_index("127.0.0.1:0", opts, index).expect("start");
    let addrs = server.worker_addrs().to_vec();
    let stable: Vec<u64> = (0..SLOTS).step_by(2).map(|i| i * STRIDE).collect();
    let mut reader = BinClient::connect(addrs[0]).expect("reader");
    let loaded: Vec<(u64, u64)> = stable.iter().map(|&k| (k, f(k))).collect();
    reader.set_batch(&loaded).expect("load stable keys");

    let scanning = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (scanning, done) = (Arc::clone(&scanning), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut c = BinClient::connect(addrs[1]).expect("writer");
            while !scanning.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut mutations = 0u64;
            for i in (1..SLOTS).step_by(2) {
                let k = i * STRIDE;
                c.set(k, f(k)).expect("set");
                mutations += 1;
                if i % 4 == 3 {
                    c.del(k - 2 * STRIDE).expect("del");
                    mutations += 1;
                }
            }
            done.store(true, Ordering::Release);
            c.quit().expect("quit");
            mutations
        })
    };

    let before = server.index().maintenance_stats();
    scanning.store(true, Ordering::Release);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut scans = 0u64;
    while !done.load(Ordering::Acquire) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let start = (state % SLOTS) * STRIDE + (state >> 54);
        let count = 1 + (state >> 40) as usize % 512;
        let rows = reader.scan(start, count).expect("scan");
        scans += 1;
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "scan {scans} not strictly ascending"
        );
        for &(k, v) in &rows {
            assert!(k >= start, "row {k} before start {start}");
            assert!(
                k % STRIDE == 0 && k / STRIDE < SLOTS,
                "never-written key {k}"
            );
            assert_eq!(v, f(k), "row for key {k}");
        }
        // The range the reply covers: to its last row when full, to the
        // end of the key space when short.
        let end = match rows.last() {
            Some(&(last, _)) if rows.len() == count => last,
            _ => u64::MAX,
        };
        let lo = stable.partition_point(|&k| k < start);
        let hi = stable.partition_point(|&k| k <= end);
        for &k in &stable[lo..hi] {
            assert!(
                rows.binary_search_by_key(&k, |&(rk, _)| rk).is_ok(),
                "stable key {k} missing from scan({start}, {count})"
            );
        }
    }
    let grown = server.index().maintenance_stats().delta_since(&before);
    let mutations = writer.join().expect("writer");
    assert!(scans > 0, "no scan ran");
    assert!(mutations >= 1_000, "writer made only {mutations} mutations");
    assert!(grown.splits >= 1, "no split while scans ran: {grown:?}");
    reader.quit().expect("quit");
    assert!(server.shutdown().drained);
}
