//! The thread-per-core data plane (DESIGN.md §16).
//!
//! A thread per connection and a round trip per op dies at the thread
//! count, not the index. [`TpcServer`] instead runs N worker threads
//! (default `available_parallelism`) over **one shared
//! [`ConcurrentDyTis`]**, the latched index of §3.4. Each worker owns
//!
//! - its **own listener** — every worker serves the whole key space, so a
//!   client may dial any of them, and
//! - a **nonblocking connection set** driven by the `poll(2)` reactor
//!   (`crate::reactor`), with reads, applies, and writes batched per
//!   wakeup.
//!
//! Every op is applied by the worker that read it, so every reply is known
//! the moment its request is parsed and is encoded straight into the
//! connection's output buffer: replies leave in request order, and no op
//! ever crosses to another worker.
//!
//! The wire is the `DYF1` binary frame (`crate::frame`) and nothing else:
//! a session opens with the 4-byte preamble, which the worker checks, and
//! every message after it — the server's own included (budget rejection,
//! idle reap) — is a frame. All of it runs under one resource envelope
//! ([`ServerOptions`]: connection budget with `ERR_BUSY` admission, capped
//! frames, idle-timeout reaping, backpressure on unsent replies, and a
//! graceful deadline drain).
//!
//! Every single-key op is one `ConcurrentDyTis` call, atomic under its
//! segment latch, and a connection's ops apply in the order it sent them.
//! Multi-key reads are not snapshots. `LEN` sums the per-table key
//! counters. A `SCAN` walks the directory in key order holding one
//! segment's read latch at a time, so its reply is strictly ascending and
//! holds every key that stayed present for the whole scan, while a
//! concurrent write to a segment the walk has not reached yet may appear
//! and one to a segment it has passed does not.

#![cfg(unix)]

use crate::frame::{self, Decoded};
use crate::reactor::{poll_events, PollFd, WakePipe, POLL_IN, POLL_OUT};
use crate::{DrainReport, ServerOptions};
use dytis::ConcurrentDyTis;
use index_traits::{ConcurrentKvIndex, Key, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Result, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`TpcServer`].
#[derive(Debug, Clone, Default)]
pub struct TpcOptions {
    /// Worker (event-loop) threads; `0` (the default) means
    /// `available_parallelism`.
    pub workers: usize,
    /// The resource envelope: the connection budget and
    /// `live_connections` gauge are global across workers, timeouts apply
    /// per connection.
    pub server: ServerOptions,
}

/// How many bytes one wakeup reads from one connection before moving on.
const READ_CHUNK: usize = 64 * 1024;
/// Unsent reply bytes at which a connection stops being read and its
/// already-read requests stop being answered (pipelining backpressure: the
/// peer must drain replies before more are produced).
const OUTBUF_HIGH_WATER: usize = 1 << 20;
/// Poll timeout: bounds how stale idle-deadline checks and the stop flag
/// can get when no wakeup arrives.
const POLL_TICK: Duration = Duration::from_millis(25);

/// State shared by all workers and the handle.
struct Shared {
    stop: AtomicBool,
    live: AtomicUsize,
    opts: ServerOptions,
    workers: usize,
    /// One per worker, so shutdown interrupts every poll at once.
    wakes: Vec<WakePipe>,
    index: ConcurrentDyTis,
}

/// One op of a request.
enum Op {
    Set(Key, Value),
    Get(Key),
    Del(Key),
    Scan(Key, usize),
    Len,
}

/// Runs one op on the index and appends its reply words to `reply`: GET
/// and DEL a `found value` pair, SCAN a `key value` pair per row, LEN the
/// key count, SET nothing (its ack counts the pairs of the whole request).
/// The only place the data plane touches the index.
fn apply(index: &ConcurrentDyTis, op: Op, reply: &mut Vec<u64>) {
    let found = |reply: &mut Vec<u64>, v: Option<Value>| {
        reply.push(u64::from(v.is_some()));
        reply.push(v.unwrap_or(0));
    };
    match op {
        Op::Set(k, v) => index.insert(k, v),
        Op::Get(k) => found(reply, index.get(k)),
        Op::Del(k) => found(reply, index.remove(k)),
        Op::Scan(start, limit) => {
            let mut rows = Vec::with_capacity(limit.min(1024));
            index.scan(start, limit, &mut rows);
            reply.extend(rows.iter().flat_map(|&(k, v)| [k, v]));
        }
        Op::Len => reply.push(index.len() as u64),
    }
}

/// A running thread-per-core server.
pub struct TpcServer {
    addrs: Vec<SocketAddr>,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl TpcServer {
    /// Binds one listener per worker on `addr`'s IP and starts the event
    /// loops. Port 0 gives every worker its own ephemeral port; an
    /// explicit port `p` puts worker `i` on `p + i`, so `addr()` (worker
    /// 0) listens exactly where the caller asked.
    ///
    /// # Errors
    ///
    /// Returns any bind or reactor-setup error.
    pub fn start<A: ToSocketAddrs>(addr: A) -> Result<TpcServer> {
        Self::with_options(addr, TpcOptions::default())
    }

    /// Starts with an explicit worker count and resource envelope over an
    /// empty index.
    ///
    /// # Errors
    ///
    /// As [`TpcServer::with_index`].
    pub fn with_options<A: ToSocketAddrs>(addr: A, opts: TpcOptions) -> Result<TpcServer> {
        Self::with_index(addr, opts, ConcurrentDyTis::new())
    }

    /// Serves a pre-built index — a restored checkpoint, or one built with
    /// chosen `Params` — from `opts.workers` workers.
    ///
    /// # Errors
    ///
    /// Returns any bind or reactor-setup error, and `InvalidInput` when an
    /// explicit port plus the worker count would overflow the port space.
    pub fn with_index<A: ToSocketAddrs>(
        addr: A,
        opts: TpcOptions,
        index: ConcurrentDyTis,
    ) -> Result<TpcServer> {
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.workers
        };
        let base = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let mut listeners = Vec::with_capacity(workers);
        let mut addrs = Vec::with_capacity(workers);
        for i in 0..workers {
            // Port 0: every worker takes its own ephemeral port. Explicit
            // port p: worker i binds p + i, so the requested port is
            // honored (worker 0) instead of silently discarded.
            let port = if base.port() == 0 {
                0
            } else {
                u16::try_from(i)
                    .ok()
                    .and_then(|off| base.port().checked_add(off))
                    .ok_or_else(|| {
                        std::io::Error::new(
                            ErrorKind::InvalidInput,
                            format!("port {} + {workers} workers overflows u16", base.port()),
                        )
                    })?
            };
            let l = TcpListener::bind(SocketAddr::new(base.ip(), port))?;
            l.set_nonblocking(true)?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        let mut wakes = Vec::with_capacity(workers);
        for _ in 0..workers {
            wakes.push(WakePipe::new()?);
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            opts: opts.server,
            workers,
            wakes,
            index,
        });
        let mut handles = Vec::with_capacity(workers);
        for (id, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                Worker::new(id, listener, shared).run();
            }));
        }
        Ok(TpcServer {
            addrs,
            shared,
            handles,
        })
    }

    /// Worker 0's address. Every worker serves the whole key space, so
    /// any of [`TpcServer::worker_addrs`] is as good.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// All worker addresses, indexed by worker id, for clients that spread
    /// their connections over the workers.
    pub fn worker_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of event-loop workers.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Currently admitted connections, across all workers.
    pub fn live_connections(&self) -> usize {
        // relaxed: observability read of a standalone gauge; callers that
        // need an edge synchronise through a completed round trip.
        self.shared.live.load(Ordering::Relaxed)
    }

    /// The served index, shared with every worker: its maintenance
    /// counters ([`ConcurrentDyTis::maintenance_stats`], exact once writers
    /// have quiesced), and the checkpoint of a quiesced server
    /// (`dytis::persist::write_checkpoint`).
    pub fn index(&self) -> &ConcurrentDyTis {
        &self.shared.index
    }

    /// Stops accepting, force-closes every connection, and joins workers
    /// under [`ServerOptions::drain_deadline`].
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> DrainReport {
        // relaxed: standalone stop flag; the wake below forces every
        // worker to re-check it within one poll tick.
        self.shared.stop.store(true, Ordering::Relaxed);
        for w in &self.shared.wakes {
            w.wake();
        }
        let deadline = Instant::now() + self.shared.opts.drain_deadline;
        let mut handles: Vec<JoinHandle<()>> = self.handles.drain(..).collect();
        loop {
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    let _ = handles.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            if handles.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let abandoned = handles.len();
        if abandoned > 0 {
            obs::counter!("kv.drain_abandoned").add(abandoned as u64);
        }
        DrainReport {
            drained: abandoned == 0,
            abandoned,
        }
    }
}

impl Drop for TpcServer {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            let _ = self.stop_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// The session preamble has been checked and consumed.
    greeted: bool,
    /// Bytes read but not yet answered: a partial frame, or whole frames
    /// held back while the unsent replies are at the high-water mark.
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    last_active: Instant,
    /// Set once the connection should end after the outbuf drains; no
    /// further request is read or answered.
    closing: bool,
    /// Peer sent EOF; answer what was read, then close.
    peer_eof: bool,
    /// Outbuf has been non-empty without progress since this instant.
    write_stalled: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            greeted: false,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            last_active: Instant::now(),
            closing: false,
            peer_eof: false,
            write_stalled: None,
        }
    }

    fn unsent(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    /// Reads what the socket has through the worker's `chunk` buffer,
    /// answers the complete requests, and flushes. Returns `false` when the
    /// connection should close now.
    fn read_and_serve(&mut self, shared: &Shared, me: usize, chunk: &mut [u8]) -> bool {
        let mut applied = 0usize;
        while self.unsent() < OUTBUF_HIGH_WATER && !self.closing {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    // Parse after every chunk so an endless frameless
                    // stream is refused from its first header and `inbuf`
                    // stays O(frame cap), not O(stream).
                    if !self.serve_input(shared, me, &mut applied) {
                        return false;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if applied > 0 {
            obs::counter!("kv.batch_apply").inc();
            obs::counter!("kv.batch_ops").add(applied as u64);
        }
        self.flush(shared, me)
    }

    /// Answers complete frames from `inbuf` until it holds no whole frame,
    /// the connection is closing, or the unsent replies reach
    /// [`OUTBUF_HIGH_WATER`]; the rest waits in `inbuf` for
    /// [`Conn::flush`] to drain below the mark. Returns `false` when the
    /// connection must close without a reply.
    fn serve_input(&mut self, shared: &Shared, me: usize, applied: &mut usize) -> bool {
        while !self.closing && self.unsent() < OUTBUF_HIGH_WATER {
            if !self.greeted {
                // Session start is a check, not a negotiation: whatever has
                // arrived must be a prefix of the preamble, so a peer
                // speaking anything else is closed at its first wrong byte,
                // unanswered — it would not understand a frame.
                let n = self.inbuf.len().min(frame::PREAMBLE.len());
                if self.inbuf[..n] != frame::PREAMBLE[..n] {
                    obs::counter!("kv.malformed").inc();
                    return false;
                }
                if n < frame::PREAMBLE.len() {
                    return true; // wait for the rest
                }
                self.inbuf.drain(..n);
                self.greeted = true;
            }
            match frame::try_decode(&self.inbuf) {
                Decoded::Incomplete => return true,
                Decoded::TooLarge { .. } => self.fatal(frame::ERR_TOO_LARGE),
                Decoded::BadCrc => self.fatal(frame::ERR_BAD_FRAME),
                Decoded::Frame {
                    header,
                    words,
                    consumed,
                } => {
                    self.inbuf.drain(..consumed);
                    *applied += 1;
                    self.answer(shared, me, header.op, &words);
                }
            }
        }
        true
    }

    /// Applies one request and encodes its reply.
    fn answer(&mut self, shared: &Shared, me: usize, op: u8, words: &[u64]) {
        let index = &shared.index;
        match op {
            frame::OP_SET => {
                if !words.len().is_multiple_of(2) {
                    return self.fatal(frame::ERR_BAD_COUNT);
                }
                // SET appends no reply words; its ack counts the pairs.
                let mut none = Vec::new();
                for pair in words.chunks_exact(2) {
                    apply(index, Op::Set(pair[0], pair[1]), &mut none);
                }
                self.reply(frame::RESP_SET, &[(words.len() / 2) as u64]);
            }
            frame::OP_GET => self.keyed(index, words, Op::Get, frame::RESP_GET),
            frame::OP_DEL => self.keyed(index, words, Op::Del, frame::RESP_DEL),
            frame::OP_SCAN => {
                if words.len() != 2 {
                    return self.fatal(frame::ERR_BAD_COUNT);
                }
                // The response carries 2 words per row, so a scan may ask
                // for at most what one response frame can hold.
                if words[1] > u64::from(frame::MAX_KEYS_PER_FRAME) {
                    return self.reply(frame::RESP_ERR, &[frame::ERR_SCAN_LIMIT]);
                }
                let mut reply = Vec::new();
                apply(index, Op::Scan(words[0], words[1] as usize), &mut reply);
                self.reply(frame::RESP_SCAN, &reply);
            }
            frame::OP_LEN => {
                if !words.is_empty() {
                    return self.fatal(frame::ERR_BAD_COUNT);
                }
                let mut reply = Vec::with_capacity(1);
                apply(index, Op::Len, &mut reply);
                self.reply(frame::RESP_LEN, &reply);
            }
            frame::OP_QUIT => {
                self.reply(frame::RESP_BYE, &[]);
                self.closing = true;
            }
            frame::OP_HELLO => self.reply(frame::RESP_HELLO, &[me as u64, shared.workers as u64]),
            _ => self.fatal(frame::ERR_UNKNOWN_OP),
        }
    }

    /// GET / DEL: one `found value` pair per key, in key order.
    fn keyed(&mut self, index: &ConcurrentDyTis, keys: &[Key], op: fn(Key) -> Op, resp_op: u8) {
        if keys.len() > frame::MAX_KEYS_PER_FRAME as usize {
            return self.reply(frame::RESP_ERR, &[frame::ERR_KEY_COUNT]);
        }
        let mut reply = Vec::with_capacity(keys.len() * 2);
        for &k in keys {
            apply(index, op(k), &mut reply);
        }
        self.reply(resp_op, &reply);
    }

    /// Queues one reply frame. An `ERR` queued here is non-fatal: the
    /// request was malformed at the op level but the frame itself was
    /// well-formed, so the stream is still in sync and the
    /// one-reply-per-request framing holds.
    fn reply(&mut self, op: u8, words: &[u64]) {
        frame::encode_frame(&mut self.outbuf, op, words);
    }

    /// Queues a fatal `ERR` and poisons the connection: the stream is
    /// untrustworthy past this point, so no further byte is parsed, even
    /// within the same wakeup. The replies already queued, this one
    /// included, still drain before the socket closes.
    fn fatal(&mut self, code: u64) {
        if code == frame::ERR_TOO_LARGE {
            obs::counter!("kv.oversized").inc();
        } else {
            obs::counter!("kv.malformed").inc();
        }
        self.reply(frame::RESP_ERR, &[code]);
        self.inbuf.clear();
        self.closing = true;
    }

    /// Writes what the socket accepts, answering requests held back by the
    /// high-water mark whenever the unsent replies drain below it. Returns
    /// `false` when the connection should close.
    fn flush(&mut self, shared: &Shared, me: usize) -> bool {
        loop {
            while self.out_pos < self.outbuf.len() {
                match self.stream.write(&self.outbuf[self.out_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        self.out_pos += n;
                        self.write_stalled = None;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if self.write_stalled.is_none() {
                            self.write_stalled = Some(Instant::now());
                        }
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            // Compact once the written prefix is as large as the mark, so
            // a peer that always drains a little keeps the buffer bounded.
            if self.out_pos >= self.outbuf.len() || self.out_pos >= OUTBUF_HIGH_WATER {
                self.outbuf.drain(..self.out_pos);
                self.out_pos = 0;
            }
            // Held-back requests resume here rather than on the next
            // readable event: a peer that has sent everything sends
            // nothing more.
            let (queued, mut resumed) = (self.outbuf.len(), 0);
            if !self.serve_input(shared, me, &mut resumed) {
                return false;
            }
            if resumed > 0 {
                obs::counter!("kv.batch_ops").add(resumed as u64);
            }
            if self.outbuf.len() == queued {
                break;
            }
        }
        // A closing (or EOF'd) connection ends once every reply is written.
        !(self.outbuf.is_empty() && (self.closing || self.peer_eof))
    }
}

// ---------------------------------------------------------------------------
// Worker event loop
// ---------------------------------------------------------------------------

struct Worker {
    id: usize,
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// The one [`READ_CHUNK`] buffer every read of this worker goes
    /// through, allocated once: bytes leave it for a connection's `inbuf`
    /// before the next read, so no connection owns it between wakeups.
    read_buf: Box<[u8]>,
}

impl Worker {
    fn new(id: usize, listener: TcpListener, shared: Arc<Shared>) -> Worker {
        Worker {
            id,
            listener,
            shared,
            conns: HashMap::new(),
            next_conn_id: 0,
            read_buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
        }
    }

    fn run(mut self) {
        let mut entries: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();
        loop {
            // relaxed: standalone stop flag; shutdown wakes every worker's
            // pipe, so the flag is observed within one poll round.
            if self.shared.stop.load(Ordering::Relaxed) {
                break;
            }
            entries.clear();
            tokens.clear();
            entries.push(PollFd::new(self.shared.wakes[self.id].read_fd(), POLL_IN));
            tokens.push(u64::MAX);
            entries.push(PollFd::new(self.listener.as_raw_fd(), POLL_IN));
            tokens.push(u64::MAX - 1);
            for (&id, conn) in &self.conns {
                let mut interest = 0i16;
                // Backpressure: stop reading while this connection's
                // replies are piling up faster than it drains them.
                if conn.unsent() < OUTBUF_HIGH_WATER && !conn.peer_eof && !conn.closing {
                    interest |= POLL_IN;
                }
                if conn.unsent() > 0 {
                    interest |= POLL_OUT;
                }
                entries.push(PollFd::new(conn.stream.as_raw_fd(), interest));
                tokens.push(id);
            }
            let ready = match poll_events(&mut entries, Some(POLL_TICK)) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if ready > 0 {
                obs::counter!("kv.wakeups").inc();
            }
            // Only a wakeup that came through the pipe left bytes in it;
            // draining on every wakeup would cost a `read(2)` that fails.
            if entries[0].readable() {
                self.shared.wakes[self.id].drain();
            }

            // 1. Accept any pending connections (admission-controlled).
            if entries[1].readable() {
                self.accept_ready();
            }

            // 2. Read every readable connection, answering its requests
            //    as one batch per wakeup; write every writable one.
            let mut to_close: Vec<u64> = Vec::new();
            for (entry, &token) in entries.iter().zip(&tokens).skip(2) {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                let open = if entry.readable() {
                    conn.last_active = Instant::now();
                    conn.read_and_serve(&self.shared, self.id, &mut self.read_buf)
                } else {
                    !entry.writable() || conn.flush(&self.shared, self.id)
                };
                if !open {
                    to_close.push(token);
                }
            }

            // 3. Timeout sweep (idle reap + stalled writes).
            self.sweep_timeouts(&mut to_close);

            for id in to_close {
                self.close_conn(id);
            }
        }
        // Drain: drop the listener and force-close every connection so
        // peers observe EOF/RST immediately.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // Admission: one global budget across all workers.
            // relaxed: the budget is advisory-exact; a transient
            // over/under of one connection during a race is acceptable
            // and self-corrects.
            let live = self.shared.live.fetch_add(1, Ordering::Relaxed);
            if live >= self.shared.opts.max_connections {
                // relaxed: undoing the advisory increment above.
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
                obs::counter!("kv.rejected").inc();
                let mut s = stream;
                let _ = s.set_nonblocking(true);
                // Best effort: one 18-byte frame fits any fresh socket
                // buffer.
                let _ = frame::write_frame(&mut s, frame::RESP_ERR, &[frame::ERR_BUSY]);
                let _ = s.shutdown(std::net::Shutdown::Both);
                continue;
            }
            obs::gauge!("kv.live_connections").inc();
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                // relaxed: undoing the advisory increment above.
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
                obs::gauge!("kv.live_connections").dec();
                continue;
            }
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            self.conns.insert(id, Conn::new(stream));
        }
    }

    fn sweep_timeouts(&mut self, to_close: &mut Vec<u64>) {
        let now = Instant::now();
        let read_timeout = self.shared.opts.read_timeout;
        let write_timeout = self.shared.opts.write_timeout;
        for (&id, conn) in &mut self.conns {
            if let (Some(stalled), Some(wt)) = (conn.write_stalled, write_timeout) {
                if now.duration_since(stalled) > wt {
                    to_close.push(id);
                    continue;
                }
            }
            if conn.closing || conn.unsent() > 0 {
                continue;
            }
            if read_timeout.is_some_and(|rt| now.duration_since(conn.last_active) > rt) {
                obs::counter!("kv.timeouts").inc();
                conn.reply(frame::RESP_ERR, &[frame::ERR_IDLE]);
                conn.closing = true;
                if !conn.flush(&self.shared, self.id) {
                    to_close.push(id);
                }
            }
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            // relaxed: gauge decrement; see the admission increment.
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            obs::gauge!("kv.live_connections").dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An explicit port must actually be listened on (worker 0), with
    /// workers 1..N on the next sequential ports. Regression: every
    /// worker used to bind port 0, silently discarding the request.
    #[test]
    fn explicit_port_is_honored_for_worker_zero() {
        // Find a candidate base by taking (and releasing) an ephemeral
        // port; retry in case a neighbor port is occupied meanwhile.
        for _ in 0..10 {
            let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
            let port = probe.local_addr().expect("probe addr").port();
            drop(probe);
            if port >= u16::MAX - 1 {
                continue;
            }
            let started = TpcServer::with_options(
                ("127.0.0.1", port),
                TpcOptions {
                    workers: 2,
                    server: ServerOptions::default(),
                },
            );
            let Ok(server) = started else { continue };
            assert_eq!(server.addr().port(), port, "requested port discarded");
            assert_eq!(server.worker_addrs()[1].port(), port + 1);
            let mut c = crate::BinClient::connect(server.addr()).expect("connect");
            c.set(9, 90).expect("set");
            assert_eq!(c.get(9).expect("get"), Some(90));
            c.quit().expect("quit");
            server.shutdown();
            return;
        }
        panic!("no two consecutive free ports found in 10 attempts");
    }

    /// Worker ports past 65535 cannot silently wrap.
    #[test]
    fn explicit_port_overflow_is_rejected() {
        let res = TpcServer::with_options(
            ("127.0.0.1", u16::MAX),
            TpcOptions {
                workers: 2,
                server: ServerOptions::default(),
            },
        );
        assert!(res.is_err(), "port 65535 + 2 workers must fail, not wrap");
    }

    /// `with_index` serves what it was handed (chosen `Params` included),
    /// and `maintenance_stats` reads the one index once: after the same
    /// inserts in the same order, the server's counters equal those of a
    /// local index — not that times the worker count.
    #[test]
    fn with_index_serves_a_prebuilt_index_and_reports_its_maintenance_once() {
        let hi = u64::MAX - 1;
        let build = || {
            let idx = ConcurrentDyTis::with_params(dytis::Params::small());
            idx.insert(5, 5);
            idx.insert(hi, hi);
            idx
        };
        let opts = TpcOptions {
            workers: 3,
            server: ServerOptions::default(),
        };
        let server = TpcServer::with_index("127.0.0.1:0", opts, build()).expect("start");
        assert_eq!(server.workers(), 3);
        let mut c = crate::BinClient::connect(server.worker_addrs()[2]).expect("connect");
        assert_eq!(c.scan(0, 10).expect("scan"), vec![(5, 5), (hi, hi)]);

        // Small geometry: 4k keys overflow buckets many times.
        let pairs: Vec<(Key, Value)> = (0..4_000u64).map(|i| (i << 52, i)).collect();
        c.set_batch(&pairs).expect("load");
        let local = build();
        for &(k, v) in &pairs {
            local.insert(k, v);
        }
        let served = server.index().maintenance_stats();
        assert!(served.splits > 0 && served.keys_moved > 0, "{served:?}");
        assert_eq!(served, local.maintenance_stats());
        c.quit().expect("quit");
        assert!(server.shutdown().drained);
    }

    #[test]
    fn round_trip_over_tpc() {
        let server = TpcServer::with_options(
            "127.0.0.1:0",
            TpcOptions {
                workers: 2,
                server: ServerOptions::default(),
            },
        )
        .expect("start");
        let mut c = crate::BinClient::connect(server.addr()).expect("connect");
        let lo = 1u64;
        let hi = u64::MAX - 1;
        c.set(lo, 100).expect("set lo");
        c.set(hi, 200).expect("set hi");
        assert_eq!(c.get(lo).expect("get lo"), Some(100));
        assert_eq!(c.get(hi).expect("get hi"), Some(200));
        assert_eq!(c.get(12345).expect("get miss"), None);
        assert_eq!(c.len().expect("len"), 2);
        assert_eq!(
            c.scan(0, 10).expect("scan"),
            vec![(lo, 100), (hi, 200)],
            "scan must be globally ordered"
        );
        assert_eq!(c.del(lo).expect("del"), Some(100));
        assert_eq!(c.len().expect("len"), 1);
        c.quit().expect("quit");
        let report = server.shutdown();
        assert!(report.drained, "tpc server failed to drain");
    }
}
