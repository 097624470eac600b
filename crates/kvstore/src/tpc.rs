//! The thread-per-core data plane (DESIGN.md §16).
//!
//! A thread per connection and a round trip per op dies at the thread
//! count, not the index. [`TpcServer`] is shared-nothing instead: N worker
//! threads (default `available_parallelism`), each owning
//!
//! - its **own listener** (so a routing client can target a worker),
//! - its **own single-threaded [`DyTis`] shard** — keys are partitioned
//!   into contiguous ranges by [`shard_of`], so the data plane takes no
//!   cross-thread lock at all, and
//! - a **nonblocking connection set** driven by the `poll(2)` reactor
//!   (`crate::reactor`), with reads, applies, and writes batched per
//!   wakeup.
//!
//! Ops that arrive on one worker for a key another worker owns are
//! forwarded over an mpsc channel and completed asynchronously; responses
//! are released strictly in request order per connection, so a
//! misrouted (or non-routing) client still sees exact pipelined
//! semantics — just with one extra hop. A routing client
//! ([`crate::RoutedClient`]) that partitions its batches by
//! [`shard_of`] never pays the hop.
//!
//! The wire is the `DYF1` binary frame (`crate::frame`) and nothing else:
//! a session opens with the 4-byte preamble, which the worker checks, and
//! every message after it — the server's own included (budget rejection,
//! idle reap) — is a frame. All of it runs under one resource envelope
//! ([`ServerOptions`]: connection budget with `ERR_BUSY` admission, capped
//! frames, idle-timeout reaping, and a graceful deadline drain).
//!
//! Every op on a key is applied by the one thread that owns the key's
//! shard, in the order it reaches that thread, and answered only after it
//! is applied. Cross-shard reads are not atomic: `LEN` sums per-shard
//! counts and a `SCAN` spanning range boundaries chains per-shard scans
//! in shard order, both gathered while writers on other shards keep
//! running. A `SCAN` result is therefore sorted and each shard's slice of
//! it is a consistent snapshot of that shard, but a write to a later shard
//! that happens after the scan began can appear while a concurrent write
//! to an earlier shard does not.

#![cfg(unix)]

use crate::frame::{self, Decoded};
use crate::reactor::{poll_events, PollFd, WakePipe, POLL_IN, POLL_OUT};
use crate::{shard_of, DrainReport, ServerOptions};
use dytis::DyTis;
use index_traits::{Key, KvIndex, MaintenanceStats, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Result, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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

/// Smallest key `shard_of` assigns to shard `i` of `shards`.
fn shard_start(i: usize, shards: usize) -> Key {
    (((i as u128) << 64).div_ceil(shards as u128)) as Key
}

/// How many bytes one wakeup reads from one connection before moving on.
const READ_CHUNK: usize = 64 * 1024;
/// Outbound bytes above which a connection stops being read (pipelining
/// backpressure: the peer must drain responses before sending more).
const OUTBUF_HIGH_WATER: usize = 1 << 20;
/// Most in-flight (parsed, unanswered) requests per connection.
const MAX_PENDING_OPS: usize = 8192;
/// Poll timeout: bounds how stale idle-deadline checks and the stop flag
/// can get when no wakeup arrives.
const POLL_TICK: Duration = Duration::from_millis(25);

/// State shared by all workers and the handle.
struct Shared {
    stop: AtomicBool,
    live: AtomicUsize,
    opts: ServerOptions,
    workers: usize,
    wakes: Vec<WakePipe>,
}

/// A cross-worker message. `Apply` asks the shard owner to run one op;
/// `Done` returns the result to the connection's owning worker; `Stats`
/// asks a worker (from the [`TpcServer`] handle) for its shard's
/// maintenance counters.
enum Msg {
    Apply {
        from: usize,
        conn: u64,
        seq: u64,
        idx: u32,
        op: RemoteOp,
    },
    Done {
        conn: u64,
        seq: u64,
        idx: u32,
        resp: RemoteResp,
    },
    Stats(Sender<MaintenanceStats>),
}

enum RemoteOp {
    Set(Key, Value),
    Get(Key),
    Del(Key),
    Scan(Key, usize),
    Len,
}

/// What one shard answers; the shapes mirror the collecting [`Slot`]s.
enum RemoteResp {
    /// GET: the value; DEL: the value removed.
    Found(Option<Value>),
    /// SET: pairs applied (always 1); LEN: keys in the shard.
    Count(u64),
    /// SCAN: this shard's rows, in key order.
    Rows(Vec<(Key, Value)>),
}

/// Runs one op on a shard. The only place the data plane touches an index:
/// a worker calls it for the keys it owns and for ops peers forward to it.
fn apply(index: &mut DyTis, op: RemoteOp) -> RemoteResp {
    match op {
        RemoteOp::Set(k, v) => {
            index.insert(k, v);
            RemoteResp::Count(1)
        }
        RemoteOp::Get(k) => RemoteResp::Found(index.get(k)),
        RemoteOp::Del(k) => RemoteResp::Found(index.remove(k)),
        RemoteOp::Scan(start, limit) => {
            let mut out = Vec::with_capacity(limit.min(1024));
            index.scan(start, limit, &mut out);
            RemoteResp::Rows(out)
        }
        RemoteOp::Len => RemoteResp::Count(index.len() as u64),
    }
}

/// A running thread-per-core server.
pub struct TpcServer {
    addrs: Vec<SocketAddr>,
    shared: Arc<Shared>,
    senders: Vec<Sender<Msg>>,
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

    /// Starts with an explicit worker count and resource envelope, every
    /// shard empty.
    ///
    /// # Errors
    ///
    /// As [`TpcServer::with_shards`].
    pub fn with_options<A: ToSocketAddrs>(addr: A, opts: TpcOptions) -> Result<TpcServer> {
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.workers
        };
        let shards = (0..workers).map(|_| DyTis::new()).collect();
        Self::with_shards(addr, opts.server, shards)
    }

    /// Serves pre-built shards — a restored checkpoint, or indexes built
    /// with chosen `Params`: one worker per shard, worker `i` owning
    /// `shards[i]`.
    ///
    /// # Errors
    ///
    /// Returns any bind or reactor-setup error, and `InvalidInput` when
    /// `shards` is empty, when shard `i` holds a key that
    /// `shard_of(key, shards.len())` assigns to another shard, or when an
    /// explicit port plus the worker count would overflow the port space.
    pub fn with_shards<A: ToSocketAddrs>(
        addr: A,
        server: ServerOptions,
        shards: Vec<DyTis>,
    ) -> Result<TpcServer> {
        let workers = shards.len();
        if workers == 0 {
            return Err(std::io::Error::new(ErrorKind::InvalidInput, "no shards"));
        }
        for (i, shard) in shards.iter().enumerate() {
            // `shard_of` is monotone, so the shard is in range iff its
            // smallest key is and nothing sits at or past the next
            // shard's first key.
            let mut past = Vec::new();
            if i + 1 < workers {
                shard.scan(shard_start(i + 1, workers), 1, &mut past);
            }
            let first = shard.first_key();
            if first.is_some_and(|k| shard_of(k, workers) != i) || !past.is_empty() {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    format!("shard {i} of {workers} holds keys outside its shard_of range"),
                ));
            }
        }
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
            opts: server,
            workers,
            wakes,
        });
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(workers);
        let mut inboxes: Vec<Receiver<Msg>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        let mut handles = Vec::with_capacity(workers);
        let parts = listeners.into_iter().zip(inboxes).zip(shards);
        for (id, ((listener, inbox), index)) in parts.enumerate() {
            let peers = senders.clone();
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                Worker::new(id, listener, inbox, peers, shared, index).run();
            }));
        }
        Ok(TpcServer {
            addrs,
            shared,
            senders,
            handles,
        })
    }

    /// Worker 0's address — a full-service endpoint for clients that do
    /// not route (every op works; non-owned keys take the forwarding hop).
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// All worker addresses, indexed by worker id, for routing clients.
    pub fn worker_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of event-loop workers (= shards).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Currently admitted connections, across all workers.
    pub fn live_connections(&self) -> usize {
        // relaxed: observability read of a standalone gauge; callers that
        // need an edge synchronise through a completed round trip.
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Structure-maintenance counters (splits, expansions, remaps,
    /// doublings, shrinks, keys moved) summed over every shard. Each worker
    /// answers between wakeup batches, so a shard's counters are exact for
    /// some instant during the call; the sum is not one global instant.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let (tx, rx) = channel();
        for (sender, wake) in self.senders.iter().zip(&self.shared.wakes) {
            // A send only fails once that worker exited (shutdown): its
            // shard is gone and contributes nothing.
            if sender.send(Msg::Stats(tx.clone())).is_ok() {
                wake.wake();
            }
        }
        // `recv` must end when the last worker-held clone drops.
        drop(tx);
        let mut total = MaintenanceStats::default();
        while let Ok(stats) = rx.recv() {
            total.merge(&stats);
        }
        total
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

/// An in-order response slot. `Ready` holds an encoded frame; the others
/// collect one answer per part of the request — from this worker's shard
/// at once, from peers as their completions land — and encode when the
/// last one is in.
enum Slot {
    Ready(Vec<u8>),
    /// `Ready` whose flush also closes the connection (BYE, fatal ERR).
    ReadyClose(Vec<u8>),
    /// GET / DEL: the reply's `found v` words, two per key, filled in by
    /// key position as shards answer.
    Keyed {
        resp_op: u8,
        words: Vec<u64>,
        awaiting: u32,
    },
    /// SET / LEN: a sum over the parts (pairs applied, per-shard lengths).
    Count {
        resp_op: u8,
        total: u64,
        awaiting: u32,
    },
    /// A scan chained over shards in key order, one hop in flight.
    Scan {
        acc: Vec<(Key, Value)>,
        start: Key,
        limit: usize,
        next_shard: usize,
    },
}

impl Slot {
    fn is_complete(&self) -> bool {
        match self {
            Slot::Ready(_) | Slot::ReadyClose(_) => true,
            Slot::Keyed { awaiting, .. } | Slot::Count { awaiting, .. } => *awaiting == 0,
            // Scan completion is driven by the chaining logic, which
            // replaces the slot with Ready when the chain ends.
            Slot::Scan { .. } => false,
        }
    }

    /// Folds one shard's answer to part `idx` of the request into the
    /// reply. Returns `false` for an answer of the wrong shape, which is
    /// dropped.
    fn absorb(&mut self, idx: u32, resp: RemoteResp) -> bool {
        match (self, resp) {
            (
                Slot::Keyed {
                    words, awaiting, ..
                },
                RemoteResp::Found(v),
            ) => {
                if let Some(pair) = words.chunks_exact_mut(2).nth(idx as usize) {
                    pair[0] = u64::from(v.is_some());
                    pair[1] = v.unwrap_or(0);
                }
                *awaiting -= 1;
            }
            (
                Slot::Count {
                    total, awaiting, ..
                },
                RemoteResp::Count(n),
            ) => {
                *total += n;
                *awaiting -= 1;
            }
            (Slot::Scan { acc, .. }, RemoteResp::Rows(rows)) => {
                // The first hop's rows are the accumulator, not a copy.
                if acc.is_empty() {
                    *acc = rows;
                } else {
                    acc.extend(rows);
                }
            }
            // A mismatched completion can only come from memory
            // corruption or a logic bug; drop it rather than panic the
            // worker.
            _ => return false,
        }
        true
    }
}

struct Conn {
    stream: TcpStream,
    /// The session preamble has been checked and consumed.
    greeted: bool,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    pending: std::collections::VecDeque<Slot>,
    /// Sequence number of `pending.front()`.
    head_seq: u64,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    last_active: Instant,
    /// Set once the response stream should end the connection after the
    /// outbuf drains.
    closing: bool,
    /// Peer sent EOF; serve what is in flight, then close.
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
            pending: std::collections::VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            last_active: Instant::now(),
            closing: false,
            peer_eof: false,
            write_stalled: None,
        }
    }

    fn has_backlog(&self) -> bool {
        !self.pending.is_empty() || self.outbuf.len() > self.out_pos
    }
}

// ---------------------------------------------------------------------------
// Worker event loop
// ---------------------------------------------------------------------------

struct Worker {
    id: usize,
    listener: TcpListener,
    inbox: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    shared: Arc<Shared>,
    index: DyTis,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
}

impl Worker {
    fn new(
        id: usize,
        listener: TcpListener,
        inbox: Receiver<Msg>,
        peers: Vec<Sender<Msg>>,
        shared: Arc<Shared>,
        index: DyTis,
    ) -> Worker {
        Worker {
            id,
            listener,
            inbox,
            peers,
            shared,
            index,
            conns: HashMap::new(),
            next_conn_id: 0,
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
                // responses are piling up faster than it drains them.
                if conn.outbuf.len() - conn.out_pos < OUTBUF_HIGH_WATER
                    && conn.pending.len() < MAX_PENDING_OPS
                    && !conn.peer_eof
                    && !conn.closing
                {
                    interest |= POLL_IN;
                }
                if conn.outbuf.len() > conn.out_pos {
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
            self.shared.wakes[self.id].drain();

            // 1. Peer messages: apply forwarded ops on the local shard and
            //    deliver completions to waiting connections.
            self.drain_inbox();

            // 2. Accept any pending connections (admission-controlled).
            if entries[1].readable() {
                self.accept_ready();
            }

            // 3. Read every readable connection; parse and apply its ops
            //    as one batch per wakeup.
            let mut to_close: Vec<u64> = Vec::new();
            for (entry, &token) in entries.iter().zip(&tokens).skip(2) {
                if entry.readable() {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.last_active = Instant::now();
                    }
                    if !self.read_and_apply(token) {
                        to_close.push(token);
                        continue;
                    }
                }
                if entry.writable() && !self.flush_conn(token) {
                    to_close.push(token);
                }
            }

            // 4. Timeout sweep (idle reap + stalled writes).
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

    // -- accept --------------------------------------------------------

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

    // -- reading and parsing -------------------------------------------

    /// Reads what the socket has, parses complete requests, applies the
    /// local ones, forwards the remote ones, and flushes. Returns `false`
    /// when the connection should close now.
    fn read_and_apply(&mut self, id: u64) -> bool {
        let mut tmp = [0u8; READ_CHUNK];
        let mut got_eof = false;
        let mut applied = 0usize;
        loop {
            let read = {
                let conn = match self.conns.get_mut(&id) {
                    Some(c) => c,
                    None => return true,
                };
                if conn.outbuf.len() - conn.out_pos >= OUTBUF_HIGH_WATER
                    || conn.pending.len() >= MAX_PENDING_OPS
                    || conn.closing
                {
                    break; // backpressure: poll will re-arm once drained
                }
                conn.stream.read(&mut tmp)
            };
            match read {
                Ok(0) => {
                    got_eof = true;
                    break;
                }
                Ok(n) => {
                    let full = n == tmp.len();
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.inbuf.extend_from_slice(&tmp[..n]);
                    }
                    // Parse after every chunk so an endless frameless
                    // stream is refused from its first header and `inbuf`
                    // stays O(frame cap), not O(stream).
                    if !self.parse_all(id, &mut applied) {
                        return false;
                    }
                    if !full {
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
        if got_eof {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return true,
            };
            conn.peer_eof = true;
            if !conn.has_backlog() {
                return false;
            }
        }
        self.flush_conn(id)
    }

    /// Parses every complete frame in the connection's input buffer.
    /// Returns `false` when the connection must close without a reply.
    fn parse_all(&mut self, id: u64, applied: &mut usize) -> bool {
        loop {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return true,
            };
            if conn.closing {
                return true;
            }
            if !conn.greeted {
                // Session start is a check, not a negotiation: whatever has
                // arrived must be a prefix of the preamble, so a peer
                // speaking anything else is closed at its first wrong byte,
                // unanswered — it would not understand a frame.
                let n = conn.inbuf.len().min(frame::PREAMBLE.len());
                if conn.inbuf[..n] != frame::PREAMBLE[..n] {
                    obs::counter!("kv.malformed").inc();
                    return false;
                }
                if n < frame::PREAMBLE.len() {
                    return true; // wait for the rest
                }
                conn.inbuf.drain(..n);
                conn.greeted = true;
            }
            match frame::try_decode(&conn.inbuf) {
                Decoded::Incomplete => return true,
                Decoded::TooLarge { .. } => self.queue_fatal_err(id, frame::ERR_TOO_LARGE),
                Decoded::BadCrc => self.queue_fatal_err(id, frame::ERR_BAD_FRAME),
                Decoded::Frame {
                    header,
                    words,
                    consumed,
                } => {
                    conn.inbuf.drain(..consumed);
                    *applied += 1;
                    self.dispatch(id, header.op, &words);
                }
            }
        }
    }

    fn dispatch(&mut self, id: u64, op: u8, words: &[u64]) {
        let workers = self.shared.workers;
        match op {
            frame::OP_SET => {
                if !words.len().is_multiple_of(2) {
                    return self.queue_fatal_err(id, frame::ERR_BAD_COUNT);
                }
                let slot = Slot::Count {
                    resp_op: frame::RESP_SET,
                    total: 0,
                    awaiting: (words.len() / 2) as u32,
                };
                let pairs = words.chunks_exact(2);
                self.scatter(
                    id,
                    slot,
                    pairs.map(|c| (shard_of(c[0], workers), 0, RemoteOp::Set(c[0], c[1]))),
                );
            }
            frame::OP_GET => self.op_keyed(id, words, RemoteOp::Get, frame::RESP_GET),
            frame::OP_DEL => self.op_keyed(id, words, RemoteOp::Del, frame::RESP_DEL),
            frame::OP_SCAN => {
                if words.len() != 2 {
                    return self.queue_fatal_err(id, frame::ERR_BAD_COUNT);
                }
                // The response carries 2 words per row, so a scan may ask
                // for at most what one response frame can hold.
                if words[1] > u64::from(frame::MAX_KEYS_PER_FRAME) {
                    return self.queue_err(id, frame::ERR_SCAN_LIMIT);
                }
                self.op_scan(id, words[0], words[1] as usize);
            }
            frame::OP_LEN => {
                if !words.is_empty() {
                    return self.queue_fatal_err(id, frame::ERR_BAD_COUNT);
                }
                let slot = Slot::Count {
                    resp_op: frame::RESP_LEN,
                    total: 0,
                    awaiting: workers as u32,
                };
                self.scatter(id, slot, (0..workers).map(|s| (s, 0, RemoteOp::Len)));
            }
            frame::OP_QUIT => self.queue_frame(id, frame::RESP_BYE, &[], true),
            frame::OP_HELLO => {
                let who = [self.id as u64, workers as u64];
                self.queue_frame(id, frame::RESP_HELLO, &who, false);
            }
            _ => self.queue_fatal_err(id, frame::ERR_UNKNOWN_OP),
        }
    }

    // -- replies the worker already knows ------------------------------

    /// Queues `slot` as the reply to the connection's next request and
    /// returns the sequence number completions must name to reach it.
    fn push_slot(conn: &mut Conn, slot: Slot) -> u64 {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        debug_assert_eq!(seq, conn.head_seq + conn.pending.len() as u64);
        conn.pending.push_back(slot);
        seq
    }

    /// Queues one frame whose content is known now; with `close`, writing
    /// it out ends the connection.
    fn queue_frame(&mut self, id: u64, op: u8, words: &[u64], close: bool) {
        if let Some(conn) = self.conns.get_mut(&id) {
            let mut buf = Vec::new();
            frame::encode_frame(&mut buf, op, words);
            let slot = if close {
                Slot::ReadyClose(buf)
            } else {
                Slot::Ready(buf)
            };
            Self::push_slot(conn, slot);
        }
    }

    /// Queues a non-fatal `ERR` frame: the request was malformed at the
    /// op level but the frame itself was well-formed, so the stream is
    /// still in sync and the 1-response-per-request framing holds.
    fn queue_err(&mut self, id: u64, code: u64) {
        self.queue_frame(id, frame::RESP_ERR, &[code], false);
    }

    fn queue_fatal_err(&mut self, id: u64, code: u64) {
        if code == frame::ERR_TOO_LARGE {
            obs::counter!("kv.oversized").inc();
        } else {
            obs::counter!("kv.malformed").inc();
        }
        self.queue_frame(id, frame::RESP_ERR, &[code], true);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inbuf.clear();
            // Poison the connection immediately: the stream is
            // untrustworthy past this point, so no further bytes may be
            // read or parsed even within the same wakeup. Pending
            // responses (including this ERR) still drain before the
            // socket closes — flush_conn only closes a poisoned
            // connection once its slot queue is empty.
            conn.closing = true;
        }
    }

    // -- op execution ---------------------------------------------------

    fn forward(&self, target: usize, conn: u64, seq: u64, idx: u32, op: RemoteOp) {
        let msg = Msg::Apply {
            from: self.id,
            conn,
            seq,
            idx,
            op,
        };
        // A send only fails when the peer worker already exited, which
        // only happens during shutdown — the slot is then abandoned and
        // the connection force-closed by the drain anyway.
        if self.peers[target].send(msg).is_ok() {
            self.shared.wakes[target].wake();
        }
    }

    /// Runs the parts `(shard, idx, op)` of one request: those this worker
    /// owns are applied now, the rest go to their owners, and `slot` —
    /// queued in request order, created awaiting every part — collects
    /// both.
    fn scatter(
        &mut self,
        id: u64,
        mut slot: Slot,
        parts: impl Iterator<Item = (usize, u32, RemoteOp)>,
    ) {
        let mut remote = Vec::new();
        for (shard, idx, op) in parts {
            if shard == self.id {
                slot.absorb(idx, apply(&mut self.index, op));
            } else {
                remote.push((shard, idx, op));
            }
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let seq = Self::push_slot(conn, slot);
        for (shard, idx, op) in remote {
            self.forward(shard, id, seq, idx, op);
        }
    }

    /// GET / DEL: one part per key, answered at the key's position.
    fn op_keyed(&mut self, id: u64, keys: &[Key], op: fn(Key) -> RemoteOp, resp_op: u8) {
        if keys.len() > frame::MAX_KEYS_PER_FRAME as usize {
            return self.queue_err(id, frame::ERR_KEY_COUNT);
        }
        let workers = self.shared.workers;
        let slot = Slot::Keyed {
            resp_op,
            words: vec![0; keys.len() * 2],
            awaiting: keys.len() as u32,
        };
        let keys = keys.iter().enumerate();
        self.scatter(
            id,
            slot,
            keys.map(|(i, &k)| (shard_of(k, workers), i as u32, op(k))),
        );
    }

    fn op_scan(&mut self, id: u64, start: Key, limit: usize) {
        let workers = self.shared.workers;
        let mut slot = Slot::Scan {
            acc: Vec::new(),
            start,
            limit,
            next_shard: shard_of(start, workers),
        };
        let hop = Self::advance_scan(&mut self.index, self.id, workers, &mut slot);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let seq = Self::push_slot(conn, slot);
        if let Some((target, op)) = hop {
            self.forward(target, id, seq, 0, op);
        }
    }

    /// Steps a scan chain (any other slot is left alone): while rows are
    /// still wanted and shards remain, the next shard's hop runs here if
    /// worker `me` owns it and is returned for forwarding otherwise. When
    /// the chain ends the slot becomes the `Ready` SCAN_RES frame. Called
    /// at creation and on each completion.
    fn advance_scan(
        index: &mut DyTis,
        me: usize,
        workers: usize,
        slot: &mut Slot,
    ) -> Option<(usize, RemoteOp)> {
        loop {
            let Slot::Scan {
                acc,
                start,
                limit,
                next_shard,
            } = slot
            else {
                return None;
            };
            if acc.len() >= *limit || *next_shard >= workers {
                let mut words = Vec::with_capacity(acc.len() * 2);
                for &(k, v) in acc.iter() {
                    words.push(k);
                    words.push(v);
                }
                let mut buf = Vec::new();
                frame::encode_frame(&mut buf, frame::RESP_SCAN, &words);
                *slot = Slot::Ready(buf);
                return None;
            }
            let target = *next_shard;
            *next_shard += 1;
            let op = RemoteOp::Scan(*start, *limit - acc.len());
            if target != me {
                return Some((target, op));
            }
            slot.absorb(0, apply(index, op));
        }
    }

    // -- peer messages --------------------------------------------------

    fn drain_inbox(&mut self) {
        let mut flush_ids: Vec<u64> = Vec::new();
        while let Ok(msg) = self.inbox.try_recv() {
            match msg {
                Msg::Apply {
                    from,
                    conn,
                    seq,
                    idx,
                    op,
                } => {
                    let done = Msg::Done {
                        conn,
                        seq,
                        idx,
                        resp: apply(&mut self.index, op),
                    };
                    if self.peers[from].send(done).is_ok() {
                        self.shared.wakes[from].wake();
                    }
                }
                Msg::Done {
                    conn,
                    seq,
                    idx,
                    resp,
                } => {
                    self.complete(conn, seq, idx, resp);
                    flush_ids.push(conn);
                }
                Msg::Stats(reply) => {
                    let _ = reply.send(self.index.stats().ops);
                }
            }
        }
        flush_ids.sort_unstable();
        flush_ids.dedup();
        for id in flush_ids {
            if !self.flush_conn(id) {
                self.close_conn(id);
            }
        }
    }

    /// Applies one remote completion to its pending slot.
    fn complete(&mut self, id: u64, seq: u64, idx: u32, resp: RemoteResp) {
        let hop = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return; // connection died while the op was in flight
            };
            let Some(off) = seq.checked_sub(conn.head_seq) else {
                return;
            };
            let Some(slot) = conn.pending.get_mut(off as usize) else {
                return;
            };
            if !slot.absorb(idx, resp) {
                return;
            }
            Self::advance_scan(&mut self.index, self.id, self.shared.workers, slot)
        };
        if let Some((target, op)) = hop {
            self.forward(target, id, seq, 0, op);
        }
    }

    // -- flushing -------------------------------------------------------

    /// Moves completed responses into the outbuf (in request order) and
    /// writes what the socket accepts. Returns `false` when the
    /// connection should close.
    fn flush_conn(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        // Release completed slots strictly in order.
        while let Some(front) = conn.pending.front() {
            if !front.is_complete() {
                break;
            }
            // invariant: the front exists and is complete per the loop test.
            let slot = conn.pending.pop_front().unwrap();
            conn.head_seq += 1;
            match slot {
                Slot::Ready(bytes) => conn.outbuf.extend_from_slice(&bytes),
                Slot::ReadyClose(bytes) => {
                    conn.outbuf.extend_from_slice(&bytes);
                    conn.closing = true;
                    conn.pending.clear();
                    break;
                }
                Slot::Keyed { resp_op, words, .. } => {
                    frame::encode_frame(&mut conn.outbuf, resp_op, &words);
                }
                Slot::Count { resp_op, total, .. } => {
                    frame::encode_frame(&mut conn.outbuf, resp_op, &[total]);
                }
                // invariant: Scan slots are replaced by Ready on
                // completion and is_complete() is false until then.
                Slot::Scan { .. } => unreachable!("scan slot flushed before completion"),
            }
        }
        // One write per wakeup: the whole batch goes out together.
        while conn.out_pos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.write_stalled = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.write_stalled.is_none() {
                        conn.write_stalled = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.out_pos >= conn.outbuf.len() {
            conn.outbuf.clear();
            conn.out_pos = 0;
            // A closing (or EOF'd) connection ends only once every queued
            // slot has been serialized and written: a poisoned connection
            // sets `closing` before its ERR slot reaches the outbuf.
            if (conn.closing || conn.peer_eof) && conn.pending.is_empty() {
                return false;
            }
        }
        true
    }

    // -- timeouts and teardown -----------------------------------------

    fn sweep_timeouts(&mut self, to_close: &mut Vec<u64>) {
        let now = Instant::now();
        let read_timeout = self.shared.opts.read_timeout;
        let write_timeout = self.shared.opts.write_timeout;
        let mut reap: Vec<u64> = Vec::new();
        for (&id, conn) in &self.conns {
            if let Some(stalled) = conn.write_stalled {
                if let Some(wt) = write_timeout {
                    if now.duration_since(stalled) > wt {
                        to_close.push(id);
                        continue;
                    }
                }
            }
            if conn.closing || conn.has_backlog() {
                continue;
            }
            if let Some(rt) = read_timeout {
                if now.duration_since(conn.last_active) > rt {
                    reap.push(id);
                }
            }
        }
        for id in reap {
            obs::counter!("kv.timeouts").inc();
            self.queue_frame(id, frame::RESP_ERR, &[frame::ERR_IDLE], true);
            if !self.flush_conn(id) {
                to_close.push(id);
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

    /// `with_shards` serves what it was handed (worker `i` owns
    /// `shards[i]`, chosen `Params` included), `maintenance_stats` sums the
    /// shards' live counters, and a shard holding another shard's key is
    /// refused at start instead of silently shadowing it.
    #[test]
    fn with_shards_serves_prebuilt_shards_and_reports_their_maintenance() {
        let hi = 1u64 << 63; // first key of shard 1 of 2
        assert_eq!(shard_start(1, 2), hi);
        assert_eq!(shard_of(shard_start(2, 3), 3), 2);
        assert_eq!(shard_of(shard_start(2, 3) - 1, 3), 1);
        let build = |keys: &[Key]| {
            let mut idx = DyTis::with_params(dytis::Params::small());
            for &k in keys {
                idx.insert(k, k);
            }
            idx
        };
        let opts = ServerOptions::default;
        for misplaced in [
            vec![build(&[hi]), build(&[])],
            vec![build(&[]), build(&[hi - 1])],
        ] {
            let err = TpcServer::with_shards("127.0.0.1:0", opts(), misplaced).err();
            assert_eq!(err.map(|e| e.kind()), Some(ErrorKind::InvalidInput));
        }
        assert!(TpcServer::with_shards("127.0.0.1:0", opts(), Vec::new()).is_err());

        let server = TpcServer::with_shards("127.0.0.1:0", opts(), vec![build(&[5]), build(&[hi])])
            .expect("start");
        assert_eq!(server.workers(), 2);
        let mut c = crate::BinClient::connect(server.addr()).expect("connect");
        assert_eq!(c.scan(0, 10).expect("scan"), vec![(5, 5), (hi, hi)]);
        let before = server.maintenance_stats();
        // Small geometry: 2k keys per shard overflow buckets many times.
        let pairs: Vec<(Key, Value)> = (0..4_000u64).map(|i| (i << 52, i)).collect();
        c.set_batch(&pairs).expect("load");
        let grown = server.maintenance_stats().delta_since(&before);
        assert!(grown.total_ops() > 0 && grown.keys_moved > 0, "{grown:?}");
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
        // Keys on both sides of the 2-worker split.
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
            "cross-shard scan must be globally ordered"
        );
        assert_eq!(c.del(lo).expect("del"), Some(100));
        assert_eq!(c.len().expect("len"), 1);
        c.quit().expect("quit");
        let report = server.shutdown();
        assert!(report.drained, "tpc server failed to drain");
    }
}
