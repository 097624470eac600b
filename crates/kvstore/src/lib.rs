//! A Memcached-style in-memory KV service on single-threaded DyTIS shards
//! (§3.4).
//!
//! The paper positions DyTIS as the index for "in-memory data management
//! systems, such as in-memory databases and key-value stores", and names
//! the shared-nothing deployment: "multiple single-threaded engines … as
//! in H-Store and Redis Cluster" over the lock-free single-threaded index.
//! This crate is that system in miniature: [`TpcServer`], a thread-per-core
//! TCP server whose every worker owns one [`dytis::DyTis`] shard (keys
//! partitioned by [`shard_of`]), speaking a line protocol ([`protocol`],
//! blocking [`Client`]) and the `DYF1` binary frame ([`frame`],
//! [`BinClient`] / [`RoutedClient`]); plus the embedded
//! [`DurableShardedStore`], the same sharding under a write-ahead log.
//!
//! # Robustness (DESIGN.md §16)
//!
//! The server enforces a resource envelope rather than trusting clients:
//!
//! - **Admission control** — at most [`ServerOptions::max_connections`]
//!   connections are admitted at once, across all workers. A connection
//!   past the budget is answered `ERR busy` at accept time and closed.
//! - **Bounded lines** — a request line longer than
//!   [`ServerOptions::max_line_bytes`] gets `ERR line too long` and the
//!   connection resynchronises at the next newline. A newline-free byte
//!   stream of any length holds server memory at O(buffer), not O(stream).
//! - **Timeouts** — per-connection read/write timeouts reap idle or stuck
//!   peers (`ERR idle timeout`, then close).
//! - **Graceful drain** — [`TpcServer::shutdown`] stops accepting, closes
//!   every live socket, and joins the workers under
//!   [`ServerOptions::drain_deadline`], reporting the result as a
//!   [`DrainReport`].
//!
//! # Examples
//!
//! ```
//! use kvstore::{Client, TpcServer};
//!
//! let server = TpcServer::start("127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.set(1, 100).unwrap();
//! assert_eq!(client.get(1).unwrap(), Some(100));
//! assert_eq!(client.scan(0, 10).unwrap(), vec![(1, 100)]);
//! let report = server.shutdown();
//! assert!(report.drained);
//! ```

pub mod binclient;
pub mod frame;
pub mod protocol;
#[cfg(unix)]
pub mod reactor;
pub mod shard;
#[cfg(unix)]
pub mod tpc;

pub use binclient::{BinClient, RoutedClient};
pub use protocol::{
    format_request, format_response, parse_request, parse_response, Request, Response,
};
pub use shard::{shard_of, DurabilityOptions, DurableShardedStore};
#[cfg(unix)]
pub use tpc::{TpcOptions, TpcServer};

use index_traits::{Key, Value};
use std::io::{BufRead, BufReader, ErrorKind, Result, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Resource envelope for a [`TpcServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Most concurrently admitted connections, across all workers; the
    /// next one is answered `ERR busy` at accept time and closed.
    pub max_connections: usize,
    /// How long a connection may stay silent with nothing in flight before
    /// it is reaped with `ERR idle timeout`. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a response write may make no progress before the
    /// connection is dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line in bytes (newline excluded); longer
    /// lines get `ERR line too long` and a resync to the next newline.
    pub max_line_bytes: usize,
    /// How long [`TpcServer::shutdown`] waits for the workers to exit.
    pub drain_deadline: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: protocol::MAX_LINE_BYTES,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Outcome of a graceful [`TpcServer::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// All workers exited within the drain deadline.
    pub drained: bool,
    /// Workers still running when the deadline expired; `shutdown` stopped
    /// waiting for them.
    pub abandoned: usize,
}

/// Backoff schedule for [`Client::connect_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connect attempts (at least one is always made).
    pub attempts: u32,
    /// Sleep before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Ceiling on the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(320),
        }
    }
}

/// A connect error worth retrying: the server may be starting up, shedding
/// load, or mid-restart. Anything else (e.g. unreachable network,
/// permission denied) fails fast.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::Interrupted
    )
}

/// Per-op failures of a pipelined batch call.
///
/// Batch methods send a chunk of requests, then consume **exactly one
/// reply per request** — even when a reply is an `ERR` — so the stream
/// never desynchronises. Failures are collected here instead of aborting
/// the read loop mid-pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// `(index into the submitted slice, server error message)` for every
    /// op whose reply was not the expected success shape.
    pub failures: Vec<(usize, String)>,
}

impl BatchReport {
    /// Every op in the batch succeeded.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Collapses the report into an `InvalidData` error naming the failed
    /// ops (used by the `Result<()>`-shaped batch methods).
    fn into_error(self) -> std::io::Error {
        let shown: Vec<String> = self
            .failures
            .iter()
            .take(4)
            .map(|(i, e)| format!("op {i}: {e}"))
            .collect();
        let suffix = if self.failures.len() > shown.len() {
            format!(" (+{} more)", self.failures.len() - shown.len())
        } else {
            String::new()
        };
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "{} batch op(s) failed: {}{}",
                self.failures.len(),
                shown.join("; "),
                suffix
            ),
        )
    }
}

/// A blocking client for the KV service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns any connection error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects with exponential backoff across transient failures
    /// (connection refused/reset/aborted, timeouts) — the shapes a client
    /// sees while the server restarts or sheds load.
    ///
    /// # Errors
    ///
    /// Returns the last transient error once `policy.attempts` is
    /// exhausted, or the first non-transient error immediately.
    pub fn connect_with_retry<A: ToSocketAddrs>(addr: A, policy: &RetryPolicy) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let mut backoff = policy.initial_backoff;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if is_transient(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempt ran")))
    }

    /// Sets read/write timeouts on the underlying socket so a hung server
    /// cannot block the client forever.
    ///
    /// # Errors
    ///
    /// Returns any socket option error.
    pub fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.writer.set_write_timeout(write)
    }

    fn send_line(&mut self, req: &str) -> Result<()> {
        writeln!(self.writer, "{req}")
    }

    fn read_response(&mut self) -> Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_response(line.trim_end()).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
    }

    fn round_trip(&mut self, req: &str) -> Result<Response> {
        self.send_line(req)?;
        self.read_response()
    }

    /// Inserts or updates a pair.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set(&mut self, key: Key, value: Value) -> Result<()> {
        match self.round_trip(&format_request(&Request::Set(key, value)))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Inserts or updates many pairs with pipelining: requests are written
    /// in bulk and the acknowledgements read afterwards, so `n` pairs cost
    /// O(n / chunk) round trips instead of `n`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` naming the failed ops if any
    /// reply was not `OK`. Either way every pipelined reply has been
    /// consumed, so the connection stays usable and in lockstep — use
    /// [`Client::set_batch_report`] to keep going after partial failures.
    pub fn set_batch(&mut self, pairs: &[(Key, Value)]) -> Result<()> {
        let report = self.set_batch_report(pairs)?;
        if report.all_ok() {
            Ok(())
        } else {
            Err(report.into_error())
        }
    }

    /// [`Client::set_batch`] that reports per-op failures instead of
    /// failing the whole call: the returned [`BatchReport`] lists the index
    /// and server message of every op not answered `OK`.
    ///
    /// Exactly one reply is consumed per op sent — a mid-pipeline `ERR`
    /// (oversized line, malformed request) therefore cannot shift later
    /// replies onto the wrong ops, this call or the next.
    ///
    /// # Errors
    ///
    /// Returns I/O errors only (broken stream); protocol-level failures go
    /// in the report.
    pub fn set_batch_report(&mut self, pairs: &[(Key, Value)]) -> Result<BatchReport> {
        let mut report = BatchReport::default();
        // Chunk so unread responses can never outgrow the kernel socket
        // buffer and deadlock the write side ("OK\n" is 3 bytes, so 1024
        // in flight is ~3 KiB of responses).
        for (chunk_idx, chunk) in pairs.chunks(1024).enumerate() {
            let mut lines = String::with_capacity(chunk.len() * 24);
            for &(k, v) in chunk {
                lines.push_str(&format_request(&Request::Set(k, v)));
                lines.push('\n');
            }
            self.writer.write_all(lines.as_bytes())?;
            let base = chunk_idx * 1024;
            for i in 0..chunk.len() {
                match self.read_response()? {
                    Response::Ok => {}
                    Response::Err(e) => report.failures.push((base + i, e)),
                    other => report
                        .failures
                        .push((base + i, format!("unexpected reply {other:?}"))),
                }
            }
        }
        Ok(report)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get(&mut self, key: Key) -> Result<Option<Value>> {
        match self.round_trip(&format_request(&Request::Get(key)))? {
            Response::Value(v) => Ok(Some(v)),
            Response::Miss => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Pipelined multi-get: one result per key, in order.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` naming the failed ops if any
    /// reply was not `VALUE`/`MISS`. All pipelined replies are consumed
    /// either way; use [`Client::get_batch_report`] for partial results.
    pub fn get_batch(&mut self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        let (out, report) = self.get_batch_report(keys)?;
        if report.all_ok() {
            Ok(out)
        } else {
            Err(report.into_error())
        }
    }

    /// [`Client::get_batch`] that reports per-op failures instead of
    /// failing the whole call: failed keys come back `None` in the result
    /// vector and are listed (index + server message) in the report.
    ///
    /// Exactly one reply is consumed per key sent, so a mid-pipeline `ERR`
    /// cannot misalign later replies (see [`Client::set_batch_report`]).
    ///
    /// # Errors
    ///
    /// Returns I/O errors only (broken stream).
    pub fn get_batch_report(&mut self, keys: &[Key]) -> Result<(Vec<Option<Value>>, BatchReport)> {
        let mut out = Vec::with_capacity(keys.len());
        let mut report = BatchReport::default();
        // Chunked for the same socket-buffer reason as [`Self::set_batch`];
        // VALUE lines are ~27 bytes, so 1024 in flight is ~27 KiB.
        for (chunk_idx, chunk) in keys.chunks(1024).enumerate() {
            let mut lines = String::with_capacity(chunk.len() * 24);
            for &k in chunk {
                lines.push_str(&format_request(&Request::Get(k)));
                lines.push('\n');
            }
            self.writer.write_all(lines.as_bytes())?;
            let base = chunk_idx * 1024;
            for i in 0..chunk.len() {
                match self.read_response()? {
                    Response::Value(v) => out.push(Some(v)),
                    Response::Miss => out.push(None),
                    Response::Err(e) => {
                        out.push(None);
                        report.failures.push((base + i, e));
                    }
                    other => {
                        out.push(None);
                        report
                            .failures
                            .push((base + i, format!("unexpected reply {other:?}")));
                    }
                }
            }
        }
        Ok((out, report))
    }

    /// Deletes a key, returning its value if present.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del(&mut self, key: Key) -> Result<Option<Value>> {
        match self.round_trip(&format_request(&Request::Del(key)))? {
            Response::Deleted(v) => Ok(Some(v)),
            Response::Miss => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Ordered scan from `start`, up to `count` pairs.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn scan(&mut self, start: Key, count: usize) -> Result<Vec<(Key, Value)>> {
        match self.round_trip(&format_request(&Request::Scan(start, count)))? {
            Response::Range(pairs) => Ok(pairs),
            other => Err(unexpected(other)),
        }
    }

    /// Number of stored keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn len(&mut self) -> Result<usize> {
        match self.round_trip(&format_request(&Request::Len))? {
            Response::Len(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Returns `true` when the store holds no keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Closes the session politely.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn quit(mut self) -> Result<()> {
        match self.round_trip(&format_request(&Request::Quit))? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected response: {resp:?}"),
    )
}
