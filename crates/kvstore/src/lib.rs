//! A Memcached-style in-memory KV service on DyTIS (§3.4).
//!
//! The paper positions DyTIS as the index for "in-memory data management
//! systems, such as in-memory databases and key-value stores", and names
//! two ways to serve it: the latched concurrent index, or "multiple
//! single-threaded engines … as in H-Store and Redis Cluster". This crate
//! is that system in miniature, using each where it measured best:
//! [`TpcServer`], a thread-per-core TCP server whose workers all apply
//! their own requests to one shared [`dytis::ConcurrentDyTis`], speaking
//! one wire protocol — the `DYF1` binary frame ([`frame`], blocking
//! [`BinClient`]); plus the embedded [`DurableShardedStore`],
//! single-threaded [`dytis::DyTis`] shards partitioned by [`shard_of`]
//! under a write-ahead log.
//!
//! # Robustness (DESIGN.md §16)
//!
//! The server enforces a resource envelope rather than trusting clients:
//!
//! - **Admission control** — at most [`ServerOptions::max_connections`]
//!   connections are admitted at once, across all workers. A connection
//!   past the budget is answered [`frame::ERR_BUSY`] at accept time and
//!   closed.
//! - **Bounded frames** — a header announcing more than
//!   [`frame::MAX_FRAME_WORDS`] payload words gets [`frame::ERR_TOO_LARGE`]
//!   and the connection closes before any of the payload is buffered. A
//!   frameless byte stream of any length holds server memory at O(frame
//!   cap), not O(stream).
//! - **Timeouts** — per-connection read/write timeouts reap idle or stuck
//!   peers ([`frame::ERR_IDLE`], then close).
//! - **Graceful drain** — [`TpcServer::shutdown`] stops accepting, closes
//!   every live socket, and joins the workers under
//!   [`ServerOptions::drain_deadline`], reporting the result as a
//!   [`DrainReport`].
//! - **Bounded replies** — a connection whose unsent replies reach a
//!   high-water mark is neither read nor answered further until it drains,
//!   so one pipelined burst of large requests cannot queue unbounded
//!   replies.
//!
//! # Examples
//!
//! ```
//! use kvstore::{BinClient, TpcServer};
//!
//! let server = TpcServer::start("127.0.0.1:0").unwrap();
//! let mut client = BinClient::connect(server.addr()).unwrap();
//! client.set(1, 100).unwrap();
//! assert_eq!(client.get(1).unwrap(), Some(100));
//! assert_eq!(client.scan(0, 10).unwrap(), vec![(1, 100)]);
//! let report = server.shutdown();
//! assert!(report.drained);
//! ```

pub mod binclient;
pub mod frame;
#[cfg(unix)]
pub mod reactor;
pub mod shard;
#[cfg(unix)]
pub mod tpc;

pub use binclient::BinClient;
pub use shard::{shard_of, DurabilityOptions, DurableShardedStore};
#[cfg(unix)]
pub use tpc::{TpcOptions, TpcServer};

use std::time::Duration;

/// Resource envelope for a [`TpcServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Most concurrently admitted connections, across all workers; the
    /// next one is answered [`frame::ERR_BUSY`] at accept time and closed.
    pub max_connections: usize,
    /// How long a connection may stay silent with nothing in flight before
    /// it is reaped with [`frame::ERR_IDLE`]. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a response write may make no progress before the
    /// connection is dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// How long [`TpcServer::shutdown`] waits for the workers to exit.
    pub drain_deadline: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
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
