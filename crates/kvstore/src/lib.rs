//! A Memcached-style in-memory KV service on DyTIS (§3.4).
//!
//! The paper positions DyTIS as the index for "in-memory data management
//! systems, such as in-memory databases and key-value stores", and names
//! two ways to serve it: the latched concurrent index, or "multiple
//! single-threaded engines … as in H-Store and Redis Cluster". This crate
//! is that system in miniature, in the first shape: [`TpcServer`], a
//! thread-per-core TCP server whose workers all apply their own requests
//! to one shared [`dytis::ConcurrentDyTis`], speaking one wire protocol —
//! the `DYF1` binary frame ([`frame`], blocking [`BinClient`]); plus the
//! embedded [`DurableStore`], one latched [`dytis::ConcurrentDyTis`] under
//! a write-ahead log and checkpoints.
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
pub mod durable;
pub mod frame;
#[cfg(unix)]
pub mod reactor;
#[cfg(unix)]
pub mod tpc;

pub use binclient::BinClient;
pub use durable::{DurabilityOptions, DurableStore};
#[cfg(unix)]
pub use tpc::{TpcOptions, TpcServer};

use index_traits::Key;
use std::time::Duration;

/// The shard that owns `key` among `shards` shards: contiguous, monotone
/// key ranges (`shard_of(a) <= shard_of(b)` for `a <= b`). Its one
/// caller is `benchmark/src/net.rs`, which classifies a key as forwarded
/// when its shard is not the answering worker's; ROADMAP item 1(f) drops
/// that share, and this function with it.
#[inline]
pub fn shard_of(key: Key, shards: usize) -> usize {
    ((u128::from(key) * shards as u128) >> 64) as usize
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_monotone_and_total() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            assert_eq!(shard_of(0, shards), 0);
            assert_eq!(shard_of(u64::MAX, shards), shards - 1);
            let mut prev = 0;
            for i in 0..1000u64 {
                let s = shard_of(i * (u64::MAX / 1000), shards);
                assert!(s >= prev, "shard_of must be monotone");
                assert!(s < shards);
                prev = s;
            }
        }
    }
}
