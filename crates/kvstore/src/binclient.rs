//! The client for the `DYF1` binary frame (`crate::frame`).
//!
//! [`BinClient`] speaks the frame protocol over one connection: ops are
//! batched into frames, so a thousand SETs are one write + one read
//! instead of a thousand round trips. Every worker of a
//! [`TpcServer`](crate::tpc::TpcServer) serves the whole key space, so a
//! client may connect to any of them; a multi-threaded caller spreads one
//! `BinClient` per thread over `TpcServer::worker_addrs`.

use crate::frame::{self, FrameHeader};
use std::io::{BufReader, BufWriter, Error, ErrorKind, Result, Write};
use std::net::{TcpStream, ToSocketAddrs};

fn protocol_err(msg: String) -> Error {
    Error::new(ErrorKind::InvalidData, msg)
}

/// Turns an `ERR` frame (or unexpected op) into an error for `resp_op`.
fn check_op(header: FrameHeader, words: &[u64], resp_op: u8) -> Result<()> {
    if header.op == resp_op {
        return Ok(());
    }
    if header.op == frame::RESP_ERR {
        let code = words.first().copied().unwrap_or(0);
        return Err(protocol_err(format!(
            "server error {code}: {}",
            frame::err_message(code)
        )));
    }
    Err(protocol_err(format!(
        "expected response op {resp_op:#04x}, got {:#04x}",
        header.op
    )))
}

/// A blocking client for the `DYF1` frame protocol.
///
/// ```
/// use kvstore::{BinClient, TpcServer};
///
/// let server = TpcServer::start("127.0.0.1:0").unwrap();
/// let mut client = BinClient::connect(server.addr()).unwrap();
/// assert_eq!(client.set_batch(&[(1, 10), (2, 20)]).unwrap(), 2);
/// assert_eq!(client.get_batch(&[2, 3]).unwrap(), vec![Some(20), None]);
/// client.quit().unwrap();
/// assert!(server.shutdown().drained);
/// ```
pub struct BinClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Most key/value pairs per SET frame (payload is 2 words per pair).
const SET_CHUNK: usize = (frame::MAX_FRAME_WORDS as usize) / 2;
/// Most keys per GET/DEL frame and rows per SCAN request: *responses*
/// carry 2 words per key, so a request above `MAX_KEYS_PER_FRAME` would
/// make the server's reply an illegal over-`MAX_FRAME_WORDS` frame.
const KEY_CHUNK: usize = frame::MAX_KEYS_PER_FRAME as usize;
/// Most unanswered GET/DEL frames in flight per connection. Each reply
/// can be ~256 KiB and the server stops *reading* a connection once
/// ~1 MiB of unsent responses queue up (its write-side high water), so a
/// client that writes an unbounded pipeline without draining replies
/// deadlocks against its own responses. Two frames (~512 KiB of replies)
/// keep the pipe full while staying safely under that limit.
const KEYED_WINDOW: usize = 2;
/// Most unanswered SET frames in flight per connection; acks are 18
/// bytes, so this bounds unread replies to ~18 KiB.
const SET_WINDOW: usize = 1024;

impl BinClient {
    /// Connects and queues the 4-byte session preamble, which goes out
    /// with the first request.
    ///
    /// # Errors
    ///
    /// Returns any connection or I/O error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<BinClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        writer.write_all(&frame::PREAMBLE)?;
        Ok(BinClient { reader, writer })
    }

    fn round_trip(&mut self, op: u8, words: &[u64]) -> Result<(FrameHeader, Vec<u64>)> {
        frame::write_frame(&mut self.writer, op, words)?;
        self.writer.flush()?;
        frame::read_frame(&mut self.reader)
    }

    /// Reads one SET ack and returns how many pairs it reports applied.
    fn read_set_ack(&mut self) -> Result<u64> {
        let (h, w) = frame::read_frame(&mut self.reader)?;
        check_op(h, &w, frame::RESP_SET)?;
        Ok(w.first().copied().unwrap_or(0))
    }

    /// Reads one GET/DEL response frame and appends its `(found, value)`
    /// pairs to `out`.
    fn read_keyed_reply(&mut self, resp_op: u8, out: &mut Vec<Option<u64>>) -> Result<()> {
        let (h, w) = frame::read_frame(&mut self.reader)?;
        check_op(h, &w, resp_op)?;
        if w.len() % 2 != 0 {
            return Err(protocol_err(format!(
                "odd response payload ({} words)",
                w.len()
            )));
        }
        for pair in w.chunks_exact(2) {
            out.push(if pair[0] != 0 { Some(pair[1]) } else { None });
        }
        Ok(())
    }

    /// Asks the server who it is: `(worker_id, workers)`.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn hello(&mut self) -> Result<(u64, u64)> {
        let (h, w) = self.round_trip(frame::OP_HELLO, &[])?;
        check_op(h, &w, frame::RESP_HELLO)?;
        if w.len() != 2 {
            return Err(protocol_err(format!("HELLO_RES carried {} words", w.len())));
        }
        Ok((w[0], w[1]))
    }

    /// Inserts or updates one pair.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set(&mut self, key: u64, value: u64) -> Result<()> {
        self.set_batch(&[(key, value)]).map(|_| ())
    }

    /// Inserts or updates many pairs; frames carry up to [`SET_CHUNK`]
    /// pairs each, pipelined with at most [`SET_WINDOW`] unanswered
    /// frames in flight. Returns how many pairs the server reports
    /// applied.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn set_batch(&mut self, pairs: &[(u64, u64)]) -> Result<u64> {
        let mut applied = 0u64;
        let mut inflight = 0usize;
        for chunk in pairs.chunks(SET_CHUNK) {
            if inflight == SET_WINDOW {
                self.writer.flush()?;
                applied += self.read_set_ack()?;
                inflight -= 1;
            }
            let mut words = Vec::with_capacity(chunk.len() * 2);
            for &(k, v) in chunk {
                words.push(k);
                words.push(v);
            }
            frame::write_frame(&mut self.writer, frame::OP_SET, &words)?;
            inflight += 1;
        }
        self.writer.flush()?;
        for _ in 0..inflight {
            applied += self.read_set_ack()?;
        }
        Ok(applied)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>> {
        Ok(self.get_batch(&[key])?.pop().flatten())
    }

    /// Multi-get: one result per key, in order, pipelined across frames.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn get_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>> {
        self.keyed_batch(keys, frame::OP_GET, frame::RESP_GET)
    }

    /// Deletes one key, returning its value if present.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del(&mut self, key: u64) -> Result<Option<u64>> {
        Ok(self.del_batch(&[key])?.pop().flatten())
    }

    /// Multi-delete: previous value per key, in order.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn del_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>> {
        self.keyed_batch(keys, frame::OP_DEL, frame::RESP_DEL)
    }

    /// Shared shape of GET/DEL: request frames of keys, response frames
    /// of `(found, value)` word pairs, at most [`KEYED_WINDOW`] frames in
    /// flight so the reply volume never deadlocks the connection.
    fn keyed_batch(&mut self, keys: &[u64], op: u8, resp_op: u8) -> Result<Vec<Option<u64>>> {
        let mut out = Vec::with_capacity(keys.len());
        let mut inflight = 0usize;
        for chunk in keys.chunks(KEY_CHUNK) {
            if inflight == KEYED_WINDOW {
                self.writer.flush()?;
                self.read_keyed_reply(resp_op, &mut out)?;
                inflight -= 1;
            }
            frame::write_frame(&mut self.writer, op, chunk)?;
            inflight += 1;
        }
        self.writer.flush()?;
        for _ in 0..inflight {
            self.read_keyed_reply(resp_op, &mut out)?;
        }
        if out.len() != keys.len() {
            return Err(protocol_err(format!(
                "{} results for {} keys",
                out.len(),
                keys.len()
            )));
        }
        Ok(out)
    }

    /// Ordered scan from `start`, up to `count` pairs.
    ///
    /// The wire caps one SCAN at [`frame::MAX_KEYS_PER_FRAME`] rows (its
    /// response carries 2 words per row), so larger counts are served as
    /// a chain of requests, each resuming after the last returned key.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn scan(&mut self, start: u64, count: usize) -> Result<Vec<(u64, u64)>> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut next = start;
        while out.len() < count {
            let ask = (count - out.len()).min(KEY_CHUNK);
            let (h, w) = self.round_trip(frame::OP_SCAN, &[next, ask as u64])?;
            check_op(h, &w, frame::RESP_SCAN)?;
            if w.len() % 2 != 0 {
                return Err(protocol_err(format!(
                    "odd scan payload ({} words)",
                    w.len()
                )));
            }
            let got = w.len() / 2;
            out.extend(w.chunks_exact(2).map(|c| (c[0], c[1])));
            if got < ask {
                break; // key space exhausted
            }
            // invariant: got == ask >= 1, so out is non-empty here.
            match out.last().unwrap().0.checked_add(1) {
                Some(n) => next = n,
                None => break, // last row held u64::MAX
            }
        }
        Ok(out)
    }

    /// Number of stored keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn len(&mut self) -> Result<u64> {
        let (h, w) = self.round_trip(frame::OP_LEN, &[])?;
        check_op(h, &w, frame::RESP_LEN)?;
        w.first()
            .copied()
            .ok_or_else(|| protocol_err("empty LEN_RES".into()))
    }

    /// Returns `true` when the store holds no keys.
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Closes the session politely (BYE, then the server closes).
    ///
    /// # Errors
    ///
    /// Returns I/O or protocol errors.
    pub fn quit(mut self) -> Result<()> {
        let (h, w) = self.round_trip(frame::OP_QUIT, &[])?;
        check_op(h, &w, frame::RESP_BYE)
    }
}
