//! The serving-stack workloads: `net_batch` (64-key frames, per-key cost)
//! and `net_rtt` (single-key frames, per-message cost), one frame in flight
//! on one connection to worker 0 of an in-process two-worker `TpcServer`.
//!
//! End-to-end runs go through `BinClient`. Traced runs drive a raw socket
//! with `encode_frame` / `try_decode`, so each request is a span tree
//! `request -> {frame.encode, net.write, net.wait, frame.decode}`.

use crate::gen::{reply, rng_for, timed, value_of, GenTimes, StreamHash, MISS};
use crate::harness::{push_latencies, Finish, PassOut, Res, Rounds, Scope, Workload};
use crate::idx::{self, Op, OpKind};
use crate::json::Json;
use crate::stats::{median, percentile};
use crate::trace::{totals, LatProbe, Name, NoProbe, Probe, Tracer, NO_PARENT};
use dytis::DyTis;
use index_traits::KvIndex;
use kvstore::frame::{self, Decoded};
use kvstore::{shard_of, BinClient, TpcOptions, TpcServer};
use rand::Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct NetCfg {
    /// Keys per GET/SET frame and rows per SCAN.
    pub keys_per_frame: usize,
    /// Request mix in percent; the rest are SCANs.
    pub get_pct: u32,
    pub set_pct: u32,
    /// Share of GET keys that are guaranteed misses.
    pub miss_share: f64,
    /// Uniform-u64 keys stored before the run (uniform so `shard_of`
    /// splits them evenly over the workers).
    pub preload: usize,
    /// Frames per pass.
    pub requests: usize,
    pub trace_div: usize,
}

/// Fixed, not `available_parallelism`, so the routing shares repeat.
pub const WORKERS: usize = 2;

pub fn full_batch() -> NetCfg {
    NetCfg {
        keys_per_frame: 64,
        get_pct: 50,
        set_pct: 45,
        miss_share: 0.0,
        preload: 1_000_000,
        requests: 3_000,
        trace_div: 8,
    }
}

pub fn full_rtt() -> NetCfg {
    NetCfg {
        keys_per_frame: 1,
        get_pct: 65,
        set_pct: 35,
        miss_share: 0.05,
        preload: 1_000_000,
        requests: 5_000,
        trace_div: 8,
    }
}

#[derive(Debug, Clone)]
enum Req {
    Get { keys: Vec<u64>, expect: Vec<u64> },
    Set { pairs: Vec<(u64, u64)> },
    Scan { start: u64 },
}

impl Req {
    fn key_ops(&self, keys_per_frame: usize) -> u64 {
        match self {
            Req::Get { keys, .. } => keys.len() as u64,
            Req::Set { pairs } => pairs.len() as u64,
            Req::Scan { .. } => keys_per_frame as u64,
        }
    }

    /// Payload words of the request and of its reply.
    fn wire_words(&self, keys_per_frame: usize) -> (usize, usize) {
        match self {
            Req::Get { keys, .. } => (keys.len(), 2 * keys.len()),
            Req::Set { pairs } => (2 * pairs.len(), 1),
            Req::Scan { .. } => (2, 2 * keys_per_frame),
        }
    }

    fn keys(&self) -> Vec<u64> {
        match self {
            Req::Get { keys, .. } => keys.clone(),
            Req::Set { pairs } => pairs.iter().map(|p| p.0).collect(),
            Req::Scan { start } => vec![*start],
        }
    }
}

fn frame_len(words: usize) -> usize {
    frame::HEADER_LEN + 8 * words + frame::TRAILER_LEN
}

/// A SCAN reply is right when it has exactly `want` rows, starts at the
/// (loaded) start key, ascends strictly, and every value matches its key.
fn scan_ok(start: u64, want: usize, rows: impl ExactSizeIterator<Item = (u64, u64)>) -> bool {
    let mut n = 0usize;
    let mut prev: Option<u64> = None;
    for (k, v) in rows {
        let ordered = match prev {
            None => k == start,
            Some(p) => k > p,
        };
        if !ordered || v != value_of(k) {
            return false;
        }
        prev = Some(k);
        n += 1;
    }
    n == want
}

/// The span-capable client: one blocking socket, frames built and parsed
/// with the codec's own functions.
struct Raw {
    stream: TcpStream,
    words: Vec<u64>,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Request + reply bytes of the current pass.
    bytes: u64,
    /// When set, every `(request, reply)` frame pair is kept for the
    /// offline codec replay.
    capture: Option<Vec<(Vec<u8>, Vec<u8>)>>,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Res<Raw> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .write_all(&frame::PREAMBLE)
            .map_err(|e| format!("preamble: {e}"))?;
        Ok(Raw {
            stream,
            words: Vec::new(),
            out: Vec::new(),
            inbuf: Vec::new(),
            bytes: 0,
            capture: None,
        })
    }

    /// One request, one reply. `self.words` holds the request payload on
    /// entry (its flattening is timed by the caller's `frame.encode` span)
    /// and the reply payload on return.
    fn exchange<P: Probe>(&mut self, probe: &mut P, op: u8, encode: P::Tok) -> Res<u8> {
        self.out.clear();
        frame::encode_frame(&mut self.out, op, &self.words);
        probe.close(encode);
        let t = probe.child(Name::Write);
        let sent = self.stream.write_all(&self.out);
        probe.close(t);
        sent.map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let t = probe.child(Name::Wait);
            let got = self.stream.read(&mut chunk);
            probe.close(t);
            match got {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("read: {e}")),
            }
            let t = probe.child(Name::Decode);
            let decoded = frame::try_decode(&self.inbuf);
            probe.close(t);
            match decoded {
                Decoded::Incomplete => {}
                Decoded::Frame {
                    header,
                    words,
                    consumed,
                } => {
                    self.bytes += (self.out.len() + consumed) as u64;
                    if let Some(kept) = &mut self.capture {
                        kept.push((self.out.clone(), self.inbuf[..consumed].to_vec()));
                    }
                    self.inbuf.drain(..consumed);
                    self.words = words;
                    return Ok(header.op);
                }
                other => return Err(format!("undecodable reply: {other:?}")),
            }
        }
    }
}

/// Counts of the last pass that the spans do not carry.
#[derive(Debug, Clone, Copy, Default)]
struct NetOut {
    rows: u64,
    errors: u64,
    wire_bytes: u64,
}

pub struct Net {
    cfg: NetCfg,
    server: Option<TpcServer>,
    client: BinClient,
    raw: Option<Raw>,
    /// `(worker, workers)` the connection reports about itself.
    hello: (u64, u64),
    loaded: Vec<u64>,
    reqs: Vec<Req>,
    /// Whether request `i` touches a key another worker owns.
    forwarded: Vec<bool>,
    /// Keys the stream's SETs add, in order of first appearance, and how
    /// many of them the requests before `i` add.
    new_keys: Vec<u64>,
    new_before: Vec<usize>,
    gen: GenTimes,
    hash: u64,
    start_s: f64,
    last: NetOut,
    /// DEL resets and other checked ops outside the measured loops.
    side_attempted: u64,
    side_failed: u64,
}

fn generate(
    cfg: &NetCfg,
    seed: u64,
    g: &mut GenTimes,
) -> (Vec<u64>, Vec<Req>, Vec<u64>, Vec<usize>) {
    let loaded: Vec<u64> = timed(&mut g.keys_s, || {
        let mut rng = rng_for(seed, "net.keys");
        let mut seen = HashSet::with_capacity(cfg.preload);
        let mut keys = Vec::with_capacity(cfg.preload);
        while keys.len() < cfg.preload {
            let k: u64 = rng.gen();
            if seen.insert(k) {
                keys.push(k);
            }
        }
        keys
    });
    let order = timed(&mut g.oracle_s, || {
        let mut s = loaded.clone();
        s.sort_unstable();
        s
    });
    let k = cfg.keys_per_frame;
    let mut new_keys = Vec::new();
    let mut new_before = Vec::with_capacity(cfg.requests + 1);
    let reqs = timed(&mut g.ops_s, || {
        let mut rng = rng_for(seed, "net.ops");
        let mut fresh = HashSet::new();
        (0..cfg.requests)
            .map(|_| {
                new_before.push(new_keys.len());
                let kind = rng.gen_range(0..100u32);
                if kind < cfg.get_pct {
                    let (keys, expect) = (0..k)
                        .map(|_| {
                            let key = loaded[rng.gen_range(0..loaded.len())];
                            if rng.gen_bool(cfg.miss_share) {
                                // Never a loaded key, and never one a SET
                                // of this stream adds (those are even).
                                let mut miss = key | 1;
                                while order.binary_search(&miss).is_ok() {
                                    miss = miss.wrapping_add(2);
                                }
                                (miss, MISS)
                            } else {
                                (key, value_of(key))
                            }
                        })
                        .unzip();
                    Req::Get { keys, expect }
                } else if kind < cfg.get_pct + cfg.set_pct {
                    let pairs = (0..k)
                        .map(|_| {
                            let key = if rng.gen_bool(0.5) {
                                loop {
                                    let fresh_key = rng.gen::<u64>() & !1;
                                    if order.binary_search(&fresh_key).is_err()
                                        && fresh.insert(fresh_key)
                                    {
                                        new_keys.push(fresh_key);
                                        break fresh_key;
                                    }
                                }
                            } else {
                                loaded[rng.gen_range(0..loaded.len())]
                            };
                            (key, value_of(key))
                        })
                        .collect();
                    Req::Set { pairs }
                } else {
                    // Far enough from the top that `k` rows always exist.
                    let pos = rng.gen_range(0..order.len().saturating_sub(k).max(1));
                    Req::Scan { start: order[pos] }
                }
            })
            .collect()
    });
    new_before.push(new_keys.len());
    (loaded, reqs, new_keys, new_before)
}

impl Net {
    fn in_scope(&self, scope: Scope) -> usize {
        match scope {
            Scope::Full => self.reqs.len(),
            Scope::Prefix => self.reqs.len() / self.cfg.trace_div,
        }
    }

    fn via_client<P: Probe>(&mut self, probe: &mut P, n: usize) -> Res<(u64, NetOut)> {
        let k = self.cfg.keys_per_frame;
        let (mut failed, mut out) = (0u64, NetOut::default());
        let io = |e: std::io::Error| format!("request failed: {e}");
        for (i, req) in self.reqs[..n].iter().enumerate() {
            let ops = req.key_ops(k);
            let ok = match req {
                Req::Get { keys, expect } => {
                    let t = probe.root(Name::ReqGet, i as u32);
                    let got = self.client.get_batch(keys);
                    probe.close(t);
                    let got = got.map_err(io)?;
                    failed += got
                        .iter()
                        .zip(expect)
                        .filter(|(g, e)| reply(**g) != **e)
                        .count() as u64;
                    got.len() == expect.len()
                }
                Req::Set { pairs } => {
                    let t = probe.root(Name::ReqSet, i as u32);
                    let applied = self.client.set_batch(pairs);
                    probe.close(t);
                    applied.map_err(io)? == pairs.len() as u64
                }
                Req::Scan { start } => {
                    let t = probe.root(Name::ReqScan, i as u32);
                    let rows = self.client.scan(*start, k);
                    probe.close(t);
                    let rows = rows.map_err(io)?;
                    out.rows += rows.len() as u64;
                    scan_ok(*start, k, rows.into_iter())
                }
            };
            if !ok {
                failed += ops;
            }
        }
        Ok((failed, out))
    }

    fn via_raw<P: Probe>(&mut self, probe: &mut P, n: usize) -> Res<(u64, NetOut)> {
        let k = self.cfg.keys_per_frame;
        let raw = self
            .raw
            .as_mut()
            .ok_or_else(|| "the raw connection is opened by a traced set-up".to_string())?;
        raw.bytes = 0;
        let (mut failed, mut out) = (0u64, NetOut::default());
        for (i, req) in self.reqs[..n].iter().enumerate() {
            let ops = req.key_ops(k);
            let (name, op, want) = match req {
                Req::Get { .. } => (Name::ReqGet, frame::OP_GET, frame::RESP_GET),
                Req::Set { .. } => (Name::ReqSet, frame::OP_SET, frame::RESP_SET),
                Req::Scan { .. } => (Name::ReqScan, frame::OP_SCAN, frame::RESP_SCAN),
            };
            let root = probe.root(name, i as u32);
            let encode = probe.child(Name::Encode);
            raw.words.clear();
            match req {
                Req::Get { keys, .. } => raw.words.extend_from_slice(keys),
                Req::Set { pairs } => raw.words.extend(pairs.iter().flat_map(|&(k, v)| [k, v])),
                Req::Scan { start } => raw.words.extend([*start, k as u64]),
            }
            let got = raw.exchange(probe, op, encode);
            probe.close(root);
            let got = got?;
            let words = &raw.words;
            let ok = got == want
                && match req {
                    Req::Get { expect, .. } => {
                        let pairs = words
                            .chunks_exact(2)
                            .map(|p| if p[0] != 0 { p[1] } else { MISS });
                        failed += pairs.zip(expect).filter(|(g, e)| g != *e).count() as u64;
                        words.len() == 2 * expect.len()
                    }
                    Req::Set { pairs } => words.first() == Some(&(pairs.len() as u64)),
                    Req::Scan { start } => {
                        out.rows += (words.len() / 2) as u64;
                        words.len() % 2 == 0
                            && scan_ok(*start, k, words.chunks_exact(2).map(|p| (p[0], p[1])))
                    }
                };
            out.errors += u64::from(got == frame::RESP_ERR);
            if !ok {
                failed += ops;
            }
        }
        out.wire_bytes = raw.bytes;
        Ok((failed, out))
    }

    /// Deletes the keys the last pass added, so the next pass starts from
    /// the loaded state; each DEL must return the value the SET stored.
    fn reset(&mut self, n: usize) -> Res<()> {
        let added = &self.new_keys[..self.new_before[n]];
        let prev = self
            .client
            .del_batch(added)
            .map_err(|e| format!("reset: {e}"))?;
        self.side_attempted += added.len() as u64;
        self.side_failed += prev
            .iter()
            .zip(added)
            .filter(|(p, &k)| **p != Some(value_of(k)))
            .count() as u64;
        Ok(())
    }

    /// The pass's key-ops as index ops, for the local replay.
    fn as_index_ops(&self, n: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for req in &self.reqs[..n] {
            match req {
                Req::Get { keys, expect } => {
                    ops.extend(
                        keys.iter()
                            .zip(expect)
                            .map(|(&k, &e)| Op::point(OpKind::Get, k, e)),
                    );
                }
                Req::Set { pairs } => {
                    ops.extend(pairs.iter().map(|&(k, _)| Op::point(OpKind::Insert, k, 0)))
                }
                Req::Scan { start } => ops.push(Op::scan_any(*start)),
            }
        }
        ops
    }
}

/// Time of the codec work both sides do for the captured frames: every
/// frame is encoded once and decoded once. Returns
/// `(encode ns/frame, decode ns/frame, crc32 ns/byte)`.
fn codec_replay(frames: &[Vec<u8>]) -> (f64, f64, f64) {
    let parsed: Vec<(u8, Vec<u64>)> = frames
        .iter()
        .filter_map(|f| match frame::try_decode(f) {
            Decoded::Frame { header, words, .. } => Some((header.op, words)),
            _ => None,
        })
        .collect();
    let n = frames.len().max(1) as f64;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let (mut enc, mut dec, mut crc) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for (op, words) in &parsed {
            out.clear();
            frame::encode_frame(&mut out, *op, black_box(words));
            black_box(&out);
        }
        enc.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for f in frames {
            black_box(frame::try_decode(black_box(f)));
        }
        dec.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for f in frames {
            black_box(frame::crc32(black_box(f)));
        }
        crc.push(t.elapsed().as_nanos() as f64 / bytes.max(1) as f64);
    }
    (median(&enc), median(&dec), median(&crc))
}

impl Workload for Net {
    type Cfg = NetCfg;

    fn setup(cfg: &NetCfg, seed: u64, traced: bool, _out_dir: &Path) -> Res<Net> {
        let mut gen = GenTimes::default();
        let (loaded, reqs, new_keys, new_before) = generate(cfg, seed, &mut gen);
        let mut h = StreamHash::default();
        for req in &reqs {
            match req {
                Req::Get { keys, expect } => keys.iter().chain(expect).for_each(|&w| h.word(w)),
                Req::Set { pairs } => pairs.iter().for_each(|&(k, _)| h.word(!k)),
                Req::Scan { start } => h.word(start.rotate_left(1)),
            }
        }

        let t = Instant::now();
        let opts = TpcOptions {
            workers: WORKERS,
            ..TpcOptions::default()
        };
        let server = TpcServer::with_options("127.0.0.1:0", opts)
            .map_err(|e| format!("server start: {e}"))?;
        let mut client = BinClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let hello = client.hello().map_err(|e| format!("hello: {e}"))?;
        let start_s = t.elapsed().as_secs_f64();
        let raw = if traced {
            Some(Raw::connect(server.addr())?)
        } else {
            None
        };

        let pairs: Vec<(u64, u64)> = loaded.iter().map(|&k| (k, value_of(k))).collect();
        let applied = client
            .set_batch(&pairs)
            .map_err(|e| format!("preload: {e}"))?;
        if applied != pairs.len() as u64 {
            return Err(format!(
                "preload applied {applied} of {} pairs",
                pairs.len()
            ));
        }

        let forwarded = reqs
            .iter()
            .map(|r| {
                r.keys()
                    .iter()
                    .any(|&k| shard_of(k, hello.1 as usize) as u64 != hello.0)
            })
            .collect();
        Ok(Net {
            cfg: cfg.clone(),
            server: Some(server),
            client,
            raw,
            hello,
            loaded,
            reqs,
            forwarded,
            new_keys,
            new_before,
            gen,
            hash: h.finish(),
            start_s,
            last: NetOut::default(),
            side_attempted: 0,
            side_failed: 0,
        })
    }

    fn gen_times(&self) -> GenTimes {
        self.gen
    }

    fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("preload_keys", Json::Num(self.loaded.len() as f64)),
            ("frames_per_pass", Json::Num(self.reqs.len() as f64)),
            ("keys_per_frame", Json::Num(self.cfg.keys_per_frame as f64)),
            (
                "traced_frames_per_pass",
                Json::Num((self.reqs.len() / self.cfg.trace_div) as f64),
            ),
            ("workers", Json::Num(WORKERS as f64)),
            ("connections", Json::Num(1.0)),
            ("frames_in_flight", Json::Num(1.0)),
        ])
    }

    fn pass<P: Probe>(&mut self, probe: &mut P, scope: Scope) -> Res<PassOut> {
        let n = self.in_scope(scope);
        let t = Instant::now();
        let (failed, out) = if self.raw.is_some() {
            self.via_raw(probe, n)?
        } else {
            self.via_client(probe, n)?
        };
        let wall_ns = t.elapsed().as_nanos() as u64;
        self.last = out;
        self.reset(n)?;
        let k = self.cfg.keys_per_frame;
        Ok(PassOut {
            ops: self.reqs[..n].iter().map(|r| r.key_ops(k)).sum(),
            failed,
            wall_ns,
        })
    }

    fn layer_metrics(&mut self, tracer: &Tracer, rounds: &mut Rounds) {
        let spans = &tracer.spans;
        let t = totals(spans);
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent == NO_PARENT)
            .collect();
        // Per-request sums of each child kind (a reply can take several
        // reads), indexed by the root's span index.
        let mut per_root = vec![[0u64; 3]; spans.len()];
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            let slot = match s.name {
                Name::Write => 0,
                Name::Wait => 1,
                Name::Decode => 2,
                _ => continue,
            };
            per_root[s.parent as usize][slot] += s.dur();
        }
        let p50_of = |f: &dyn Fn(usize) -> Option<u64>| {
            let mut v: Vec<u32> = roots
                .iter()
                .filter_map(|&r| f(r))
                .map(|ns| u32::try_from(ns).unwrap_or(u32::MAX))
                .collect();
            (!v.is_empty()).then(|| f64::from(percentile(&mut v, 0.5)))
        };
        let mut push = |name: &'static str, v: Option<f64>| {
            if let Some(v) = v {
                rounds.push(name, v);
            }
        };
        push("net.write_ns", p50_of(&|r| Some(per_root[r][0])));
        push("net.wait_ns", p50_of(&|r| Some(per_root[r][1])));
        push("net.decode_ns", p50_of(&|r| Some(per_root[r][2])));
        push("_net.raw_p50_ns", p50_of(&|r| Some(spans[r].dur())));
        let forwarded = &self.forwarded;
        let class = |fwd: bool| {
            move |r: usize| (forwarded[spans[r].req as usize] == fwd).then(|| spans[r].dur())
        };
        let (local, remote) = (p50_of(&class(false)), p50_of(&class(true)));
        push("tpc.rtt_local_p50_ns", local);
        push("tpc.rtt_forwarded_p50_ns", remote);
        push("tpc.forward_cost_ns", local.zip(remote).map(|(l, f)| f - l));

        let by = |name: Name| crate::trace::durations(spans, name);
        push_latencies(
            rounds,
            &mut by(Name::ReqGet),
            "get_p50_ns",
            "get_p99_ns",
            None,
        );
        push_latencies(
            rounds,
            &mut by(Name::ReqSet),
            "insert_p50_ns",
            "insert_p99_ns",
            Some("insert_p9999_ns"),
        );
        push_latencies(
            rounds,
            &mut by(Name::ReqScan),
            "scan_p50_ns",
            "scan_p99_ns",
            None,
        );

        let requests = roots.len() as u64;
        let wall: u64 = roots.iter().map(|&r| spans[r].dur()).sum();
        let k = self.cfg.keys_per_frame;
        let n = requests as usize;
        let key_ops: u64 = self.reqs[..n].iter().map(|r| r.key_ops(k)).sum();
        let remote_ops: u64 = self.reqs[..n]
            .iter()
            .flat_map(Req::keys)
            .filter(|&key| shard_of(key, self.hello.1 as usize) as u64 != self.hello.0)
            .count() as u64;
        let point_ops: u64 = self.reqs[..n].iter().map(|r| r.keys().len() as u64).sum();
        rounds.push("_net.request_ns", wall as f64);
        rounds.push("tpc.requests", requests as f64);
        rounds.push("tpc.errors", self.last.errors as f64);
        rounds.push(
            "tpc.forwarded_share",
            remote_ops as f64 / point_ops.max(1) as f64,
        );
        if self.last.rows > 0 {
            rounds.push(
                "tpc.scan.ns_per_row",
                t[Name::ReqScan as usize].busy_ns as f64 / self.last.rows as f64,
            );
        }
        rounds.push(
            "frame.bytes_per_op",
            self.last.wire_bytes as f64 / key_ops.max(1) as f64,
        );
        rounds.push(
            "frame.keys_per_frame",
            key_ops as f64 / requests.max(1) as f64,
        );
    }

    fn extras(&mut self, _seed: u64, rounds: &mut Rounds) -> Res<()> {
        rounds.push("tpc.start_s", self.start_s);
        let n = self.in_scope(Scope::Prefix);

        // Transport + reactor wakeup with no index and no routing.
        let mut floor = Vec::with_capacity(2_000);
        for _ in 0..2_000 {
            let t = Instant::now();
            self.client.hello().map_err(|e| format!("hello: {e}"))?;
            floor.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
        rounds.push("net.rtt_floor_ns", f64::from(percentile(&mut floor, 0.5)));

        // The same prefix through BinClient, against the raw socket's p50.
        let mut lat = LatProbe::default();
        let (failed, _) = self.via_client(&mut lat, n)?;
        self.reset(n)?;
        self.side_failed += failed;
        let raw_p50 = rounds.median("_net.raw_p50_ns").unwrap_or(0.0);
        rounds.push(
            "binclient.overhead_ns",
            f64::from(percentile(&mut lat.ns, 0.5)) - raw_p50,
        );

        // One more raw pass that keeps its frames, for the codec replay.
        if let Some(raw) = &mut self.raw {
            raw.capture = Some(Vec::with_capacity(n));
        }
        let (failed, _) = self.via_raw(&mut NoProbe, n)?;
        self.reset(n)?;
        self.side_failed += failed;
        let kept = self
            .raw
            .as_mut()
            .and_then(|r| r.capture.take())
            .unwrap_or_default();
        let frames: Vec<Vec<u8>> = kept.into_iter().flat_map(|(req, rep)| [req, rep]).collect();
        let (enc, dec, crc) = codec_replay(&frames);
        rounds.push("frame.encode.ns_per_frame", enc);
        rounds.push("frame.decode.ns_per_frame", dec);
        rounds.push("frame.crc32.ns_per_byte", crc);

        // The same key-ops on a local index: what `dytis` costs per pass.
        let mut local = DyTis::new();
        for &key in &self.loaded {
            local.insert(key, value_of(key));
        }
        let ops = self.as_index_ops(n);
        let before = local.stats();
        let mut tracer = Tracer::default();
        let out = idx::run_ops(
            &mut local,
            &ops,
            self.cfg.keys_per_frame,
            &mut tracer,
            &mut Vec::new(),
        );
        self.side_attempted += ops.len() as u64;
        self.side_failed += out.failed;
        idx::push_dytis_calls(&tracer.spans, &out, rounds);
        idx::push_dytis_state(&before, &local, &tracer.spans, rounds);
        let index_ns: u64 = tracer.spans.iter().map(|s| s.dur()).sum();

        let request_ns = rounds.median("_net.request_ns").unwrap_or(0.0).max(1.0);
        let index_share = index_ns as f64 / request_ns;
        let codec_share = (enc + dec) * frames.len() as f64 / request_ns;
        rounds.push("net.index_share", index_share);
        rounds.push("net.codec_share", codec_share);
        // What is left: reactor, forwarding, syscalls, the wire.
        rounds.push("net.residual_share", 1.0 - index_share - codec_share);
        Ok(())
    }

    fn finish(mut self, rounds: &mut Rounds) -> Res<Finish> {
        let stored = self.client.len().map_err(|e| format!("len: {e}"))?;
        self.side_attempted += 1;
        self.side_failed += u64::from(stored != self.loaded.len() as u64);
        let t = Instant::now();
        let drained = self.server.take().is_none_or(|s| s.shutdown().drained);
        rounds.push("tpc.shutdown_s", t.elapsed().as_secs_f64());
        self.side_attempted += 1;
        self.side_failed += u64::from(!drained);

        let k = self.cfg.keys_per_frame;
        let (bytes, ops) = self.reqs.iter().fold((0usize, 0u64), |(b, o), r| {
            let (req, rep) = r.wire_words(k);
            (b + frame_len(req) + frame_len(rep), o + r.key_ops(k))
        });
        Ok(Finish {
            attempted: self.side_attempted,
            failed: self.side_failed,
            bytes_per_key: bytes as f64 / ops.max(1) as f64,
        })
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn tiny(keys_per_frame: usize) -> NetCfg {
        let full = if keys_per_frame == 1 {
            full_rtt()
        } else {
            full_batch()
        };
        NetCfg {
            preload: 5_000,
            requests: 160,
            ..full
        }
    }

    fn setup(keys_per_frame: usize, traced: bool) -> Net {
        Net::setup(&tiny(keys_per_frame), 1, traced, Path::new(".")).unwrap()
    }

    #[test]
    fn both_drivers_get_every_reply_right_and_restore_the_store() {
        for (k, traced) in [(64, false), (64, true), (1, false), (1, true)] {
            let mut w = setup(k, traced);
            let a = w.pass(&mut NoProbe, Scope::Full).unwrap();
            let b = w.pass(&mut NoProbe, Scope::Prefix).unwrap();
            assert_eq!((a.failed, b.failed), (0, 0), "k={k} traced={traced}");
            assert!(a.ops > b.ops);
            let fin = w.finish(&mut Rounds::default()).unwrap();
            assert_eq!(fin.failed, 0, "k={k} traced={traced}");
            assert!(fin.attempted > 2, "resets are checked ops");
        }
    }

    #[test]
    fn shard_of_classification_matches_what_the_server_says() {
        let mut w = setup(1, false);
        assert_eq!(w.hello, (0, WORKERS as u64), "server.addr() is worker 0");
        // Ask every worker who it is; `shard_of` must send a key's owner
        // the same way the harness classifies it.
        let addrs = w.server.as_ref().unwrap().worker_addrs().to_vec();
        for (i, addr) in addrs.iter().enumerate() {
            let mut c = BinClient::connect(addr).unwrap();
            assert_eq!(c.hello().unwrap(), (i as u64, WORKERS as u64));
        }
        let local = w.forwarded.iter().filter(|&&f| !f).count();
        assert!(
            local > 0 && local < w.forwarded.len(),
            "uniform keys split over both workers"
        );
        for (req, &fwd) in w.reqs.iter().zip(&w.forwarded) {
            let owner = shard_of(req.keys()[0], WORKERS);
            assert_eq!(fwd, owner as u64 != w.hello.0);
        }
        assert_eq!(w.pass(&mut NoProbe, Scope::Full).unwrap().failed, 0);
    }

    #[test]
    fn a_flipped_expectation_is_counted_as_a_failure() {
        let mut w = setup(64, true);
        let Some(Req::Get { expect, .. }) =
            w.reqs.iter_mut().find(|r| matches!(r, Req::Get { .. }))
        else {
            panic!("stream has a GET");
        };
        expect[3] ^= 1;
        assert_eq!(w.pass(&mut NoProbe, Scope::Full).unwrap().failed, 1);
    }

    #[test]
    fn traced_pass_accounts_for_the_whole_request() {
        let mut w = setup(1, true);
        let mut tracer = Tracer::default();
        w.pass(&mut tracer, Scope::Full).unwrap();
        let mut rounds = Rounds::default();
        w.layer_metrics(&tracer, &mut rounds);
        w.extras(1, &mut rounds).unwrap();
        let share = |n: &str| rounds.median(n).unwrap();
        let sum = share("net.index_share") + share("net.codec_share") + share("net.residual_share");
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(share("net.index_share") > 0.0 && share("net.index_share") < 0.5);
        assert_eq!(share("tpc.errors"), 0.0);
        assert!(share("net.rtt_floor_ns") > 0.0);
    }
}
