//! Probes and spans.
//!
//! Every workload's inner loop is written once, generic over a [`Probe`]:
//! [`NoProbe`] compiles to nothing (the untimed throughput pass),
//! [`LatProbe`] times each client-visible operation (the latency pass), and
//! [`Tracer`] records a span at each call into a layer (the traced run).
//! Spans are recorded only here, in the benchmark, around calls into each
//! layer; spans inside the program are a later issue.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names. Layer names are module names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// `DyTis::get`.
    Get,
    /// `DyTis::insert` (new key or update).
    Insert,
    /// `DyTis::remove`.
    Remove,
    /// `DyTis::scan`.
    Scan,
    /// One GET frame round trip.
    ReqGet,
    /// One SET frame round trip.
    ReqSet,
    /// One SCAN frame round trip.
    ReqScan,
    /// Payload flattening + `frame::encode_frame` on the client.
    Encode,
    /// `write_all` of the request bytes.
    Write,
    /// Blocking `read` until reply bytes arrive.
    Wait,
    /// `frame::try_decode` of the reply on the client.
    Decode,
    /// One WAL group: appends then the durable ack.
    Batch,
    /// `Wal::append`.
    Append,
    /// `Wal::sync`.
    Sync,
}

impl Name {
    pub const ALL: [Name; 14] = [
        Name::Get,
        Name::Insert,
        Name::Remove,
        Name::Scan,
        Name::ReqGet,
        Name::ReqSet,
        Name::ReqScan,
        Name::Encode,
        Name::Write,
        Name::Wait,
        Name::Decode,
        Name::Batch,
        Name::Append,
        Name::Sync,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Get => "dytis.get",
            Name::Insert => "dytis.insert",
            Name::Remove => "dytis.remove",
            Name::Scan => "dytis.scan",
            Name::ReqGet => "request.get",
            Name::ReqSet => "request.set",
            Name::ReqScan => "request.scan",
            Name::Encode => "frame.encode",
            Name::Write => "net.write",
            Name::Wait => "net.wait",
            Name::Decode => "frame.decode",
            Name::Batch => "wal.batch",
            Name::Append => "wal.append",
            Name::Sync => "wal.sync",
        }
    }
}

/// What a workload loop reports to while it runs.
pub trait Probe {
    type Tok;
    /// Opens a root span: one client-visible operation, request `req`.
    fn root(&mut self, name: Name, req: u32) -> Self::Tok;
    /// Opens a span for a layer call made on behalf of the open root.
    fn child(&mut self, name: Name) -> Self::Tok;
    fn close(&mut self, tok: Self::Tok);
}

/// The untimed pass: every hook is empty and inlines away.
pub struct NoProbe;

impl Probe for NoProbe {
    type Tok = ();
    #[inline(always)]
    fn root(&mut self, _: Name, _: u32) {}
    #[inline(always)]
    fn child(&mut self, _: Name) {}
    #[inline(always)]
    fn close(&mut self, (): ()) {}
}

/// The latency pass: nanoseconds of every root span, nothing else.
#[derive(Default)]
pub struct LatProbe {
    pub ns: Vec<u32>,
}

impl Probe for LatProbe {
    type Tok = Option<Instant>;
    #[inline(always)]
    fn root(&mut self, _: Name, _: u32) -> Option<Instant> {
        Some(Instant::now())
    }
    #[inline(always)]
    fn child(&mut self, _: Name) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn close(&mut self, tok: Option<Instant>) {
        if let Some(start) = tok {
            self.ns
                .push(u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Request identifier, shared by a root and its children.
    pub req: u32,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The traced pass: spans kept in memory, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open_root: u32,
    open_req: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open_root: NO_PARENT,
            open_req: 0,
        }
    }
}

impl Tracer {
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open_root = NO_PARENT;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: Name, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req: self.open_req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }
}

impl Probe for Tracer {
    type Tok = u32;
    #[inline]
    fn root(&mut self, name: Name, req: u32) -> u32 {
        self.open_req = req;
        self.open_root = self.open(name, NO_PARENT);
        self.open_root
    }
    #[inline]
    fn child(&mut self, name: Name) -> u32 {
        self.open(name, self.open_root)
    }
    #[inline]
    fn close(&mut self, tok: u32) {
        let end = self.now();
        self.spans[tok as usize].end_ns = end;
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Per-name totals over one traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// Totals indexed by `Name as usize`.
pub fn totals(spans: &[Span]) -> [NameTotals; Name::ALL.len()] {
    let mut out = [NameTotals::default(); Name::ALL.len()];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = &mut out[s.name as usize];
        t.calls += 1;
        t.busy_ns += s.dur();
        t.self_ns += own;
    }
    out
}

/// Durations of the spans named `name`, as latency samples.
pub fn durations(spans: &[Span], name: Name) -> Vec<u32> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| u32::try_from(s.dur()).unwrap_or(u32::MAX))
        .collect()
}

/// Most spans written to a trace file; the aggregates use all of them.
pub const FILE_SPAN_CAP: usize = 262_144;

/// Writes the first [`FILE_SPAN_CAP`] spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().take(FILE_SPAN_CAP).enumerate() {
        write!(
            w,
            "{{\"id\": {id}, \"name\": \"{}\", \"req\": {}, \"parent\": ",
            s.name.as_str(),
            s.req
        )?;
        if s.parent == NO_PARENT {
            write!(w, "null")?;
        } else {
            write!(w, "{}", s.parent)?;
        }
        writeln!(
            w,
            ", \"start_ns\": {}, \"end_ns\": {}}}",
            s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(Name::ReqGet, NO_PARENT, 0, 100),
            span(Name::Encode, 0, 5, 15),
            span(Name::Wait, 0, 20, 80),
            span(Name::Decode, 0, 80, 95),
            span(Name::ReqGet, NO_PARENT, 100, 130),
            span(Name::Wait, 4, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 60, 15, 0, 30]);
        let t = totals(&spans);
        let req = t[Name::ReqGet as usize];
        assert_eq!((req.calls, req.busy_ns, req.self_ns), (2, 130, 15));
        let wait = t[Name::Wait as usize];
        assert_eq!((wait.calls, wait.busy_ns, wait.self_ns), (2, 90, 90));
        // Self times partition the wall time the roots cover.
        let total_self: u64 = t.iter().map(|n| n.self_ns).sum();
        assert_eq!(total_self, 130);
    }

    #[test]
    fn tracer_links_children_to_the_open_root() {
        let mut t = Tracer::default();
        let r = t.root(Name::Batch, 7);
        let c = t.child(Name::Append);
        t.close(c);
        t.close(r);
        let r2 = t.root(Name::Batch, 8);
        t.close(r2);
        assert_eq!(t.spans.len(), 3);
        assert_eq!((t.spans[0].parent, t.spans[0].req), (NO_PARENT, 7));
        assert_eq!((t.spans[1].parent, t.spans[1].req), (0, 7));
        assert_eq!((t.spans[2].parent, t.spans[2].req), (NO_PARENT, 8));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn lat_probe_times_roots_only() {
        let mut p = LatProbe::default();
        let r = p.root(Name::Get, 0);
        let c = p.child(Name::Encode);
        p.close(c);
        p.close(r);
        assert_eq!(p.ns.len(), 1);
    }
}
