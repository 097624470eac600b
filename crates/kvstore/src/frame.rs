//! `DYF1` — the length-prefixed binary frame, the KV service's one wire
//! protocol.
//!
//! Batching is the wire's native shape: one frame carries up to
//! [`MAX_FRAME_WORDS`] words of keys and values, so a thousand SETs are one
//! write and one read. A session opens with the 4-byte preamble
//! `[0xDF, b'Y', b'F', b'1']` — a magic the server checks, not a
//! negotiation: a connection whose first bytes are anything else is closed
//! without a reply. After it both directions speak frames, the server's own
//! messages ([`ERR_BUSY`] at the connection budget, [`ERR_IDLE`] at the
//! idle reap) included:
//!
//! ```text
//! [op: u8][reserved: u8 = 0][count: u32 LE][count x u64 LE][crc32: u32 LE]
//! ```
//!
//! `count` is the number of **u64 payload words**, so every frame's length
//! is derivable from its fixed 6-byte header: `6 + 8*count + 4`. The CRC32
//! (IEEE, reflected 0xEDB88320) covers header + payload; a mismatch is a
//! transport fault, not a request, so the server answers
//! [`ERR_BAD_FRAME`] and closes — a frame stream has no marker to resync
//! at. [`crc32`] is slicing-by-8 over 8 KiB of `const`-built tables:
//! 0.71 ns/byte in a traced `net_batch` run, against 2.97 for a bytewise
//! table loop (2-vCPU Intel Xeon VM, one CPU).
//!
//! A request is complete only at its last CRC byte. Bytes after the last
//! whole frame when the peer closes (or half-closes) are a truncated
//! request and are dropped, never applied: a client that dies mid-write of
//! a SET cannot get the pairs it managed to send stored.
//!
//! Request ops and their payloads (`k`/`v` are u64 words). GET/DEL key
//! lists and SCAN limits are additionally capped at
//! [`MAX_KEYS_PER_FRAME`] because their responses carry two words per
//! key/row — a larger request would make the server's only truthful reply
//! an over-[`MAX_FRAME_WORDS`] frame:
//!
//! | op | name | payload |
//! |----|------|---------|
//! | 0x01 | SET   | `k v` per pair (count = 2n) |
//! | 0x02 | GET   | `k` per key |
//! | 0x03 | DEL   | `k` per key |
//! | 0x04 | SCAN  | `start limit` (count = 2) |
//! | 0x05 | LEN   | none |
//! | 0x06 | QUIT  | none |
//! | 0x07 | HELLO | none |
//!
//! Responses set the high bit of the request op:
//!
//! | op | name | payload |
//! |----|------|---------|
//! | 0x81 | SET_OK    | `applied` (count = 1) |
//! | 0x82 | GET_RES   | `found v` per key (found is 0/1) |
//! | 0x83 | DEL_RES   | `found prev` per key |
//! | 0x84 | SCAN_RES  | `k v` per pair |
//! | 0x85 | LEN_RES   | `len` |
//! | 0x86 | BYE       | none |
//! | 0x87 | HELLO_RES | `worker_id workers` |
//! | 0xFF | ERR       | `code` (see the `ERR_*` constants) |

use std::io::{self, Read, Write};

/// First byte of a session; outside ASCII, so a text client (HTTP,
/// telnet) that dials the port by mistake is closed at its first byte.
pub const MAGIC_BYTE: u8 = 0xDF;

/// The full session preamble a client sends once after connect.
pub const PREAMBLE: [u8; 4] = [MAGIC_BYTE, b'Y', b'F', b'1'];

/// Most payload words a single frame may carry (256 KiB of payload).
/// Larger counts get [`ERR_TOO_LARGE`] and the connection closes; the cap
/// is what bounds the server's per-connection input buffer.
pub const MAX_FRAME_WORDS: u32 = 32_768;

/// Most keys one GET/DEL request frame may carry, and the most rows one
/// SCAN may request. Responses carry **two** words per key/row, so a
/// request above this cap would force the server to answer with a frame
/// over [`MAX_FRAME_WORDS`] — an illegal reply to a legal request. The
/// server rejects over-cap key lists with [`ERR_KEY_COUNT`] and over-cap
/// scan limits with [`ERR_SCAN_LIMIT`]; clients chunk to stay below it.
pub const MAX_KEYS_PER_FRAME: u32 = MAX_FRAME_WORDS / 2;

/// Request op tags.
pub const OP_SET: u8 = 0x01;
pub const OP_GET: u8 = 0x02;
pub const OP_DEL: u8 = 0x03;
pub const OP_SCAN: u8 = 0x04;
pub const OP_LEN: u8 = 0x05;
pub const OP_QUIT: u8 = 0x06;
pub const OP_HELLO: u8 = 0x07;

/// Response op tags (`request | 0x80`).
pub const RESP_SET: u8 = OP_SET | 0x80;
pub const RESP_GET: u8 = OP_GET | 0x80;
pub const RESP_DEL: u8 = OP_DEL | 0x80;
pub const RESP_SCAN: u8 = OP_SCAN | 0x80;
pub const RESP_LEN: u8 = OP_LEN | 0x80;
pub const RESP_BYE: u8 = OP_QUIT | 0x80;
pub const RESP_HELLO: u8 = OP_HELLO | 0x80;
pub const RESP_ERR: u8 = 0xFF;

/// `ERR` payload codes.
pub const ERR_BAD_FRAME: u64 = 1;
pub const ERR_TOO_LARGE: u64 = 2;
pub const ERR_UNKNOWN_OP: u64 = 3;
pub const ERR_BUSY: u64 = 4;
pub const ERR_IDLE: u64 = 5;
pub const ERR_BAD_COUNT: u64 = 6;
pub const ERR_SCAN_LIMIT: u64 = 7;
pub const ERR_KEY_COUNT: u64 = 8;

/// Human-readable message for an [`RESP_ERR`] code.
pub fn err_message(code: u64) -> &'static str {
    match code {
        ERR_BAD_FRAME => "bad frame (crc or header)",
        ERR_TOO_LARGE => "frame exceeds max words",
        ERR_UNKNOWN_OP => "unknown op",
        ERR_BUSY => "busy",
        ERR_IDLE => "idle timeout",
        ERR_BAD_COUNT => "payload count does not match op",
        ERR_SCAN_LIMIT => "count exceeds max",
        ERR_KEY_COUNT => "too many keys for one response frame",
        _ => "unknown error",
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// The slicing-by-8 tables (Kounavis & Berry, ISCC 2005): `t[0][b]` is the
/// CRC of byte `b` alone, and `t[k][b]` is `t[k - 1][b]` pushed through
/// one more zero byte, i.e. the contribution of `b` when `k` bytes follow
/// it in the same 8-byte step. 8 KiB in all.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `bytes`, eight bytes per table step: the eight lookups
/// of a step are independent, so they overlap instead of forming the
/// bytewise loop's one-load-per-byte dependency chain.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // invariant: chunks_exact(8) yields exactly 8-byte slices.
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let (lo, hi) = (c ^ w as u32, (w >> 32) as u32);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

/// Fixed header length: op byte, reserved byte, u32 word count.
pub const HEADER_LEN: usize = 6;
/// Trailer length: the CRC32.
pub const TRAILER_LEN: usize = 4;

/// Serializes one frame (header + payload words + CRC) into `out`.
///
/// # Panics
///
/// Panics (release builds included) when `words` exceeds
/// [`MAX_FRAME_WORDS`]: an oversized frame would be rejected by every
/// conforming reader, so emitting one silently corrupts the session. The
/// request-side caps ([`MAX_KEYS_PER_FRAME`], the scan limit) make this
/// unreachable for well-formed traffic; tripping it means a logic bug.
pub fn encode_frame(out: &mut Vec<u8>, op: u8, words: &[u64]) {
    assert!(
        words.len() <= MAX_FRAME_WORDS as usize,
        "frame payload of {} words exceeds MAX_FRAME_WORDS ({MAX_FRAME_WORDS})",
        words.len()
    );
    let start = out.len();
    out.push(op);
    out.push(0);
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub op: u8,
    pub count: u32,
}

/// Outcome of [`try_decode`] on a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// Not enough bytes yet for a complete frame.
    Incomplete,
    /// A complete, CRC-valid frame: its header, payload words, and total
    /// encoded length (bytes to consume from the buffer).
    Frame {
        header: FrameHeader,
        words: Vec<u64>,
        consumed: usize,
    },
    /// The header announces more than [`MAX_FRAME_WORDS`] payload words.
    TooLarge { count: u32 },
    /// The CRC check failed; the stream cannot be trusted further.
    BadCrc,
}

/// Reads the word count out of a complete header: the frame's total
/// encoded length, or the count itself when it is over the cap.
fn announced_len(header: &[u8]) -> Result<usize, u32> {
    // invariant: callers pass at least HEADER_LEN bytes.
    let count = u32::from_le_bytes(header[2..HEADER_LEN].try_into().unwrap());
    if count > MAX_FRAME_WORDS {
        return Err(count);
    }
    Ok(HEADER_LEN + 8 * count as usize + TRAILER_LEN)
}

/// Attempts to decode one frame from the front of `buf`.
pub fn try_decode(buf: &[u8]) -> Decoded {
    if buf.len() < HEADER_LEN {
        return Decoded::Incomplete;
    }
    let total = match announced_len(buf) {
        Ok(total) => total,
        Err(count) => return Decoded::TooLarge { count },
    };
    if buf.len() < total {
        return Decoded::Incomplete;
    }
    let body = &buf[..total - TRAILER_LEN];
    // invariant: `total` bytes are present, so the 4 trailer bytes exist.
    let wire_crc = u32::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().unwrap());
    if crc32(body) != wire_crc {
        return Decoded::BadCrc;
    }
    let words: Vec<u64> = body[HEADER_LEN..]
        .chunks_exact(8)
        // invariant: chunks_exact(8) yields exactly 8-byte slices.
        .map(|chunk| u64::from_le_bytes(chunk.try_into().unwrap()))
        .collect();
    Decoded::Frame {
        header: FrameHeader {
            op: buf[0],
            count: words.len() as u32,
        },
        words,
        consumed: total,
    }
}

/// Blocking read of exactly one frame from `r` (client side).
///
/// # Errors
///
/// I/O errors pass through; a too-large or CRC-damaged frame surfaces as
/// `InvalidData` because the stream cannot be re-synchronised.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(FrameHeader, Vec<u64>)> {
    let mut buf = vec![0u8; HEADER_LEN];
    r.read_exact(&mut buf)?;
    // The cap is enforced from the header alone, before the announced
    // payload is allocated or read.
    let total = announced_len(&buf).map_err(|count| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame announces {count} words (max {MAX_FRAME_WORDS})"),
        )
    })?;
    buf.resize(total, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    match try_decode(&buf) {
        Decoded::Frame { header, words, .. } => Ok((header, words)),
        // invariant: `buf` is exactly the announced, under-cap length, so
        // the CRC is the only check left to fail.
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame CRC mismatch",
        )),
    }
}

/// Writes one frame to `w` (client side).
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_frame<W: Write>(w: &mut W, op: u8, words: &[u64]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + 8 * words.len() + TRAILER_LEN);
    encode_frame(&mut buf, op, words);
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The bytewise definition `crc32` must match: one table step per
    /// byte, over `CRC32_TABLES[0]`.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Every length 0..=64 at every start offset 0..8, so each slice
    /// alignment meets each 8-byte-step / remainder split.
    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        for words in [vec![], vec![1u64], vec![u64::MAX, 0, 42, 7]] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, OP_SET, &words);
            match try_decode(&buf) {
                Decoded::Frame {
                    header,
                    words: got,
                    consumed,
                } => {
                    assert_eq!(header.op, OP_SET);
                    assert_eq!(header.count as usize, words.len());
                    assert_eq!(got, words);
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn incomplete_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, OP_GET, &[1, 2, 3]);
        for cut in 0..buf.len() {
            assert_eq!(try_decode(&buf[..cut]), Decoded::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn every_damaged_byte_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, OP_SET, &[0xDEAD, 0xBEEF]);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match try_decode(&bad) {
                // Header damage may change op/count (shape), payload or CRC
                // damage must trip the CRC; either way the original frame
                // never decodes as valid with different content.
                Decoded::Frame { header, words, .. } => {
                    assert_eq!(header.op, buf[0] ^ if i == 0 { 0x40 } else { 0 });
                    // A flipped op byte alone cannot produce a valid CRC:
                    // the CRC covers the header.
                    panic!(
                        "damaged byte {i} decoded as valid frame op={:#x} words={words:?}",
                        header.op
                    );
                }
                Decoded::BadCrc | Decoded::Incomplete | Decoded::TooLarge { .. } => {}
            }
        }
    }

    #[test]
    fn oversized_count_is_flagged_before_allocation() {
        let mut buf = vec![OP_SET, 0];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            try_decode(&buf),
            Decoded::TooLarge { count: u32::MAX },
            "a hostile count must be rejected from the 6-byte header alone"
        );
    }

    #[test]
    fn blocking_io_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_SCAN, &[10, 32]).expect("write");
        write_frame(&mut wire, OP_LEN, &[]).expect("write");
        let mut r = std::io::Cursor::new(wire);
        let (h1, w1) = read_frame(&mut r).expect("frame 1");
        assert_eq!((h1.op, w1.as_slice()), (OP_SCAN, &[10u64, 32][..]));
        let (h2, w2) = read_frame(&mut r).expect("frame 2");
        assert_eq!((h2.op, w2.len()), (OP_LEN, 0));
    }

    /// `read_frame` refuses what `try_decode` refuses, with the client's
    /// error kind and message: an over-cap count from the header alone (no
    /// payload follows it here), and a flipped payload bit by CRC.
    #[test]
    fn blocking_read_rejects_over_cap_and_crc_damage() {
        let mut hostile = vec![RESP_GET, 0];
        hostile.extend_from_slice(&(MAX_FRAME_WORDS + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(hostile)).expect_err("over cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!(
                "frame announces {} words (max {MAX_FRAME_WORDS})",
                MAX_FRAME_WORDS + 1
            )
        );

        let mut wire = Vec::new();
        write_frame(&mut wire, RESP_GET, &[1, 7]).expect("write");
        wire[HEADER_LEN + 3] ^= 0x10;
        let err = read_frame(&mut std::io::Cursor::new(wire)).expect_err("crc damage");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "frame CRC mismatch");
    }

    #[test]
    fn preamble_first_byte_is_not_ascii() {
        assert!(PREAMBLE[0] >= 0x80, "magic must be outside ASCII text");
    }
}
