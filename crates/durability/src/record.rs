//! On-disk WAL framing: a fixed 24-byte log header followed by
//! length-prefixed, CRC64-protected records with monotonic sequence numbers.
//!
//! ```text
//! log    := header record*
//! header := magic "DYWAL1\0\0" (8) | base_seq u64 | crc64(magic ‖ base_seq) u64
//! record := len u32 | crc64(payload) u64 | payload
//! payload:= seq u64 | op u8 | key u64 | value u64          (25 bytes)
//! ```
//!
//! All integers are little-endian. `len` is the payload length and must be
//! [`PAYLOAD_LEN`] for the current record version; any other value is treated
//! as corruption. The first record's `seq` must equal the header's
//! `base_seq` and every subsequent record must increment it by exactly one —
//! a gap or repeat marks the log invalid from that point on.
//!
//! Decoders distinguish a **torn** suffix (clean EOF mid-frame: the expected
//! outcome of a crash during an append) from a **corrupt** one (CRC
//! mismatch, bad length, bad op, sequence break: bit rot or a misdirected
//! write). Recovery truncates at the first record that is either.

use crate::crc64::Crc64;
use index_traits::{Key, Value};

/// Monotonic per-log sequence number. The first record of a log carries the
/// header's `base_seq`; group commit acknowledges a write once every record
/// up to and including its sequence number is durable.
pub type Seq = u64;

/// File magic opening every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"DYWAL1\0\0";

/// Encoded size of the log header (magic + base sequence + CRC64).
pub const HEADER_LEN: usize = 8 + 8 + 8;

/// Payload size of a key-value record (seq + op + key + value).
pub const PAYLOAD_LEN: usize = 8 + 1 + 8 + 8;

/// Full encoded size of one record (length prefix + CRC + payload).
pub const RECORD_LEN: usize = 4 + 8 + PAYLOAD_LEN;

/// Logged operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or update `key` with the record's value.
    Put,
    /// Remove `key` (the record's value field is zero and ignored).
    Delete,
}

impl WalOp {
    fn code(self) -> u8 {
        match self {
            WalOp::Put => 1,
            WalOp::Delete => 2,
        }
    }

    fn from_code(code: u8) -> Option<WalOp> {
        match code {
            1 => Some(WalOp::Put),
            2 => Some(WalOp::Delete),
            _ => None,
        }
    }
}

/// One decoded record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number.
    pub seq: Seq,
    /// Operation kind.
    pub op: WalOp,
    /// Key the operation applies to.
    pub key: Key,
    /// Value for [`WalOp::Put`]; zero for deletes.
    pub value: Value,
}

/// Encodes the 24-byte log header for a segment whose first record will
/// carry sequence number `base_seq`.
pub fn encode_header(base_seq: Seq) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&WAL_MAGIC);
    out[8..16].copy_from_slice(&base_seq.to_le_bytes());
    let mut crc = Crc64::new();
    crc.update(&out[..16]);
    out[16..24].copy_from_slice(&crc.finalize().to_le_bytes());
    out
}

/// Appends the encoded frame for one record to `out`.
pub fn encode_record(seq: Seq, op: WalOp, key: Key, value: Value, out: &mut Vec<u8>) {
    let mut payload = [0u8; PAYLOAD_LEN];
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    payload[8] = op.code();
    payload[9..17].copy_from_slice(&key.to_le_bytes());
    payload[17..25].copy_from_slice(&value.to_le_bytes());
    let mut crc = Crc64::new();
    crc.update(&payload);
    // justified: PAYLOAD_LEN is the compile-time record size (25), far
    // inside the u32 length field.
    out.extend_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
    out.extend_from_slice(&crc.finalize().to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Outcome of decoding one frame from the head of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// A full, CRC-clean record; the frame occupied [`RECORD_LEN`] bytes.
    Complete(Record),
    /// The slice ends mid-frame — the torn tail a crash during an append
    /// leaves behind. Recovery truncates here silently.
    Torn,
    /// The frame is structurally invalid (bad length, CRC mismatch, unknown
    /// op). Recovery truncates here and reports the reason.
    Corrupt(&'static str),
}

/// Decodes the frame at the head of `buf`.
pub fn decode_record(buf: &[u8]) -> Decoded {
    if buf.len() < 4 {
        return Decoded::Torn;
    }
    // invariant: the slice is 4 bytes by the length check above.
    let len = u32::from_le_bytes(buf[..4].try_into().expect("fixed slice")) as usize;
    if len != PAYLOAD_LEN {
        return Decoded::Corrupt("bad payload length");
    }
    if buf.len() < RECORD_LEN {
        return Decoded::Torn;
    }
    // invariant: the slice is 8 bytes by the RECORD_LEN check above.
    let want = u64::from_le_bytes(buf[4..12].try_into().expect("fixed slice"));
    let payload = &buf[12..RECORD_LEN];
    let mut crc = Crc64::new();
    crc.update(payload);
    if crc.finalize() != want {
        return Decoded::Corrupt("record CRC mismatch");
    }
    // invariant: payload is PAYLOAD_LEN bytes; all subslices are in range.
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("fixed slice"));
    let Some(op) = WalOp::from_code(payload[8]) else {
        return Decoded::Corrupt("unknown op code");
    };
    // invariant: payload is PAYLOAD_LEN bytes; all subslices are in range.
    let key = u64::from_le_bytes(payload[9..17].try_into().expect("fixed slice"));
    // invariant: payload is PAYLOAD_LEN bytes; all subslices are in range.
    let value = u64::from_le_bytes(payload[17..25].try_into().expect("fixed slice"));
    Decoded::Complete(Record {
        seq,
        op,
        key,
        value,
    })
}

/// Outcome of decoding a log header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedHeader {
    /// A valid header carrying the segment's base sequence number.
    Complete(Seq),
    /// The slice ends inside the header.
    Torn,
    /// Bad magic or CRC mismatch.
    Corrupt(&'static str),
}

/// Decodes the header at the head of `buf`.
pub fn decode_header(buf: &[u8]) -> DecodedHeader {
    if buf.len() < HEADER_LEN {
        return DecodedHeader::Torn;
    }
    if buf[..8] != WAL_MAGIC {
        return DecodedHeader::Corrupt("bad WAL magic");
    }
    let mut crc = Crc64::new();
    crc.update(&buf[..16]);
    // invariant: the slice is HEADER_LEN bytes by the length check above.
    let want = u64::from_le_bytes(buf[16..24].try_into().expect("fixed slice"));
    if crc.finalize() != want {
        return DecodedHeader::Corrupt("header CRC mismatch");
    }
    // invariant: the slice is HEADER_LEN bytes by the length check above.
    DecodedHeader::Complete(u64::from_le_bytes(
        buf[8..16].try_into().expect("fixed slice"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let mut buf = Vec::new();
        encode_record(7, WalOp::Put, 0xDEAD_BEEF, 42, &mut buf);
        assert_eq!(buf.len(), RECORD_LEN);
        let Decoded::Complete(rec) = decode_record(&buf) else {
            panic!("expected complete record");
        };
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.op, WalOp::Put);
        assert_eq!(rec.key, 0xDEAD_BEEF);
        assert_eq!(rec.value, 42);
    }

    #[test]
    fn delete_roundtrip() {
        let mut buf = Vec::new();
        encode_record(1, WalOp::Delete, 9, 0, &mut buf);
        assert_eq!(
            decode_record(&buf),
            Decoded::Complete(Record {
                seq: 1,
                op: WalOp::Delete,
                key: 9,
                value: 0
            })
        );
    }

    #[test]
    fn every_truncation_is_torn() {
        let mut buf = Vec::new();
        encode_record(3, WalOp::Put, 11, 22, &mut buf);
        for cut in 0..RECORD_LEN {
            assert_eq!(decode_record(&buf[..cut]), Decoded::Torn, "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_is_corrupt() {
        let mut buf = Vec::new();
        encode_record(3, WalOp::Put, 11, 22, &mut buf);
        for byte in 0..RECORD_LEN {
            for bit in 0..8 {
                let mut tampered = buf.clone();
                tampered[byte] ^= 1 << bit;
                assert!(
                    matches!(decode_record(&tampered), Decoded::Corrupt(_)),
                    "flip at {byte}:{bit} not reported corrupt"
                );
            }
        }
    }

    #[test]
    fn header_roundtrip_and_corruption() {
        let h = encode_header(123);
        assert_eq!(decode_header(&h), DecodedHeader::Complete(123));
        assert_eq!(decode_header(&h[..HEADER_LEN - 1]), DecodedHeader::Torn);
        let mut bad = h;
        bad[9] ^= 0x40;
        assert!(matches!(decode_header(&bad), DecodedHeader::Corrupt(_)));
        let mut bad_magic = h;
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_header(&bad_magic),
            DecodedHeader::Corrupt(_)
        ));
    }

    /// The exact DYWAL1 image of a header at base 1, a Put and a Delete.
    /// Logs already on disk must keep replaying, so these bytes never move.
    #[test]
    fn dywal1_bytes_are_pinned() {
        let mut buf = encode_header(1).to_vec();
        encode_record(1, WalOp::Put, 42, 4200, &mut buf);
        encode_record(2, WalOp::Delete, 42, 0, &mut buf);
        let golden: [u8; 24 + 2 * 37] = [
            68, 89, 87, 65, 76, 49, 0, 0, // magic "DYWAL1\0\0"
            1, 0, 0, 0, 0, 0, 0, 0, // base_seq
            115, 10, 153, 11, 45, 200, 152, 228, // header crc64
            25, 0, 0, 0, // len
            145, 30, 238, 131, 116, 233, 95, 136, // payload crc64
            1, 0, 0, 0, 0, 0, 0, 0, 1, // seq 1, Put
            42, 0, 0, 0, 0, 0, 0, 0, 104, 16, 0, 0, 0, 0, 0, 0, // key 42, value 4200
            25, 0, 0, 0, // len
            91, 19, 1, 154, 169, 134, 44, 80, // payload crc64
            2, 0, 0, 0, 0, 0, 0, 0, 2, // seq 2, Delete
            42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // key 42, value 0
        ];
        assert_eq!(buf, golden);
    }
}
