//! Property-based robustness tests for the `DYF1` frame codec: a network
//! peer controls these bytes, so `try_decode` must never panic on them,
//! must round-trip every frame `encode_frame` can emit, and must never
//! hand back a frame other than the one that was sent — whatever is cut,
//! flipped, or however the stream is split across reads.
//!
//! Gated behind the `proptest` feature (`cargo test --features proptest`)
//! so the default offline test run stays lean.
#![cfg(feature = "proptest")]

use kvstore::frame::{crc32, encode_frame, try_decode, Decoded};
use proptest::prelude::*;

fn arb_words(max: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..=max)
}

fn encoded(op: u8, words: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, op, words);
    buf
}

/// CRC32 (IEEE, reflected 0xEDB88320) one bit at a time: the definition,
/// with no table shared with the codec.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// What a connection does with its input buffer: decode and consume whole
/// frames from the front until more bytes are needed.
fn drain_frames(buf: &mut Vec<u8>, out: &mut Vec<(u8, Vec<u64>)>) -> Result<(), Decoded> {
    loop {
        match try_decode(buf) {
            Decoded::Frame {
                header,
                words,
                consumed,
            } => {
                buf.drain(..consumed);
                out.push((header.op, words));
            }
            Decoded::Incomplete => return Ok(()),
            fault => return Err(fault),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `try_decode` never panics on arbitrary bytes; it returns a verdict.
    #[test]
    fn try_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = try_decode(&bytes);
    }

    /// The codec's table-driven CRC equals the bitwise definition on any
    /// bytes, at any length: the 8-byte steps and the bytewise tail agree.
    #[test]
    fn crc32_matches_the_bitwise_definition(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    }

    /// Every frame survives encode -> decode unchanged and is consumed
    /// whole, with or without bytes of a next frame behind it.
    #[test]
    fn frame_roundtrip(
        op in any::<u8>(),
        words in arb_words(64),
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = encoded(op, &words);
        let len = buf.len();
        buf.extend_from_slice(&tail);
        match try_decode(&buf) {
            Decoded::Frame { header, words: got, consumed } => {
                prop_assert_eq!(header.op, op);
                prop_assert_eq!(header.count as usize, words.len());
                prop_assert_eq!(got, words);
                prop_assert_eq!(consumed, len);
            }
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
    }

    /// Every strict prefix of a frame waits for more bytes — a truncated
    /// request is never a shorter request.
    #[test]
    fn strict_prefixes_are_incomplete(op in any::<u8>(), words in arb_words(64)) {
        let buf = encoded(op, &words);
        for cut in 0..buf.len() {
            prop_assert_eq!(try_decode(&buf[..cut]), Decoded::Incomplete, "cut at {}", cut);
        }
    }

    /// One flipped bit anywhere — op, reserved byte, count, payload, CRC —
    /// never decodes as a frame: the CRC covers everything before it.
    #[test]
    fn single_bit_flips_never_decode(
        op in any::<u8>(),
        words in arb_words(64),
        pick in any::<usize>(),
    ) {
        let mut buf = encoded(op, &words);
        let bit = pick % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let decoded = try_decode(&buf);
        prop_assert!(
            !matches!(decoded, Decoded::Frame { .. }),
            "bit {} flipped, still decoded: {:?}",
            bit,
            decoded
        );
    }

    /// Two frames back to back decode to the same two frames wherever the
    /// byte stream is split between reads.
    #[test]
    fn concatenated_frames_survive_every_split(
        op_a in any::<u8>(),
        words_a in arb_words(16),
        op_b in any::<u8>(),
        words_b in arb_words(16),
    ) {
        let mut wire = encoded(op_a, &words_a);
        encode_frame(&mut wire, op_b, &words_b);
        let want = vec![(op_a, words_a), (op_b, words_b)];
        for split in 0..=wire.len() {
            let mut buf = wire[..split].to_vec();
            let mut got = Vec::new();
            prop_assert_eq!(drain_frames(&mut buf, &mut got), Ok(()), "first read, split {}", split);
            buf.extend_from_slice(&wire[split..]);
            prop_assert_eq!(drain_frames(&mut buf, &mut got), Ok(()), "second read, split {}", split);
            prop_assert_eq!(&got, &want, "split {}", split);
            prop_assert!(buf.is_empty(), "split {}: {} bytes left over", split, buf.len());
        }
    }
}
