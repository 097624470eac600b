//! The line-oriented text protocol of the KV service.
//!
//! One request per line, space-separated, ASCII decimal integers:
//!
//! ```text
//! SET <key> <value>      -> OK
//! GET <key>              -> VALUE <v> | MISS
//! DEL <key>              -> DELETED <v> | MISS
//! SCAN <start> <count>   -> RANGE <k1> <v1> <k2> <v2> ... | RANGE
//! LEN                    -> LEN <n>
//! QUIT                   -> BYE (closes the connection)
//! ```
//!
//! Malformed input yields `ERR <reason>` and keeps the connection open.
//!
//! A request is complete only at its newline. Bytes after the last newline
//! when the peer closes (or half-closes) are a truncated request and are
//! dropped, never applied: a client that dies mid-write of `SET 1 234`
//! cannot get `SET 1 23` stored.
//!
//! # Limits
//!
//! Two hard limits are part of the protocol contract (DESIGN.md §16):
//!
//! - A request line may be at most [`MAX_LINE_BYTES`] bytes (excluding the
//!   newline). Longer lines get `ERR line too long` and the server discards
//!   bytes up to the next newline, so a newline-free byte stream can never
//!   grow server memory.
//! - A `SCAN` may request at most [`MAX_SCAN_COUNT`] rows. Larger counts
//!   get `ERR count exceeds max`, never a silently clamped result — a
//!   shorter-than-requested `RANGE` therefore always means the index is
//!   exhausted.

use index_traits::{Key, Value};

/// Longest request line the server accepts, in bytes (newline excluded).
///
/// The longest well-formed request (`SET <u64> <u64>`) is 44 bytes, so the
/// cap leaves generous slack for whitespace while bounding the per
/// connection read buffer.
pub const MAX_LINE_BYTES: usize = 4096;

/// Most rows a single `SCAN` may request.
///
/// Requests above the limit are rejected with `ERR count exceeds max`
/// rather than silently clamped, so clients can always distinguish "the
/// server cut my scan short" from "the index has no more keys".
pub const MAX_SCAN_COUNT: usize = 100_000;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert or update a pair.
    Set(Key, Value),
    /// Point lookup.
    Get(Key),
    /// Delete a key.
    Del(Key),
    /// Ordered scan: start key and count.
    Scan(Key, usize),
    /// Number of stored keys.
    Len,
    /// Close the connection.
    Quit,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `SET` acknowledged.
    Ok,
    /// Value found.
    Value(Value),
    /// Key absent.
    Miss,
    /// Value removed.
    Deleted(Value),
    /// Scan results.
    Range(Vec<(Key, Value)>),
    /// Key count.
    Len(usize),
    /// Goodbye (connection closes after this).
    Bye,
    /// Protocol error.
    Err(String),
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut it = line.split_ascii_whitespace();
    let cmd = it.next().ok_or("empty request")?;
    let mut num = |what: &str| -> Result<u64, String> {
        it.next()
            .ok_or(format!("missing {what}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    let req = match cmd.to_ascii_uppercase().as_str() {
        "SET" => Request::Set(num("key")?, num("value")?),
        "GET" => Request::Get(num("key")?),
        "DEL" => Request::Del(num("key")?),
        "SCAN" => {
            let start = num("start")?;
            let count = num("count")? as usize;
            if count > MAX_SCAN_COUNT {
                return Err(format!("count exceeds max {MAX_SCAN_COUNT}"));
            }
            Request::Scan(start, count)
        }
        "LEN" => Request::Len,
        "QUIT" => Request::Quit,
        other => return Err(format!("unknown command {other}")),
    };
    if it.next().is_some() {
        return Err("trailing arguments".into());
    }
    Ok(req)
}

/// Serializes a request line (without the trailing newline).  Inverse of
/// [`parse_request`]; used by the client so the wire format has a single
/// source of truth.
pub fn format_request(req: &Request) -> String {
    match req {
        Request::Set(k, v) => format!("SET {k} {v}"),
        Request::Get(k) => format!("GET {k}"),
        Request::Del(k) => format!("DEL {k}"),
        Request::Scan(start, count) => format!("SCAN {start} {count}"),
        Request::Len => "LEN".into(),
        Request::Quit => "QUIT".into(),
    }
}

/// Serializes a response line (without the trailing newline).
pub fn format_response(resp: &Response) -> String {
    match resp {
        Response::Ok => "OK".into(),
        Response::Value(v) => format!("VALUE {v}"),
        Response::Miss => "MISS".into(),
        Response::Deleted(v) => format!("DELETED {v}"),
        Response::Range(pairs) => {
            let mut s = String::from("RANGE");
            for (k, v) in pairs {
                s.push_str(&format!(" {k} {v}"));
            }
            s
        }
        Response::Len(n) => format!("LEN {n}"),
        Response::Bye => "BYE".into(),
        Response::Err(e) => format!("ERR {e}"),
    }
}

/// Parses a response line (used by the client).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let mut it = line.split_ascii_whitespace();
    let tag = it.next().ok_or("empty response")?;
    let resp = match tag {
        "OK" => Response::Ok,
        "MISS" => Response::Miss,
        "BYE" => Response::Bye,
        "VALUE" => Response::Value(
            it.next()
                .ok_or("missing value")?
                .parse()
                .map_err(|e| format!("bad value: {e}"))?,
        ),
        "DELETED" => Response::Deleted(
            it.next()
                .ok_or("missing value")?
                .parse()
                .map_err(|e| format!("bad value: {e}"))?,
        ),
        "LEN" => Response::Len(
            it.next()
                .ok_or("missing len")?
                .parse()
                .map_err(|e| format!("bad len: {e}"))?,
        ),
        "RANGE" => {
            let nums: Result<Vec<u64>, _> = it.map(|t| t.parse::<u64>()).collect();
            let nums = nums.map_err(|e| format!("bad range: {e}"))?;
            if nums.len() % 2 != 0 {
                return Err("odd range payload".into());
            }
            Response::Range(nums.chunks(2).map(|c| (c[0], c[1])).collect())
        }
        // The message starts after the tag, which may itself be preceded by
        // whitespace — slice relative to the tag's position, not byte 0.
        "ERR" => Response::Err(line.trim_start()[3..].trim().to_string()),
        other => return Err(format!("unknown response {other}")),
    };
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_valid_requests() {
        assert_eq!(parse_request("SET 1 2"), Ok(Request::Set(1, 2)));
        assert_eq!(parse_request("get 7"), Ok(Request::Get(7)));
        assert_eq!(parse_request("DEL 9"), Ok(Request::Del(9)));
        assert_eq!(parse_request("SCAN 5 100"), Ok(Request::Scan(5, 100)));
        assert_eq!(parse_request("LEN"), Ok(Request::Len));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_request("").is_err());
        assert!(parse_request("SET 1").is_err());
        assert!(parse_request("SET a b").is_err());
        assert!(parse_request("GET 1 2").is_err());
        assert!(parse_request("FROB 1").is_err());
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Ok,
            Response::Value(42),
            Response::Miss,
            Response::Deleted(7),
            Response::Range(vec![(1, 2), (3, 4)]),
            Response::Range(vec![]),
            Response::Len(100),
            Response::Bye,
        ] {
            let line = format_response(&resp);
            assert_eq!(parse_response(&line), Ok(resp), "line {line}");
        }
    }

    #[test]
    fn err_response_keeps_message() {
        let line = format_response(&Response::Err("bad key".into()));
        assert_eq!(parse_response(&line), Ok(Response::Err("bad key".into())));
    }

    #[test]
    fn err_response_tolerates_surrounding_whitespace() {
        // Every other tag tolerates leading whitespace via
        // split_ascii_whitespace; ERR must recover the same message.
        for line in [
            "ERR bad key",
            "  ERR bad key",
            "\tERR bad key  ",
            " ERR  bad key ",
        ] {
            assert_eq!(
                parse_response(line),
                Ok(Response::Err("bad key".into())),
                "line {line:?}"
            );
        }
        // A bare tag yields an empty message, not a panic or garbled slice.
        assert_eq!(parse_response("  ERR"), Ok(Response::Err(String::new())));
    }

    #[test]
    fn responses_tolerate_leading_whitespace() {
        assert_eq!(parse_response("  OK"), Ok(Response::Ok));
        assert_eq!(parse_response("\tVALUE 9 "), Ok(Response::Value(9)));
        assert_eq!(parse_response(" LEN 3"), Ok(Response::Len(3)));
    }

    #[test]
    fn scan_count_boundary() {
        // At the limit: accepted.
        assert_eq!(
            parse_request(&format!("SCAN 0 {MAX_SCAN_COUNT}")),
            Ok(Request::Scan(0, MAX_SCAN_COUNT))
        );
        // One past the limit: rejected with a distinguishable error.
        let err = parse_request(&format!("SCAN 0 {}", MAX_SCAN_COUNT + 1));
        assert!(
            matches!(&err, Err(e) if e.contains("count exceeds max")),
            "got {err:?}"
        );
    }
}
