//! A deliberately small HTTP/1.1 layer for `sweepd` — just enough protocol
//! for a request/streaming-response RPC between the figure binaries and the
//! daemon, over `std::net` alone.
//!
//! Scope (and non-goals): one request per connection (`Connection: close`),
//! `Content-Length`-framed request bodies, EOF-delimited response bodies
//! (so progress can stream as JSONL without chunked encoding), no TLS, no
//! keep-alive, no percent-decoding. Limits on the request line, header
//! count, and body size keep a confused or hostile peer from ballooning the
//! daemon's memory.

use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, in bytes: every byte
/// before the LF counts, carriage returns included.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Most bytes read for a request's head: the request line, the headers and
/// the blank line that ends them, every byte counted (carriage returns
/// too). A request therefore consumes at most `MAX_HEAD + MAX_BODY` bytes.
const MAX_HEAD: usize = (MAX_HEADERS + 1) * (MAX_LINE + 2);
/// Largest accepted request body (a full 32-workload × 6-mode grid request
/// is under 2 KiB; 1 MiB is "someone pointed the wrong tool at this port").
const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/v1/sweep`.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes (empty if absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one line up to CRLF (or bare LF), without the terminator or any
/// carriage return. Every byte read counts against the head's remaining
/// `budget`, and every byte before the LF against `MAX_LINE`.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut buf = Vec::new();
    for read in 1.. {
        if *budget == 0 {
            return Err(bad("request head too large"));
        }
        let mut byte = [0u8; 1];
        if r.read(&mut byte)? == 0 {
            if buf.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full request line",
                ));
            }
            break;
        }
        *budget -= 1;
        match byte[0] {
            b'\n' => break,
            b'\r' => {}
            b => buf.push(b),
        }
        if read > MAX_LINE {
            return Err(bad("request line or header too long"));
        }
    }
    String::from_utf8(buf).map_err(|_| bad("request is not UTF-8"))
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// `InvalidData` on anything that is not a well-formed bounded HTTP/1.1
/// request; plain I/O errors propagate.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Request> {
    let mut budget = MAX_HEAD;
    let line = read_line(r, &mut budget)?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let mut lengths = req.headers.iter().filter(|(k, _)| k == "content-length");
    if let Some((_, len)) = lengths.next() {
        if lengths.any(|(_, other)| other != len) {
            return Err(bad("conflicting Content-Length headers"));
        }
        if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad("bad Content-Length"));
        }
        let len: usize = len.parse().map_err(|_| bad("bad Content-Length"))?;
        if len > MAX_BODY {
            return Err(bad("request body too large"));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        req.body = body;
    }
    Ok(req)
}

/// Writes a response head for an EOF-delimited streaming body (the JSONL
/// progress stream): no `Content-Length`, `Connection: close` marks the
/// body's end when the socket closes.
pub fn write_stream_head(w: &mut impl Write, content_type: &str) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n"
    )
}

/// Writes a complete response with a known body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_full(w, status, reason, "", content_type, body)
}

/// [`write_response`] with `extra` header lines (each ending in CRLF).
fn write_full(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\n{extra}Content-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)
}

fn error_body(msg: &str) -> String {
    helios::Json::Obj(vec![(
        "error".to_string(),
        helios::Json::Str(msg.to_string()),
    )])
    .to_string()
}

/// Writes a JSON error response: `{"error": "<msg>"}`.
pub fn write_error(w: &mut impl Write, status: u16, reason: &str, msg: &str) -> io::Result<()> {
    write_response(
        w,
        status,
        reason,
        "application/json",
        error_body(msg).as_bytes(),
    )
}

/// Writes the overload answer: `503` with `Retry-After: 1` and a JSON
/// error.
pub fn write_unavailable(w: &mut impl Write, msg: &str) -> io::Result<()> {
    let body = error_body(msg);
    write_full(
        w,
        503,
        "Service Unavailable",
        "Retry-After: 1\r\n",
        "application/json",
        body.as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET / SPDY/3\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"[..],
        ] {
            assert!(read_request(&mut &raw[..]).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let same = b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok";
        assert_eq!(read_request(&mut &same[..]).unwrap().body, b"ok");
        let differ = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok!";
        assert!(read_request(&mut &differ[..]).is_err());
    }

    #[test]
    fn truncated_body_is_an_error_not_a_hang() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_request(&mut &raw[..]).is_err());
    }

    #[test]
    fn response_heads_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "Not Found", "application/json", b"{}").unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_stream_head(&mut out, "application/x-ndjson").unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Connection: close"));
        assert!(!s.contains("Content-Length"));
    }

    /// Bytes `read_request` took from `raw`, and whether it parsed.
    fn consume(raw: &[u8]) -> (usize, io::Result<Request>) {
        let mut rest = raw;
        let parsed = read_request(&mut rest);
        (raw.len() - rest.len(), parsed)
    }

    /// The parser's contract on one input: no panic, a body within
    /// `MAX_BODY`, and at most `MAX_HEAD + MAX_BODY` bytes consumed — at
    /// most `MAX_HEAD` beyond the body when it parses.
    fn check_bounded(raw: &[u8], what: &str) {
        let (used, parsed) = std::panic::catch_unwind(|| consume(raw))
            .unwrap_or_else(|_| panic!("{what}: read_request panicked on {raw:?}"));
        assert!(
            used <= MAX_HEAD + MAX_BODY,
            "{what}: consumed {used} bytes of {}",
            raw.len()
        );
        if let Ok(req) = parsed {
            assert!(
                req.body.len() <= MAX_BODY,
                "{what}: body of {}",
                req.body.len()
            );
            assert!(
                used <= MAX_HEAD + req.body.len(),
                "{what}: head of {used} bytes"
            );
        }
    }

    /// Inputs the fuzzer broke the parser with, kept by name. Each fails
    /// in the head, so it may consume at most `MAX_HEAD` bytes.
    #[test]
    fn pinned_crashers_stay_bounded() {
        let head_error = |raw: &[u8], what: &str| {
            check_bounded(raw, what);
            let (used, parsed) = consume(raw);
            assert!(parsed.is_err(), "{what} parsed");
            assert!(used <= MAX_HEAD, "{what}: consumed {used} bytes");
        };
        // Carriage returns were never counted, so a peer sending only `\r`
        // held a handler for as long as it kept sending.
        head_error(&vec![b'\r'; 2 * (MAX_HEAD + MAX_BODY)], "cr_flood");
        let mut cr_header = b"GET / HTTP/1.1\r\nX: ".to_vec();
        cr_header.extend(vec![b'\r'; 2 * (MAX_HEAD + MAX_BODY)]);
        head_error(&cr_header, "cr_header");
        // 66 maximal lines (request line, 64 headers, one too many) were
        // read in full before "too many headers".
        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            flood.extend(format!("X-{i:03}: ").bytes());
            flood.extend(vec![b'a'; MAX_LINE - 8]);
            flood.extend(b"\r\n");
        }
        head_error(&flood, "max_line_header_flood");
    }

    /// Seeded mutation fuzz of `read_request` over valid requests: byte
    /// flips, truncations, splices, runs of `\r`, huge and signed
    /// `Content-Length`s, long lines and header floods.
    #[test]
    fn mutated_requests_are_bounded_and_never_panic() {
        use helios_prng::{Rng, SeedableRng, StdRng};
        let body = r#"{"schema":"helios-sweep-req-v1","workloads":["crc32"],"modes":["Helios"]}"#;
        let seeds: Vec<Vec<u8>> = vec![
            b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            format!(
                "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
            format!(
                "POST /v1/sweep HTTP/1.0\ncontent-length: {}\n\n{body}",
                body.len()
            )
            .into_bytes(),
        ];
        let lengths = [
            "-1".to_string(),
            "+4".to_string(),
            " 4".to_string(),
            "18446744073709551616".to_string(),
            "99999999999999999999999999".to_string(),
            MAX_BODY.to_string(),
            (MAX_BODY + 1).to_string(),
            "4, 5".to_string(),
        ];
        let mut rng = StdRng::seed_from_u64(0x4854_5450);
        let mut parsed = 0;
        for case in 0..3000 {
            let mut raw = seeds[rng.gen_range(0..seeds.len())].clone();
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..=raw.len());
                match rng.gen_range(0..7u32) {
                    0 if !raw.is_empty() => {
                        let i = rng.gen_range(0..raw.len());
                        raw[i] ^= rng.gen_range(1..=255u8);
                    }
                    1 => raw.truncate(at),
                    2 => {
                        let donor = &seeds[rng.gen_range(0..seeds.len())];
                        let from = rng.gen_range(0..donor.len());
                        let to = rng.gen_range(from..=donor.len());
                        raw.splice(at..at, donor[from..to].iter().copied());
                    }
                    3 => {
                        let n = [1, 2, MAX_LINE, MAX_HEAD + MAX_BODY + 1][rng.gen_range(0..4usize)];
                        raw.splice(at..at, std::iter::repeat_n(b'\r', n));
                    }
                    4 => {
                        let len = &lengths[rng.gen_range(0..lengths.len())];
                        let line = format!("Content-Length: {len}\r\n");
                        let head_end = raw.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                        raw.splice(head_end..head_end, line.bytes());
                    }
                    5 => {
                        let n = [MAX_HEADERS - 1, MAX_HEADERS, MAX_HEADERS + 1, 500]
                            [rng.gen_range(0..4usize)];
                        let flood = "X-Flood: 1\r\n".repeat(n);
                        let head_end = raw.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                        raw.splice(head_end..head_end, flood.bytes());
                    }
                    _ => {
                        let n = [MAX_LINE - 1, MAX_LINE, MAX_LINE + 1][rng.gen_range(0..3usize)];
                        raw.splice(at..at, std::iter::repeat_n(b'a', n));
                    }
                }
            }
            check_bounded(&raw, &format!("case {case}"));
            parsed += usize::from(consume(&raw).1.is_ok());
        }
        // Not every mutation is fatal: the fuzzer must reach the success
        // path too, or it is only testing the first line.
        assert!(
            parsed > 100,
            "only {parsed} of 3000 mutated requests parsed"
        );
    }
}
