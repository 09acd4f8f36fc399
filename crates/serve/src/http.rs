//! Hand-rolled HTTP/1.1 subset over `std::net` — exactly what the serving
//! plane needs and nothing more: request-line + headers + `Content-Length`
//! bodies, keep-alive by default, no chunked encoding, no TLS.
//!
//! The framing is deliberately strict (bounded line lengths, bounded header
//! count, bounded body size); anything outside the subset closes the
//! connection rather than guessing.

use std::io::{self, BufRead, Read, Write};

/// Maximum accepted request-line or header-line length in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum accepted header count per request.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted request body in bytes (a 32-elems-per-axis order-2
/// mesh frame is ~6.6 MB; 64 MB leaves ample headroom).
pub const MAX_BODY: usize = 64 * 1024 * 1024;
/// Body bytes reserved before any has arrived: a larger body's buffer
/// grows with the bytes received, never ahead of them from
/// `Content-Length`.
const BODY_CHUNK: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query parsing).
    pub path: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of one read on a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was framed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one CRLF- (or LF-) terminated line of at most [`MAX_LINE`] bytes;
/// `None` on a clean close before the first byte. Shared with the client
/// side of the protocol ([`crate::client`]).
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(invalid("connection closed mid-line"))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| invalid("non-UTF-8 header line"));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(invalid("header line too long"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Frame one request off a keep-alive connection, waiting as long as its
/// bytes take to arrive: the server sets no read timeout, and ends a
/// parked read by shutting the connection's read half, which reads as
/// [`ReadOutcome::Closed`] between requests and as an error inside one.
pub fn read_request(r: &mut impl BufRead) -> io::Result<ReadOutcome> {
    let line = match read_line(r)? {
        None => return Ok(ReadOutcome::Closed),
        Some(l) if l.is_empty() => return Err(invalid("empty request line")),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(invalid("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| invalid("connection closed in headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let body = read_body(r, &headers)?;
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Read the body a message's `Content-Length` header announces (none
/// without one), as its bytes arrive: a request and a response are framed
/// alike.
///
/// # Errors
///
/// `InvalidData` for a malformed length or one above [`MAX_BODY`],
/// `UnexpectedEof` when the stream ends before the body does.
pub(crate) fn read_body(r: &mut impl BufRead, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    let len: usize = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v.parse().map_err(|_| invalid("malformed content-length"))?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(invalid("body too large"));
    }
    let mut body = Vec::with_capacity(len.min(BODY_CHUNK));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }
    Ok(body)
}

/// One response to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra response headers (name, value).
    pub extra: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A binary (`application/octet-stream`) response.
    pub fn octets(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: "application/octet-stream",
            extra: Vec::new(),
            body,
        }
    }

    /// Attach an extra header (builder-style).
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.extra.push((name.to_string(), value));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `resp` onto `w` (HTTP/1.1 framing with explicit
/// `Content-Length` and `Connection` headers). Does **not** flush: the
/// connection loop batches a pipelined burst of responses through one
/// buffered writer and flushes once per burst.
pub fn write_response(w: &mut impl Write, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)
}

/// Encode a row-major `f64` matrix as the little-endian wire frame used by
/// `/predict` requests and responses.
pub fn encode_f64(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode the little-endian `f64` wire frame; `None` when the byte count
/// is not a multiple of 8.
pub fn decode_f64(bytes: &[u8]) -> Option<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_le_bytes(b)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_request_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\nX-Extra: v\r\n\r\nabcd";
        let mut r = BufReader::new(&raw[..]);
        match read_request(&mut r).expect("framing failed") {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/predict");
                assert_eq!(req.header("x-extra"), Some("v"));
                assert_eq!(req.body, b"abcd");
                assert!(!req.wants_close());
            }
            other => panic!("expected a request, got {other:?}"),
        }
    }

    /// A stream that records the largest buffer a read asked it to fill.
    struct Recorded<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl io::Read for Recorded<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    /// A request that claims the largest body allowed and sends 10 bytes
    /// fails as a truncated stream, without a buffer sized from its claim.
    #[test]
    fn a_claimed_body_is_read_as_it_arrives() {
        let raw = format!("POST /predict HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n0123456789");
        let mut r = BufReader::new(Recorded {
            bytes: raw.as_bytes(),
            largest: 0,
        });
        let err = read_request(&mut r).expect_err("a truncated body must not frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let largest = r.get_ref().largest;
        assert!(largest <= BODY_CHUNK, "asked for {largest} bytes");
    }

    #[test]
    fn clean_close_between_requests() {
        let raw = b"";
        let mut r = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut r).expect("framing failed"),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn f64_frame_round_trips_bit_exactly() {
        let vals = [0.0, -0.0, 1.5e-300, f64::MAX, -7.25];
        let decoded = decode_f64(&encode_f64(&vals)).expect("multiple of 8");
        for (a, b) in vals.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_f64(&[1, 2, 3]).is_none());
    }

    #[test]
    fn response_serialization_includes_extras() {
        let mut out = Vec::new();
        let resp = Response::json(503, "{}".to_string()).with_header("Retry-After", "1".into());
        write_response(&mut out, &resp, false).expect("write failed");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
