//! Minimal blocking HTTP/1.1 client for the serving plane — shared by the
//! integration tests, the `serve_client` example, and `sysbench`'s load
//! generator.
//!
//! Intentionally tiny: keep-alive requests over one `TcpStream`, response
//! framing by `Content-Length` only. `/predict` bodies are raw `f64`
//! frames, which keeps served ≡ in-process checkable bit for bit; the few
//! other fields a client needs are read from headers (`X-Model-Step`,
//! `X-N-Nodes`, ...), so nothing here parses JSON.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::{read_body, read_line};

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One keep-alive client connection.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connect to `addr`, retrying for up to `wait` (covers the race of a
    /// load generator starting before the server finished binding).
    pub fn connect_retry(addr: SocketAddr, wait: Duration) -> io::Result<HttpClient> {
        let deadline = Instant::now() + wait;
        loop {
            match HttpClient::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Issue one request and read the full response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.send_request(method, path, body)?;
        self.read_response()
    }

    /// Write one request without waiting for its response. Pairing `n`
    /// sends with `n` [`HttpClient::read_response`] calls pipelines the
    /// connection (responses come back in request order), which is how
    /// `sysbench` measures saturation throughput without a client
    /// round-trip on every request's critical path.
    pub fn send_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: cgnn-serve\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()
    }

    /// Read the next response off the connection (see
    /// [`HttpClient::send_request`]). The body is read as its bytes arrive,
    /// up to [`MAX_BODY`](crate::http::MAX_BODY).
    ///
    /// # Errors
    ///
    /// `InvalidData` for a malformed status line, header or
    /// `Content-Length`, or a length above `MAX_BODY`; any I/O error of
    /// the connection.
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let status_line = read_line(&mut self.reader)?
            .ok_or_else(|| invalid("connection closed before status line"))?;
        // "HTTP/1.1 200 OK"
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut self.reader)?
                .ok_or_else(|| invalid("connection closed in headers"))?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid("malformed response header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let body = read_body(&mut self.reader, &headers)?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Answer one request on a fresh listener with `head` and hang up.
    fn fake_server(head: &'static str) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = [0u8; 256];
            let _ = conn.read(&mut request);
            conn.write_all(head.as_bytes()).unwrap();
        });
        (addr, server)
    }

    /// A server's `Content-Length` is not trusted: one past `MAX_BODY` or
    /// one that is not a number fails the response, allocating nothing.
    #[test]
    fn a_bad_content_length_is_invalid_data() {
        for head in [
            "HTTP/1.1 200 OK\r\nContent-Length: 1152921504606846976\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nxyz",
        ] {
            let (addr, server) = fake_server(head);
            let err = HttpClient::connect(addr)
                .unwrap()
                .request("GET", "/health", &[])
                .unwrap_err();
            server.join().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{head:?}: {err}");
        }
    }
}
