//! A deliberately minimal HTTP/1.1 layer over `std::net`.
//!
//! The build environment vendors all dependencies offline, so the
//! service speaks just enough HTTP itself: request line, headers,
//! `Content-Length` bodies, `Connection: close` responses. That subset
//! is exactly what `curl`, the CI harness and the bench client need —
//! no chunked encoding, no keep-alive, no TLS.
//!
//! Every request is read under hard limits, so one client cannot grow
//! server memory or pin a connection thread: the request line plus
//! headers are capped at [`MAX_HEAD`] bytes, the body at [`MAX_BODY`],
//! and the whole request must arrive within the caller's deadline.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers.
pub const MAX_HEAD: u64 = 64 << 10;
/// Upper bound on accepted request bodies (a manifest, not a corpus).
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased).
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// The body, when `Content-Length` announced one.
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_request`] produced no request.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed, missed the deadline, or sent something that is
    /// not an HTTP request: there is nobody worth answering.
    Dropped,
    /// The request line plus headers exceed [`MAX_HEAD`] (answer 431).
    HeadTooLarge,
    /// `Content-Length` announces more than [`MAX_BODY`] (answer 413).
    BodyTooLarge,
}

/// Reads from a socket under one deadline for the whole request, however
/// the client splits it into packets.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Read one request from the stream, which must arrive in full within
/// `timeout`.
///
/// # Errors
///
/// [`RequestError::HeadTooLarge`] and [`RequestError::BodyTooLarge`] when
/// a limit is exceeded; [`RequestError::Dropped`] for socket errors, the
/// deadline, an early close and malformed requests.
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, RequestError> {
    let source = DeadlineReader {
        stream,
        deadline: Instant::now() + timeout,
    };
    let mut head = BufReader::new(source).take(MAX_HEAD);
    let mut next_line = |line: &mut String| match head.read_line(line) {
        Ok(_) if line.ends_with('\n') => Ok(()),
        Ok(_) if head.limit() == 0 => Err(RequestError::HeadTooLarge),
        _ => Err(RequestError::Dropped),
    };
    let mut line = String::new();
    next_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(RequestError::Dropped);
    };
    let method = method.to_ascii_uppercase();
    let (path, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_raw
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut content_length = 0_usize;
    loop {
        let mut header = String::new();
        next_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::BodyTooLarge);
    }
    let mut body = vec![0_u8; content_length];
    head.into_inner()
        .read_exact(&mut body)
        .map_err(|_| RequestError::Dropped)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Write one `Connection: close` response with a JSON (or plain) body.
///
/// # Errors
///
/// Propagates socket I/O errors.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// A tiny client for tests and the bench harness: one request, one
/// response, connection closed.
///
/// Returns `(status, body)`.
///
/// # Errors
///
/// Connection or protocol failures, as a human-readable string.
pub fn client_request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let request = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {response:?}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head:?}"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_and_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream, Duration::from_secs(30)).unwrap();
            assert_eq!(request.method, "POST");
            assert_eq!(request.path, "/v1/jobs");
            assert_eq!(request.query_param("wait"), Some("5"));
            assert_eq!(request.body, b"[run]\n");
            respond(
                &mut stream,
                429,
                "Too Many Requests",
                &[("Retry-After", "2".to_string())],
                "application/json",
                "{\"error\":\"queue full\"}",
            )
            .unwrap();
        });
        let (status, body) = client_request(&addr, "POST", "/v1/jobs?wait=5", "[run]\n").unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, "{\"error\":\"queue full\"}");
        server.join().unwrap();
    }
}
