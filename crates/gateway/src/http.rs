//! A minimal HTTP/1.1 server-side codec on blocking `std::net` sockets.
//!
//! The offline-build constraint rules out hyper/axum, and the gateway's
//! needs are narrow: parse one request (method, target, headers, an
//! optional `Content-Length` body), write one response — either a buffered
//! body or an unbounded stream (SSE/NDJSON) terminated by closing the
//! connection. Each connection carries exactly one request; every response
//! says `Connection: close`, which HTTP/1.1 clients must honor. That keeps
//! the implementation auditable.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Largest accepted request body (a submitted model is at most a few
/// hundred kilobytes of ONNX-style JSON; 8 MiB leaves generous headroom).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted request head: the request line plus every header
/// line, line terminators included. It bounds each line too.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Query parameters in order of appearance, un-deduplicated.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The bearer token of an `Authorization: Bearer <key>` header.
    pub fn bearer_token(&self) -> Option<&str> {
        let auth = self.header("authorization")?;
        let (scheme, rest) = auth.split_once(' ')?;
        if scheme.eq_ignore_ascii_case("bearer") {
            Some(rest.trim())
        } else {
            None
        }
    }
}

/// Why a request could not be parsed (maps to a 4xx response).
#[derive(Debug)]
pub enum HttpParseError {
    /// The peer closed before sending a full request.
    ConnectionClosed,
    /// Malformed request line, header, or body framing, or a request head
    /// longer than 64 KiB.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
    },
    /// Transport failure mid-request.
    Io(io::Error),
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::ConnectionClosed => write!(f, "connection closed mid-request"),
            HttpParseError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpParseError::BodyTooLarge { declared } => {
                write!(
                    f,
                    "request body of {declared} bytes exceeds {MAX_BODY_BYTES}"
                )
            }
            HttpParseError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Reads one CRLF- (or LF-) terminated line, charging every byte to
/// `budget`, the bytes the request head has left.
fn read_crlf_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpParseError> {
    let mut line = Vec::new();
    loop {
        if *budget == 0 {
            return Err(HttpParseError::Malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        *budget -= 1;
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(HttpParseError::ConnectionClosed)
            }
            Err(e) => return Err(HttpParseError::Io(e)),
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpParseError::Malformed("non-UTF-8 header line".into()));
        }
        line.push(byte[0]);
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() + 1 && i + 2 < bytes.len() + 1 => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(byte) => {
                        out.push(byte);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(pair), String::new()),
        })
        .collect()
}

/// Reads and parses one request from `reader`.
///
/// # Errors
///
/// [`HttpParseError`] — [`ConnectionClosed`](HttpParseError::ConnectionClosed)
/// when the peer sent nothing, otherwise the malformation or transport
/// failure.
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<HttpRequest, HttpParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_crlf_line(reader, &mut budget)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpParseError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpParseError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, raw)) => (path.to_string(), parse_query(raw)),
        None => (target.to_string(), Vec::new()),
    };
    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpParseError::Malformed(format!("bad header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut request = HttpRequest {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if let Some(length) = request.header("content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| HttpParseError::Malformed("bad Content-Length".into()))?;
        if length > MAX_BODY_BYTES {
            return Err(HttpParseError::BodyTooLarge { declared: length });
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpParseError::ConnectionClosed
            } else {
                HttpParseError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(request)
}

/// The standard reason phrase of the status codes the gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one buffered response with a `Content-Length` and closes framing
/// (`Connection: close`). `extra_headers` are emitted verbatim.
///
/// # Errors
///
/// Transport failures (the peer usually hung up).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason_phrase(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes the header of a streamed response (no `Content-Length`; the body
/// runs until the connection closes, which `Connection: close` makes
/// well-formed HTTP/1.1 framing).
///
/// # Errors
///
/// Transport failures.
pub fn write_stream_header(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
        reason_phrase(status)
    )?;
    stream.flush()
}

/// Escapes a string for a Prometheus label value (backslash, quote,
/// newline).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// What [`roundtrip`] returns on success: status code, lowercased header
/// map, and the raw response body.
pub type RoundtripResponse = (u16, HashMap<String, String>, Vec<u8>);

/// A tiny client-side helper: sends `request` (already HTTP-framed) to a
/// freshly-connected stream and returns `(status, headers, body)`. Used by
/// the gateway's own tests; not a general HTTP client.
///
/// # Errors
///
/// A message describing the transport or framing failure.
pub fn roundtrip(addr: &str, request: &[u8]) -> Result<RoundtripResponse, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(request)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&response[..header_end])
        .map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((status, headers, response[header_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<HttpRequest, HttpParseError> {
        read_request(&mut BufReader::new(Cursor::new(raw.as_bytes().to_vec())))
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let request = parse(
            "POST /v1/jobs?wait=0&x=a%20b HTTP/1.1\r\nHost: h\r\nAuthorization: Bearer k-1\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/jobs");
        assert_eq!(request.query_param("wait"), Some("0"));
        assert_eq!(request.query_param("x"), Some("a b"));
        assert_eq!(request.bearer_token(), Some("k-1"));
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let request = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.body.is_empty());
        assert!(request.bearer_token().is_none());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(matches!(parse(""), Err(HttpParseError::ConnectionClosed)));
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(HttpParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(HttpParseError::Malformed(_))
        ));
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(
            parse(&huge),
            Err(HttpParseError::Malformed(_) | HttpParseError::BodyTooLarge { .. })
        ));
        // Many short header lines: each is small, but the head is ~100 KB.
        let padded = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: 0123456789012345678901234567890123456789\r\n".repeat(2000)
        );
        assert!(matches!(
            parse(&padded),
            Err(HttpParseError::Malformed(detail)) if detail.contains("request head exceeds")
        ));
    }

    #[test]
    fn responses_frame_with_content_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "application/json", &[], b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn retry_after_travels_as_an_extra_header() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }

    #[test]
    fn prometheus_label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
