//! HTTP/1.1 request framing and response writing, dependency-free.
//!
//! The front door speaks the small, boring subset of HTTP/1.1 a JSON
//! compile API needs: request line + headers + `Content-Length` body,
//! keep-alive by default (1.0 opts in, 1.1 opts out), no chunked
//! transfer coding, no trailers, no upgrades. Everything a client can
//! get wrong maps to a typed [`FrameError`] that the server renders as
//! a JSON error body with the matching status code.

use std::io::{BufRead, Read, Write};

/// Upper bound on the request line plus headers, together (a defense
/// against header floods; generous for a JSON API). Enforced while
/// reading: a peer that never sends a newline is cut off at the cap.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target as received (path + optional query).
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The request path, with any query string stripped.
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Why a request could not be framed. Each variant carries the HTTP
/// status the server answers with.
#[derive(Debug)]
pub enum FrameError {
    /// The request line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// `Content-Length` was present but not a number.
    BadContentLength(String),
    /// The declared body exceeds the configured limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// Only HTTP/1.0 and HTTP/1.1 are spoken here.
    UnsupportedVersion(String),
    /// `Transfer-Encoding` (chunked uploads) is not supported.
    UnsupportedTransferEncoding,
    /// The head section exceeded the 64 KiB `MAX_HEAD_BYTES` cap.
    HeadTooLarge,
    /// The peer closed mid-request (a clean close *between* requests is
    /// not an error and is reported as `Ok(None)`).
    UnexpectedEof,
    /// Underlying socket error.
    Io(std::io::Error),
}

impl FrameError {
    /// The HTTP status code this framing error answers with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            FrameError::BodyTooLarge { .. } | FrameError::HeadTooLarge => 413,
            FrameError::UnsupportedVersion(_) => 505,
            FrameError::UnsupportedTransferEncoding => 501,
            FrameError::UnexpectedEof | FrameError::Io(_) => 400,
            _ => 400,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadRequestLine(line) => write!(f, "malformed request line {line:?}"),
            FrameError::BadHeader(line) => write!(f, "malformed header {line:?}"),
            FrameError::BadContentLength(v) => write!(f, "bad Content-Length {v:?}"),
            FrameError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            FrameError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported; send Content-Length")
            }
            FrameError::HeadTooLarge => write!(f, "request head too large"),
            FrameError::UnexpectedEof => write!(f, "connection closed mid-request"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one request off the wire. `Ok(None)` is a clean close between
/// requests (keep-alive peer went away); everything else that isn't a
/// full request is a [`FrameError`].
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Option<Request>, FrameError> {
    let mut head_bytes = 0usize;
    let request_line = match read_line(reader, &mut head_bytes)? {
        None => return Ok(None),
        Some(line) if line.is_empty() => match read_line(reader, &mut head_bytes)? {
            // Tolerate one stray CRLF between pipelined requests.
            None => return Ok(None),
            Some(line) if line.is_empty() => return Err(FrameError::BadRequestLine(line)),
            Some(line) => line,
        },
        Some(line) => line,
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_owned(), t.to_owned(), v.to_owned()),
        _ => return Err(FrameError::BadRequestLine(request_line)),
    };
    let http11 = match version.as_str() {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(FrameError::UnsupportedVersion(version)),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_bytes)?.ok_or(FrameError::UnexpectedEof)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| FrameError::BadHeader(line.clone()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request = Request {
        method,
        target,
        http11,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(FrameError::UnsupportedTransferEncoding);
    }
    let declared = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| FrameError::BadContentLength(v.to_owned()))?,
    };
    if declared > max_body_bytes {
        return Err(FrameError::BodyTooLarge {
            declared,
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; declared];
    if declared > 0 {
        std::io::Read::read_exact(reader, &mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                FrameError::UnexpectedEof
            } else {
                FrameError::Io(e)
            }
        })?;
    }
    Ok(Some(Request { body, ..request }))
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the
/// terminator. `None` on clean EOF at a line boundary. Reads at most what
/// is left of the head budget, so the head never consumes more than
/// [`MAX_HEAD_BYTES`] however long the line.
fn read_line(
    reader: &mut impl BufRead,
    head_bytes: &mut usize,
) -> Result<Option<String>, FrameError> {
    let budget = MAX_HEAD_BYTES - *head_bytes;
    let mut bytes = Vec::new();
    let n = reader
        .by_ref()
        .take(budget as u64)
        .read_until(b'\n', &mut bytes)
        .map_err(FrameError::Io)?;
    if n == budget && bytes.last() != Some(&b'\n') {
        return Err(FrameError::HeadTooLarge);
    }
    if n == 0 {
        return Ok(None);
    }
    *head_bytes += n;
    let mut line = String::from_utf8(bytes)
        .map_err(|e| FrameError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// The reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes one response with a JSON body and correct framing headers.
/// `extra_headers` are emitted verbatim (e.g. `Retry-After`).
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &[u8],
    extra_headers: &[(&str, String)],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(writer, "HTTP/1.1 {status} {}\r\n", reason(status))?;
    write!(writer, "Content-Type: application/json\r\n")?;
    write!(writer, "Content-Length: {}\r\n", body.len())?;
    write!(
        writer,
        "Connection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, FrameError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1 << 20)
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let req = parse("POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nX-Tenant: acme\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/compile");
        assert!(req.http11);
        assert_eq!(req.header("x-tenant"), Some("acme"));
        assert_eq!(req.header("X-TENANT"), Some("acme"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn keep_alive_semantics_per_version() {
        let close11 = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close11.keep_alive());
        let plain10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!plain10.keep_alive(), "HTTP/1.0 defaults to close");
        let ka10 = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(ka10.keep_alive());
    }

    #[test]
    fn clean_eof_is_none_and_midstream_eof_is_error() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(FrameError::UnexpectedEof)
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: x"),
            Err(FrameError::UnexpectedEof)
        ));
    }

    #[test]
    fn typed_errors_map_to_statuses() {
        assert_eq!(parse("nonsense\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse("GET / HTTP/2\r\n\r\n").unwrap_err().status(), 505);
        assert_eq!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status(),
            501
        );
        let big = read_request(
            &mut BufReader::new("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n".as_bytes()),
            10,
        );
        assert!(matches!(
            big,
            Err(FrameError::BodyTooLarge {
                declared: 100,
                limit: 10
            })
        ));
        assert_eq!(big.unwrap_err().status(), 413);
    }

    /// Counts the bytes a reader hands out.
    struct Counting<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn head_cap_is_enforced_while_reading() {
        for prefix in [&b""[..], b"GET / HTTP/1.1\r\nX-Flood: "] {
            let flood = prefix
                .iter()
                .copied()
                .chain(std::iter::repeat(b'a'))
                .take(16 << 20)
                .collect::<Vec<u8>>();
            let mut reader = BufReader::new(Counting {
                inner: &flood[..],
                consumed: 0,
            });
            let err = read_request(&mut reader, 1 << 20).unwrap_err();
            assert!(matches!(err, FrameError::HeadTooLarge), "{err:?}");
            let consumed = reader.get_ref().consumed;
            assert!(
                consumed <= MAX_HEAD_BYTES + reader.capacity(),
                "a newline-free head consumed {consumed} bytes"
            );
        }
        // A head of exactly the cap still frames.
        let line = "GET / HTTP/1.1\r\n";
        let pad = MAX_HEAD_BYTES - line.len() - "X: \r\n\r\n".len();
        let raw = format!("{line}X: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(raw.len(), MAX_HEAD_BYTES);
        assert!(parse(&raw).unwrap().is_some());
        let raw = format!("{line}X: {}\r\n\r\n", "a".repeat(pad + 1));
        assert!(matches!(parse(&raw), Err(FrameError::HeadTooLarge)));
    }

    #[test]
    fn pipelined_requests_frame_individually() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut reader = BufReader::new(raw.as_bytes());
        let a = read_request(&mut reader, 1 << 20).unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.path()), ("GET", "/a"));
        let b = read_request(&mut reader, 1 << 20).unwrap().unwrap();
        assert_eq!((b.method.as_str(), b.path()), ("POST", "/b"));
        assert_eq!(b.body, b"hi");
        assert!(read_request(&mut reader, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn responses_are_framed_with_length_and_connection() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            b"{\"a\":1}",
            &[("Retry-After", "1".into())],
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n{\"a\":1}"));
    }
}
