//! A raw keep-alive HTTP/1.1 client for the front door's tests, shared
//! by path:
//!
//! ```ignore
//! #[path = "support/client.rs"]
//! mod client;
//! ```

use htvm_serve::http::wire::WireError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A raw HTTP response: status line code, headers (lowercased names)
/// and body text.
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn error(&self) -> WireError {
        serde_json::from_str(&self.body).expect("error bodies parse as WireError")
    }
}

/// A keep-alive HTTP/1.1 client over one raw `TcpStream`, hand-framing
/// requests so the tests exercise the server's real wire behavior.
pub struct Client {
    pub stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("front door accepts");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout sets");
        Client { stream }
    }

    pub fn send_raw(&mut self, raw: &[u8]) -> Response {
        self.stream.write_all(raw).expect("request writes");
        self.read_response()
    }

    /// Sends one request with `body` (JSON text or a raw model upload).
    pub fn request_bytes(&mut self, method: &str, path: &str, body: &[u8]) -> Response {
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        self.send_raw(&raw)
    }

    pub fn read_response(&mut self) -> Response {
        let mut reader = BufReader::new(&mut self.stream);
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .expect("status line reads");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line reads");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header has a colon");
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_owned());
            if name == "content-length" {
                content_length = value.parse().expect("Content-Length parses");
            }
            headers.push((name, value));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body reads in full");
        Response {
            status,
            headers,
            body: String::from_utf8(body).expect("JSON bodies are UTF-8"),
        }
    }
}
