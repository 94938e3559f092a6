//! A deliberately minimal HTTP/1.1 layer for the planner service.
//!
//! The server speaks exactly what its clients (curl, CI scripts, the
//! soak test) need: one request per connection (`Connection: close`),
//! GET targets with query strings, JSONL response bodies. Keeping the
//! parser ~100 lines means the robustness story lives in the server's
//! admission control, not in a protocol stack; anything outside this
//! subset gets a structured 400, never a hang. [`read_request`] reads at
//! most [`MAX_HEAD_BYTES`]; how long it may take is the caller's reader's
//! business (the server reads through a per-request deadline).

use std::io::{BufRead, Read, Take, Write};

/// The most bytes [`read_request`] reads for a request line plus its
/// headers. A head the cap cuts off is malformed.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request line + headers (bodies are not consumed: every
/// planner endpoint is a GET).
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`).
    pub method: String,
    /// Path component of the target (before `?`).
    pub path: String,
    /// Decoded `key=value` query parameters, in order.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// The first value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one request from `reader` (request line + headers;
/// stops at the blank line), consuming at most [`MAX_HEAD_BYTES`].
///
/// # Errors
///
/// `Ok(None)` for a cleanly closed idle connection; `Err` with a
/// human-readable reason for anything malformed (the caller answers
/// 400), a head over [`MAX_HEAD_BYTES`], or an IO/timeout failure.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, String> {
    let mut head = reader.take(MAX_HEAD_BYTES as u64);
    let mut line = String::new();
    if read_head_line(&mut head, &mut line).map_err(|e| format!("read failed: {e}"))? == 0 {
        return Ok(None);
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => return Err(format!("malformed request line: {line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    // Drain headers up to the blank line; cap their count so a
    // malicious peer cannot stream headers forever.
    for _ in 0..64 {
        let mut header = String::new();
        match read_head_line(&mut head, &mut header)
            .map_err(|e| format!("read failed mid-headers: {e}"))?
        {
            0 => return Err("connection closed mid-headers".into()),
            _ if header.trim_end().is_empty() => {
                let (path, query) = split_target(target);
                return Ok(Some(Request {
                    method: method.to_string(),
                    path,
                    query,
                }));
            }
            _ => {}
        }
    }
    Err("too many headers".into())
}

/// Reads one line of a request head. A line that [`MAX_HEAD_BYTES`] cuts
/// off is an error, not a short line.
fn read_head_line<R: BufRead>(head: &mut Take<R>, line: &mut String) -> std::io::Result<usize> {
    let k = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        ));
    }
    Ok(k)
}

/// Splits a request target into path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), params)
}

/// Decodes `%XX` escapes and `+` (space); malformed escapes pass
/// through verbatim (they will fail parameter validation downstream).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The `Content-Type` of `/metrics` responses (Prometheus text
/// exposition format).
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Writes a complete `Connection: close` response with a JSONL body.
///
/// # Errors
///
/// Propagates socket write failures (the caller drops the connection).
pub fn write_response<W: Write>(stream: &mut W, status: u16, body: &str) -> std::io::Result<()> {
    write_response_with_type(stream, status, "application/jsonl", body)
}

/// Writes a complete `Connection: close` response with an explicit
/// content type (the `/metrics` endpoint is text, everything else
/// JSONL).
///
/// # Errors
///
/// Propagates socket write failures (the caller drops the connection).
pub fn write_response_with_type<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len(),
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, String> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_target_query_and_headers() {
        let req = parse(
            "GET /plan?logical_qubits=24&device_qubits=30000&note=a+b%2Fc HTTP/1.1\r\n\
             Host: localhost\r\n\
             \r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/plan");
        assert_eq!(req.param("logical_qubits"), Some("24"));
        assert_eq!(req.param("device_qubits"), Some("30000"));
        assert_eq!(req.param("note"), Some("a b/c"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn empty_connection_is_none_and_garbage_is_an_error() {
        assert!(parse("").unwrap().is_none());
        assert!(parse("not http\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/9\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nunterminated").is_err());
    }

    /// Parses `raw` from a cursor and reports how far the parser read.
    fn parse_cursor(raw: &str) -> (Result<Option<Request>, String>, u64) {
        let mut cursor = std::io::Cursor::new(raw.as_bytes());
        let parsed = read_request(&mut cursor);
        (parsed, cursor.position())
    }

    #[test]
    fn over_long_request_line_is_cut_at_the_cap() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4 * MAX_HEAD_BYTES));
        let (parsed, consumed) = parse_cursor(&raw);
        let err = parsed.unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(consumed <= MAX_HEAD_BYTES as u64, "read {consumed} bytes");
    }

    #[test]
    fn over_long_header_is_cut_at_the_cap() {
        let raw = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "b".repeat(4 * MAX_HEAD_BYTES)
        );
        let (parsed, consumed) = parse_cursor(&raw);
        let err = parsed.unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(consumed <= MAX_HEAD_BYTES as u64, "read {consumed} bytes");
    }

    #[test]
    fn head_just_under_the_cap_parses() {
        let prefix = "GET /healthz HTTP/1.1\r\nX-Pad: ";
        let suffix = "\r\n\r\n";
        let pad = MAX_HEAD_BYTES - prefix.len() - suffix.len() - 1;
        let raw = format!("{prefix}{}{suffix}", "c".repeat(pad));
        assert_eq!(raw.len(), MAX_HEAD_BYTES - 1);
        let (parsed, consumed) = parse_cursor(&raw);
        assert_eq!(parsed.unwrap().unwrap().path, "/healthz");
        assert_eq!(consumed, raw.len() as u64);
    }

    #[test]
    fn responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "{\"row\":\"~planner-error\"}\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Type: application/jsonl\r\n"));
        assert!(text.contains("Content-Length: 25\r\n"));
        assert!(text.ends_with("{\"row\":\"~planner-error\"}\n"));

        let mut out = Vec::new();
        write_response_with_type(&mut out, 200, METRICS_CONTENT_TYPE, "x 1\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
    }
}
