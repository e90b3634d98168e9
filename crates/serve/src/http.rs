//! A minimal HTTP/1.1 layer on `std::io`: request parsing with hard
//! limits, and response rendering.
//!
//! The service speaks just enough HTTP for its read-only API: `GET`
//! requests, a handful of headers, and `Connection: close` responses.
//! Everything else is rejected with a typed [`HttpError`] that maps to a
//! 4xx status, so a malformed client can never push the server into
//! undefined behaviour — the request parser enforces byte limits on the
//! request line, the header block, and the body *before* allocating for
//! them, which is what the fault-injection corpus exercises.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Longest accepted request line (method + target + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 8192;

/// Largest accepted header block (all header lines together), in bytes.
pub const MAX_HEADER_BYTES: usize = 16384;

/// Largest accepted request body, in bytes. The API is read-only, so
/// bodies are tolerated but never needed; the limit only bounds what a
/// client can make the server buffer.
pub const MAX_BODY_BYTES: usize = 65536;

/// A typed HTTP-layer rejection. Every variant maps to a definite
/// status code via [`HttpError::status`].
#[derive(Debug)]
#[non_exhaustive]
pub enum HttpError {
    /// The request line was not `METHOD SP TARGET SP VERSION`.
    MalformedRequestLine(String),
    /// The method is not `GET` (the API is read-only).
    UnsupportedMethod(String),
    /// The version is not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    RequestLineTooLong {
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The header block exceeded [`MAX_HEADER_BYTES`].
    HeaderBlockTooLarge {
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// A header line had no colon or an empty/invalid field name.
    MalformedHeader(String),
    /// `Content-Length` was present but not a base-10 integer.
    BadContentLength(String),
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge {
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The connection closed before the declared body arrived.
    TruncatedBody {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// A genuine transport error while reading the request.
    Io(std::io::Error),
}

impl HttpError {
    /// The HTTP status code and reason phrase this rejection maps to.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::MalformedRequestLine(_)
            | HttpError::MalformedHeader(_)
            | HttpError::BadContentLength(_)
            | HttpError::TruncatedBody { .. }
            | HttpError::Io(_) => (400, "Bad Request"),
            HttpError::UnsupportedMethod(_) => (405, "Method Not Allowed"),
            HttpError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
            HttpError::RequestLineTooLong { .. } => (414, "URI Too Long"),
            HttpError::HeaderBlockTooLarge { .. } => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge { .. } => (413, "Content Too Large"),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::MalformedRequestLine(line) => {
                write!(f, "malformed request line {line:?}")
            }
            HttpError::UnsupportedMethod(m) => {
                write!(f, "method {m:?} is not supported; the API is GET-only")
            }
            HttpError::UnsupportedVersion(v) => {
                write!(f, "HTTP version {v:?} is not supported")
            }
            HttpError::RequestLineTooLong { limit } => {
                write!(f, "request line exceeds the {limit}-byte limit")
            }
            HttpError::HeaderBlockTooLarge { limit } => {
                write!(f, "header block exceeds the {limit}-byte limit")
            }
            HttpError::MalformedHeader(line) => write!(f, "malformed header line {line:?}"),
            HttpError::BadContentLength(v) => {
                write!(f, "Content-Length {v:?} is not a base-10 integer")
            }
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::TruncatedBody { expected, got } => write!(
                f,
                "request body truncated: Content-Length promised {expected} bytes, got {got}"
            ),
            HttpError::Io(e) => write!(f, "transport error while reading the request: {e}"),
        }
    }
}

impl Error for HttpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A parsed request: method, target, headers in arrival order, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (always `GET` once parsing succeeds).
    pub method: String,
    /// The raw request target, query string included.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (everything before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// The target's query component, if any (everything after `?`).
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The first header with the given name, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one `\r\n`- (or `\n`-) terminated line, rejecting lines longer
/// than `limit` *before* buffering past the limit.
fn read_line_limited(
    reader: &mut impl BufRead,
    limit: usize,
    over: impl FnOnce() -> HttpError,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= limit {
                    return Err(over());
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|e| {
        HttpError::MalformedHeader(format!(
            "non-UTF-8 bytes at offset {}",
            e.utf8_error().valid_up_to()
        ))
    })
}

/// A valid HTTP field name: RFC 9110 token characters only.
fn is_token(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Reads and parses one request from a buffered transport.
///
/// # Errors
///
/// A typed [`HttpError`] for anything outside the accepted subset:
/// malformed request line or header, non-`GET` method, unsupported
/// version, any of the three byte limits, a `Content-Length` that is
/// not an integer or promises more bytes than arrive.
pub(crate) fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let line = read_line_limited(reader, MAX_REQUEST_LINE, || HttpError::RequestLineTooLong {
        limit: MAX_REQUEST_LINE,
    })?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() && !v.is_empty() => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => return Err(HttpError::MalformedRequestLine(line)),
    };
    if method != "GET" {
        return Err(HttpError::UnsupportedMethod(method));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version));
    }

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let remaining = MAX_HEADER_BYTES.saturating_sub(header_bytes);
        let line = read_line_limited(reader, remaining, || HttpError::HeaderBlockTooLarge {
            limit: MAX_HEADER_BYTES,
        })?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::MalformedHeader(line.clone()))?;
        if !is_token(name) {
            return Err(HttpError::MalformedHeader(line.clone()));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.as_str());
    if let Some(v) = content_length {
        let expected: usize = v
            .parse()
            .map_err(|_| HttpError::BadContentLength(v.to_string()))?;
        if expected > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge {
                limit: MAX_BODY_BYTES,
            });
        }
        body.resize(expected, 0);
        let mut got = 0usize;
        while got < expected {
            match reader.read(&mut body[got..]) {
                Ok(0) => return Err(HttpError::TruncatedBody { expected, got }),
                Ok(n) => got += n,
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// [`read_request`] over an in-memory byte buffer — the entry point the
/// fault-injection corpus drives, and a convenience for tests.
///
/// # Errors
///
/// See [`read_request`].
pub fn parse_request(bytes: &[u8]) -> Result<Request, HttpError> {
    read_request(&mut std::io::Cursor::new(bytes))
}

/// A response: status, content type, and an owned body. Responses
/// always carry `Content-Length` and `Connection: close` — the server
/// serves exactly one request per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase matching the status.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// The JSON content type every API endpoint responds with.
pub const CONTENT_TYPE_JSON: &str = "application/json";

/// The OpenMetrics content type the `/metrics` endpoint responds with.
pub const CONTENT_TYPE_OPENMETRICS: &str =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

impl Response {
    /// A `200 OK` JSON response.
    pub(crate) fn ok_json(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: CONTENT_TYPE_JSON,
            body: body.into_bytes(),
        }
    }

    /// An error response with a JSON `{"error": message}` body.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Response {
        let body = dlp_core::ckpt::render(&dlp_core::obs::Json::Object(vec![(
            "error".to_string(),
            dlp_core::obs::Json::String(message.to_string()),
        )]));
        Response {
            status,
            reason,
            content_type: CONTENT_TYPE_JSON,
            body: body.into_bytes(),
        }
    }

    /// An error response whose JSON body carries the request's trace id
    /// alongside the message — `{"error": message, "trace_id": "…"}` —
    /// so a client-observed failure can be correlated with its
    /// access-log line and flight-recorder entry.
    pub(crate) fn error_traced(
        status: u16,
        reason: &'static str,
        message: &str,
        trace_id: u64,
    ) -> Response {
        let body = dlp_core::ckpt::render(&dlp_core::obs::Json::Object(vec![
            (
                "error".to_string(),
                dlp_core::obs::Json::String(message.to_string()),
            ),
            (
                "trace_id".to_string(),
                dlp_core::obs::Json::String(dlp_core::obs::trace::trace_id_hex(trace_id)),
            ),
        ]));
        Response {
            status,
            reason,
            content_type: CONTENT_TYPE_JSON,
            body: body.into_bytes(),
        }
    }

    /// Serializes status line, headers, and body to the wire.
    ///
    /// # Errors
    ///
    /// Propagates transport write errors.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(target: &str) -> Vec<u8> {
        format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").into_bytes()
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse_request(&get("/v1/dl?circuit=c17&seed=1")).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/v1/dl");
        assert_eq!(req.query(), Some("circuit=c17&seed=1"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_body_when_content_length_is_honest() {
        let req =
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").expect("parses");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET  / HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1 extra\r\n\r\n"[..],
            &b"\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse_request(raw), Err(HttpError::MalformedRequestLine(_))),
                "{raw:?} should be a malformed request line"
            );
        }
    }

    #[test]
    fn rejects_non_get_methods_with_405() {
        let err = parse_request(b"POST / HTTP/1.1\r\n\r\n").expect_err("rejected");
        assert!(matches!(err, HttpError::UnsupportedMethod(_)));
        assert_eq!(err.status().0, 405);
    }

    #[test]
    fn enforces_the_request_line_limit() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse_request(long.as_bytes()).expect_err("rejected");
        assert!(matches!(err, HttpError::RequestLineTooLong { .. }));
        assert_eq!(err.status().0, 414);
    }

    #[test]
    fn enforces_the_header_block_limit() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..64 {
            raw.extend_from_slice(format!("X-{i}: {}\r\n", "v".repeat(512)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse_request(&raw).expect_err("rejected");
        assert!(matches!(err, HttpError::HeaderBlockTooLarge { .. }));
        assert_eq!(err.status().0, 431);
    }

    #[test]
    fn rejects_headers_without_a_colon() {
        let err = parse_request(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n").expect_err("rejected");
        assert!(matches!(err, HttpError::MalformedHeader(_)));
    }

    #[test]
    fn rejects_dishonest_content_lengths() {
        let err =
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").expect_err("rejected");
        assert!(matches!(err, HttpError::BadContentLength(_)));

        let err = parse_request(b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
            .expect_err("rejected");
        assert!(matches!(
            err,
            HttpError::TruncatedBody {
                expected: 10,
                got: 5
            }
        ));

        let over = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_request(over.as_bytes()).expect_err("rejected");
        assert!(matches!(err, HttpError::BodyTooLarge { .. }));
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut wire = Vec::new();
        Response::ok_json("{\"x\":1}".to_string())
            .write_to(&mut wire)
            .expect("writes");
        let text = String::from_utf8(wire).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn error_responses_are_json() {
        let resp = Response::error(404, "Not Found", "no such endpoint");
        assert_eq!(resp.status, 404);
        assert_eq!(
            String::from_utf8(resp.body).expect("utf-8"),
            "{\"error\":\"no such endpoint\"}"
        );
    }

    #[test]
    fn traced_error_responses_carry_the_trace_id() {
        let resp = Response::error_traced(404, "Not Found", "no such endpoint", 0xab);
        assert_eq!(resp.status, 404);
        assert_eq!(
            String::from_utf8(resp.body).expect("utf-8"),
            "{\"error\":\"no such endpoint\",\"trace_id\":\"00000000000000ab\"}"
        );
    }
}
