//! Minimal HTTP/1.x request and response handling — the subset the HTTP
//! filter NF and the transparent cache NF need: request line, Host header,
//! arbitrary headers and an opaque body.

use gnf_types::{GnfError, GnfResult};
use serde::{Deserialize, Serialize};

/// The default HTTP port inspected by the HTTP filter.
pub const HTTP_PORT: u16 = 80;

/// HTTP request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HttpMethod {
    /// GET.
    Get,
    /// HEAD.
    Head,
    /// POST.
    Post,
    /// PUT.
    Put,
    /// DELETE.
    Delete,
    /// CONNECT (used by proxied TLS).
    Connect,
    /// OPTIONS.
    Options,
}

impl HttpMethod {
    /// Canonical token.
    pub fn as_str(&self) -> &'static str {
        match self {
            HttpMethod::Get => "GET",
            HttpMethod::Head => "HEAD",
            HttpMethod::Post => "POST",
            HttpMethod::Put => "PUT",
            HttpMethod::Delete => "DELETE",
            HttpMethod::Connect => "CONNECT",
            HttpMethod::Options => "OPTIONS",
        }
    }

    /// Parses a method token.
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "GET" => Some(HttpMethod::Get),
            "HEAD" => Some(HttpMethod::Head),
            "POST" => Some(HttpMethod::Post),
            "PUT" => Some(HttpMethod::Put),
            "DELETE" => Some(HttpMethod::Delete),
            "CONNECT" => Some(HttpMethod::Connect),
            "OPTIONS" => Some(HttpMethod::Options),
            _ => None,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpRequest {
    /// Request method.
    pub method: HttpMethod,
    /// Request target (path and query).
    pub path: String,
    /// Protocol version string (e.g. `HTTP/1.1`).
    pub version: String,
    /// Header name/value pairs in order of appearance (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Opaque body bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Builds a GET request for `host` + `path` with standard headers.
    pub fn get(host: &str, path: &str) -> Self {
        HttpRequest {
            method: HttpMethod::Get,
            path: path.to_string(),
            version: "HTTP/1.1".to_string(),
            headers: vec![
                ("host".to_string(), host.to_string()),
                ("user-agent".to_string(), "gnf-client/0.1".to_string()),
                ("accept".to_string(), "*/*".to_string()),
            ],
            body: Vec::new(),
        }
    }

    /// Returns the value of a header (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns the Host header, if present.
    pub fn host(&self) -> Option<&str> {
        self.header("host")
    }

    /// Returns `host + path`, the string the HTTP filter's URL rules match on.
    pub fn url(&self) -> String {
        format!("{}{}", self.host().unwrap_or(""), self.path)
    }

    /// Parses a request from the beginning of a TCP payload: the owned copy
    /// of what [`HttpRequestView::parse`] accepts.
    pub fn parse(data: &[u8]) -> GnfResult<Self> {
        HttpRequestView::parse(data).map(|view| view.to_owned())
    }

    /// Serialises the request into wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "{} {} {}\r\n",
            self.method.as_str(),
            self.path,
            self.version
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// `HttpRequest::get(host, path).to_bytes()` as the pieces a one-write frame
/// builder copies in order.
pub(crate) fn get_request_pieces<'a>(host: &'a str, path: &'a str) -> [&'a [u8]; 5] {
    [
        b"GET ",
        path.as_bytes(),
        b" HTTP/1.1\r\nhost: ",
        host.as_bytes(),
        b"\r\nuser-agent: gnf-client/0.1\r\naccept: */*\r\n\r\n",
    ]
}

/// A parsed HTTP request that borrows the TCP payload it was parsed from:
/// the zero-copy counterpart of [`HttpRequest`], for NFs that only inspect.
/// Parsing validates the whole header block but copies and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpRequestView<'a> {
    /// Request method.
    pub method: HttpMethod,
    /// Request target (path and query).
    pub path: &'a str,
    /// Protocol version string (e.g. `HTTP/1.1`).
    pub version: &'a str,
    /// The header lines after the request line; every non-empty one is
    /// known to contain a `:`.
    header_block: &'a str,
    /// The first `Host` header's value, found while parsing.
    host: Option<&'a str>,
    /// Opaque body bytes.
    pub body: &'a [u8],
}

impl<'a> HttpRequestView<'a> {
    /// Parses a request from the beginning of a TCP payload.
    ///
    /// An ASCII head — every request on the data path — is parsed in one
    /// pass over its bytes (`HeadScan`), whitespace being the ASCII part of
    /// Unicode `White_Space` that `str::split_whitespace` and `str::trim`
    /// use. A head with any other character takes the `str` methods
    /// themselves. Both accept, reject and report exactly alike.
    pub fn parse(data: &'a [u8]) -> GnfResult<Self> {
        let (scan, head, body) = split_head(data)?;
        if !scan.ascii {
            return Self::parse_unicode(head, body);
        }
        let (method, path, version) =
            parse_request_line(ascii_words(&head[..scan.request_line_end]))?;
        if let Some((start, end)) = scan.bad_line {
            return Err(bad_header_line(&head[start..end]));
        }
        Ok(HttpRequestView {
            method,
            path,
            version,
            header_block: head.get(scan.request_line_end + 2..).unwrap_or(""),
            host: scan.host.map(|(start, end)| &head[start..end]),
            body,
        })
    }

    /// [`HttpRequestView::parse`] of a head with a non-ASCII character:
    /// lines, words and trimming by the `str` methods.
    fn parse_unicode(head: &'a str, body: &'a [u8]) -> GnfResult<Self> {
        let (request_line, header_block) = head.split_once("\r\n").unwrap_or((head, ""));
        let (method, path, version) = parse_request_line(request_line.split_whitespace())?;
        let mut host = None;
        for line in header_lines(header_block) {
            let (name, value) = split_header(line)?;
            if host.is_none() && name.eq_ignore_ascii_case("host") {
                host = Some(value);
            }
        }
        Ok(HttpRequestView {
            method,
            path,
            version,
            header_block,
            host,
            body,
        })
    }

    /// Header name/value pairs in order of appearance, trimmed, names in
    /// the case they were sent in.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        header_lines(self.header_block).filter_map(|line| split_header(line).ok())
    }

    /// Returns the value of a header (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Returns the first Host header, if present: `header("host")`, read
    /// off the parse.
    pub fn host(&self) -> Option<&'a str> {
        self.host
    }

    /// Returns `host + path`, the string the HTTP filter's URL rules match on.
    pub fn url(&self) -> String {
        format!("{}{}", self.host().unwrap_or(""), self.path)
    }

    /// Copies the view into an owned [`HttpRequest`] (header names
    /// lower-cased).
    pub fn to_owned(&self) -> HttpRequest {
        HttpRequest {
            method: self.method,
            path: self.path.to_string(),
            version: self.version.to_string(),
            headers: self.headers().map(owned_header).collect(),
            body: self.body.to_vec(),
        }
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpResponse {
    /// Protocol version string.
    pub version: String,
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header name/value pairs (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Opaque body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Builds a response with the given status, reason and body.
    pub fn new(status: u16, reason: &str, body: &[u8]) -> Self {
        HttpResponse {
            version: "HTTP/1.1".to_string(),
            status,
            reason: reason.to_string(),
            headers: vec![
                ("content-length".to_string(), body.len().to_string()),
                ("connection".to_string(), "close".to_string()),
            ],
            body: body.to_vec(),
        }
    }

    /// The `403 Forbidden` page the HTTP filter returns for blocked URLs.
    pub fn forbidden() -> Self {
        Self::new(
            403,
            "Forbidden",
            b"<html><body>Blocked by GNF HTTP filter</body></html>",
        )
    }

    /// A plain `200 OK` response.
    pub fn ok(body: &[u8]) -> Self {
        Self::new(200, "OK", body)
    }

    /// Returns the value of a header (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a response from the beginning of a TCP payload.
    pub fn parse(data: &[u8]) -> GnfResult<Self> {
        let (_, head, body) = split_head(data)?;
        let (status_line, header_block) = head.split_once("\r\n").unwrap_or((head, ""));
        let mut parts = status_line.splitn(3, ' ');
        let version = parts
            .next()
            .ok_or_else(|| GnfError::malformed_packet("http", "missing version"))?
            .to_string();
        if !version.starts_with("HTTP/") {
            return Err(GnfError::malformed_packet(
                "http",
                format!("bad version {version:?}"),
            ));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| GnfError::malformed_packet("http", "bad status code"))?;
        let reason = parts.next().unwrap_or("").to_string();
        let headers = header_lines(header_block)
            .map(|line| split_header(line).map(owned_header))
            .collect::<GnfResult<_>>()?;
        Ok(HttpResponse {
            version,
            status,
            reason,
            headers,
            body: body.to_vec(),
        })
    }

    /// Serialises the response into wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} {}\r\n", self.version, self.status, self.reason);
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// Returns true if a TCP payload looks like the start of an HTTP request.
pub fn looks_like_http_request(data: &[u8]) -> bool {
    const PREFIXES: [&[u8]; 7] = [
        b"GET ",
        b"HEAD ",
        b"POST ",
        b"PUT ",
        b"DELETE ",
        b"CONNECT ",
        b"OPTIONS ",
    ];
    PREFIXES.iter().any(|p| data.starts_with(p))
}

/// What one pass over the lines of a request head records. Offsets are
/// into the payload; a line ends at its `\r\n`, and the head ends at the
/// first `\r\n` followed by another — where `"\r\n\r\n"` first occurs.
struct HeadScan {
    /// Where the head ends: the body starts four bytes later.
    end: usize,
    /// Where the request line ends (`end` when the head is one line).
    request_line_end: usize,
    /// The first header line without a `:`.
    bad_line: Option<(usize, usize)>,
    /// The first header named `host` (any case): its value, trimmed.
    host: Option<(usize, usize)>,
    /// True when every byte of the head is ASCII.
    ascii: bool,
}

impl HeadScan {
    /// Walks `data` line by line up to the blank line; `None` without one.
    fn of(data: &[u8]) -> Option<HeadScan> {
        let mut scan = HeadScan {
            end: 0,
            request_line_end: 0,
            bad_line: None,
            host: None,
            ascii: true,
        };
        let mut start = 0;
        loop {
            let end = find_crlf(data, start)?;
            let line = &data[start..end];
            scan.ascii &= line.is_ascii();
            if start == 0 {
                scan.request_line_end = end;
            } else {
                match line.iter().position(|byte| *byte == b':') {
                    None => {
                        scan.bad_line.get_or_insert((start, end));
                    }
                    Some(colon) if scan.host.is_none() => {
                        let (name_start, name_end) = trim(line, 0, colon);
                        if line[name_start..name_end].eq_ignore_ascii_case(b"host") {
                            let (value_start, value_end) = trim(line, colon + 1, line.len());
                            scan.host = Some((start + value_start, start + value_end));
                        }
                    }
                    Some(_) => {}
                }
            }
            if data[end + 2..].starts_with(b"\r\n") {
                scan.end = end;
                return Some(scan);
            }
            start = end + 2;
        }
    }
}

/// The first `\r\n` at or after `from`.
fn find_crlf(data: &[u8], mut from: usize) -> Option<usize> {
    loop {
        let cr = from + find_cr(&data[from..])?;
        if data.get(cr + 1) == Some(&b'\n') {
            return Some(cr);
        }
        from = cr + 1;
    }
}

/// The first `\r` in `bytes`, tested eight bytes at a time: XOR with `\r`
/// in every lane zeroes exactly the lanes holding one, and
/// `(x - 0x01..) & !x & 0x80..` sets the top bit of the lowest zero lane
/// (a borrow can only mark lanes above it).
fn find_cr(bytes: &[u8]) -> Option<usize> {
    const LANES: u64 = u64::from_le_bytes([0x01; 8]);
    const TOPS: u64 = u64::from_le_bytes([0x80; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (ix, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ (LANES * u64::from(b'\r'));
        let zero_lanes = x.wrapping_sub(LANES) & !x & TOPS;
        if zero_lanes != 0 {
            return Some(ix * 8 + zero_lanes.trailing_zeros() as usize / 8);
        }
    }
    let at = words.len() * 8;
    tail.iter()
        .position(|byte| *byte == b'\r')
        .map(|ix| at + ix)
}

/// The ASCII characters in Unicode `White_Space`, which is what
/// `char::is_whitespace` tests.
fn is_space(byte: u8) -> bool {
    matches!(byte, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// `bytes[start..end]` without leading and trailing [`is_space`] bytes, as
/// a range.
fn trim(bytes: &[u8], mut start: usize, mut end: usize) -> (usize, usize) {
    while start < end && is_space(bytes[start]) {
        start += 1;
    }
    while end > start && is_space(bytes[end - 1]) {
        end -= 1;
    }
    (start, end)
}

/// `str::split_whitespace` of an ASCII line.
fn ascii_words(line: &str) -> impl Iterator<Item = &str> {
    let bytes = line.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at + bytes[at..].iter().position(|byte| !is_space(*byte))?;
        at = bytes[start..]
            .iter()
            .position(|byte| is_space(*byte))
            .map_or(bytes.len(), |len| start + len);
        Some(&line[start..at])
    })
}

/// Method, target and version from the words of a request line.
fn parse_request_line<'a>(
    mut words: impl Iterator<Item = &'a str>,
) -> GnfResult<(HttpMethod, &'a str, &'a str)> {
    let method_token = words
        .next()
        .ok_or_else(|| GnfError::malformed_packet("http", "missing method"))?;
    let method = HttpMethod::parse(method_token).ok_or_else(|| {
        GnfError::malformed_packet("http", format!("unknown method {method_token:?}"))
    })?;
    let path = words
        .next()
        .ok_or_else(|| GnfError::malformed_packet("http", "missing request target"))?;
    let version = words
        .next()
        .ok_or_else(|| GnfError::malformed_packet("http", "missing version"))?;
    if !version.starts_with("HTTP/") {
        return Err(GnfError::malformed_packet(
            "http",
            format!("bad version {version:?}"),
        ));
    }
    Ok((method, path, version))
}

/// Splits the header block from the body at the first blank line.
fn split_head(data: &[u8]) -> GnfResult<(HeadScan, &str, &[u8])> {
    let scan = HeadScan::of(data)
        .ok_or_else(|| GnfError::malformed_packet("http", "incomplete header block"))?;
    let head = std::str::from_utf8(&data[..scan.end])
        .map_err(|_| GnfError::malformed_packet("http", "non-UTF8 header block"))?;
    let body = &data[scan.end + 4..];
    Ok((scan, head, body))
}

/// The non-empty lines of a header block.
fn header_lines(block: &str) -> impl Iterator<Item = &str> {
    block.split("\r\n").filter(|line| !line.is_empty())
}

fn bad_header_line(line: &str) -> GnfError {
    GnfError::malformed_packet("http", format!("bad header line {line:?}"))
}

/// Splits one `Name: value` line into its trimmed halves.
fn split_header(line: &str) -> GnfResult<(&str, &str)> {
    let (name, value) = line.split_once(':').ok_or_else(|| bad_header_line(line))?;
    Ok((name.trim(), value.trim()))
}

/// Copies a header pair into the owned representation (name lower-cased).
fn owned_header((name, value): (&str, &str)) -> (String, String) {
    (name.to_ascii_lowercase(), value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_request_roundtrip() {
        let req = HttpRequest::get("www.gla.ac.uk", "/research/");
        let bytes = req.to_bytes();
        assert!(looks_like_http_request(&bytes));
        let parsed = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(parsed.method, HttpMethod::Get);
        assert_eq!(parsed.path, "/research/");
        assert_eq!(parsed.host(), Some("www.gla.ac.uk"));
        assert_eq!(parsed.url(), "www.gla.ac.uk/research/");
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn request_with_body_preserves_it() {
        let mut req = HttpRequest::get("api.example", "/submit");
        req.method = HttpMethod::Post;
        req.body = b"key=value".to_vec();
        let parsed = HttpRequest::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed.method, HttpMethod::Post);
        assert_eq!(parsed.body, b"key=value");
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok(b"hello world");
        let parsed = HttpResponse::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.reason, "OK");
        assert_eq!(parsed.body, b"hello world");
        assert_eq!(parsed.header("content-length"), Some("11"));
    }

    #[test]
    fn forbidden_response_is_a_403() {
        let resp = HttpResponse::forbidden();
        assert_eq!(resp.status, 403);
        let parsed = HttpResponse::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status, 403);
        assert!(String::from_utf8_lossy(&parsed.body).contains("GNF"));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(HttpRequest::parse(b"").is_err());
        assert!(HttpRequest::parse(b"GET /\r\n\r\n").is_err()); // missing version
        assert!(HttpRequest::parse(b"BREW /coffee HTTP/1.1\r\n\r\n").is_err());
        assert!(HttpRequest::parse(b"GET / HTTP/1.1\r\nbad header\r\n\r\n").is_err());
        assert!(HttpRequest::parse(b"GET / HTTP/1.1\r\nHost: x").is_err()); // no blank line
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = HttpRequest::parse(b"GET / HTTP/1.1\r\nHoSt: Example.COM\r\n\r\n").unwrap();
        assert_eq!(req.header("Host"), Some("Example.COM"));
        assert_eq!(req.header("HOST"), Some("Example.COM"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn view_borrows_the_payload_and_owns_to_the_same_request() {
        let bytes =
            b"POST /submit?x=1 HTTP/1.1\r\nHoSt:  Example.COM \r\nX-Empty:\r\n\r\nkey=value";
        let view = HttpRequestView::parse(bytes).unwrap();
        assert_eq!(view.method, HttpMethod::Post);
        assert_eq!(view.path, "/submit?x=1");
        assert_eq!(view.version, "HTTP/1.1");
        assert_eq!(view.body, b"key=value");
        assert_eq!(
            view.headers().collect::<Vec<_>>(),
            [("HoSt", "Example.COM"), ("X-Empty", "")]
        );
        assert_eq!(view.host(), Some("Example.COM"));
        assert_eq!(view.header("x-empty"), Some(""));
        assert_eq!(view.header("missing"), None);
        assert_eq!(view.url(), "Example.COM/submit?x=1");
        // Every field points into the payload: nothing was copied.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&view.path.as_ptr()) && range.contains(&view.body.as_ptr()));

        let owned = view.to_owned();
        assert_eq!(owned, HttpRequest::parse(bytes).unwrap());
        assert_eq!(owned.headers[0], ("host".into(), "Example.COM".into()));
        assert_eq!(owned.url(), view.url());
    }

    #[test]
    fn find_cr_agrees_with_a_byte_scan() {
        // Every length around the eight-byte word, the `\r` in every lane,
        // next to bytes whose XOR with `\r` is 0x80, 0x01 or 0xff.
        for len in 0..40 {
            for cr in 0..=len {
                let mut bytes: Vec<u8> = (0..len)
                    .map(|i| [b'a', 0x8d, 0x0c, 0x0e, 0xf2, 0x00][i % 6])
                    .collect();
                if cr < len {
                    bytes[cr] = b'\r';
                }
                if cr + 3 < len {
                    bytes[cr + 3] = b'\r';
                }
                assert_eq!(
                    find_cr(&bytes),
                    bytes.iter().position(|byte| *byte == b'\r'),
                    "{bytes:?}"
                );
            }
        }
    }

    #[test]
    fn http_request_detection() {
        assert!(looks_like_http_request(b"GET / HTTP/1.1\r\n"));
        assert!(looks_like_http_request(b"POST /x HTTP/1.1\r\n"));
        assert!(!looks_like_http_request(b"\x16\x03\x01")); // TLS client hello
        assert!(!looks_like_http_request(b""));
    }

    #[test]
    fn method_tokens_roundtrip() {
        for method in [
            HttpMethod::Get,
            HttpMethod::Head,
            HttpMethod::Post,
            HttpMethod::Put,
            HttpMethod::Delete,
            HttpMethod::Connect,
            HttpMethod::Options,
        ] {
            assert_eq!(HttpMethod::parse(method.as_str()), Some(method));
        }
        assert_eq!(HttpMethod::parse("PATCH"), None);
    }
}
