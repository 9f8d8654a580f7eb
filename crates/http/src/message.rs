//! HTTP request/response messages and their wire codec.

use bytes::Bytes;

/// The custom header marking a request for unreliable delivery (§4.2).
pub(crate) const UNRELIABLE_HEADER: &str = "x-voxel-unreliable";

/// Response status codes used by the video server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200 OK.
    Ok,
    /// 206 Partial Content (range request satisfied).
    PartialContent,
    /// 404 Not Found.
    NotFound,
    /// 416 Range Not Satisfiable.
    RangeNotSatisfiable,
}

impl StatusCode {
    /// Numeric code.
    pub(crate) fn as_u16(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::PartialContent => 206,
            StatusCode::NotFound => 404,
            StatusCode::RangeNotSatisfiable => 416,
        }
    }

    /// Reason phrase.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::PartialContent => "Partial Content",
            StatusCode::NotFound => "Not Found",
            StatusCode::RangeNotSatisfiable => "Range Not Satisfiable",
        }
    }

    /// Parse from a numeric code.
    pub(crate) fn from_u16(code: u16) -> Option<StatusCode> {
        Some(match code {
            200 => StatusCode::Ok,
            206 => StatusCode::PartialContent,
            404 => StatusCode::NotFound,
            416 => StatusCode::RangeNotSatisfiable,
            _ => return None,
        })
    }
}

/// An HTTP GET request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request path, e.g. `/bbb/seg-17-q12.m4s`.
    pub path: String,
    /// Inclusive byte ranges requested (multiple ranges = one `Range:`
    /// header with a comma-separated list, as VOXEL's selective
    /// re-requests use).
    pub ranges: Vec<(u64, u64)>,
    /// Whether the client asked for unreliable delivery.
    pub unreliable: bool,
}

impl Request {
    /// A whole-resource GET.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            path: path.into(),
            ranges: Vec::new(),
            unreliable: false,
        }
    }

    /// Add a byte range (inclusive).
    pub fn with_range(mut self, start: u64, end: u64) -> Request {
        assert!(start <= end, "range start must not exceed end");
        self.ranges.push((start, end));
        self
    }

    /// Request unreliable delivery.
    pub fn with_unreliable(mut self) -> Request {
        self.unreliable = true;
        self
    }

    /// Total bytes covered by the ranges (0 = whole resource).
    pub fn range_bytes(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s + 1).sum()
    }

    /// Serialize to wire text.
    pub fn encode(&self) -> Bytes {
        let mut s = format!("GET {} HTTP/1.1\r\n", self.path);
        if !self.ranges.is_empty() {
            let list: Vec<String> = self
                .ranges
                .iter()
                .map(|(a, b)| format!("{a}-{b}"))
                .collect();
            s.push_str(&format!("Range: bytes={}\r\n", list.join(",")));
        }
        if self.unreliable {
            s.push_str(&format!("{UNRELIABLE_HEADER}: 1\r\n"));
        }
        s.push_str("\r\n");
        Bytes::from(s)
    }

    /// Parse from wire text; `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<Request> {
        let text = std::str::from_utf8(data).ok()?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split(' ');
        if parts.next()? != "GET" {
            return None;
        }
        let path = parts.next()?.to_string();
        if parts.next()? != "HTTP/1.1" {
            return None;
        }
        let mut req = Request {
            path,
            ranges: Vec::new(),
            unreliable: false,
        };
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':')?;
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "range" => {
                    let spec = value.strip_prefix("bytes=")?;
                    for r in spec.split(',') {
                        let (a, b) = r.trim().split_once('-')?;
                        let start = a.parse().ok()?;
                        let end = b.parse().ok()?;
                        if start > end {
                            return None;
                        }
                        req.ranges.push((start, end));
                    }
                }
                h if h == UNRELIABLE_HEADER => req.unreliable = true,
                _ => {} // unknown headers are ignored, as HTTP requires
            }
        }
        Some(req)
    }
}

/// An HTTP response header (the body travels separately on the stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Total length of the body that follows on this stream.
    pub content_length: u64,
    /// Echo of the satisfied ranges (for 206).
    pub content_ranges: Vec<(u64, u64)>,
}

impl Response {
    /// A 200 with the given body length.
    pub fn ok(content_length: u64) -> Response {
        Response {
            status: StatusCode::Ok,
            content_length,
            content_ranges: Vec::new(),
        }
    }

    /// A 206 satisfying `ranges` (content length = sum of range lengths).
    pub fn partial(ranges: Vec<(u64, u64)>) -> Response {
        let content_length = ranges.iter().map(|&(s, e)| e - s + 1).sum();
        Response {
            status: StatusCode::PartialContent,
            content_length,
            content_ranges: ranges,
        }
    }

    /// An error response with no body.
    pub fn error(status: StatusCode) -> Response {
        Response {
            status,
            content_length: 0,
            content_ranges: Vec::new(),
        }
    }

    /// Serialize to wire text.
    pub fn encode(&self) -> Bytes {
        let mut s = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\n",
            self.status.as_u16(),
            self.status.reason(),
            self.content_length
        );
        if !self.content_ranges.is_empty() {
            let list: Vec<String> = self
                .content_ranges
                .iter()
                .map(|(a, b)| format!("{a}-{b}"))
                .collect();
            s.push_str(&format!("Content-Range: bytes {}\r\n", list.join(",")));
        }
        s.push_str("\r\n");
        Bytes::from(s)
    }

    /// Parse from wire text.
    pub fn decode(data: &[u8]) -> Option<Response> {
        let text = std::str::from_utf8(data).ok()?;
        let mut lines = text.split("\r\n");
        let status_line = lines.next()?;
        let mut parts = status_line.splitn(3, ' ');
        if parts.next()? != "HTTP/1.1" {
            return None;
        }
        let status = StatusCode::from_u16(parts.next()?.parse().ok()?)?;
        let mut resp = Response {
            status,
            content_length: 0,
            content_ranges: Vec::new(),
        };
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':')?;
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => resp.content_length = value.parse().ok()?,
                "content-range" => {
                    let spec = value.strip_prefix("bytes ")?;
                    for r in spec.split(',') {
                        let (a, b) = r.trim().split_once('-')?;
                        resp.content_ranges.push((a.parse().ok()?, b.parse().ok()?));
                    }
                }
                _ => {}
            }
        }
        Some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_get_roundtrips() {
        let req = Request::get("/bbb/manifest.mpd");
        let decoded = Request::decode(&req.encode()).expect("decodes");
        assert_eq!(decoded, req);
        assert!(!decoded.unreliable);
        assert_eq!(decoded.range_bytes(), 0);
    }

    #[test]
    fn range_request_roundtrips() {
        let req = Request::get("/bbb/seg-3-q12.m4s")
            .with_range(0, 999)
            .with_range(5000, 5999);
        let wire = req.encode();
        let text = std::str::from_utf8(&wire).unwrap();
        assert!(text.contains("Range: bytes=0-999,5000-5999"));
        let decoded = Request::decode(&wire).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(decoded.range_bytes(), 2000);
    }

    #[test]
    fn unreliable_header_roundtrips() {
        let req = Request::get("/x").with_unreliable();
        let wire = req.encode();
        assert!(std::str::from_utf8(&wire)
            .unwrap()
            .contains("x-voxel-unreliable: 1"));
        assert!(Request::decode(&wire).unwrap().unreliable);
    }

    #[test]
    fn voxel_unaware_server_sees_a_valid_plain_request() {
        // Backward compatibility: the custom header is just a header; a
        // parser that ignores unknown headers still accepts the request.
        let wire = Request::get("/x").with_unreliable().encode();
        let req = Request::decode(&wire).unwrap();
        assert_eq!(req.path, "/x");
    }

    #[test]
    fn unknown_headers_are_ignored() {
        let raw = b"GET /y HTTP/1.1\r\nUser-Agent: dash.js\r\nAccept: */*\r\n\r\n";
        let req = Request::decode(raw).unwrap();
        assert_eq!(req.path, "/y");
        assert!(req.ranges.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::decode(b"POST /x HTTP/1.1\r\n\r\n").is_none());
        assert!(Request::decode(b"GET /x HTTP/2\r\n\r\n").is_none());
        assert!(Request::decode(b"GET /x HTTP/1.1\r\nRange: bytes=9-2\r\n\r\n").is_none());
        assert!(Request::decode(b"garbage").is_none());
        assert!(Request::decode(&[0xff, 0xfe]).is_none());
    }

    #[test]
    fn malformed_range_headers_are_rejected() {
        for raw in [
            // Empty spec, missing dash, suffix/open-ended forms (unused by
            // VOXEL's exact-range clients), junk numbers, wrong unit, and
            // a second bad range hiding behind a good one.
            b"GET /x HTTP/1.1\r\nRange: bytes=\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1\r\nRange: bytes=5\r\n\r\n",
            b"GET /x HTTP/1.1\r\nRange: bytes=-500\r\n\r\n",
            b"GET /x HTTP/1.1\r\nRange: bytes=500-\r\n\r\n",
            b"GET /x HTTP/1.1\r\nRange: bytes=a-b\r\n\r\n",
            b"GET /x HTTP/1.1\r\nRange: octets=0-5\r\n\r\n",
            b"GET /x HTTP/1.1\r\nRange: bytes=0-9,9-2\r\n\r\n",
            b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
        ] {
            assert!(
                Request::decode(raw).is_none(),
                "accepted {:?}",
                std::str::from_utf8(raw)
            );
        }
    }

    #[test]
    fn overlapping_ranges_are_accepted_and_preserved() {
        // The codec does not police overlap or ordering — a selective
        // re-request may legitimately re-cover bytes already in flight.
        // Both survive the round-trip verbatim, in request order.
        let req = Request::get("/seg/0/12/body")
            .with_range(0, 999)
            .with_range(500, 1499);
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded.ranges, vec![(0, 999), (500, 1499)]);
        // range_bytes sums the spans as given; overlap is the caller's
        // concern (the server serves exactly what was asked).
        assert_eq!(decoded.range_bytes(), 2000);
    }

    #[test]
    fn ok_response_roundtrips() {
        let r = Response::ok(12345);
        let d = Response::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
        assert_eq!(d.status.as_u16(), 200);
    }

    #[test]
    fn partial_response_roundtrips() {
        let r = Response::partial(vec![(100, 199), (300, 399)]);
        assert_eq!(r.content_length, 200);
        let d = Response::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
        assert_eq!(d.status, StatusCode::PartialContent);
    }

    #[test]
    fn zero_length_partial_response() {
        // A 206 satisfying no ranges (a fully-cancelled re-request) is
        // legal on this codec: zero body, no Content-Range header.
        let r = Response::partial(vec![]);
        assert_eq!(r.status, StatusCode::PartialContent);
        assert_eq!(r.content_length, 0);
        let wire = r.encode();
        assert!(!std::str::from_utf8(&wire)
            .unwrap()
            .contains("Content-Range"));
        let d = Response::decode(&wire).unwrap();
        assert_eq!(d, r);
        assert!(d.content_ranges.is_empty());
    }

    #[test]
    fn error_responses() {
        for status in [StatusCode::NotFound, StatusCode::RangeNotSatisfiable] {
            let r = Response::error(status);
            let d = Response::decode(&r.encode()).unwrap();
            assert_eq!(d.status, status);
            assert_eq!(d.content_length, 0);
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn requests_roundtrip(
                path in "/[a-z0-9/._-]{1,40}",
                ranges in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000), 0..5),
                unreliable in proptest::bool::ANY,
            ) {
                let mut req = Request::get(path);
                for (a, b) in ranges {
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    req = req.with_range(a, b);
                }
                if unreliable {
                    req = req.with_unreliable();
                }
                prop_assert_eq!(Request::decode(&req.encode()), Some(req));
            }
        }
    }
}
