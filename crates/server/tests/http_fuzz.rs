//! `read_request` reads untrusted bytes off a socket, in whatever pieces
//! the kernel hands them over. Whatever the bytes, the limits and the
//! way reads split them, it answers a request or an error without
//! panicking; it answers what one read of all the bytes answers, and
//! after a request it has taken in exactly as many bytes; and it never
//! takes in more than its limits allow.

use std::io::{BufReader, Read};

use proptest::prelude::*;
use proptest::sample::select;
use schemr_server::http::{read_request, HttpError, Request};
use schemr_server::HttpLimits;

/// A reader that hands its bytes over in chunks of the given sizes, in
/// turn, however much room the caller offers.
struct Chunked<'a> {
    bytes: &'a [u8],
    at: usize,
    sizes: &'a [usize],
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What a read produced, comparable across two reads of the same bytes.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The request and how many bytes it took in.
    Request(Request, usize),
    /// The error's class.
    Error(String),
}

fn outcome(read: Result<Request, HttpError>, taken: usize) -> Outcome {
    match read {
        Ok(request) => Outcome::Request(request, taken),
        Err(HttpError::Io(e)) => Outcome::Error(format!("io: {:?}", e.kind())),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Read one request from `bytes` through a `capacity`-byte buffer over
/// reads of `sizes`; also returns the bytes the parser took in.
fn read(bytes: &[u8], limits: &HttpLimits, capacity: usize, sizes: &[usize]) -> Outcome {
    let chunked = Chunked {
        bytes,
        at: 0,
        sizes,
        reads: 0,
    };
    let mut reader = BufReader::with_capacity(capacity, chunked);
    let read = read_request(&mut reader, limits);
    let taken = reader.get_ref().at - reader.buffer().len();
    // Each line's content within its cap plus a CRLF, as many header
    // lines as are allowed plus the one that ends the block or breaks a
    // cap, and the body.
    let most = limits.max_request_line_bytes
        + 2
        + (limits.max_header_count + 1) * (limits.max_header_bytes + 2)
        + limits.max_body_bytes;
    assert!(taken <= most, "took in {taken} bytes, limits allow {most}");
    outcome(read, taken)
}

fn check(bytes: &[u8], limits: HttpLimits, capacity: usize, sizes: &[usize]) {
    let whole = read(bytes, &limits, bytes.len().max(1), &[bytes.len().max(1)]);
    let split = read(bytes, &limits, capacity, sizes);
    assert_eq!(split, whole, "{:?}", String::from_utf8_lossy(bytes));
}

/// Small limits, so the inputs below cross every one of them.
fn limits() -> impl Strategy<Value = HttpLimits> {
    (8usize..64, 4usize..40, 0usize..6, 0usize..120, 0usize..16).prop_map(
        |(line, header, count, total, body)| HttpLimits {
            max_request_line_bytes: line,
            max_header_bytes: header,
            max_header_count: count,
            max_total_header_bytes: total,
            max_body_bytes: body,
        },
    )
}

/// Request lines, well and badly formed.
const LINES: &[&[u8]] = &[
    b"GET / HTTP/1.1",
    b"POST /search?q=a+b&limit=5 HTTP/1.1",
    b"GET /s%41?q=%C3%A9 HTTP/1.0",
    b"GET /%zz HTTP/1.1",
    b"GET /\xc3\xa9 HTTP/1.1",
    b"GET /\xff HTTP/1.1",
    b"GET /",
    b"",
];

/// Header lines, well and badly formed.
const HEADERS: &[&[u8]] = &[
    b"Host: t",
    b"Content-Length: 3",
    b"Content-Length: 12",
    b"Content-Length: x",
    b"Connection: close",
    b"X-A: v",
    b"X-Longer-Header-Name: with a longer value",
    b"no colon",
    b"\xff: v",
    b"",
];

/// Line ends: mostly CRLF, else a bare LF, a stray CR or none.
const ENDS: &[&[u8]] = &[b"\r\n", b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r", b""];

/// A request line, header lines, the blank line and body bytes, each
/// line ended by one of [`ENDS`]: input that reaches the headers and the
/// body far more often than uniform bytes do.
fn requests() -> impl Strategy<Value = Vec<u8>> {
    (
        select(LINES.to_vec()),
        select(ENDS.to_vec()),
        proptest::collection::vec((select(HEADERS.to_vec()), select(ENDS.to_vec())), 0..7),
        select(ENDS.to_vec()),
        proptest::collection::vec(0u8..=255, 0..16),
    )
        .prop_map(|(line, end, headers, blank, body)| {
            let mut bytes = [line, end].concat();
            for (header, end) in headers {
                bytes.extend_from_slice(header);
                bytes.extend_from_slice(end);
            }
            bytes.extend_from_slice(blank);
            bytes.extend_from_slice(&body);
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn uniform_bytes_read_the_same_whole_or_split(
        bytes in proptest::collection::vec(0u8..=255, 0..160),
        limits in limits(),
        capacity in 1usize..96,
        sizes in proptest::collection::vec(1usize..=64, 1..8),
    ) {
        check(&bytes, limits, capacity, &sizes);
    }

    #[test]
    fn requests_read_the_same_whole_or_split(
        bytes in requests(),
        limits in limits(),
        capacity in 1usize..96,
        sizes in proptest::collection::vec(1usize..=64, 1..8),
    ) {
        check(&bytes, limits, capacity, &sizes);
    }
}

#[test]
fn a_request_split_a_byte_at_a_time_reads_as_one() {
    let bytes =
        b"POST /search?q=patient+height HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nabcGET";
    let limits = HttpLimits::default();
    let whole = read(bytes, &limits, bytes.len(), &[bytes.len()]);
    let Outcome::Request(request, taken) = &whole else {
        panic!("{whole:?}");
    };
    assert_eq!((request.body.as_str(), *taken), ("abc", bytes.len() - 3));
    assert_eq!(read(bytes, &limits, 1, &[1]), whole);
}
