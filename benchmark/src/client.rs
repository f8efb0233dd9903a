//! The load generator's side of the socket: a keep-alive HTTP/1.1
//! client that sends each request in one write, reads exactly one
//! response, honours `Connection: close` by reconnecting on the next
//! request, and checks that the body is a well-formed result list.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A stalled server fails the request instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn bad(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Status line and framing headers of one response.
#[derive(Debug, PartialEq, Eq)]
pub struct ResponseHead {
    pub status: u16,
    /// The server said `Connection: close`.
    pub close: bool,
}

/// Read one response off a keep-alive stream: status line, headers, and
/// exactly `Content-Length` body bytes into `body`. A body shorter than
/// its declared length is an `UnexpectedEof` error.
pub fn read_response(
    reader: &mut impl BufRead,
    body: &mut Vec<u8>,
) -> std::io::Result<ResponseHead> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| bad("header without colon"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad("bad content-length"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    body.clear();
    body.resize(length, 0);
    reader.read_exact(body)?;
    Ok(ResponseHead { status, close })
}

/// Check that `body` is `<?xml…<results count="N">` with exactly N
/// `<result ` rows and N ≤ `limit`; returns N.
pub fn check_results_xml(body: &[u8], limit: usize) -> Result<usize, &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    if !text.starts_with("<?xml") {
        return Err("body does not start with an XML declaration");
    }
    let marker = "<results count=\"";
    let at = text.find(marker).ok_or("no <results count=…> element")?;
    let digits = &text[at + marker.len()..];
    let end = digits.find('"').ok_or("unterminated count attribute")?;
    let declared: usize = digits[..end].parse().map_err(|_| "count is not a number")?;
    if text.matches("<result ").count() != declared {
        return Err("row count differs from the declared count");
    }
    if declared > limit {
        return Err("more rows than the requested limit");
    }
    Ok(declared)
}

/// One client of the closed loop.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Body of the last response.
    pub body: Vec<u8>,
    /// Response body bytes received.
    pub body_bytes: u64,
}

impl Client {
    /// A client that connects on its first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            body: Vec::new(),
            body_bytes: 0,
        }
    }

    /// Send `request` (complete request bytes) in one write and read the
    /// response into `self.body`. Connects first when the previous
    /// response closed the connection, so a caller timing this call pays
    /// for the reconnect. Any error drops the connection.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<u16> {
        let result = self.exchange(request);
        match &result {
            Ok(head) if !head.close => {}
            _ => self.conn = None,
        }
        result.map(|head| head.status)
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<ResponseHead> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            slot => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                slot.insert(BufReader::new(stream))
            }
        };
        conn.get_mut().write_all(request)?;
        let head = read_response(conn, &mut self.body)?;
        self.body_bytes += self.body.len() as u64;
        Ok(head)
    }

    /// `send`, then require a 200 whose body is a well-formed result
    /// list of at most `limit` rows.
    pub fn search(&mut self, request: &[u8], limit: usize) -> Result<(), String> {
        match self.send(request) {
            Ok(200) => check_results_xml(&self.body, limit)
                .map(|_| ())
                .map_err(str::to_string),
            Ok(status) => Err(format!("status {status}")),
            Err(e) => Err(format!("i/o: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Hands out its bytes `chunk` at a time, like a socket delivering a
    /// response in several segments.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\ncontent-length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno";

    #[test]
    fn reads_back_to_back_responses_across_any_chunking() {
        for chunk in [1, 2, 3, 7, 64, 4096] {
            let mut reader = BufReader::with_capacity(8, Trickle { data: TWO, chunk });
            let mut body = Vec::new();
            let first = read_response(&mut reader, &mut body).unwrap();
            assert_eq!((first.status, first.close), (200, false), "chunk {chunk}");
            assert_eq!(body, b"hello");
            let second = read_response(&mut reader, &mut body).unwrap();
            assert_eq!((second.status, second.close), (404, true), "chunk {chunk}");
            assert_eq!(body, b"no");
            let eof = read_response(&mut reader, &mut body).unwrap_err();
            assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn short_body_and_missing_length_are_errors() {
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello";
        let mut body = Vec::new();
        let e = read_response(&mut &short[..], &mut body).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
        let unframed = b"HTTP/1.1 200 OK\r\n\r\nhello";
        let e = read_response(&mut &unframed[..], &mut body).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        let truncated = b"HTTP/1.1 200 OK\r\nContent-Le";
        let e = read_response(&mut &truncated[..], &mut body).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn result_lists_are_checked_against_their_declared_count() {
        let two = b"<?xml version=\"1.0\"?>\n<results count=\"2\">\n  <result id=\"s1\">\n  </result>\n  <result id=\"s2\">\n  </result>\n</results>\n";
        assert_eq!(check_results_xml(two, 10), Ok(2));
        assert!(check_results_xml(two, 1).is_err());
        let lying = b"<?xml version=\"1.0\"?>\n<results count=\"3\">\n  <result id=\"s1\">\n  </result>\n</results>\n";
        assert!(check_results_xml(lying, 10).is_err());
        assert!(check_results_xml(b"server saturated", 10).is_err());
        let empty = b"<?xml version=\"1.0\"?>\n<results count=\"0\">\n</results>\n";
        assert_eq!(check_results_xml(empty, 10), Ok(0));
    }
}
