//! A minimal HTTP/1.1 keep-alive client that records when a request was
//! written and when the first byte of its reply arrived.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
}

/// Asks Linux to acknowledge received segments at once (`TCP_QUICKACK`;
/// the kernel clears it again after some receives, so it is re-armed
/// after every read).
///
/// Why: `obx serve` writes a reply's head and body in two writes on a
/// socket with Nagle's algorithm on, so the body waits until the head is
/// acknowledged. With delayed ACKs, whether that wait is ~0 or ~40 ms
/// depends on the connection's delayed-ACK state, which settles
/// differently from run to run and made serve latency bimodal between
/// runs. With quick ACKs the wait is a round trip on loopback. Ordinary
/// clients do not do this, so serve-zipf also sends part of its traffic
/// over a [`Conn::plain`] connection and reports the stall it sees.
fn quickack(stream: &TcpStream) {
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the call,
    // and the option value points to a live `i32` of the stated length.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// A complete reply with its client-side timestamps.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// When the request had been written to the socket.
    pub written: Instant,
    /// When the first byte of the reply was read.
    pub first_byte: Instant,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection idle for this long is replaced by a fresh one
/// before the next request. `obx serve` answers 408 on a connection idle
/// for its read timeout (5 s by default), and a request written just then
/// gets that 408 as its reply.
const IDLE_LIMIT: Duration = Duration::from_secs(4);

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    quick_ack: bool,
    stream: Option<TcpStream>,
    last_used: Instant,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection that acknowledges every read at once (see [`quickack`]).
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            quick_ack: true,
            stream: None,
            last_used: Instant::now(),
            buf: Vec::new(),
        }
    }

    /// A connection with the kernel's ordinary delayed ACKs, as most
    /// clients have.
    pub fn plain(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            quick_ack: false,
            ..Self::new(addr, timeout)
        }
    }

    /// Sends one request and reads its reply. On any error the connection
    /// is dropped and the next request reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        if self.last_used.elapsed() >= IDLE_LIMIT {
            self.stream = None;
        }
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_read_timeout(Some(self.timeout))?;
            s.set_write_timeout(Some(self.timeout))?;
            s.set_nodelay(true)?;
            if self.quick_ack {
                quickack(&s);
            }
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: obxbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(format!("{head}{body}").as_bytes())?;
        let written = Instant::now();
        let mut first_byte = None;
        let mut chunk = [0u8; 16 * 1024];
        let header_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            let n = stream.read(&mut chunk)?;
            if self.quick_ack {
                quickack(stream);
            }
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply without content-length")
            })?;
        let body_start = header_end + 4;
        while self.buf.len() < body_start + len {
            let n = stream.read(&mut chunk)?;
            if self.quick_ack {
                quickack(stream);
            }
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[body_start..body_start + len].to_vec();
        self.buf.drain(..body_start + len);
        self.last_used = Instant::now();
        if headers
            .iter()
            .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        Ok(Reply {
            status,
            headers,
            body,
            written,
            first_byte: first_byte.unwrap_or(written),
        })
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
