//! [`Conn`]: the one framed NDJSON connection under every socket of a
//! fleet — accepted by the daemon or the router, opened by
//! [`Client`](crate::Client), pooled by the router's relay or probing a
//! backend. It sets `TCP_NODELAY` and sends each frame, newline included,
//! in one write (otherwise a frame's second segment waits out the peer's
//! delayed ACK, tens of ms per hop). It caps request frames but not
//! response lines ([`Conn::read_line`]), and owns connect retries,
//! connect and read timeouts and the byte counters.

use dbt_obs::Counter;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Connection policy for [`Conn::connect_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Total connect attempts (at least 1).
    pub attempts: u32,
    /// Sleep before the second attempt; doubles per further attempt.
    pub initial_backoff: Duration,
    /// Per-response read timeout once connected, which also bounds each
    /// connect attempt (`None` = block forever, the v2 behaviour). A
    /// timed-out read surfaces as a request error.
    pub read_timeout: Option<Duration>,
}

impl Default for ConnectOptions {
    /// One attempt, no timeout.
    fn default() -> ConnectOptions {
        ConnectOptions {
            attempts: 1,
            initial_backoff: Duration::from_millis(50),
            read_timeout: None,
        }
    }
}

/// What one bounded request-frame read produced.
pub(crate) enum Frame {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The peer closed the connection (or the read failed).
    Eof,
    /// The line exceeded the frame cap (counted as such) or was not UTF-8:
    /// answer this clean `error` and close — past a bad line, the framing
    /// cannot be trusted any further.
    Fatal(String),
}

/// A connection's frame accounting: bytes read and written (newlines
/// included) and request frames rejected for exceeding the cap.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameCounters {
    pub(crate) read: Arc<Counter>,
    pub(crate) written: Arc<Counter>,
    pub(crate) too_long: Arc<Counter>,
}

/// One framed NDJSON connection.
#[derive(Debug)]
pub struct Conn {
    /// Buffers reads only; writes go straight to the socket underneath.
    stream: BufReader<TcpStream>,
    counters: FrameCounters,
}

impl Conn {
    /// Wraps a socket (accepted or connected), setting `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Fails if the socket rejects the option.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn { stream: BufReader::new(stream), counters: FrameCounters::default() })
    }

    /// Connects to `addr`: one attempt, no read timeout.
    ///
    /// # Errors
    ///
    /// The I/O error of the connect.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Conn> {
        Conn::connect_with(addr, ConnectOptions::default())
    }

    /// Connects to `addr` with `opts`' retries, backoff and timeout.
    ///
    /// # Errors
    ///
    /// The I/O error of the *last* attempt if every attempt fails.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, opts: ConnectOptions) -> std::io::Result<Conn> {
        let mut backoff = opts.initial_backoff;
        let mut last_error = None;
        for attempt in 0..opts.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            for addr in addr.to_socket_addrs()? {
                let stream = match opts.read_timeout {
                    Some(timeout) => TcpStream::connect_timeout(&addr, timeout),
                    None => TcpStream::connect(addr),
                };
                match stream {
                    Ok(stream) => {
                        stream.set_read_timeout(opts.read_timeout)?;
                        return Conn::new(stream);
                    }
                    Err(error) => last_error = Some(error),
                }
            }
        }
        Err(last_error.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to")
        }))
    }

    /// Counts this connection's frames into `counters` (a server's
    /// metric families) instead of its own.
    pub(crate) fn count_into(&mut self, counters: FrameCounters) {
        self.counters = counters;
    }

    /// The socket underneath, for queries (`nodelay`, `peer_addr`).
    pub fn socket(&self) -> &TcpStream {
        self.stream.get_ref()
    }

    /// Sends one frame and its newline in a single write.
    ///
    /// # Errors
    ///
    /// The I/O error of the write.
    pub fn send(&mut self, frame: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.counters.written.add(bytes.len() as u64);
        self.stream.get_mut().write_all(&bytes)
    }

    /// Reads one response line, however long, without its line ending.
    ///
    /// # Errors
    ///
    /// Read errors, timeouts, and `UnexpectedEof` if the peer closes first.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let read = self.stream.read_line(&mut line)?;
        if read == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response arrived",
            ));
        }
        self.counters.read.add(read as u64);
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one frame and reads the response line.
    ///
    /// # Errors
    ///
    /// The error of either half.
    pub fn roundtrip(&mut self, frame: &str) -> std::io::Result<String> {
        self.send(frame)?;
        self.read_line()
    }

    /// Reads one request frame, never buffering more than `max_bytes`.
    pub(crate) fn read_frame(&mut self, max_bytes: usize) -> Frame {
        let mut buf = Vec::new();
        let mut limited = (&mut self.stream).take(max_bytes as u64 + 1);
        match limited.read_until(b'\n', &mut buf) {
            Err(_) | Ok(0) => return Frame::Eof,
            Ok(_) => {}
        }
        // The newline is framing, not payload: drop it before checking the
        // cap, so a line of exactly `max_bytes` is accepted.
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.len() > max_bytes {
            // Discard the rest of the line (bounded, never buffered) before
            // answering: closing with unread bytes in the socket would RST
            // the connection and destroy the error frame we promise. A peer
            // that streams more than the drain cap without a newline gets
            // cut off regardless.
            let mut scratch = [0u8; 8192];
            let mut drained = 0u64;
            while drained <= 16 * max_bytes as u64 {
                match self.stream.read(&mut scratch) {
                    Err(_) | Ok(0) => break,
                    Ok(n) => {
                        drained += n as u64;
                        if scratch[..n].contains(&b'\n') {
                            break;
                        }
                    }
                }
            }
            self.counters.too_long.inc();
            return Frame::Fatal(format!(
                "request frame exceeds the {max_bytes}-byte limit; closing the connection"
            ));
        }
        self.counters.read.add(buf.len() as u64 + 1);
        match String::from_utf8(buf) {
            Ok(line) => Frame::Line(line),
            Err(_) => Frame::Fatal("request frame is not valid UTF-8".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected (client, accepted) pair over loopback.
    fn pair() -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Conn::connect(listener.local_addr().unwrap());
        let (accepted, _) = listener.accept().unwrap();
        (client.unwrap(), Conn::new(accepted).unwrap())
    }

    #[test]
    fn both_ends_set_nodelay_and_count_whole_frames() {
        let (mut client, mut server) = pair();
        assert!(client.socket().nodelay().unwrap());
        assert!(server.socket().nodelay().unwrap());
        let counters = FrameCounters::default();
        server.count_into(counters.clone());
        client.send("{\"op\": \"health\"}").unwrap();
        let Frame::Line(line) = server.read_frame(64) else { panic!("expected a line") };
        assert_eq!(line, "{\"op\": \"health\"}");
        server.send("ok").unwrap();
        assert_eq!(client.read_line().unwrap(), "ok");
        let (read, written) = (counters.read.get(), counters.written.get());
        assert_eq!((read, written), (17, 3), "frames count with their newlines");
    }

    #[test]
    fn requests_are_capped_but_responses_are_not() {
        let (mut client, mut server) = pair();
        let long = "x".repeat(100);
        client.send(&long).unwrap();
        assert!(matches!(server.read_frame(64), Frame::Fatal(_)));
        server.send(&long).unwrap();
        assert_eq!(client.read_line().unwrap(), long, "a response line has no cap");
        drop(server);
        let error = client.read_line().unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
