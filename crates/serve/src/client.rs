//! The client side of the NDJSON protocol: [`Client`] is the one framed
//! [`Conn`], speaking request frames. Requests are answered in order, so
//! a client can be reused for any number of frames (`lab submit` sends
//! one, the load generator thousands).

use crate::conn::Conn;
use crate::protocol::{FrameMeta, Request, Response};

/// A connection used from the client side (see [`Conn::connect`] and
/// [`Conn::connect_with`]).
pub type Client = Conn;

impl Conn {
    /// Sends one request frame and waits for its response frame.
    ///
    /// # Errors
    ///
    /// Returns a message if the connection drops or the response does not
    /// parse. Protocol-level failures are *not* errors: they come back as
    /// [`Response::Busy`] / [`Response::Error`] values.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.raw_request(&request.encode())
    }

    /// [`Client::request`] with request tracing: sends `trace_id` on the
    /// frame when given (the server generates a deterministic one
    /// otherwise) and returns the trace id the server echoed alongside
    /// the response.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn request_traced(
        &mut self,
        request: &Request,
        trace_id: Option<&str>,
    ) -> Result<(Response, Option<String>), String> {
        let meta = FrameMeta { trace_id: trace_id.map(str::to_string), ..FrameMeta::default() };
        self.request_meta(request, &meta)
    }

    /// [`Client::request`] with the full v3 envelope: the frame carries
    /// the set members of `meta` (`trace_id` and/or `auth`), and the
    /// echoed trace id rides back alongside the response.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn request_meta(
        &mut self,
        request: &Request,
        meta: &FrameMeta,
    ) -> Result<(Response, Option<String>), String> {
        self.raw_request_traced(&request.encode_with_meta(meta))
    }

    /// Sends one already-encoded line and waits for the response frame
    /// (used by tests to exercise the daemon's handling of bad frames).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn raw_request(&mut self, line: &str) -> Result<Response, String> {
        self.raw_request_traced(line).map(|(response, _)| response)
    }

    /// [`Client::raw_request`], keeping the echoed `trace_id`.
    fn raw_request_traced(&mut self, line: &str) -> Result<(Response, Option<String>), String> {
        self.send(line).map_err(|e| format!("cannot send request: {e}"))?;
        let reply = self.read_line().map_err(|e| format!("cannot read response: {e}"))?;
        Response::decode_frame(&reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnectOptions;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    #[test]
    fn connect_retries_until_the_daemon_binds() {
        // Reserve a port, release it, and only bind it again after the
        // first connect attempt has already failed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let listener = TcpListener::bind(addr).unwrap();
            let _conn = listener.accept().unwrap();
        });
        let opts = ConnectOptions {
            attempts: 20,
            initial_backoff: Duration::from_millis(10),
            read_timeout: None,
        };
        assert!(Client::connect_with(addr, opts).is_ok(), "retries must find the late daemon");
        binder.join().unwrap();
    }

    #[test]
    fn exhausted_retries_surface_the_last_error_after_backing_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let opts = ConnectOptions {
            attempts: 3,
            initial_backoff: Duration::from_millis(5),
            read_timeout: None,
        };
        let started = Instant::now();
        assert!(Client::connect_with(addr, opts).is_err());
        // Two sleeps happened: 5ms + 10ms (exponential), so at least ~15ms.
        assert!(started.elapsed() >= Duration::from_millis(15), "{:?}", started.elapsed());
    }

    #[test]
    fn read_timeout_turns_a_silent_server_into_a_clean_error() {
        // A listener that accepts but never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (_conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let opts = ConnectOptions {
            read_timeout: Some(Duration::from_millis(50)),
            ..ConnectOptions::default()
        };
        let mut client = Client::connect_with(addr, opts).unwrap();
        let error = client.request(&Request::Health).unwrap_err();
        assert!(error.contains("cannot read response"), "{error}");
        server.join().unwrap();
    }
}
