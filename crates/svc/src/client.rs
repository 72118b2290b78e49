//! The `cpackd` client: every call carries a deadline and runs through
//! bounded, deterministic retry/backoff.
//!
//! A client owns one connection (re-established lazily after any
//! failure) and issues calls serially. Each call:
//!
//! 1. draws its backoff schedule up front — a pure function of
//!    `(policy, seed, call_id)` via the testkit PRNG, so a fixed-seed
//!    load run retries identically at any worker count;
//! 2. stamps the wire id as `(call_id << 8) | attempt`, so a torn or
//!    duplicated response from a previous attempt can never be mistaken
//!    for this one;
//! 3. bounds every socket operation by the call deadline (plus a small
//!    margin so the server's own `DeadlineExceeded` answer usually wins
//!    the race and arrives typed);
//! 4. retries only failures that are transient by contract —
//!    [`Status::is_retryable`] statuses and connection-level errors —
//!    and never `BadRequest` / `Corrupt` / `TooLarge`, which are
//!    properties of the request itself.
//!
//! Every terminal outcome is a typed [`CallError`]; the client never
//! hangs past its deadline budget and never panics on hostile bytes.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use crate::proto::{self, Op, Request, Response, Status, MAX_WIRE_PAYLOAD};
use crate::retry::RetryPolicy;

/// Client knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Per-attempt deadline sent on the wire and enforced locally,
    /// milliseconds.
    pub deadline_ms: u32,
    /// The retry/backoff envelope.
    pub retry: RetryPolicy,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Largest response payload this client will buffer.
    pub max_payload: u32,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            deadline_ms: 2_000,
            retry: RetryPolicy::default(),
            seed: 0,
            max_payload: MAX_WIRE_PAYLOAD,
        }
    }
}

/// Why a call terminally failed (after all retries the policy allows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallError {
    /// The server answered with a non-`Ok` status and either it is not
    /// retryable or the retry budget ran out.
    Rejected {
        /// The final status.
        status: Status,
        /// The server's message payload.
        message: String,
        /// Attempts consumed, including the first.
        attempts: u32,
    },
    /// The connection failed (connect, send, receive, or timeout) on
    /// every allowed attempt.
    Connection {
        /// The final transport error.
        message: String,
        /// Attempts consumed, including the first.
        attempts: u32,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Rejected {
                status,
                message,
                attempts,
            } => write!(
                f,
                "rejected with {status} after {attempts} attempt(s): {message}"
            ),
            CallError::Connection { message, attempts } => {
                write!(
                    f,
                    "connection failed after {attempts} attempt(s): {message}"
                )
            }
        }
    }
}

impl std::error::Error for CallError {}

impl CallError {
    /// The final status, when the server produced one.
    pub fn status(&self) -> Option<Status> {
        match self {
            CallError::Rejected { status, .. } => Some(*status),
            CallError::Connection { .. } => None,
        }
    }
}

/// What one attempt produced, before the retry loop decides.
enum Attempt {
    Done(Vec<u8>),
    Status(Status, String),
    Transport(String),
}

/// A `cpackd` client. Not thread-safe by design — one connection, one
/// call at a time; clone-free workers each own their client.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<TcpStream>,
    next_call: u64,
}

impl Client {
    /// A client for the server at `addr`. No connection is made until
    /// the first call.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Client {
        Client {
            addr,
            config,
            conn: None,
            next_call: 0,
        }
    }

    /// Issues `op` with the config's per-attempt deadline, retrying per
    /// the policy. Returns the response payload on `Ok`.
    pub fn call(&mut self, op: Op, payload: &[u8]) -> Result<Vec<u8>, CallError> {
        let deadline_ms = self.config.deadline_ms;
        let call_id = self.next_call;
        self.next_call += 1;
        let delays = self.config.retry.schedule(self.config.seed, call_id);
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut last = Attempt::Transport("no attempt made".to_string());
        for attempt in 0..max_attempts {
            if attempt > 0 {
                let delay = delays
                    .get(attempt as usize - 1)
                    .copied()
                    .unwrap_or_default();
                if delay > 0 {
                    thread::sleep(Duration::from_micros(delay));
                }
            }
            // Wire ids never repeat across attempts, so a stale response
            // from attempt N-1 cannot satisfy attempt N.
            let wire_id = (call_id << 8) | u64::from(attempt & 0xff);
            match self.attempt(op, payload, deadline_ms, wire_id) {
                Attempt::Done(bytes) => return Ok(bytes),
                Attempt::Status(status, message) => {
                    if !status.is_retryable() {
                        return Err(CallError::Rejected {
                            status,
                            message,
                            attempts: attempt + 1,
                        });
                    }
                    last = Attempt::Status(status, message);
                }
                Attempt::Transport(message) => last = Attempt::Transport(message),
            }
        }
        Err(match last {
            Attempt::Status(status, message) => CallError::Rejected {
                status,
                message,
                attempts: max_attempts,
            },
            Attempt::Transport(message) => CallError::Connection {
                message,
                attempts: max_attempts,
            },
            Attempt::Done(_) => unreachable!("successful attempts return early"),
        })
    }

    /// One request/response exchange. Any transport failure tears the
    /// connection down so the next attempt starts from a clean stream.
    fn attempt(&mut self, op: Op, payload: &[u8], deadline_ms: u32, wire_id: u64) -> Attempt {
        let deadline = Duration::from_millis(u64::from(deadline_ms.max(1)));
        // Margin so the server's typed DeadlineExceeded beats the local
        // socket timeout when both fire.
        let socket_timeout = deadline + Duration::from_millis(150);
        let max_payload = self.config.max_payload;
        let stream = match self.ensure_conn(socket_timeout) {
            Ok(s) => s,
            Err(e) => return Attempt::Transport(e),
        };
        let req = Request {
            id: wire_id,
            op,
            deadline_ms,
            payload: payload.to_vec(),
        };
        if let Err(e) = proto::write_request(stream, &req) {
            self.conn = None;
            return Attempt::Transport(e.to_string());
        }
        match proto::read_response(stream, max_payload) {
            Ok(Some(resp)) => self.accept(resp, wire_id),
            Ok(None) => {
                // The server closed cleanly between frames (restart or
                // proto-level hangup): transient, retryable.
                self.conn = None;
                Attempt::Transport("server closed the connection".to_string())
            }
            Err(e) => {
                self.conn = None;
                Attempt::Transport(e.to_string())
            }
        }
    }

    fn accept(&mut self, resp: Response, wire_id: u64) -> Attempt {
        // Only one request is ever in flight per connection, so an error
        // response with id 0 (the server could not parse an id) is still
        // unambiguously ours. Anything else off-id means the stream
        // desynchronized: tear it down and retry on a fresh one.
        let ours = resp.id == wire_id || (resp.id == 0 && resp.status != Status::Ok);
        if !ours {
            self.conn = None;
            return Attempt::Transport(format!(
                "response id {} does not match request id {wire_id} (stream desync)",
                resp.id
            ));
        }
        match resp.status {
            Status::Ok => Attempt::Done(resp.payload),
            status => Attempt::Status(status, String::from_utf8_lossy(&resp.payload).into_owned()),
        }
    }

    fn ensure_conn(&mut self, timeout: Duration) -> Result<&mut TcpStream, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, timeout)
                .map_err(|e| format!("connect to {}: {e}", self.addr))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(stream);
        }
        let conn = self.conn.as_mut().expect("just ensured");
        // Refresh timeouts for this call's deadline.
        conn.set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        conn.set_write_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        Ok(conn)
    }
}

/// Sends raw bytes to the server and drains whatever comes back until
/// the peer closes or times out. Chaos tooling uses this to inject torn
/// and garbage traffic that a well-formed [`Client`] cannot produce.
pub fn send_raw(addr: SocketAddr, bytes: &[u8], timeout: Duration) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    use std::io::Write as _;
    stream.write_all(bytes).map_err(|e| e.to_string())?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out); // timeout or EOF both fine
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_error_display_is_informative() {
        let e = CallError::Rejected {
            status: Status::Overloaded,
            message: "admission queue full".to_string(),
            attempts: 4,
        };
        let s = e.to_string();
        assert!(s.contains("overloaded") && s.contains('4'), "{s}");
        assert_eq!(e.status(), Some(Status::Overloaded));
        let c = CallError::Connection {
            message: "refused".to_string(),
            attempts: 2,
        };
        assert_eq!(c.status(), None);
    }

    #[test]
    fn unreachable_server_fails_typed_after_all_attempts() {
        // A port nothing listens on: every attempt is a connection
        // error, and the client gives up after exactly max_attempts.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client = Client::new(
            addr,
            ClientConfig {
                deadline_ms: 50,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_delay_us: 10,
                    max_delay_us: 50,
                    max_total_delay_us: 200,
                },
                seed: 7,
                max_payload: 1024,
            },
        );
        match client.call(Op::Ping, b"hello") {
            Err(CallError::Connection { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected Connection error, got {other:?}"),
        }
    }
}
