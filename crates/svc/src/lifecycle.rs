//! One `cpackd` request's reply decisions as a sans-IO state machine,
//! and the counters derived from the reply written.
//!
//! The connection thread does the IO and reports each result as an
//! [`Event`]. [`Lifecycle::on`] returns the request's one reply when it is
//! decided and `None` for every later event, so no event schedule can
//! produce a second answer. With no socket, clock or shared state here, a
//! test can replay any schedule.

use std::time::Duration;

use codepack_obs::{names, MetricsRegistry};

use crate::proto::{Op, ProtoError, Response, Status};

/// What the IO side observed about one request.
#[derive(Debug, PartialEq, Eq)]
pub enum Event {
    /// A request frame parsed; carries its id.
    Read(u64),
    /// The next frame failed to parse, so its id is unknown.
    ParseFailed(ProtoError),
    /// The drain flag was set when the request was read.
    Draining,
    /// The admission queue took the job.
    Admitted,
    /// The admission queue was full.
    QueueFull,
    /// The worker ran the handler, which answered this status and payload.
    Executed(Status, Vec<u8>),
    /// The worker dequeued the job after its deadline and did not run it.
    ExpiredInQueue,
    /// The connection's wait for the worker reached the deadline.
    DeadlinePassed,
    /// The worker died before answering (its reply channel dropped).
    WorkerGone,
}

/// Where a request stands; `Done` once its reply is decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Reading,
    Read,
    Admitted,
    Done,
}

/// One request's lifecycle, from frame read to its single reply.
#[derive(Debug, Default)]
pub struct Lifecycle {
    id: u64,
    phase: Phase,
}

impl Lifecycle {
    /// Feeds one event and returns the reply it decides, if any. At most
    /// one call per lifecycle returns `Some`; an event that cannot happen
    /// at the current stage, or comes after the reply, returns `None`.
    pub fn on(&mut self, event: Event) -> Option<Response> {
        let (status, payload): (Status, Vec<u8>) = match (self.phase, event) {
            (Phase::Reading, Event::Read(id)) => {
                self.id = id;
                self.phase = Phase::Read;
                return None;
            }
            (Phase::Read, Event::Admitted) => {
                self.phase = Phase::Admitted;
                return None;
            }
            // A parse error loses the id, so the reply carries id 0. A
            // truncated or failed stream means nobody is left to answer.
            (Phase::Reading, Event::ParseFailed(ProtoError::Truncated | ProtoError::Io(_))) => {
                self.phase = Phase::Done;
                return None;
            }
            (Phase::Reading, Event::ParseFailed(e @ ProtoError::TooLarge { .. })) => {
                (Status::TooLarge, e.to_string().into())
            }
            (Phase::Reading, Event::ParseFailed(e)) => (Status::BadRequest, e.to_string().into()),
            (Phase::Read, Event::Draining) => (Status::ShuttingDown, "server is draining".into()),
            (Phase::Read, Event::QueueFull) => (Status::Overloaded, "admission queue full".into()),
            (Phase::Admitted, Event::Executed(status, payload)) => (status, payload),
            (Phase::Admitted, Event::ExpiredInQueue) => (
                Status::DeadlineExceeded,
                "deadline expired while queued".into(),
            ),
            (Phase::Admitted, Event::DeadlinePassed) => {
                (Status::DeadlineExceeded, "deadline exceeded".into())
            }
            (Phase::Admitted, Event::WorkerGone) => {
                (Status::WorkerLost, "worker died mid-request".into())
            }
            _ => return None,
        };
        self.phase = Phase::Done;
        Some(Response {
            id: self.id,
            status,
            payload,
        })
    }
}

/// Counts one request the admission queue took: `svc.requests` and
/// `svc.requests.<op>`.
pub fn count_admitted(m: &mut MetricsRegistry, op: Op) {
    m.incr(names::SVC_REQUESTS, 1);
    m.incr(&format!("svc.requests.{}", op.name()), 1);
}

/// Counts one reply written with `status`: `svc.responses.<status>`, the
/// aggregate that status has (`svc.shed`, `svc.deadline_exceeded` or
/// `svc.shutting_down`), and for `Ok` the service latency. The only place
/// any of these counters moves.
pub fn count_reply(m: &mut MetricsRegistry, status: Status, latency: Option<Duration>) {
    m.incr(&format!("svc.responses.{}", status.name()), 1);
    match (status, latency) {
        (Status::Overloaded, _) => m.incr(names::SVC_SHED, 1),
        (Status::DeadlineExceeded, _) => m.incr(names::SVC_DEADLINE_EXCEEDED, 1),
        (Status::ShuttingDown, _) => m.incr(names::SVC_SHUTTING_DOWN, 1),
        (Status::Ok, Some(lat)) => m.observe(names::SVC_LATENCY_US, lat.as_micros() as u64),
        _ => {}
    }
}
