//! The `cpackd` zero-loss contract, checked on the request lifecycle with
//! no sockets, threads or clocks: every request read gets exactly one
//! typed reply, and the counters derived from the replies balance.
//!
//! A small model of the server (admission queue, worker pool, deadline
//! timers, drain flag) plays a seeded schedule. At each step the schedule
//! picks one of the actions the model allows, so drain can race an
//! enqueue, the queue can be full or closed, a worker can answer after
//! the connection gave up on its deadline, and a worker can die before
//! or after it replies. Every event goes to the request's
//! [`Lifecycle`], and the reply it returns must be the one the model
//! expects. Replies are counted with the server's own `count_admitted`
//! and `count_reply`. When the schedule's choices run out, the model
//! finishes the run with progress-only steps, so every run ends with
//! every request answered.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use codepack_obs::names::{
    SVC_DEADLINE_EXCEEDED, SVC_LATENCY_US, SVC_REQUESTS, SVC_SHED, SVC_SHUTTING_DOWN,
};
use codepack_obs::MetricsRegistry;
use codepack_svc::lifecycle::{count_admitted, count_reply, Event, Lifecycle};
use codepack_svc::{Op, ProtoError, Response, Status};
use codepack_testkit::forall;
use codepack_testkit::prop::gen;
use codepack_testkit::Rng;

/// Where one request stands, seen from its connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Conn {
    Unread,
    /// Read; the drain flag is not checked yet.
    Read,
    /// The drain flag was clear; the enqueue is not tried yet.
    Checked,
    /// Admitted; the connection waits on the worker.
    Waiting,
    Answered,
}

/// One request of the model.
struct Req {
    id: u64,
    op: Op,
    /// What the handler answers when a worker runs it.
    outcome: Status,
    conn: Conn,
    /// The deadline has passed (the connection's timer may not have
    /// fired yet, and a worker may not have noticed yet).
    expired: bool,
    life: Lifecycle,
}

/// One step the schedule can pick.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// A busy worker finishes its job and sends the handler's answer.
    Finish(usize),
    /// An idle worker dequeues the next job.
    Dequeue(usize),
    /// A read request's connection checks the drain flag.
    CheckDrain(usize),
    /// A checked request's connection tries the enqueue.
    Enqueue(usize),
    /// The next unread request is read.
    ReadNext,
    /// A queued or running request's deadline passes.
    Expire(usize),
    /// A waiting connection's deadline timer fires.
    Timeout(usize),
    /// A busy worker panics before answering and is respawned.
    Die(usize),
    /// A busy worker answers `Ok`, then exits and is respawned.
    ReplyThenDie(usize),
    /// The server starts draining.
    Drain,
    /// The admission queue closes (only while draining).
    CloseQueue,
    /// A garbage frame arrives on a fresh connection.
    Garbage(u8),
    /// An answered request's lifecycle gets one more event.
    Late(usize, u8),
}

/// The reply the model expects for `event` on a request whose
/// connection is in `conn`, as `(status, message)`; the message is
/// `None` where the payload is the handler's or the parser's own.
fn expected(conn: Conn, event: &Event) -> Option<(Status, Option<&'static str>)> {
    match (conn, event) {
        (Conn::Read, Event::Draining) => Some((Status::ShuttingDown, Some("server is draining"))),
        (Conn::Checked, Event::QueueClosed) => {
            Some((Status::ShuttingDown, Some("server is draining")))
        }
        (Conn::Checked, Event::QueueFull) => {
            Some((Status::Overloaded, Some("admission queue full")))
        }
        (Conn::Waiting, Event::Executed(status, _)) => Some((*status, None)),
        (Conn::Waiting, Event::ExpiredInQueue) => Some((
            Status::DeadlineExceeded,
            Some("deadline expired while queued"),
        )),
        (Conn::Waiting, Event::DeadlinePassed) => {
            Some((Status::DeadlineExceeded, Some("deadline exceeded")))
        }
        (Conn::Waiting, Event::WorkerGone) => {
            Some((Status::WorkerLost, Some("worker died mid-request")))
        }
        _ => None,
    }
}

/// A reply as one trace line.
fn show(reply: &Option<Response>) -> String {
    match reply {
        None => "-> None".to_string(),
        Some(r) => format!(
            "-> Some({} {} {:?})",
            r.id,
            r.status,
            String::from_utf8_lossy(&r.payload)
        ),
    }
}

/// Every event kind, for late deliveries.
fn any_event(k: u8, id: u64) -> Event {
    match k % 10 {
        0 => Event::Read(id),
        1 => Event::ParseFailed(ProtoError::BadMagic),
        2 => Event::Draining,
        3 => Event::Admitted,
        4 => Event::QueueFull,
        5 => Event::QueueClosed,
        6 => Event::Executed(Status::Ok, b"late".to_vec()),
        7 => Event::ExpiredInQueue,
        8 => Event::DeadlinePassed,
        _ => Event::WorkerGone,
    }
}

/// The server's shape for one schedule.
#[derive(Clone, Copy, Debug)]
struct Shape {
    requests: usize,
    depth: usize,
    workers: usize,
    /// Drain becomes possible once this many requests were answered, so
    /// that most schedules serve a while before it.
    drain_after: usize,
}

/// The model server and what it has seen.
struct Model {
    reqs: Vec<Req>,
    queue: VecDeque<usize>,
    depth: usize,
    drain_after: usize,
    /// The request each worker is running, if any.
    workers: Vec<Option<usize>>,
    draining: bool,
    closed: bool,
    garbage_left: u8,
    metrics: MetricsRegistry,
    /// Replies written, in order: `(id, status)`.
    written: Vec<(u64, Status)>,
    /// Every delivered event and its reply, for replay checks.
    trace: Vec<String>,
    /// The races this schedule ran into.
    races: BTreeSet<&'static str>,
}

const OPS: [Op; 6] = [
    Op::Ping,
    Op::Compress,
    Op::Decompress,
    Op::Lint,
    Op::Profile,
    Op::Metrics,
];

impl Model {
    fn new(shape: Shape) -> Model {
        let outcomes = [Status::Ok, Status::Ok, Status::BadRequest, Status::Corrupt];
        let reqs = (0..shape.requests)
            .map(|i| Req {
                id: 1_000 + i as u64,
                op: OPS[i % OPS.len()],
                outcome: outcomes[i % outcomes.len()],
                conn: Conn::Unread,
                expired: false,
                life: Lifecycle::default(),
            })
            .collect();
        Model {
            reqs,
            queue: VecDeque::new(),
            depth: shape.depth,
            drain_after: shape.drain_after,
            workers: vec![None; shape.workers],
            draining: false,
            closed: false,
            garbage_left: 3,
            metrics: MetricsRegistry::new(),
            written: Vec::new(),
            trace: Vec::new(),
            races: BTreeSet::new(),
        }
    }

    /// The actions allowed now. Progress actions come first, so always
    /// picking index 0 runs every request to its reply.
    fn actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        let busy = |w: &usize| self.workers[*w].is_some();
        let all_workers = 0..self.workers.len();
        out.extend(all_workers.clone().filter(busy).map(Action::Finish));
        if !self.queue.is_empty() {
            out.extend(
                all_workers
                    .clone()
                    .filter(|w| !busy(w))
                    .take(1)
                    .map(Action::Dequeue),
            );
        }
        let in_state = |c: Conn| (0..self.reqs.len()).filter(move |&i| self.reqs[i].conn == c);
        out.extend(in_state(Conn::Read).map(Action::CheckDrain));
        out.extend(in_state(Conn::Checked).map(Action::Enqueue));
        if self.reqs.iter().any(|r| r.conn == Conn::Unread) {
            out.push(Action::ReadNext);
        }
        let running: Vec<usize> = self.workers.iter().flatten().copied().collect();
        out.extend(
            (0..self.reqs.len())
                .filter(|&i| !self.reqs[i].expired)
                .filter(|i| self.queue.contains(i) || running.contains(i))
                .map(Action::Expire),
        );
        out.extend(
            in_state(Conn::Waiting)
                .filter(|&i| self.reqs[i].expired)
                .map(Action::Timeout),
        );
        out.extend(all_workers.clone().filter(busy).map(Action::Die));
        out.extend(all_workers.filter(busy).map(Action::ReplyThenDie));
        let answered = self
            .reqs
            .iter()
            .filter(|r| r.conn == Conn::Answered)
            .count();
        if !self.draining && answered >= self.drain_after {
            out.push(Action::Drain);
        } else if self.draining && !self.closed {
            out.push(Action::CloseQueue);
        }
        // The trace length varies the kind of garbage and late event.
        let kind = self.trace.len() as u8;
        if self.garbage_left > 0 {
            out.push(Action::Garbage(kind));
        }
        out.extend(in_state(Conn::Answered).map(|i| Action::Late(i, kind)));
        out
    }

    /// Delivers `event` to request `i`'s lifecycle and checks the reply
    /// against the model, then "writes" it.
    fn deliver(&mut self, i: usize, event: Event) {
        let want = expected(self.reqs[i].conn, &event);
        let executed = match &event {
            Event::Executed(_, payload) => Some(payload.clone()),
            _ => None,
        };
        let label = format!("{event:?}");
        let reply = self.reqs[i].life.on(event);
        self.trace
            .push(format!("req {i}: {label} {}", show(&reply)));
        match (want, reply) {
            (None, None) => {}
            (Some((status, message)), Some(resp)) => {
                assert_eq!(resp.id, self.reqs[i].id, "reply carries the request id");
                assert_eq!(resp.status, status, "req {i} after {label}");
                match message {
                    Some(m) => assert_eq!(resp.payload, m.as_bytes(), "req {i}"),
                    None => assert_eq!(Some(resp.payload.clone()), executed, "req {i}"),
                }
                self.reqs[i].conn = Conn::Answered;
                self.write(&resp);
            }
            (want, got) => panic!("req {i} after {label}: expected {want:?}, got {got:?}"),
        }
    }

    fn write(&mut self, resp: &Response) {
        count_reply(&mut self.metrics, resp.status, Some(Duration::ZERO));
        self.written.push((resp.id, resp.status));
    }

    fn step(&mut self, action: Action) {
        match action {
            Action::Finish(w) => {
                let i = self.workers[w].take().expect("busy worker");
                if self.reqs[i].conn == Conn::Answered {
                    self.races.insert("worker reply after the deadline");
                }
                let payload = format!("answer {i}").into_bytes();
                self.deliver(i, Event::Executed(self.reqs[i].outcome, payload));
            }
            Action::Dequeue(w) => {
                let i = self.queue.pop_front().expect("nonempty queue");
                if self.reqs[i].expired {
                    if self.reqs[i].conn == Conn::Waiting {
                        self.races.insert("expiry seen by the worker first");
                    }
                    self.deliver(i, Event::ExpiredInQueue);
                } else {
                    self.workers[w] = Some(i);
                }
            }
            Action::CheckDrain(i) => {
                if self.draining {
                    self.races.insert("drain seen after the read");
                    self.deliver(i, Event::Draining);
                } else {
                    self.reqs[i].conn = Conn::Checked;
                }
            }
            Action::Enqueue(i) => {
                let event = if self.closed {
                    self.races.insert("queue closed after the drain check");
                    Event::QueueClosed
                } else if self.queue.len() >= self.depth {
                    Event::QueueFull
                } else {
                    self.queue.push_back(i);
                    count_admitted(&mut self.metrics, self.reqs[i].op);
                    Event::Admitted
                };
                // Admission decides nothing; the connection waits.
                let admitted = event == Event::Admitted;
                self.deliver(i, event);
                if admitted {
                    self.reqs[i].conn = Conn::Waiting;
                }
            }
            Action::ReadNext => {
                let i = self.reqs.iter().position(|r| r.conn == Conn::Unread);
                let i = i.expect("an unread request");
                self.deliver(i, Event::Read(self.reqs[i].id));
                self.reqs[i].conn = Conn::Read;
            }
            Action::Expire(i) => self.reqs[i].expired = true,
            Action::Timeout(i) => self.deliver(i, Event::DeadlinePassed),
            Action::Die(w) => {
                let i = self.workers[w].take().expect("busy worker");
                self.deliver(i, Event::WorkerGone);
            }
            Action::ReplyThenDie(w) => {
                let i = self.workers[w].take().expect("busy worker");
                if self.reqs[i].conn == Conn::Waiting {
                    self.races.insert("worker death after its reply");
                }
                self.deliver(i, Event::Executed(Status::Ok, Vec::new()));
                // The reply channel drops as the worker exits.
                self.deliver(i, Event::WorkerGone);
            }
            Action::Drain => self.draining = true,
            Action::CloseQueue => self.closed = true,
            Action::Garbage(k) => {
                self.garbage_left -= 1;
                self.garbage(k);
            }
            Action::Late(i, k) => {
                let event = any_event(k, self.reqs[i].id);
                self.deliver(i, event);
            }
        }
    }

    /// A frame that fails to parse: the parser's message goes back under
    /// id 0, unless the stream died and nobody is left to answer.
    fn garbage(&mut self, k: u8) {
        let (error, want) = match k % 6 {
            0 => (ProtoError::Truncated, None),
            1 => (ProtoError::Io("reset".to_string()), None),
            2 => (ProtoError::BadMagic, Some(Status::BadRequest)),
            3 => (ProtoError::UnknownOp(99), Some(Status::BadRequest)),
            4 => (
                ProtoError::VersionSkew { version: 9 },
                Some(Status::BadRequest),
            ),
            _ => {
                let e = ProtoError::TooLarge { len: 9, limit: 1 };
                (e, Some(Status::TooLarge))
            }
        };
        let message = error.to_string();
        let mut life = Lifecycle::default();
        let reply = life.on(Event::ParseFailed(error));
        self.trace.push(format!("garbage {k}: {}", show(&reply)));
        match (want, reply) {
            (None, None) => {}
            (Some(status), Some(resp)) => {
                assert_eq!((resp.id, resp.status), (0, status));
                assert_eq!(resp.payload, message.as_bytes());
                self.write(&resp);
            }
            (want, got) => panic!("garbage {k}: expected {want:?}, got {got:?}"),
        }
        assert_eq!(
            life.on(Event::Read(7)),
            None,
            "a failed parse ends the lifecycle"
        );
    }

    fn done(&self) -> bool {
        self.reqs.iter().all(|r| r.conn == Conn::Answered)
            && self.queue.is_empty()
            && self.workers.iter().all(Option::is_none)
    }
}

/// Plays one schedule to the end, checks the contract, and returns the
/// finished model.
fn play(shape: Shape, choices: &[u8]) -> Model {
    let mut model = Model::new(shape);
    let mut picks = choices.iter();
    let mut steps = 0;
    while !model.done() {
        let actions = model.actions();
        let pick = picks.next().map_or(0, |&c| usize::from(c) % actions.len());
        model.step(actions[pick]);
        steps += 1;
        assert!(steps < 10_000, "schedule did not terminate");
    }

    // Exactly one reply per request, each carrying its own id.
    let mut per_id: BTreeMap<u64, usize> = BTreeMap::new();
    for &(id, _) in model.written.iter().filter(|(id, _)| *id != 0) {
        *per_id.entry(id).or_insert(0) += 1;
    }
    for r in &model.reqs {
        assert_eq!(per_id.get(&r.id), Some(&1), "request {} replies", r.id);
    }
    assert_eq!(per_id.len(), shape.requests, "no reply to an unknown id");

    // The counters balance against each other and against the replies.
    let m = &model.metrics;
    let get = |name: &str| m.counter_value(name).unwrap_or(0);
    let per_op: u64 = OPS
        .iter()
        .map(|op| get(&format!("svc.requests.{}", op.name())))
        .sum();
    assert_eq!(
        get(SVC_REQUESTS),
        per_op,
        "svc.requests = sum of svc.requests.<op>"
    );
    let mut by_status: BTreeMap<&str, u64> = BTreeMap::new();
    for &(_, status) in &model.written {
        *by_status.entry(status.name()).or_insert(0) += 1;
    }
    for (name, count) in &by_status {
        assert_eq!(
            get(&format!("svc.responses.{name}")),
            *count,
            "responses.{name}"
        );
    }
    for (aggregate, status) in [
        (SVC_SHED, Status::Overloaded),
        (SVC_DEADLINE_EXCEEDED, Status::DeadlineExceeded),
        (SVC_SHUTTING_DOWN, Status::ShuttingDown),
    ] {
        let by = format!("svc.responses.{}", status.name());
        assert_eq!(get(aggregate), get(&by), "{aggregate} = {by}");
    }
    let ok = by_status.get("ok").copied().unwrap_or(0);
    let latency = m.histogram(SVC_LATENCY_US).map_or(0, |h| h.count());
    assert_eq!(latency, ok, "one latency sample per Ok reply");
    model
}

#[test]
fn every_request_read_gets_exactly_one_typed_reply() {
    forall!(
        cases = 256,
        (
            gen::ints(1usize..=24),
            gen::ints(1usize..=4).zip(gen::ints(1usize..=3)),
            gen::ints(0usize..=32),
            gen::vec_of(gen::any_int::<u8>(), 0..400),
        ),
        |requests, (depth, workers), drain_after, choices| {
            let shape = Shape {
                requests,
                depth,
                workers,
                drain_after,
            };
            play(shape, &choices);
        }
    );
}

/// A schedule is a pure function of its inputs, so a failing seed's case
/// replays event for event.
#[test]
fn a_schedule_replays_exactly() {
    let shape = Shape {
        requests: 12,
        depth: 2,
        workers: 2,
        drain_after: 8,
    };
    let choices: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
    let first = play(shape, &choices).trace;
    assert_eq!(first, play(shape, &choices).trace);
    assert!(first.len() > 2 * shape.requests, "the schedule ran");
}

/// Seeded schedules must reach every reply status and every race the
/// property is about, so it cannot pass by never meeting one.
#[test]
fn seeded_schedules_reach_every_status_and_race() {
    let mut rng = Rng::seed_from_u64(0x11FE_C1C1E);
    let mut statuses = BTreeMap::new();
    let mut races = BTreeSet::new();
    for _ in 0..64 {
        let shape = Shape {
            requests: 16,
            depth: rng.gen_range(1..=3usize),
            workers: rng.gen_range(1..=2usize),
            drain_after: rng.gen_range(4..=24usize),
        };
        let choices: Vec<u8> = (0..200).map(|_| rng.gen_u32() as u8).collect();
        let model = play(shape, &choices);
        for (_, status) in model.written {
            *statuses.entry(status.name()).or_insert(0u32) += 1;
        }
        races.extend(model.races);
    }
    for status in [
        "ok",
        "bad_request",
        "corrupt",
        "too_large",
        "overloaded",
        "deadline_exceeded",
        "shutting_down",
        "worker_lost",
    ] {
        assert!(
            statuses.contains_key(status),
            "no schedule reached {status}: {statuses:?}"
        );
    }
    for race in [
        "drain seen after the read",
        "queue closed after the drain check",
        "expiry seen by the worker first",
        "worker reply after the deadline",
        "worker death after its reply",
    ] {
        assert!(races.contains(race), "no schedule reached: {race}");
    }
}
