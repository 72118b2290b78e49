//! Deterministic mutation fuzzer for the `cpackd` wire protocol.
//!
//! Seeds a testkit PRNG (no wall clock, no OS entropy — every run
//! executes the identical mutation schedule), writes valid request frames
//! for every [`Op`] and response frames for every [`Status`], mutates
//! them with bit flips, byte overwrites, truncation and trailing garbage,
//! and reads them back with [`read_request`] / [`read_response`]. The
//! contract:
//!
//! * the outcome is a frame, a clean end of stream, or a typed
//!   [`ProtoError`] whose cause is visible in the bytes — never a panic;
//! * a decoded frame re-encodes to exactly the bytes it consumed, so the
//!   reader neither over-reads into the next frame nor accepts a frame
//!   its own writer would not produce;
//! * a length field above the read's `max_payload` yields `TooLarge`
//!   having read only the header: nothing is buffered past the cap.

use std::io::Cursor;

use codepack_svc::proto::{
    read_request, read_response, write_request, write_response, Op, ProtoError, Request, Response,
    Status, MAX_WIRE_PAYLOAD, PROTO_VERSION, REQUEST_HEADER_LEN, REQUEST_MAGIC,
    RESPONSE_HEADER_LEN, RESPONSE_MAGIC,
};
use codepack_testkit::Rng;

/// Fixed fuzzing seed: the schedule below is part of the test contract.
const FUZZ_SEED: u64 = 0x5EED_C0DE_F00D_0001;
/// Mutated frames per op and per status.
const ROUNDS: usize = 300;
/// The per-read buffering bound. Small, so mutated length fields land
/// above it often.
const MAX_PAYLOAD: u32 = 256;

/// Every response status, in wire-code order.
const STATUSES: [Status; 8] = [
    Status::Ok,
    Status::BadRequest,
    Status::Corrupt,
    Status::TooLarge,
    Status::Overloaded,
    Status::DeadlineExceeded,
    Status::ShuttingDown,
    Status::WorkerLost,
];

/// A frame reader: `read_request` or `read_response` over a byte slice.
type ReadFrame<T> = fn(&mut Cursor<&[u8]>, u32) -> Result<Option<T>, ProtoError>;

/// One side of the protocol: its header shape, writer and reader.
struct Side<T> {
    magic: [u8; 4],
    header_len: usize,
    write: fn(&T) -> Vec<u8>,
    read: ReadFrame<T>,
}

const REQUESTS: Side<Request> = Side {
    magic: REQUEST_MAGIC,
    header_len: REQUEST_HEADER_LEN,
    write: |req| {
        let mut wire = Vec::new();
        write_request(&mut wire, req).expect("writing to a Vec cannot fail");
        wire
    },
    read: |r, max| read_request(r, max),
};

const RESPONSES: Side<Response> = Side {
    magic: RESPONSE_MAGIC,
    header_len: RESPONSE_HEADER_LEN,
    write: |resp| {
        let mut wire = Vec::new();
        write_response(&mut wire, resp).expect("writing to a Vec cannot fail");
        wire
    },
    read: |r, max| read_response(r, max),
};

/// How many of each outcome the fuzz reached, so a schedule that stops
/// exercising a branch fails loudly instead of passing vacuously.
#[derive(Default)]
struct Outcomes {
    decoded: usize,
    truncated: usize,
    bad_magic: usize,
    version_skew: usize,
    unknown_code: usize,
    too_large: usize,
}

fn u16_at(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

/// The declared payload length: the header's last four bytes.
fn len_field(bytes: &[u8], header_len: usize) -> u32 {
    u32::from_le_bytes(bytes[header_len - 4..header_len].try_into().unwrap())
}

/// Reads one frame from `bytes` and checks the contract on the outcome.
fn check<T: std::fmt::Debug>(
    side: &Side<T>,
    bytes: &[u8],
    max: u32,
    seen: &mut Outcomes,
    ctx: &str,
) {
    let mut cur = Cursor::new(bytes);
    let outcome = (side.read)(&mut cur, max);
    let consumed = cur.position() as usize;
    let h = side.header_len;
    match outcome {
        Ok(Some(frame)) => {
            assert_eq!(
                (side.write)(&frame),
                bytes[..consumed],
                "{ctx}: {frame:?} does not re-encode to the {consumed} bytes it consumed"
            );
            seen.decoded += 1;
        }
        Ok(None) => assert!(
            bytes.is_empty(),
            "{ctx}: end of stream on {} bytes",
            bytes.len()
        ),
        Err(ProtoError::Truncated) => {
            let whole = bytes.len() >= h && bytes.len() - h >= len_field(bytes, h) as usize;
            assert!(!whole, "{ctx}: a whole frame reported as truncated");
            seen.truncated += 1;
        }
        Err(ProtoError::BadMagic) => {
            assert_ne!(bytes[..4], side.magic, "{ctx}: good magic rejected");
            seen.bad_magic += 1;
        }
        Err(ProtoError::VersionSkew { version }) => {
            assert_eq!(bytes[..4], side.magic, "{ctx}: version read before magic");
            assert_eq!(
                version,
                u16_at(bytes, 4),
                "{ctx}: skew names another version"
            );
            assert_ne!(version, PROTO_VERSION, "{ctx}: own version rejected");
            seen.version_skew += 1;
        }
        Err(ProtoError::UnknownOp(code) | ProtoError::UnknownStatus(code)) => {
            assert_eq!(
                code,
                u16_at(bytes, 6),
                "{ctx}: unknown code not the frame's"
            );
            assert!(code >= 8, "{ctx}: known code {code} rejected");
            seen.unknown_code += 1;
        }
        Err(ProtoError::TooLarge { len, limit }) => {
            assert_eq!(consumed, h, "{ctx}: TooLarge after reading past the header");
            assert_eq!(
                len,
                len_field(bytes, h),
                "{ctx}: TooLarge names another length"
            );
            assert_eq!(limit, max.min(MAX_WIRE_PAYLOAD), "{ctx}: wrong limit");
            assert!(
                len > limit,
                "{ctx}: length {len} within the {limit}-byte limit"
            );
            seen.too_large += 1;
        }
        Err(e @ ProtoError::Io(_)) => panic!("{ctx}: i/o error from an in-memory reader: {e}"),
    }
}

/// 1–4 bit flips or byte overwrites, then maybe a cut or trailing bytes.
fn mutate(rng: &mut Rng, frame: &[u8]) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    for _ in 0..rng.gen_range(1usize..=4) {
        let at = rng.gen_range(0..bytes.len());
        if rng.gen_bool(0.5) {
            bytes[at] ^= 1 << rng.gen_range(0u32..8);
        } else {
            bytes[at] = rng.gen_u32() as u8;
        }
    }
    match rng.gen_range(0u32..4) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => bytes.extend((0..rng.gen_range(1usize..=8)).map(|_| rng.gen_u32() as u8)),
        _ => {}
    }
    bytes
}

fn payload(rng: &mut Rng) -> Vec<u8> {
    let len = rng.gen_range(0..=MAX_PAYLOAD as usize / 4);
    (0..len).map(|_| rng.gen_u32() as u8).collect()
}

/// Fuzzes one valid frame: the clean frame, `ROUNDS` mutants, and its
/// length field set just above and far above the cap.
fn fuzz_frame<T: std::fmt::Debug>(
    side: &Side<T>,
    frame: &[u8],
    rng: &mut Rng,
    seen: &mut Outcomes,
    ctx: &str,
) {
    check(side, frame, MAX_PAYLOAD, seen, ctx);
    // A frame followed by the next one is read up to its own end.
    check(side, &[frame, frame].concat(), MAX_PAYLOAD, seen, ctx);
    for round in 0..ROUNDS {
        let bytes = mutate(rng, frame);
        check(
            side,
            &bytes,
            MAX_PAYLOAD,
            seen,
            &format!("{ctx} round {round}"),
        );
    }
    let h = side.header_len;
    for (len, max) in [
        (MAX_PAYLOAD + 1, MAX_PAYLOAD),
        (rng.gen_range(MAX_PAYLOAD + 1..=u32::MAX), MAX_PAYLOAD),
        (MAX_WIRE_PAYLOAD + 1, u32::MAX),
    ] {
        let mut bytes = frame.to_vec();
        bytes[h - 4..h].copy_from_slice(&len.to_le_bytes());
        let before = seen.too_large;
        check(side, &bytes, max, seen, &format!("{ctx} len {len}"));
        assert_eq!(
            seen.too_large,
            before + 1,
            "{ctx}: length {len} not TooLarge"
        );
    }
}

#[test]
fn mutated_requests_stay_typed_and_re_encode_exactly() {
    let mut rng = Rng::seed_from_u64(FUZZ_SEED);
    let mut seen = Outcomes::default();
    for op in Op::all() {
        let req = Request {
            id: rng.gen_u64(),
            op,
            deadline_ms: rng.gen_u32(),
            payload: payload(&mut rng),
        };
        let frame = (REQUESTS.write)(&req);
        fuzz_frame(
            &REQUESTS,
            &frame,
            &mut rng,
            &mut seen,
            &format!("request {op}"),
        );
    }
    assert_every_outcome_reached(&seen);
}

#[test]
fn mutated_responses_stay_typed_and_re_encode_exactly() {
    let mut rng = Rng::seed_from_u64(FUZZ_SEED ^ 1);
    let mut seen = Outcomes::default();
    for status in STATUSES {
        let resp = Response {
            id: rng.gen_u64(),
            status,
            payload: payload(&mut rng),
        };
        let frame = (RESPONSES.write)(&resp);
        fuzz_frame(
            &RESPONSES,
            &frame,
            &mut rng,
            &mut seen,
            &format!("response {status}"),
        );
    }
    assert_every_outcome_reached(&seen);
}

fn assert_every_outcome_reached(seen: &Outcomes) {
    for (what, n) in [
        ("decoded", seen.decoded),
        ("truncated", seen.truncated),
        ("bad magic", seen.bad_magic),
        ("version skew", seen.version_skew),
        ("unknown code", seen.unknown_code),
        ("too large", seen.too_large),
    ] {
        assert!(n > 0, "the fuzz schedule never reached `{what}`");
    }
}
