//! Property tests for the block profiler, via the testkit `forall!`
//! harness: merge commutativity/associativity down to the JSON byte
//! level (the guarantee the matrix runner's worker-count determinism
//! rests on), merge-equals-concatenation, and loader round-trips.

use codepack_obs::{BlockProfile, MissRecord};
use codepack_testkit::forall;
use codepack_testkit::prop::gen;

/// One profiler event: a buffer hit, or a miss with drawn service shape.
#[derive(Clone, Debug)]
enum Event {
    Hit(u32),
    Miss(u32, MissRecord),
}

/// Event streams over a small block range so merges actually collide on
/// the same block ids instead of landing in disjoint keys.
fn events() -> codepack_testkit::prop::Gen<Vec<Event>> {
    let block = gen::ints(0u32..24);
    let miss = gen::ints(0u64..512)
        .zip(gen::ints(0u8..8))
        .zip(gen::ints(0u64..32))
        .map(|((cycles, flags), beats)| MissRecord {
            critical_cycles: cycles,
            index_hit: match flags & 0b11 {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            },
            memory_beats: beats,
            decompressed: flags & 0b100 != 0,
            machine_check: false,
            faults_injected: u64::from(flags >> 2),
            faults_recovered: u64::from(flags >> 2),
        });
    let event = gen::bools().zip(block.zip(miss)).map(|(hit, (b, m))| {
        if hit {
            Event::Hit(b)
        } else {
            Event::Miss(b, m)
        }
    });
    gen::vec_of(event, 0..48)
}

fn build(events: &[Event], source: &str) -> BlockProfile {
    let mut p = BlockProfile::new();
    p.set_total_blocks(24);
    p.set_source(source);
    for e in events {
        match e {
            Event::Hit(b) => p.record_buffer_hit(*b),
            Event::Miss(b, m) => p.record_miss(*b, m),
        }
    }
    p
}

#[test]
fn merge_is_commutative_to_the_byte() {
    forall!(cases = 150, (events(), events()), |xs, ys| {
        let (a, b) = (build(&xs, "cell-a"), build(&ys, "cell-b"));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Byte-level equality is the property the worker-count
        // determinism gate relies on, so compare serialized forms.
        assert_eq!(ab.to_json(), ba.to_json());
    });
}

#[test]
fn merge_is_associative_to_the_byte() {
    forall!(cases = 150, (events(), events(), events()), |xs, ys, zs| {
        let (a, b, c) = (
            build(&xs, "cell-a"),
            build(&ys, "cell-b"),
            build(&zs, "cell-c"),
        );

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut tail = b.clone();
        tail.merge(&c);
        let mut right = a.clone();
        right.merge(&tail);

        assert_eq!(left.to_json(), right.to_json());
    });
}

#[test]
fn merge_matches_replaying_concatenated_events() {
    forall!(cases = 150, (events(), events()), |xs, ys| {
        let mut merged = build(&xs, "cell");
        merged.merge(&build(&ys, "cell"));

        let mut all: Vec<Event> = xs.clone();
        all.extend(ys.iter().cloned());
        let direct = build(&all, "cell");

        assert_eq!(merged.to_json(), direct.to_json());
    });
}

#[test]
fn json_round_trip_is_byte_identical() {
    forall!(cases = 150, (events()), |xs| {
        let p = build(&xs, "cell-a+cell-b");
        let doc = p.to_json();
        let back = BlockProfile::from_json(&doc).expect("loader accepts own output");
        assert_eq!(back.to_json(), doc);
    });
}

#[test]
fn merge_totals_add_and_touched_blocks_union() {
    forall!(cases = 150, (events(), events()), |xs, ys| {
        let (a, b) = (build(&xs, "a"), build(&ys, "b"));
        let (ta, tb) = (a.totals(), b.totals());
        let mut m = a.clone();
        m.merge(&b);
        let tm = m.totals();
        assert_eq!(tm.fetches, ta.fetches + tb.fetches);
        assert_eq!(tm.buffer_hits, ta.buffer_hits + tb.buffer_hits);
        assert_eq!(tm.decodes, ta.decodes + tb.decodes);
        assert!(m.blocks_touched() >= a.blocks_touched().max(b.blocks_touched()));
        assert!(m.blocks_touched() <= a.blocks_touched() + b.blocks_touched());
    });
}
