//! Deterministic soft-error injection and memory-integrity modeling.
//!
//! Embedded parts running compressed code keep their working set in exactly
//! the structures a particle strike hurts most: a variable-length stream
//! (one flipped codeword bit misaligns the rest of the block), a packed
//! index table, and small dictionary SRAMs. This module models those
//! strikes, the protection hardware that catches them, and the recovery
//! that follows:
//!
//! * [`FaultModel`] — a zero-wall-clock fault process. Whether a given
//!   access is struck is a *pure function* of `(seed, area, cycle,
//!   address)`, so any run is bit-reproducible at any worker count and a
//!   protected run at rate 0 is byte-identical to an unprotected one. It
//!   probes the four [`FaultArea`]s the trace names.
//! * [`StreamIntegrity`] — the one integrity setting: the check over the
//!   compressed stream (none, interleaved parity or per-block CRC-32),
//!   which also arms parity over the index, dictionary and I-cache SRAM
//!   and fixes what checking costs in bus bytes and checker cycles.
//! * [`FaultStats`] — the conservation ledger: every injected fault is
//!   either detected (and then recovered or trapped) or escapes silently,
//!   and `injected == recovered + trapped + silent` always holds.
//!   [`FaultStats::parity_strike`] is the strike-and-recover routine of
//!   every parity-protected structure; [`FaultStats::strike`] books and
//!   traces any one strike.
//!
//! The fetch engine's bounded stream re-fetch lives in `codepack-core`;
//! the pipeline's machine-check trap in `codepack-cpu`.

use codepack_obs::{EventKind, FaultArea, Obs};
use codepack_testkit::{mix_seed, Rng};

/// Decorrelation tag mixed into the PRNG key, so the same (cycle, address)
/// pair draws independently per fault area.
fn area_tag(area: FaultArea) -> u64 {
    match area {
        FaultArea::Stream => 0x5354_5245_414d,     // "STREAM"
        FaultArea::Index => 0x0049_4458,           // "IDX"
        FaultArea::Dictionary => 0x4449_4354,      // "DICT"
        FaultArea::IcacheLine => 0x4943_4143_4845, // "ICACHE"
    }
}

/// The bit flips one fault event applies. At most two bits flip — enough to
/// distinguish parity (odd flips only) from CRC (any flips) detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flips {
    /// Number of flipped bits: 1 or 2.
    pub count: u32,
    /// Bit positions within the probed word/region (only `bits[..count]`
    /// are meaningful; positions are distinct).
    pub bits: [u32; 2],
}

impl Flips {
    /// Whether parity (an odd-flip detector) catches this event.
    fn parity_detects(&self) -> bool {
        self.count % 2 == 1
    }
}

/// One in `DOUBLE_BIT_DENOM` fault events flips two bits instead of one —
/// the multi-bit tail that defeats parity but not CRC.
const DOUBLE_BIT_DENOM: u64 = 4;

/// Parts-per-billion denominator for [`FaultModel::ppb`].
pub const PPB_SCALE: u64 = 1_000_000_000;

/// A deterministic soft-error process.
///
/// `ppb` is the probability, in parts per billion, that a single probed
/// access is struck (`1_000_000_000` = every access faults). Rates are per
/// *access opportunity* — one draw per stream/index/dictionary read or
/// I-cache line hit — not per simulated cycle, so slower machines do not
/// see more faults for the same instruction count.
///
/// ```
/// use codepack_mem::FaultModel;
/// use codepack_obs::FaultArea;
/// let m = FaultModel::new(7, 1_000_000_000); // every access faults
/// let a = m.probe(100, 0x40, FaultArea::Stream, 64).unwrap();
/// let b = m.probe(100, 0x40, FaultArea::Stream, 64).unwrap();
/// assert_eq!(a, b, "same key, same flips");
/// assert!(FaultModel::new(7, 0).probe(100, 0x40, FaultArea::Stream, 64).is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultModel {
    /// Root seed of the fault process.
    pub seed: u64,
    /// Strike probability per probed access, in parts per billion.
    pub ppb: u32,
}

impl FaultModel {
    /// A fault process striking with probability `ppb / 1e9` per access.
    pub fn new(seed: u64, ppb: u32) -> FaultModel {
        assert!(
            u64::from(ppb) <= PPB_SCALE,
            "fault rate {ppb} exceeds 1e9 parts per billion"
        );
        FaultModel { seed, ppb }
    }

    /// A process that never fires (rate 0).
    pub fn none() -> FaultModel {
        FaultModel { seed: 0, ppb: 0 }
    }

    /// Decides whether the access at (`cycle`, `addr`) in `area` is
    /// struck, and if so which of its `width_bits` bits flip. Pure: the
    /// same key always returns the same answer, and a rate of 0 returns
    /// `None` without touching the PRNG.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits == 0`.
    pub fn probe(&self, cycle: u64, addr: u64, area: FaultArea, width_bits: u32) -> Option<Flips> {
        if self.ppb == 0 {
            return None;
        }
        assert!(width_bits > 0, "cannot flip bits in a zero-width region");
        let key = mix_seed(mix_seed(mix_seed(self.seed, area_tag(area)), cycle), addr);
        let mut rng = Rng::seed_from_u64(key);
        if rng.bounded_u64(PPB_SCALE) >= u64::from(self.ppb) {
            return None;
        }
        let first = rng.bounded_u64(u64::from(width_bits)) as u32;
        let double = width_bits > 1 && rng.bounded_u64(DOUBLE_BIT_DENOM) == 0;
        if !double {
            return Some(Flips {
                count: 1,
                bits: [first, 0],
            });
        }
        // Second flip: a distinct position, chosen without rejection so the
        // draw count stays fixed.
        let second = (first + 1 + rng.bounded_u64(u64::from(width_bits) - 1) as u32) % width_bits;
        Some(Flips {
            count: 2,
            bits: [first, second],
        })
    }
}

/// The integrity hardware a soft-error configuration arms, named by its
/// check over the compressed instruction stream.
///
/// Every protected setting also arms parity over the index-table,
/// dictionary and resident I-cache SRAM.
/// That parity is modeled as widened SRAM — the parity bits ride in the
/// same physical word, so they add checker cycles but no bus beats. Stream
/// protection travels over the bus with the block and does add beats (see
/// [`StreamIntegrity::overhead_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamIntegrity {
    /// No stream protection; corruption is caught only if it happens to
    /// break the codec (a `DecompressError`).
    None,
    /// One interleaved parity bit per payload byte, checked beat by beat.
    /// Catches odd-bit flips; transparent to double-bit events.
    Parity,
    /// A 4-byte CRC-32 appended to each compressed block, checked after the
    /// last beat. Catches all 1- and 2-bit flips the model injects.
    Crc32,
}

impl StreamIntegrity {
    /// Stable lower-case name (used in campaign labels and reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            StreamIntegrity::None => "none",
            StreamIntegrity::Parity => "parity",
            StreamIntegrity::Crc32 => "crc32",
        }
    }

    /// Parses a name [`StreamIntegrity::as_str`] returns.
    ///
    /// # Errors
    ///
    /// Names the unknown mode and the three it accepts.
    pub fn parse(name: &str) -> Result<StreamIntegrity, String> {
        match name {
            "none" => Ok(StreamIntegrity::None),
            "parity" => Ok(StreamIntegrity::Parity),
            "crc32" => Ok(StreamIntegrity::Crc32),
            other => Err(format!(
                "unknown integrity mode `{other}` (none|parity|crc32)"
            )),
        }
    }

    /// Whether parity protects the index, dictionary and I-cache SRAM:
    /// every setting but `None` arms it.
    fn sram_parity(&self) -> bool {
        *self != StreamIntegrity::None
    }

    /// Cycles the checker adds after the protected data arrives (CRC
    /// comparison, syndrome check). Parity is checked in flight and pays
    /// this only when it fires a retry.
    pub fn check_cycles(&self) -> u64 {
        match self {
            StreamIntegrity::None => 0,
            StreamIntegrity::Parity => 1,
            StreamIntegrity::Crc32 => 2,
        }
    }

    /// Extra bus bytes a protected read of `payload` bytes transfers.
    pub fn overhead_bytes(&self, payload: u32) -> u32 {
        match self {
            StreamIntegrity::None => 0,
            StreamIntegrity::Parity => payload.div_ceil(8),
            StreamIntegrity::Crc32 => 4,
        }
    }

    /// Whether this check catches a given flip pattern.
    pub fn detects(&self, flips: &Flips) -> bool {
        match self {
            StreamIntegrity::None => false,
            StreamIntegrity::Parity => flips.parity_detects(),
            StreamIntegrity::Crc32 => true,
        }
    }
}

/// The complete soft-error configuration a simulation arms: the fault
/// process, the integrity hardware, and the recovery budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SoftErrorConfig {
    /// The fault injection process.
    pub faults: FaultModel,
    /// The armed integrity hardware.
    pub integrity: StreamIntegrity,
    /// Bounded re-fetch attempts after a detection before the fetch engine
    /// gives up and raises a machine check.
    pub max_refetch: u32,
}

impl SoftErrorConfig {
    /// Faults at `ppb` with the given integrity, 3 re-fetch attempts.
    pub fn new(seed: u64, ppb: u32, integrity: StreamIntegrity) -> SoftErrorConfig {
        SoftErrorConfig {
            faults: FaultModel::new(seed, ppb),
            integrity,
            max_refetch: 3,
        }
    }

    /// Returns the config with a different re-fetch budget.
    pub fn with_max_refetch(mut self, max_refetch: u32) -> SoftErrorConfig {
        self.max_refetch = max_refetch;
        self
    }
}

/// The fault-outcome ledger. Conservation invariant (checked by
/// [`FaultStats::conserves`]): every injected fault is recovered, trapped,
/// or silent — `injected == recovered + trapped + silent` and
/// `detected == recovered + trapped`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events the model injected.
    pub injected: u64,
    /// Injected faults an armed check (or the codec) caught.
    pub detected: u64,
    /// Detected faults cured by re-fetch.
    pub recovered: u64,
    /// Detected faults that exhausted the re-fetch budget and raised a
    /// machine check.
    pub trapped: u64,
    /// Injected faults no check caught — silent corruption escapes.
    pub silent: u64,
    /// Re-fetch attempts issued (≥ `recovered`; retries that themselves
    /// faulted count each attempt).
    pub retries: u64,
    /// Machine-check traps raised (one per trapped miss, which may carry
    /// several trapped faults).
    pub machine_checks: u64,
}

impl FaultStats {
    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.trapped += other.trapped;
        self.silent += other.silent;
        self.retries += other.retries;
        self.machine_checks += other.machine_checks;
    }

    /// True when nothing was ever injected (the armed-but-rate-0 case).
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Whether the ledger conserves: `injected == recovered + trapped +
    /// silent` and `detected == recovered + trapped`.
    pub fn conserves(&self) -> bool {
        self.injected == self.recovered + self.trapped + self.silent
            && self.detected == self.recovered + self.trapped
    }

    /// Books one injected strike on `area` as detected or silent and traces
    /// it at `cycle`: `FaultInjected`, then `FaultDetected` or
    /// `FaultSilent` at `addr`. What a detection costs and how it ends is
    /// the caller's.
    pub fn strike(
        &mut self,
        obs: &mut Obs,
        cycle: u64,
        area: FaultArea,
        addr: u32,
        flips: &Flips,
        detected: bool,
    ) {
        self.injected += 1;
        obs.emit(
            cycle,
            EventKind::FaultInjected {
                area,
                addr,
                flips: flips.count,
            },
        );
        if detected {
            self.detected += 1;
            obs.emit(cycle, EventKind::FaultDetected { area, addr });
        } else {
            self.silent += 1;
            obs.emit(cycle, EventKind::FaultSilent { area, addr });
        }
    }

    /// The strike-and-recover routine of every parity-protected structure
    /// (an index entry, a dictionary entry, a resident I-cache line): parity
    /// under `integrity` catches odd flips, and one re-read from the good
    /// copy behind the structure cures what it catches, so a detection is
    /// also one retry and one recovery, traced as `FaultRetry { attempt: 1 }`
    /// at `cycle`. Returns whether parity caught the strike; the caller then
    /// charges its re-read.
    pub fn parity_strike(
        &mut self,
        obs: &mut Obs,
        cycle: u64,
        area: FaultArea,
        addr: u32,
        flips: &Flips,
        integrity: StreamIntegrity,
    ) -> bool {
        let detected = integrity.sram_parity() && flips.parity_detects();
        self.strike(obs, cycle, area, addr, flips, detected);
        if detected {
            self.retries += 1;
            self.recovered += 1;
            obs.emit(cycle, EventKind::FaultRetry { area, attempt: 1 });
        }
        detected
    }
}

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0][b]` is the CRC of the byte `b`, and
/// `CRC32_TABLES[k][b]` that byte followed by `k` zero bytes, so one step
/// folds eight input bytes with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven
/// eight bytes at a time. The simulator checksums a few dozen bytes per
/// miss; the `.cpk` frame checksums every group payload it packs or
/// unpacks.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_a_pure_function_of_its_key() {
        let m = FaultModel::new(42, 500_000_000);
        for cycle in [0u64, 17, 1 << 40] {
            for addr in [0u64, 0x40_0000, u64::MAX] {
                let a = m.probe(cycle, addr, FaultArea::Stream, 256);
                let b = m.probe(cycle, addr, FaultArea::Stream, 256);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn rate_zero_never_fires_and_rate_full_always_fires() {
        let off = FaultModel::new(9, 0);
        let on = FaultModel::new(9, PPB_SCALE as u32);
        for i in 0..200u64 {
            assert!(off.probe(i, i * 8, FaultArea::Index, 32).is_none());
            let f = on.probe(i, i * 8, FaultArea::Index, 32).unwrap();
            assert!((1..=2).contains(&f.count));
            assert!(f.bits[..f.count as usize].iter().all(|&b| b < 32));
            if f.count == 2 {
                assert_ne!(f.bits[0], f.bits[1], "double flips hit distinct bits");
            }
        }
    }

    #[test]
    fn domains_draw_independent_streams() {
        let m = FaultModel::new(3, PPB_SCALE as u32);
        let a = m.probe(5, 0x100, FaultArea::Stream, 512).unwrap();
        let b = m.probe(5, 0x100, FaultArea::Dictionary, 512).unwrap();
        // Same key apart from the domain tag; identical flips would mean
        // the tag is not mixed in.
        assert_ne!(a, b);
    }

    #[test]
    fn observed_rate_tracks_ppb() {
        // 10% rate over 10k probes: expect ~1000 hits, loosely bounded.
        let m = FaultModel::new(11, 100_000_000);
        let hits = (0..10_000u64)
            .filter(|&i| {
                m.probe(i, 0x40_0000 + i * 4, FaultArea::Stream, 64)
                    .is_some()
            })
            .count();
        assert!((800..1200).contains(&hits), "10% rate gave {hits}/10000");
    }

    #[test]
    fn multi_bit_flips_occur_and_defeat_parity() {
        let m = FaultModel::new(13, PPB_SCALE as u32);
        let doubles = (0..1000u64)
            .filter_map(|i| m.probe(i, i, FaultArea::Stream, 128))
            .filter(|f| f.count == 2)
            .count();
        // 1-in-4 nominal; loose bounds.
        assert!((150..350).contains(&doubles), "got {doubles}/1000 doubles");
        let double = Flips {
            count: 2,
            bits: [3, 9],
        };
        let single = Flips {
            count: 1,
            bits: [3, 0],
        };
        assert!(!StreamIntegrity::Parity.detects(&double));
        assert!(StreamIntegrity::Parity.detects(&single));
        assert!(StreamIntegrity::Crc32.detects(&double));
        assert!(!StreamIntegrity::None.detects(&single));
    }

    #[test]
    fn integrity_overheads_match_the_modeled_hardware() {
        assert_eq!(StreamIntegrity::None.overhead_bytes(40), 0);
        assert_eq!(StreamIntegrity::Parity.overhead_bytes(40), 5);
        assert_eq!(StreamIntegrity::Parity.overhead_bytes(1), 1);
        assert_eq!(StreamIntegrity::Crc32.overhead_bytes(40), 4);
    }

    /// The bit-at-a-time CRC-32, kept as the oracle for the table-driven
    /// one: the frame linter recomputes trailers with `crc32` itself, so it
    /// cannot catch a wrong table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Any single flipped bit changes the CRC.
        let base = crc32(b"codepack");
        let mut corrupt = *b"codepack";
        corrupt[3] ^= 0x10;
        assert_ne!(crc32(&corrupt), base);
    }

    /// Every length 0..=300 at every start offset 0..8: the eight-byte
    /// steps, the byte tail, and every alignment of both.
    #[test]
    fn table_driven_crc32_equals_bitwise() {
        let buf: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn ledger_conservation_is_enforced() {
        let mut s = FaultStats {
            injected: 5,
            detected: 3,
            recovered: 2,
            trapped: 1,
            silent: 2,
            retries: 4,
            machine_checks: 1,
        };
        assert!(s.conserves());
        let other = s;
        s.merge(&other);
        assert!(s.conserves());
        assert_eq!(s.injected, 10);
        let broken = FaultStats {
            injected: 2,
            ..FaultStats::default()
        };
        assert!(!broken.conserves());
        assert!(FaultStats::default().is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds 1e9")]
    fn over_unity_rate_is_rejected() {
        let _ = FaultModel::new(0, u32::MAX);
    }
}
