//! Soft-error fault-injection campaigns: fault rates × integrity settings.
//!
//! A campaign is a thin layer over the journaled matrix runner
//! ([`run_matrix_with`]): the code-model axis carries one protected
//! CodePack model per (rate, integrity) point, plus the native machine
//! and the unprotected CodePack machine as baselines. Everything the
//! matrix runner guarantees — per-cell isolation, crash-safe journaling,
//! worker-count-independent byte-identical output
//! — carries over, because the fault process itself is a pure function
//! of (seed, cycle, address): no wall clock, no shared RNG state.
//!
//! A protected cell that exhausts its re-fetch budget machine-checks;
//! the matrix runner records it as a trapped cell whose error message
//! names the faulting pc, which the campaign report surfaces as a
//! trapped machine rather than a harness failure.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

use codepack_mem::{FaultStats, SoftErrorConfig, StreamIntegrity};
use codepack_synth::BenchmarkProfile;

use crate::matrix::{run_matrix_with, MatrixOptions, MatrixSpec, SimReport};
use crate::{ArchConfig, CodeModel, Table};

/// A fault-injection campaign: the cube to sweep and the fault points.
#[derive(Clone, Debug)]
pub struct FaultCampaignSpec {
    /// Benchmark profiles (defaults to the smallest profile — campaigns
    /// multiply cells quickly).
    pub profiles: Vec<BenchmarkProfile>,
    /// The machine under test.
    pub arch: ArchConfig,
    /// Fault rates in parts-per-billion per probed access.
    pub rates_ppb: Vec<u32>,
    /// Integrity settings to cross with the rates.
    pub integrity: Vec<StreamIntegrity>,
    /// Program-generation and fault-process seed.
    pub seed: u64,
    /// Instruction budget per cell.
    pub max_insns: u64,
}

impl FaultCampaignSpec {
    /// A small default campaign: one profile, three integrity settings,
    /// rate 0 plus two nonzero rates.
    pub fn new(seed: u64, max_insns: u64) -> FaultCampaignSpec {
        FaultCampaignSpec {
            profiles: vec![BenchmarkProfile::pegwit_like()],
            arch: ArchConfig::four_issue(),
            rates_ppb: vec![0, 2_000_000, 20_000_000],
            integrity: vec![
                StreamIntegrity::None,
                StreamIntegrity::Parity,
                StreamIntegrity::Crc32,
            ],
            seed,
            max_insns,
        }
    }

    /// Replaces the profile axis.
    pub fn with_profiles(mut self, profiles: Vec<BenchmarkProfile>) -> FaultCampaignSpec {
        self.profiles = profiles;
        self
    }

    /// Replaces the fault-rate axis (parts per billion).
    pub fn with_rates_ppb(mut self, rates: Vec<u32>) -> FaultCampaignSpec {
        self.rates_ppb = rates;
        self
    }

    /// Replaces the integrity axis.
    pub fn with_integrity(mut self, integrity: Vec<StreamIntegrity>) -> FaultCampaignSpec {
        self.integrity = integrity;
        self
    }

    /// Lowers the campaign onto the matrix runner's cube: the model axis
    /// is native + unprotected CodePack + one protected CodePack per
    /// (integrity, rate) point, in that deterministic order.
    pub fn to_matrix_spec(&self) -> MatrixSpec {
        let mut models: Vec<(&'static str, CodeModel)> = vec![
            ("native", CodeModel::Native),
            ("cp-opt", CodeModel::codepack_optimized()),
        ];
        for integrity in &self.integrity {
            for &ppb in &self.rates_ppb {
                let label = intern_label(&format!("cp-{}-r{}", integrity.as_str(), ppb));
                let protection = SoftErrorConfig::new(self.seed, ppb, *integrity);
                models.push((
                    label,
                    CodeModel::codepack_optimized().with_protection(protection),
                ));
            }
        }
        MatrixSpec::new(self.seed, self.max_insns)
            .with_profiles(self.profiles.clone())
            .with_archs(vec![self.arch])
            .with_models(models)
    }
}

/// Model labels live on the matrix spec as `&'static str`; campaign
/// labels are computed, so they are interned once per distinct string
/// (re-running a campaign in-process re-uses the allocation).
fn intern_label(label: &str) -> &'static str {
    static LABELS: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = LABELS
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("label intern lock");
    match set.get(label) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// Runs a fault campaign; journaling/resume/workers come from `opts`.
///
/// # Errors
///
/// Returns journal I/O and resume-mismatch errors, exactly as
/// [`run_matrix_with`] does. Machine-checked cells are *not* errors.
///
/// # Panics
///
/// Panics if `opts.workers` is zero or an axis is empty.
pub fn run_fault_campaign(
    spec: &FaultCampaignSpec,
    opts: &MatrixOptions,
) -> Result<FaultReport, String> {
    let report = run_matrix_with(&spec.to_matrix_spec(), opts)?;
    Ok(FaultReport { report })
}

/// A completed campaign: the underlying matrix report plus fault-aware
/// rendering (ledger columns, protection slowdown, conservation check).
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// The underlying cube, cell order identical to the lowered spec.
    pub report: SimReport,
}

impl FaultReport {
    /// Sums the fault ledgers of every completed protected cell.
    fn total_faults(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for cell in &self.report.cells {
            if let Some(ft) = cell.result.as_ref().and_then(|r| r.faults.as_ref()) {
                total.merge(ft);
            }
        }
        total
    }

    /// Verifies `injected == recovered + trapped + silent` (and
    /// `detected == recovered + trapped`) over every completed cell's
    /// ledger and the campaign total.
    pub fn conservation_holds(&self) -> bool {
        self.report
            .cells
            .iter()
            .filter_map(|c| c.result.as_ref().and_then(|r| r.faults.as_ref()))
            .all(FaultStats::conserves)
            && self.total_faults().conserves()
    }

    /// Renders the campaign as one table: a row per cell with the fault
    /// ledger and the protection slowdown against the native machine of
    /// the same (profile, arch). Deterministic for a given campaign.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            [
                "Profile", "Model", "Outcome", "Cycles", "Slowdown", "Inject", "Detect", "Recover",
                "Trap", "Silent", "MChk",
            ]
            .map(String::from)
            .to_vec(),
        )
        .with_title(format!(
            "fault campaign: seed {}, {} insns/cell, {} cells",
            self.report.seed,
            self.report.max_insns,
            self.report.cells.len()
        ))
        .with_footer(format!(
            "{}; ledger {}",
            self.report.summary().render(),
            if self.conservation_holds() {
                "conserved (injected == recovered + trapped + silent)"
            } else {
                "NOT CONSERVED"
            }
        ));
        for cell in &self.report.cells {
            let native = self
                .report
                .cell(cell.profile, cell.arch, "native")
                .and_then(|c| c.ok());
            let slowdown = match (&cell.result, native) {
                (Some(r), Some(n)) => match n.checked_speedup_over(r) {
                    // speedup of native over this cell == this cell's slowdown
                    Some(s) if s.is_finite() => format!("{s:.3}x"),
                    _ => "-".into(),
                },
                _ => "-".into(),
            };
            let cycles = match &cell.result {
                Some(r) => r.cycles().to_string(),
                None => "-".into(),
            };
            let ledger = cell.result.as_ref().and_then(|r| r.faults);
            let col = |f: fn(&FaultStats) -> u64| match &ledger {
                Some(ft) => f(ft).to_string(),
                None => "-".into(),
            };
            t.row(vec![
                cell.profile.to_string(),
                cell.model.to_string(),
                cell.outcome.label().to_string(),
                cycles,
                slowdown,
                col(|f| f.injected),
                col(|f| f.detected),
                col(|f| f.recovered),
                col(|f| f.trapped),
                col(|f| f.silent),
                col(|f| f.machine_checks),
            ]);
        }
        t.render()
    }

    /// JSON serialization: the underlying matrix JSON (which already
    /// carries per-cell `faults_*` fields), byte-identical for any
    /// worker count and across journal resumes.
    pub fn to_json(&self) -> String {
        self.report.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FaultCampaignSpec {
        FaultCampaignSpec::new(7, 4_000)
            .with_rates_ppb(vec![0, 50_000_000])
            .with_integrity(vec![StreamIntegrity::None, StreamIntegrity::Crc32])
    }

    #[test]
    fn campaign_lowered_axis_is_deterministic() {
        let a = tiny_spec().to_matrix_spec();
        let b = tiny_spec().to_matrix_spec();
        let names_a: Vec<_> = a.models.iter().map(|(n, _)| *n).collect();
        let names_b: Vec<_> = b.models.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_a, names_b);
        assert_eq!(
            names_a,
            vec![
                "native",
                "cp-opt",
                "cp-none-r0",
                "cp-none-r50000000",
                "cp-crc32-r0",
                "cp-crc32-r50000000",
            ]
        );
        // Interned labels are pointer-stable across lowerings.
        assert!(std::ptr::eq(names_a[3], names_b[3]));
    }

    #[test]
    fn protected_models_carry_their_point() {
        let spec = tiny_spec().to_matrix_spec();
        let (_, model) = spec.models.last().unwrap();
        match model {
            CodeModel::CodePack {
                protection: Some(p),
                ..
            } => {
                assert_eq!(p.faults.ppb, 50_000_000);
                assert_eq!(p.integrity, StreamIntegrity::Crc32);
            }
            other => panic!("expected protected CodePack, got {other:?}"),
        }
    }

    #[test]
    fn campaign_runs_conserve_and_serialize_deterministically() {
        let spec = tiny_spec();
        let one = run_fault_campaign(&spec, &MatrixOptions::new(1)).unwrap();
        let four = run_fault_campaign(&spec, &MatrixOptions::new(4)).unwrap();
        assert!(one.conservation_holds());
        assert_eq!(
            one.to_json(),
            four.to_json(),
            "worker count must not change campaign output"
        );
        assert_eq!(one.render(), four.render());

        // Rate 0 with no integrity hardware is byte-identical to the
        // unprotected machine; rate 0 with CRC armed pays the integrity
        // overhead (the protection slowdown) but records zero faults.
        for cell in &one.report.cells {
            if !cell.model.ends_with("-r0") {
                continue;
            }
            let unprotected = one
                .report
                .cell(cell.profile, cell.arch, "cp-opt")
                .and_then(|c| c.ok())
                .expect("unprotected baseline present");
            let r = cell.ok().expect("rate-0 cell completes");
            assert_eq!(r.state_hash, unprotected.state_hash);
            assert_eq!(r.faults, Some(FaultStats::default()));
            if cell.model == "cp-none-r0" {
                assert_eq!(r.cycles(), unprotected.cycles(), "{}", cell.model);
            } else {
                assert!(
                    r.cycles() >= unprotected.cycles(),
                    "integrity checking cannot speed the machine up: {}",
                    cell.model
                );
            }
        }

        // The nonzero-rate CRC cell actually exercised the machinery.
        let crc = one
            .report
            .cells
            .iter()
            .find(|c| c.model == "cp-crc32-r50000000")
            .unwrap();
        if let Some(r) = crc.ok() {
            let ft = r.faults.expect("protected run carries a ledger");
            assert!(ft.injected > 0, "rate 5e-2 must strike within 4k insns");
        }
    }
}
