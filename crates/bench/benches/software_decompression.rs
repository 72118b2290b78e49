//! The paper's future-work suggestion, quantified: "Even completely
//! software-managed decompression may be an attractive option to resource
//! limited computers." A trap handler decodes CodePack blocks in software;
//! how much slower is it than the hardware decompressor, and where is it
//! tolerable?

use codepack_baselines::{SoftwareDecompConfig, SoftwareDecompFetch};
use codepack_bench::Workload;
use codepack_isa::TEXT_BASE;
use codepack_sim::{ArchConfig, CodeModel, Table};
use std::sync::Arc;

fn main() {
    let workloads = Workload::suite();
    let arch = ArchConfig::four_issue();

    let mut table = Table::new(
        [
            "Bench",
            "Native IPC",
            "HW CodePack",
            "SW CodePack",
            "SW vs native",
            "SW penalty/miss",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("Software-managed decompression (4-issue, CodePack images)");

    for w in &workloads {
        let native = w.run(arch, CodeModel::Native);
        let hw = w.run(arch, CodeModel::codepack_optimized());
        let engine = SoftwareDecompFetch::new(
            Arc::clone(&w.image),
            arch.memory,
            SoftwareDecompConfig::default(),
            TEXT_BASE,
        );
        let sw = w.run_engine(arch, engine);
        table.row(vec![
            w.profile.name.to_string(),
            format!("{:.2}", native.ipc()),
            format!("{:.2}", hw.ipc()),
            format!("{:.2}", sw.ipc()),
            format!("{:.2}x", native.cycles() as f64 / sw.cycles() as f64),
            format!("{:.0} cyc", sw.fetch.avg_miss_penalty()),
        ]);
    }
    table.print();
    println!(
        "(software decompression is viable exactly where the paper says: \
         loop-dominated codes with tiny miss rates; miss-heavy codes need the hardware)"
    );
}
