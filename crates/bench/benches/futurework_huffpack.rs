//! The paper's future-work hypothesis, tested: "even smaller compressed
//! representations with higher decompression penalties could be used. This
//! would improve the compressed instruction fetch latency, which is the
//! most time consuming part of the CodePack decompression."
//!
//! HuffPack trades CodePack's 1–2 insn/cycle tag decode for bit-serial
//! Huffman (0.5 insn/cycle) in exchange for a denser stream. The hypothesis
//! predicts HuffPack should *gain* on slow/narrow memories (fetch-dominated)
//! and lose on fast ones (decode-dominated).

use codepack_baselines::{HuffPackConfig, HuffPackFetch, HuffPackImage};
use codepack_bench::Workload;
use codepack_isa::TEXT_BASE;
use codepack_sim::{ArchConfig, CodeModel, Table};
use std::sync::Arc;

fn main() {
    let workloads = Workload::suite();

    // Ratio comparison.
    let mut ratios = Table::new(
        ["Bench", "CodePack", "HuffPack", "gain"]
            .map(String::from)
            .to_vec(),
    )
    .with_title("HuffPack: denser codewords (ratio, smaller is better)");
    for w in &workloads {
        let hp = HuffPackImage::compress(w.program.text_words());
        assert_eq!(
            hp.decompress_all().unwrap(),
            w.program.text_words(),
            "huffpack must be lossless"
        );
        let cp_ratio = w.image.stats().compression_ratio();
        let hp_ratio = hp.stats().compression_ratio();
        ratios.row(vec![
            w.profile.name.to_string(),
            format!("{:.1}%", cp_ratio * 100.0),
            format!("{:.1}%", hp_ratio * 100.0),
            format!("{:+.1}pp", (hp_ratio - cp_ratio) * 100.0),
        ]);
    }
    ratios.print();
    println!();

    // Performance across memory latencies: where does density beat decode
    // speed? (go-like: the miss-heavy case.)
    let w = &workloads[1]; // go
    let mut perf = Table::new(
        [
            "Memory",
            "Native IPC",
            "CodePack opt",
            "HuffPack",
            "HuffPack wins?",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("go: optimized CodePack vs HuffPack by memory latency (4-issue)");
    for scale in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
        let arch = ArchConfig::four_issue().with_memory_scale(scale);
        let native = w.run(arch, CodeModel::Native);
        let cp = w.run(arch, CodeModel::codepack_optimized());
        let hp_img = Arc::new(HuffPackImage::compress(w.program.text_words()));
        let engine = HuffPackFetch::new(hp_img, arch.memory, HuffPackConfig::default(), TEXT_BASE);
        let hp = w.run_engine(arch, engine);
        perf.row(vec![
            format!("{scale}x"),
            format!("{:.3}", native.ipc()),
            format!("{:.3}", cp.ipc()),
            format!("{:.3}", hp.ipc()),
            if hp.ipc() > cp.ipc() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    perf.print();
    println!();

    // Bus width is where density matters most: every saved byte is a beat.
    let mut bus = Table::new(
        [
            "Bus",
            "Native IPC",
            "CodePack opt",
            "HuffPack",
            "HuffPack wins?",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("go: optimized CodePack vs HuffPack by bus width (4-issue)");
    for bits in [8u32, 16, 32, 64] {
        let arch = ArchConfig::four_issue().with_bus_bits(bits);
        let native = w.run(arch, CodeModel::Native);
        let cp = w.run(arch, CodeModel::codepack_optimized());
        let hp_img = Arc::new(HuffPackImage::compress(w.program.text_words()));
        let engine = HuffPackFetch::new(hp_img, arch.memory, HuffPackConfig::default(), TEXT_BASE);
        let hp = w.run_engine(arch, engine);
        bus.row(vec![
            format!("{bits}-bit"),
            format!("{:.3}", native.ipc()),
            format!("{:.3}", cp.ipc()),
            format!("{:.3}", hp.ipc()),
            if hp.ipc() > cp.ipc() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    bus.print();
    println!(
        "(hypothesis: the denser stream wins once fetch dominates decode — \
         the gap closes monotonically as memory slows or narrows)"
    );
}
