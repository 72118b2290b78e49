//! Beyond the paper's tables: compression-ratio and miss-path comparison
//! of CodePack against the prior-art schemes its background section (§2)
//! discusses — CCRP (Huffman cache lines + LAT), whole-instruction
//! dictionary compression (Lefurgy 1997), and a Thumb/MIPS16-style 16-bit
//! re-encoding.
//!
//! Expected shape (from the literature the paper cites): Thumb ~70%,
//! MIPS16 ~60%, CCRP ~73%, CodePack ~60%, instruction dictionaries ~60%
//! but with dictionaries of thousands of entries.

use codepack_baselines::{estimate_thumb, CcrpConfig, CcrpFetch, CcrpImage, InsnDictImage};
use codepack_bench::Workload;
use codepack_isa::TEXT_BASE;
use codepack_sim::{ArchConfig, CodeModel, Table};
use std::sync::Arc;

fn main() {
    let workloads = Workload::suite();

    let mut ratios = Table::new(
        [
            "Bench",
            "CodePack",
            "CCRP",
            "InsnDict",
            "Thumb16",
            "dict entries",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("Compression ratio by scheme (smaller is better)");

    for w in &workloads {
        let text = w.program.text_words();
        let ccrp = CcrpImage::compress(text, 32);
        let dict = InsnDictImage::compress(text);
        let thumb = estimate_thumb(text);
        assert_eq!(
            ccrp.decompress_all().unwrap(),
            text,
            "ccrp must be lossless"
        );
        assert_eq!(
            dict.decompress_all().unwrap(),
            text,
            "insn-dict must be lossless"
        );
        ratios.row(vec![
            w.profile.name.to_string(),
            format!("{:.1}%", w.image.stats().compression_ratio() * 100.0),
            format!("{:.1}%", ccrp.stats().compression_ratio() * 100.0),
            format!("{:.1}%", dict.stats().compression_ratio() * 100.0),
            format!("{:.1}%", thumb.size_ratio() * 100.0),
            format!(
                "{} vs {}",
                dict.stats().dict_entries,
                w.image.high_dict().len() as u32 + w.image.low_dict().len() as u32
            ),
        ]);
    }
    ratios.print();
    println!(
        "(dict entries: whole-instruction dictionary vs CodePack's two half-word dictionaries)"
    );
    println!();

    // Miss-path performance: CCRP's 4-decodes-per-instruction vs CodePack.
    let mut perf = Table::new(
        [
            "Bench",
            "Native IPC",
            "CCRP IPC",
            "CodePack IPC",
            "CCRP avg penalty",
            "CP avg penalty",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("CCRP vs CodePack miss-path performance (4-issue)");
    let arch = ArchConfig::four_issue();
    for w in &workloads {
        let native = w.run(arch, CodeModel::Native);
        let packed = w.run(arch, CodeModel::codepack_baseline());
        let ccrp_img = Arc::new(CcrpImage::compress(w.program.text_words(), 32));
        let engine = CcrpFetch::new(ccrp_img, arch.memory, CcrpConfig::default(), TEXT_BASE);
        let ccrp = w.run_engine(arch, engine);
        perf.row(vec![
            w.profile.name.to_string(),
            format!("{:.2}", native.ipc()),
            format!("{:.2}", ccrp.ipc()),
            format!("{:.2}", packed.ipc()),
            format!("{:.1}", ccrp.fetch.avg_miss_penalty()),
            format!("{:.1}", packed.fetch.avg_miss_penalty()),
        ]);
    }
    perf.print();
}
