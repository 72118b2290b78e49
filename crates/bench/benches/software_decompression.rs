//! The paper's future-work suggestion, quantified: "Even completely
//! software-managed decompression may be an attractive option to resource
//! limited computers." A trap handler decodes CodePack blocks in software;
//! how much slower is it than the hardware decompressor, and where is it
//! tolerable?

use codepack_bench::{max_insns, tables, workers};

fn main() {
    print!("{}", tables::software_decompression(max_insns(), workers()));
}
