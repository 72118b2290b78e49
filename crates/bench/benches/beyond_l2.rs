//! Beyond the paper: does CodePack still matter once the system can afford
//! a unified L2? The decompressor moves behind the L2 (the L2 holds native
//! lines), so it services only L2 misses. The paper's conclusion — that
//! compression helps when misses reach slow memory — predicts the benefit
//! and the penalty should both shrink as the L2 absorbs the miss stream.

use codepack_bench::{max_insns, tables};

fn main() {
    tables::beyond_l2(max_insns()).print();
}
