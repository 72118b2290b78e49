//! The `cpack` command-line grammar, parsed without running a command:
//! every invocation that `ci.sh`, README.md and EXPERIMENTS.md show is
//! accepted, and each misuse class on every command is a `Usage` error
//! (exit 2) that names the flag or argument and carries the command's
//! help block.

use codepack_cli::commands::{help, CliError, COMMANDS};
use codepack_cli::{parse, run};

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// Every `cpack` command line the repository documents or runs.
const DOCUMENTED: &[&str] = &[
    // ci.sh
    "run pegwit 30000 --trace t/run.jsonl --metrics t/run.metrics.json",
    "trace-export t/run.jsonl --chrome -o t/run.chrome.json",
    "matrix 3000 --workers 2 --json --journal t/journal-clean",
    "matrix 3000 --workers 2 --json --journal t/journal-killed",
    "matrix 3000 --workers 2 --json --resume --journal t/journal-killed",
    "faults 3000 --profile pegwit --rates 0,50000000 --integrity none,crc32 --json --workers 1",
    "faults 3000 --profile pegwit --rates 0,50000000 --integrity none,crc32 --json --workers 4",
    "lint cc1",
    "lint vortex",
    "pack cc1 -o t/frame-cc1.cpk",
    "lint t/frame-cc1.cpk",
    "inspect t/frame-cc1.cpk",
    "pack pegwit -o t/pegwit-w1.cpk --workers 1",
    "pack pegwit -o t/pegwit-w4.cpk --workers 4",
    "unpack t/pegwit-w1.cpk -o t/pegwit-text.bin",
    "pack t/pegwit-text.bin -o t/pegwit-repack.cpk",
    "cat t/pegwit-w1.cpk",
    "unpack t/pegwit-truncated.cpk -o /dev/null",
    "profile pegwit 30000 --out t/prof-a.json",
    "profile --diff t/prof-a.json t/prof-b.json",
    "loadgen --requests 100000 --clients 4 --seed 42 --connect 127.0.0.1:7311 --out /dev/null",
    "loadgen --requests 20000 --clients 4 --seed 42 --chaos --out /dev/null",
    // README.md
    "pack go -o go.cpk",
    "inspect go.cpk",
    "sim go",
    "sweep latency cc1",
    "compare vortex",
    "matrix 200000 --workers 4",
    "pack pegwit -o pegwit.cpk --integrity crc32 --workers 4",
    "unpack pegwit.cpk -o pegwit.bin",
    "pack pegwit",
    "cat -",
    "matrix 200000 --json --journal sweep/",
    "matrix 200000 --json --journal sweep/ --resume",
    "run pegwit 30000 --trace pegwit.jsonl --metrics pegwit.metrics.json",
    "trace-export pegwit.jsonl --chrome",
    "matrix --metrics-dir DIR",
    "profile perl 200000 --top 3",
    "run perl 200000 --arch 4 --model cp-opt --metrics F",
    "loadgen --requests 100000 --clients 4 --seed 42 --connect 127.0.0.1:7311 --out BENCH_service.json",
    // EXPERIMENTS.md
    "lint file.cpk",
    "inspect file.cpk",
    "faults 50000",
    "profile perl 200000",
    "profile perl 200000 --out p.json",
    "profile --diff a.json b.json",
    "loadgen --requests 1000000 --clients 8 --seed 42 --mode full --chaos --out BENCH_service.json",
];

#[test]
fn every_documented_invocation_parses() {
    for line in DOCUMENTED {
        if let Err(e) = parse(&argv(line)) {
            panic!("`cpack {line}` is rejected: {}", e.message());
        }
    }
}

#[test]
fn parsed_arguments_read_back_by_name() {
    let args = parse(&argv("run pegwit 30000 --metrics m.json --arch 8")).unwrap();
    assert_eq!(args.command.name, "run");
    assert_eq!(args.text("<profile>"), Some("pegwit"));
    assert_eq!(args.number("[INSNS]"), Some(30000));
    assert_eq!(args.text("--arch"), Some("8"));
    assert_eq!(args.text("--trace"), None);

    // Both spellings of a flag fill one slot, read by its first spelling.
    let args = parse(&argv("profile pegwit -o p.json")).unwrap();
    assert_eq!(args.text("--out"), Some("p.json"));
    let args = parse(&argv("trace-export t.jsonl --out c.json --chrome")).unwrap();
    assert_eq!(args.text("-o"), Some("c.json"));
    assert!(args.flag("--chrome"));

    // A repeatable flag keeps every value; a switch may repeat.
    let args = parse(&argv("faults --profile pegwit --profile go --json --json")).unwrap();
    assert_eq!(args.all("--profile"), ["pegwit", "go"]);
    assert!(args.flag("--json"));

    // Values are taken verbatim: `-` is stdout, not a flag.
    let args = parse(&argv("pack - -o -")).unwrap();
    assert_eq!(args.text("<profile|FILE|->"), Some("-"));
    assert_eq!(args.text("-o"), Some("-"));

    // Value checks belong to the handler, not the grammar.
    assert!(parse(&argv("run pegwit --arch 3")).is_ok());
    assert!(parse(&argv("unpack x.cpk --workers 0")).is_ok());
}

/// One case of each misuse class the grammar owns, for every command it
/// applies to: the command line and the text its message must name.
const MISUSE: &[(&str, &str)] = &[
    ("list --verbose", "unknown flag `--verbose`"),
    ("list extra", "unexpected argument `extra`"),
    ("inspect x.cpk --bogus", "unknown flag `--bogus`"),
    ("inspect", "missing <FILE.cpk>"),
    ("inspect a.cpk b.cpk", "unexpected argument `b.cpk`"),
    ("disasm go --bogus", "unknown flag `--bogus`"),
    ("disasm", "missing <profile>"),
    ("disasm go 4 5", "unexpected argument `5`"),
    ("disasm go four", "bad number `four` for [N]"),
    ("sim pegwit --bogus", "unknown flag `--bogus`"),
    ("sim", "missing <profile>"),
    ("sim pegwit 9000 extra", "unexpected argument `extra`"),
    ("sim pegwit 9k", "bad number `9k` for [INSNS]"),
    ("run pegwit --bogus", "unknown flag `--bogus`"),
    ("run pegwit --trace", "--trace needs a value"),
    (
        "run pegwit --arch 1 --arch 8",
        "--arch given more than once",
    ),
    ("run --arch 4", "missing <profile>"),
    ("run pegwit 1000 2000", "unexpected argument `2000`"),
    ("run pegwit lots", "bad number `lots` for [INSNS]"),
    (
        "trace-export in.jsonl --perfetto",
        "unknown flag `--perfetto`",
    ),
    ("trace-export in.jsonl --chrome -o", "-o needs a value"),
    (
        "trace-export in.jsonl --chrome -o a.json --out b.json",
        "--out given more than once",
    ),
    ("trace-export --chrome", "missing <FILE.jsonl>"),
    (
        "trace-export a.jsonl b.jsonl --chrome",
        "unexpected argument `b.jsonl`",
    ),
    ("sweep bus pegwit --bogus", "unknown flag `--bogus`"),
    ("sweep", "missing <bus|latency|cache|l2>"),
    ("sweep bus", "missing <profile>"),
    ("sweep bus go 1000 2000", "unexpected argument `2000`"),
    ("sweep bus go many", "bad number `many` for [INSNS]"),
    ("compare pegwit --bogus", "unknown flag `--bogus`"),
    ("compare", "missing <profile>"),
    ("compare pegwit extra", "unexpected argument `extra`"),
    ("lint pegwit --bogus", "unknown flag `--bogus`"),
    ("lint --json", "missing <profile|FILE.cpk>"),
    ("lint pegwit go", "unexpected argument `go`"),
    ("matrix --turbo", "unknown flag `--turbo`"),
    ("matrix --journal", "--journal needs a value"),
    (
        "matrix --workers 1 --workers 2",
        "--workers given more than once",
    ),
    ("matrix 10 20", "unexpected argument `20`"),
    ("matrix --workers two", "bad number `two` for --workers"),
    ("profile pegwit --bogus", "unknown flag `--bogus`"),
    ("profile --diff a.json", "--diff needs two values"),
    (
        "profile pegwit --top 3 --top 4",
        "--top given more than once",
    ),
    ("profile pegwit 1000 2000", "unexpected argument `2000`"),
    ("profile pegwit --top x", "bad number `x` for --top"),
    ("pack pegwit --bogus", "unknown flag `--bogus`"),
    ("pack pegwit -o", "-o needs a value"),
    ("pack pegwit -o a.cpk -o b.cpk", "-o given more than once"),
    ("pack -o a.cpk", "missing <profile|FILE|->"),
    ("pack pegwit go", "unexpected argument `go`"),
    (
        "pack pegwit --workers many",
        "bad number `many` for --workers",
    ),
    ("unpack x.cpk --bogus", "unknown flag `--bogus`"),
    ("unpack x.cpk --workers", "--workers needs a value"),
    (
        "unpack x.cpk --workers 1 --workers 2",
        "--workers given more than once",
    ),
    ("unpack", "missing <FILE|->"),
    ("unpack a.cpk b.cpk", "unexpected argument `b.cpk`"),
    (
        "unpack x.cpk --workers two",
        "bad number `two` for --workers",
    ),
    ("cat x.cpk -o out.bin", "unknown flag `-o`"),
    ("cat x.cpk --workers", "--workers needs a value"),
    (
        "cat x.cpk --workers 1 --workers 2",
        "--workers given more than once",
    ),
    ("cat", "missing <FILE|->"),
    ("cat a.cpk b.cpk", "unexpected argument `b.cpk`"),
    ("cat x.cpk --workers -1", "bad number `-1` for --workers"),
    ("faults 1000 --retries 1", "unknown flag `--retries`"),
    ("faults --rates", "--rates needs a value"),
    ("faults --rates 0 --rates 5", "--rates given more than once"),
    ("faults 100 200", "unexpected argument `200`"),
    ("faults lots", "bad number `lots` for [INSNS]"),
    ("loadgen --bogus", "unknown flag `--bogus`"),
    ("loadgen --seed", "--seed needs a value"),
    (
        "loadgen --clients 1 --clients 2",
        "--clients given more than once",
    ),
    ("loadgen extra", "unexpected argument `extra`"),
    (
        "loadgen --requests not-a-number",
        "bad number `not-a-number` for --requests",
    ),
];

/// Checks that `err` is misuse of `line`'s command that says `problem`
/// and ends with the command's help block.
fn check_misuse(line: &str, err: CliError, problem: &str) {
    let name = line.split_whitespace().next().unwrap();
    let command = COMMANDS.iter().find(|c| c.name == name).unwrap();
    let CliError::Usage(msg) = &err else {
        panic!("`cpack {line}` is not misuse: {err:?}");
    };
    assert_eq!(err.exit_code(), 2);
    assert!(
        msg.starts_with(&format!("{name}: {problem}\n")),
        "`cpack {line}`: {msg}"
    );
    assert!(
        msg.ends_with(command.help.trim_end()),
        "`cpack {line}` lacks its help block: {msg}"
    );
}

#[test]
fn every_misuse_class_names_the_argument_and_shows_the_help_block() {
    for (line, problem) in MISUSE {
        match parse(&argv(line)) {
            Ok(args) => panic!("`cpack {line}` parsed: {args:?}"),
            Err(e) => check_misuse(line, e, problem),
        }
    }
    for command in COMMANDS {
        assert!(
            MISUSE
                .iter()
                .any(|(line, _)| line.split_whitespace().next() == Some(command.name)),
            "no misuse case for `{}`",
            command.name
        );
    }
}

#[test]
fn a_repeated_single_valued_flag_is_misuse() {
    for (line, flag) in [
        ("matrix 1000 --workers 1 --workers 2", "--workers"),
        ("run pegwit --model native --model cp-opt", "--model"),
        ("faults --journal a --journal b", "--journal"),
        ("pack pegwit -o a.cpk -o b.cpk", "-o"),
        ("loadgen --out a.json --out b.json", "--out"),
    ] {
        let err = parse(&argv(line)).unwrap_err();
        check_misuse(line, err, &format!("{flag} given more than once"));
    }
}

/// `profile` takes no profile with `--diff`, so its handler asks for the
/// profile otherwise; it fails before doing any work.
#[test]
fn profile_without_a_profile_or_diff_is_misuse() {
    let err = run(&argv("profile --top 3")).unwrap_err();
    check_misuse("profile --top 3", err, "missing <profile>");
    let err = run(&argv("profile pegwit --diff a.json b.json")).unwrap_err();
    check_misuse(
        "profile pegwit --diff a.json b.json",
        err,
        "--diff takes exactly two artifacts",
    );
}

#[test]
fn unknown_command_is_misuse() {
    let err = parse(&argv("frobnicate")).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert_eq!(
        err.message(),
        "unknown command `frobnicate` (try `cpack help`)"
    );
}

#[test]
fn help_lists_every_command_in_table_order() {
    let text = help();
    assert!(text.starts_with("cpack — CodePack code compression toolkit"));
    assert!(text.ends_with("2 command-line misuse.\n"));
    for command in COMMANDS {
        let synopsis = format!("    cpack {}", command.name);
        assert!(command.help.starts_with(&synopsis), "{}", command.help);
    }
    let blocks: String = COMMANDS.iter().map(|c| c.help).collect();
    assert!(
        text.contains(&blocks),
        "help lists the blocks in table order"
    );
}
