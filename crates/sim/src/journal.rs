//! Crash-safe sweep journal: one JSONL file recording every completed
//! cell of a matrix run, so an interrupted sweep resumes by re-running
//! only missing or failed cells.
//!
//! # Format
//!
//! `<dir>/journal.jsonl`, one JSON object per line:
//!
//! * Line 1 is a **header** binding the journal to its spec:
//!   `{"kind": "header", "v": 1, "seed": …, "max_insns": …, "cells": …,
//!   "observed": …, "profiles": […], "archs": […], "models": […]}`.
//!   A resume whose spec does not match the header is refused — silently
//!   mixing results from two different cubes would be a wrong answer,
//!   not a convenience.
//! * Every later line is a **cell record**: coordinate, outcome,
//!   attempt count, and (for `ok` cells) the full [`SimResult`] plus the
//!   optional per-cell metrics snapshot. Numeric counters are emitted as
//!   integers; `state_hash` is a decimal *string* so the full 64-bit
//!   value survives the float-typed JSON parser byte-exactly.
//!
//! Each record is appended and flushed as its cell's group completes, so
//! a `kill -9` loses at most the groups still in flight. A line torn by a
//! crash is detected on read (it fails to parse) and ignored; before
//! appending to a resumed journal the writer re-terminates the file so
//! new records never concatenate onto a torn tail.
//!
//! Only `ok` records are restored on resume — trapped / timed-out /
//! skipped cells are re-run, which is what makes resume the natural
//! retry loop for a sweep that degraded per-cell.

use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use codepack_core::{CompositionStats, FetchStats};
use codepack_cpu::PipelineStats;
use codepack_mem::CacheStats;
use codepack_obs::json::{self, Value};

use crate::{CellOutcome, MatrixSpec, SimResult};

/// Journal format version this build writes and understands.
pub const JOURNAL_VERSION: u64 = 1;

/// File name of the journal inside the `--journal` directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One cell record read back from a journal.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// Job index in profile-major enumeration order.
    pub cell: usize,
    /// Coordinate, as recorded (owned: the journal outlives any spec).
    pub profile: String,
    /// Architecture name.
    pub arch: String,
    /// Code-model label.
    pub model: String,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Attempts the cell consumed (>= 1).
    pub attempts: u32,
    /// The result, present for `ok` cells.
    pub result: Option<SimResult>,
    /// Per-cell metrics snapshot, when the cube ran observed.
    pub metrics: Option<String>,
}

/// Append-only writer over `<dir>/journal.jsonl`.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    /// Opens `<dir>/journal.jsonl` fresh (truncating any previous
    /// journal) and writes the header for `spec`.
    pub fn create(dir: &Path, spec: &MatrixSpec, observed: bool) -> Result<JournalWriter, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(JOURNAL_FILE);
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut w = JournalWriter { file, path };
        w.append_line(&header_json(spec, observed))?;
        Ok(w)
    }

    /// Reopens an existing journal for appending (resume). If the file
    /// does not end in a newline — the tail was torn by a crash — a
    /// newline is written first so new records stay on their own lines.
    pub fn reopen(dir: &Path) -> Result<JournalWriter, String> {
        let path = dir.join(JOURNAL_FILE);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| format!("seeking {}: {e}", path.display()))?;
        if len > 0 {
            file.seek(SeekFrom::End(-1))
                .map_err(|e| format!("seeking {}: {e}", path.display()))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            if last[0] != b'\n' {
                file.write_all(b"\n")
                    .map_err(|e| format!("terminating torn line in {}: {e}", path.display()))?;
            }
        }
        Ok(JournalWriter { file, path })
    }

    /// Appends one completed cell and flushes, so the record survives the
    /// process dying immediately afterwards.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), String> {
        self.append_line(&entry_json(entry))
    }

    fn append_line(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("appending to {}: {e}", self.path.display()))
    }
}

/// What a journal read yields: the validated entries (last record per
/// cell wins) and how many lines were unreadable (torn by a crash).
#[derive(Debug, Default)]
pub struct JournalContents {
    /// Cell records, at most one per cell index.
    pub entries: Vec<JournalEntry>,
    /// Lines that failed to parse and were skipped.
    pub torn_lines: usize,
}

/// True when `<dir>/journal.jsonl` exists.
pub fn journal_exists(dir: &Path) -> bool {
    dir.join(JOURNAL_FILE).is_file()
}

/// Reads a journal back, validating the header against `spec` and every
/// record against the cell coordinate the spec assigns to its index.
///
/// # Errors
///
/// * the file cannot be read, or has no parseable header;
/// * the header names a different cube (seed, budget, axes, observer) —
///   resuming would splice results from a different experiment;
/// * a record's coordinate disagrees with the spec at its index.
///
/// Torn lines (crash mid-append) are skipped, not errors.
pub fn read_journal(
    dir: &Path,
    spec: &MatrixSpec,
    observed: bool,
) -> Result<JournalContents, String> {
    let path = dir.join(JOURNAL_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());

    let header_line = lines.next().ok_or_else(|| {
        format!(
            "{}: empty journal (no header); re-run without --resume",
            path.display()
        )
    })?;
    let header = json::parse(header_line)
        .map_err(|e| format!("{}: unreadable journal header: {e}", path.display()))?;
    check_header(&header, spec, observed).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut slots: Vec<Option<JournalEntry>> = (0..spec.len()).map(|_| None).collect();
    let mut torn_lines = 0usize;
    for line in lines {
        let Ok(v) = json::parse(line) else {
            torn_lines += 1;
            continue;
        };
        let entry = match parse_entry(&v) {
            Ok(e) => e,
            Err(_) => {
                torn_lines += 1;
                continue;
            }
        };
        let (profile, arch, model) = spec.coordinate(entry.cell).ok_or_else(|| {
            format!(
                "journal cell {} outside the {}-cell cube",
                entry.cell,
                spec.len()
            )
        })?;
        if entry.profile != profile || entry.arch != arch || entry.model != model {
            return Err(format!(
                "journal cell {} is {}/{}/{} but the spec says {}/{}/{}",
                entry.cell, entry.profile, entry.arch, entry.model, profile, arch, model
            ));
        }
        let cell = entry.cell;
        slots[cell] = Some(entry); // last record wins
    }
    Ok(JournalContents {
        entries: slots.into_iter().flatten().collect(),
        torn_lines,
    })
}

fn header_json(spec: &MatrixSpec, observed: bool) -> String {
    let list = |names: Vec<&str>| -> String {
        let quoted: Vec<String> = names
            .iter()
            .map(|n| format!("\"{}\"", json::escape(n)))
            .collect();
        format!("[{}]", quoted.join(", "))
    };
    format!(
        "{{\"kind\": \"header\", \"v\": {JOURNAL_VERSION}, \"seed\": {}, \"max_insns\": {}, \
         \"cells\": {}, \"observed\": {}, \"profiles\": {}, \"archs\": {}, \"models\": {}}}",
        spec.seed,
        spec.max_insns,
        spec.len(),
        observed,
        list(spec.profiles.iter().map(|p| p.name).collect()),
        list(spec.archs.iter().map(|a| a.name).collect()),
        list(spec.models.iter().map(|(l, _)| *l).collect()),
    )
}

fn check_header(header: &Value, spec: &MatrixSpec, observed: bool) -> Result<(), String> {
    let field = |k: &str| header.get(k).ok_or_else(|| format!("header lacks `{k}`"));
    if field("kind")?.as_str() != Some("header") {
        return Err("first journal line is not a header".into());
    }
    let v = field("v")?.as_u64().unwrap_or(0);
    if v != JOURNAL_VERSION {
        return Err(format!(
            "journal version {v}, this build writes {JOURNAL_VERSION}"
        ));
    }
    let mismatch = |what: &str| {
        Err(format!(
            "journal was recorded for a different cube ({what} differs); \
             start a fresh journal instead of resuming"
        ))
    };
    if field("seed")?.as_u64() != Some(spec.seed) {
        return mismatch("seed");
    }
    if field("max_insns")?.as_u64() != Some(spec.max_insns) {
        return mismatch("max_insns");
    }
    if field("cells")?.as_u64() != Some(spec.len() as u64) {
        return mismatch("cell count");
    }
    if field("observed")?.as_bool() != Some(observed) {
        return mismatch("observer mode");
    }
    let names_match = |key: &str, want: Vec<&str>| -> bool {
        field(key).ok().and_then(|v| {
            v.as_array().map(|a| {
                a.len() == want.len() && a.iter().zip(&want).all(|(v, w)| v.as_str() == Some(w))
            })
        }) == Some(true)
    };
    if !names_match("profiles", spec.profiles.iter().map(|p| p.name).collect()) {
        return mismatch("profile axis");
    }
    if !names_match("archs", spec.archs.iter().map(|a| a.name).collect()) {
        return mismatch("architecture axis");
    }
    if !names_match("models", spec.models.iter().map(|(l, _)| *l).collect()) {
        return mismatch("model axis");
    }
    Ok(())
}

fn entry_json(e: &JournalEntry) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"kind\": \"cell\", \"cell\": {}, \"profile\": \"{}\", \"arch\": \"{}\", \
         \"model\": \"{}\", \"outcome\": \"{}\", \"attempts\": {}",
        e.cell,
        json::escape(&e.profile),
        json::escape(&e.arch),
        json::escape(&e.model),
        e.outcome.label(),
        e.attempts
    );
    match &e.outcome {
        CellOutcome::Ok => {}
        CellOutcome::Trapped { error } => {
            let _ = write!(out, ", \"error\": \"{}\"", json::escape(error));
        }
        CellOutcome::TimedOut {
            deadline_cycles,
            actual_cycles,
        } => {
            let _ = write!(
                out,
                ", \"deadline_cycles\": {deadline_cycles}, \"actual_cycles\": {actual_cycles}"
            );
        }
        CellOutcome::Skipped { reason } => {
            let _ = write!(out, ", \"reason\": \"{}\"", json::escape(reason));
        }
    }
    if let Some(r) = &e.result {
        let _ = write!(out, ", \"result\": {}", result_json(r));
    }
    if let Some(m) = &e.metrics {
        let _ = write!(out, ", \"metrics\": \"{}\"", json::escape(m));
    }
    out.push('}');
    out
}

fn parse_entry(v: &Value) -> Result<JournalEntry, String> {
    if v.get("kind").and_then(Value::as_str) != Some("cell") {
        return Err("not a cell record".into());
    }
    let str_field = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("cell record lacks `{k}`"))
    };
    let cell = v
        .get("cell")
        .and_then(Value::as_u64)
        .ok_or("cell record lacks `cell`")? as usize;
    let attempts = v.get("attempts").and_then(Value::as_u64).unwrap_or(1) as u32;
    let outcome = match str_field("outcome")?.as_str() {
        "ok" => CellOutcome::Ok,
        "trapped" => CellOutcome::Trapped {
            error: str_field("error")?,
        },
        "timed-out" => CellOutcome::TimedOut {
            deadline_cycles: v
                .get("deadline_cycles")
                .and_then(Value::as_u64)
                .ok_or("timed-out record lacks `deadline_cycles`")?,
            actual_cycles: v
                .get("actual_cycles")
                .and_then(Value::as_u64)
                .ok_or("timed-out record lacks `actual_cycles`")?,
        },
        "skipped" => CellOutcome::Skipped {
            reason: str_field("reason")?,
        },
        other => return Err(format!("unknown outcome `{other}`")),
    };
    let result = match v.get("result") {
        Some(r) => Some(parse_result(r)?),
        None => None,
    };
    if matches!(outcome, CellOutcome::Ok) && result.is_none() {
        return Err("ok record lacks a result".into());
    }
    Ok(JournalEntry {
        cell,
        profile: str_field("profile")?,
        arch: str_field("arch")?,
        model: str_field("model")?,
        outcome,
        attempts,
        result,
        metrics: v.get("metrics").and_then(Value::as_str).map(str::to_string),
    })
}

/// Serializes a complete [`SimResult`] — every field, not just the ones
/// the report table shows — so a restored cell is indistinguishable from
/// a re-run one.
pub fn result_json(r: &SimResult) -> String {
    use std::fmt::Write as _;
    let cache = |c: &CacheStats| {
        format!(
            "{{\"accesses\": {}, \"hits\": {}, \"evictions\": {}}}",
            c.accesses, c.hits, c.evictions
        )
    };
    let mut out = format!(
        "{{\"benchmark\": \"{}\", \"arch\": \"{}\", \"model\": \"{}\"",
        json::escape(&r.benchmark),
        json::escape(r.arch),
        json::escape(r.model)
    );
    let fault_obj = |s: &codepack_mem::FaultStats| {
        format!(
            "{{\"injected\": {}, \"detected\": {}, \"recovered\": {}, \"trapped\": {}, \
             \"silent\": {}, \"retries\": {}, \"machine_checks\": {}}}",
            s.injected, s.detected, s.recovered, s.trapped, s.silent, s.retries, s.machine_checks
        )
    };
    let p = &r.pipeline;
    let _ = write!(
        out,
        ", \"pipeline\": {{\"cycles\": {}, \"instructions\": {}, \"icache\": {}, \
         \"dcache\": {}, \"l2\": {}, \"branches\": {}, \"mispredicts\": {}, \
         \"indirect_mispredicts\": {}, \"faults\": {}}}",
        p.cycles,
        p.instructions,
        cache(&p.icache),
        cache(&p.dcache),
        p.l2.as_ref().map_or("null".to_string(), cache),
        p.branches,
        p.mispredicts,
        p.indirect_mispredicts,
        fault_obj(&p.faults)
    );
    let f = &r.fetch;
    let _ = write!(
        out,
        ", \"fetch\": {{\"misses\": {}, \"buffer_hits\": {}, \"index_hits\": {}, \
         \"index_misses\": {}, \"memory_beats\": {}, \"total_critical_cycles\": {}}}",
        f.misses,
        f.buffer_hits,
        f.index_hits,
        f.index_misses,
        f.memory_beats,
        f.total_critical_cycles
    );
    match &r.compression {
        None => out.push_str(", \"compression\": null"),
        Some(c) => {
            let _ = write!(
                out,
                ", \"compression\": {{\"original_bytes\": {}, \"index_table_bytes\": {}, \
                 \"dictionary_bytes\": {}, \"compressed_tag_bits\": {}, \"dict_index_bits\": {}, \
                 \"raw_tag_bits\": {}, \"raw_literal_bits\": {}, \"pad_bits\": {}, \
                 \"raw_halfwords\": {}, \"raw_blocks\": {}, \"blocks\": {}}}",
                c.original_bytes,
                c.index_table_bytes,
                c.dictionary_bytes,
                c.compressed_tag_bits,
                c.dict_index_bits,
                c.raw_tag_bits,
                c.raw_literal_bits,
                c.pad_bits,
                c.raw_halfwords,
                c.raw_blocks,
                c.blocks
            );
        }
    }
    match &r.faults {
        None => out.push_str(", \"faults\": null"),
        Some(s) => {
            let _ = write!(out, ", \"faults\": {}", fault_obj(s));
        }
    }
    // state_hash is a full 64-bit fingerprint; as a bare JSON number it
    // would round through the parser's f64. A decimal string is exact.
    let _ = write!(
        out,
        ", \"retired_instructions\": {}, \"state_hash\": \"{}\"}}",
        r.retired_instructions, r.state_hash
    );
    out
}

/// Reconstructs a [`SimResult`] from [`result_json`] output. The `arch`
/// and `model` names are interned against the process-static name sets
/// (`ArchConfig` names via the caller's spec check; model labels here).
pub fn parse_result(v: &Value) -> Result<SimResult, String> {
    let u = |node: &Value, k: &str| -> Result<u64, String> {
        node.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result lacks integer `{k}`"))
    };
    let cache = |node: &Value, k: &str| -> Result<CacheStats, String> {
        let c = node.get(k).ok_or_else(|| format!("result lacks `{k}`"))?;
        Ok(CacheStats {
            accesses: u(c, "accesses")?,
            hits: u(c, "hits")?,
            evictions: u(c, "evictions")?,
        })
    };
    let p = v.get("pipeline").ok_or("result lacks `pipeline`")?;
    let l2 = match p.get("l2") {
        None | Some(Value::Null) => None,
        Some(c) => Some(CacheStats {
            accesses: u(c, "accesses").map_err(|e| format!("l2: {e}"))?,
            hits: u(c, "hits").map_err(|e| format!("l2: {e}"))?,
            evictions: u(c, "evictions").map_err(|e| format!("l2: {e}"))?,
        }),
    };
    let fault_stats = |node: &Value| -> Result<codepack_mem::FaultStats, String> {
        Ok(codepack_mem::FaultStats {
            injected: u(node, "injected")?,
            detected: u(node, "detected")?,
            recovered: u(node, "recovered")?,
            trapped: u(node, "trapped")?,
            silent: u(node, "silent")?,
            retries: u(node, "retries")?,
            machine_checks: u(node, "machine_checks")?,
        })
    };
    let pipeline = PipelineStats {
        cycles: u(p, "cycles")?,
        instructions: u(p, "instructions")?,
        icache: cache(p, "icache")?,
        dcache: cache(p, "dcache")?,
        l2,
        branches: u(p, "branches")?,
        mispredicts: u(p, "mispredicts")?,
        indirect_mispredicts: u(p, "indirect_mispredicts")?,
        // Pre-fault journals lack the ledger; default keeps them readable.
        faults: match p.get("faults") {
            None | Some(Value::Null) => codepack_mem::FaultStats::default(),
            Some(node) => fault_stats(node)?,
        },
    };
    let f = v.get("fetch").ok_or("result lacks `fetch`")?;
    let fetch = FetchStats {
        misses: u(f, "misses")?,
        buffer_hits: u(f, "buffer_hits")?,
        index_hits: u(f, "index_hits")?,
        index_misses: u(f, "index_misses")?,
        memory_beats: u(f, "memory_beats")?,
        total_critical_cycles: u(f, "total_critical_cycles")?,
    };
    let compression = match v.get("compression") {
        None | Some(Value::Null) => None,
        Some(c) => Some(CompositionStats {
            original_bytes: u(c, "original_bytes")?,
            index_table_bytes: u(c, "index_table_bytes")?,
            dictionary_bytes: u(c, "dictionary_bytes")?,
            compressed_tag_bits: u(c, "compressed_tag_bits")?,
            dict_index_bits: u(c, "dict_index_bits")?,
            raw_tag_bits: u(c, "raw_tag_bits")?,
            raw_literal_bits: u(c, "raw_literal_bits")?,
            pad_bits: u(c, "pad_bits")?,
            raw_halfwords: u(c, "raw_halfwords")?,
            raw_blocks: u(c, "raw_blocks")?,
            blocks: u(c, "blocks")?,
        }),
    };
    let model = match v.get("model").and_then(Value::as_str) {
        Some("Native") => "Native",
        Some("CodePack") => "CodePack",
        other => return Err(format!("unknown model label {other:?}")),
    };
    let arch = intern_arch(v.get("arch").and_then(Value::as_str).unwrap_or(""))?;
    let state_hash = v
        .get("state_hash")
        .and_then(Value::as_str)
        .ok_or("result lacks string `state_hash`")?
        .parse::<u64>()
        .map_err(|e| format!("bad state_hash: {e}"))?;
    Ok(SimResult {
        benchmark: v
            .get("benchmark")
            .and_then(Value::as_str)
            .ok_or("result lacks `benchmark`")?
            .to_string(),
        arch,
        model,
        pipeline,
        fetch,
        compression,
        retired_instructions: u(v, "retired_instructions")?,
        state_hash,
        faults: match v.get("faults") {
            None | Some(Value::Null) => None,
            Some(node) => Some(fault_stats(node)?),
        },
    })
}

/// Maps an architecture name back to its `&'static str` (the Table 2
/// machines plus any name a custom spec could have used — custom names
/// resolve through the spec's own axis during [`read_journal`], so by
/// the time a result is parsed the standard set suffices).
fn intern_arch(name: &str) -> Result<&'static str, String> {
    for a in [
        crate::ArchConfig::one_issue(),
        crate::ArchConfig::four_issue(),
        crate::ArchConfig::eight_issue(),
    ] {
        if a.name == name {
            return Ok(a.name);
        }
    }
    Err(format!("unknown architecture `{name}` in journal result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchConfig, CodeModel, Simulation};
    use codepack_synth::{generate, BenchmarkProfile};

    fn sample_result(model: CodeModel) -> SimResult {
        let p = generate(&BenchmarkProfile::pegwit_like(), 3);
        Simulation::new(ArchConfig::four_issue(), model).run(&p, 20_000)
    }

    #[test]
    fn result_round_trips_byte_exactly() {
        for model in [CodeModel::Native, CodeModel::codepack_optimized()] {
            let r = sample_result(model);
            let doc = result_json(&r);
            let back = parse_result(&json::parse(&doc).unwrap()).unwrap();
            assert_eq!(result_json(&back), doc, "second trip is a fixed point");
            assert_eq!(back.state_hash, r.state_hash);
            assert_eq!(back.cycles(), r.cycles());
            assert_eq!(back.compression.is_some(), r.compression.is_some());
        }
    }

    #[test]
    fn fault_ledger_round_trips() {
        let mut r = sample_result(CodeModel::Native);
        r.faults = Some(codepack_mem::FaultStats {
            injected: 9,
            detected: 7,
            recovered: 5,
            trapped: 2,
            silent: 2,
            retries: 6,
            machine_checks: 1,
        });
        r.pipeline.faults = r.faults.unwrap();
        let doc = result_json(&r);
        let back = parse_result(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.pipeline.faults, r.pipeline.faults);
        assert_eq!(result_json(&back), doc, "second trip is a fixed point");
    }

    #[test]
    fn pre_fault_journal_lines_still_parse() {
        // A journal written before the soft-error subsystem existed has no
        // `faults` keys anywhere; both omissions must default cleanly.
        let r = sample_result(CodeModel::Native);
        let doc = result_json(&r)
            .replace(", \"faults\": {\"injected\": 0, \"detected\": 0, \"recovered\": 0, \"trapped\": 0, \"silent\": 0, \"retries\": 0, \"machine_checks\": 0}", "")
            .replace(", \"faults\": null", "");
        assert!(!doc.contains("faults"), "both fault fields stripped");
        let back = parse_result(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.faults, None);
        assert!(back.pipeline.faults.is_empty());
    }

    #[test]
    fn extreme_state_hash_survives_the_float_parser() {
        let mut r = sample_result(CodeModel::Native);
        r.state_hash = u64::MAX - 1; // not representable in f64
        let back = parse_result(&json::parse(&result_json(&r)).unwrap()).unwrap();
        assert_eq!(back.state_hash, u64::MAX - 1);
    }

    #[test]
    fn entry_round_trips_every_outcome() {
        let result = sample_result(CodeModel::Native);
        let outcomes = vec![
            (CellOutcome::Ok, Some(result.clone())),
            (
                CellOutcome::Trapped {
                    error: "cell \"x\" trapped\nbadly".into(),
                },
                None,
            ),
            (
                CellOutcome::TimedOut {
                    deadline_cycles: 10,
                    actual_cycles: 99,
                },
                None,
            ),
            (
                CellOutcome::Skipped {
                    reason: "fault plan".into(),
                },
                None,
            ),
        ];
        for (outcome, result) in outcomes {
            let e = JournalEntry {
                cell: 5,
                profile: "pegwit".into(),
                arch: "4-issue".into(),
                model: "native".into(),
                outcome: outcome.clone(),
                attempts: 2,
                result,
                metrics: Some("{\"counters\": {}}".into()),
            };
            let line = entry_json(&e);
            let back = parse_entry(&json::parse(&line).unwrap()).unwrap();
            assert_eq!(back.cell, 5);
            assert_eq!(back.attempts, 2);
            assert_eq!(back.outcome.label(), outcome.label());
            assert_eq!(back.metrics.as_deref(), Some("{\"counters\": {}}"));
            if let (CellOutcome::Trapped { error: a }, CellOutcome::Trapped { error: b }) =
                (&back.outcome, &outcome)
            {
                assert_eq!(a, b, "error text survives escaping");
            }
        }
    }
}
