//! `repro corpus` — manage persistent plan corpora from the command line.
//!
//! Every corpus is a segment-store *directory* (`uplan_corpus::SegmentStore`:
//! immutable CRC-checked segment files plus one atomically rewritten
//! manifest). Monolithic `.uplanc` documents and JSON-lines files from
//! earlier releases are read-only input: `import` converts one into a
//! store, and every other command refuses anything but a store directory.
//!
//! ```text
//! repro corpus import <corpus.uplanc|corpus.jsonl> <store-dir>
//!     Convert a legacy corpus into a new one-segment store. The input is
//!     decoded strictly (every UPLN version, CRCs verified; a persisted
//!     index is adopted with zero TED evaluations); a damaged input is
//!     rejected (exit 2) before anything is written.
//! repro corpus ingest <store-dir> <source> <explain-file>... [--threads N] [--shards N]
//!                     [--append]
//! repro corpus ingest <store-dir> --raw <dump.jsonl>... [--threads N] [--shards N]
//!                     [--append] [--lenient] [--max-errors N] [--quarantine <file>]
//!     Convert native EXPLAIN files (any of the converter dialects, see
//!     `repro corpus sources`) and store them deduplicated. Without
//!     `--append`, `<store-dir>` must not exist yet and becomes a new store
//!     (`--shards` sets its shard count); with `--append`, the batch is
//!     appended to the existing store as one immutable segment and only
//!     the manifest is rewritten — cost O(batch). `--threads` fans ingest
//!     out across scoped worker threads (the written files are
//!     byte-identical for every thread count). With `--raw`, the files are
//!     mixed-source dumps instead (JSON-lines, `---`-separator-framed or
//!     `#<bytes>` length-prefixed; framing is sniffed per file), each
//!     record source-sniffed via the converter registry and streamed
//!     batch-wise into the sharded corpus. `--lenient` skips bad records
//!     instead of aborting and prints the per-record error census;
//!     `--max-errors` bounds the tolerated garbage; `--quarantine` writes
//!     failed records to a replayable JSONL file.
//! repro corpus raw-fixture <out.jsonl> [queries] [--dirty N] [--seed HEX]
//!     Write a deterministic mixed-source raw dump covering all nine
//!     dialects ([queries] TPC-H-lite queries per relational engine,
//!     default 6) — the input of the CI raw-ingest gate. `--dirty N`
//!     injects N seeded garbage lines (the CI lenient-ingest gate's
//!     input), printing exactly which lines are garbage.
//! repro corpus raw-check <dump.jsonl> [--lenient]
//!     Assert that 4-thread batched raw ingest of the dump produces a
//!     corpus byte-identical to sequential per-source conversion (and
//!     identical stats); prints both censuses. With `--lenient`, also
//!     asserts that lenient ingest of a dirty dump is byte-identical to
//!     strict ingest of its valid lines alone. Exits non-zero on any
//!     divergence.
//! repro corpus salvage <store-dir> [--out <store-dir>]
//!     Recover what a damaged store still holds, per segment: every
//!     segment that parses, CRC-verifies and decodes whole is recovered in
//!     full, damaged segments drop whole, and a missing manifest is rebuilt
//!     from the per-segment symbol deltas (a damaged symbol-carrying
//!     segment then also drops the later segments that need its symbols).
//!     Prints `salvaged R of D plans` plus what was dropped and why;
//!     `--out` writes the recovered corpus (re-indexed) as a new store.
//!     Exits 2 when nothing could be recovered from a damaged store.
//! repro corpus compact <store-dir>
//!     Merge every segment of a store into one (fresh symbol chain, fresh
//!     feature summaries), deleting the old segment files after the
//!     manifest swaps. Read-amplification maintenance for stores grown by
//!     many small appends.
//! repro corpus mutate <store-dir> <out-dir> --op <truncate|bitflip|splice|delete>
//!                     [--seed HEX]
//!     Copy the store and apply one seeded, reproducible fault to one of
//!     its files (which file is chosen by the seed) — the generator behind
//!     the CI fault-injection smoke step. Prints the fault and the exact
//!     `expect-recoverable: N of M plans` a salvage must report.
//! repro corpus fixture-ingest <store-dir> [count] [--threads N] [--shards N] [--seed HEX]
//!                             [--batches N]
//!     Ingest the seeded TPC-H-derived benchmark stream (the corpus/*
//!     bench population, default 10000 plans) into a new store, split into
//!     `--batches` appended segments (default 1) — the CI determinism
//!     gate: everything it prints except the trailing `wrote …` line is
//!     identical for every `--threads` value, and so are the store files.
//! repro corpus campaign <store-dir> [profile] [queries] [radius]
//!     Run a QPG campaign on an embedded engine profile (postgres, mysql,
//!     tidb, sqlite) and persist every distinct observed plan as a new
//!     store.
//! repro corpus stats <store-dir>
//!     Statistics of a store, how its metric index came to be
//!     (`persisted (0 TED evaluations on load)`), and the per-segment
//!     census: plans and on-disk bytes per section (plan blocks vs symbols
//!     vs BK index vs feature rows vs offset/fingerprint tables). Stores
//!     hold the distinct plan set only; observed/duplicate counters are
//!     session-local and are printed by ingest/campaign at observation
//!     time.
//! repro corpus cluster <store-dir> [radius] [--dot] [--threads N]
//!     Near-duplicate clusters at a TED radius (default 2), rendered as a
//!     text report or Graphviz DOT. `--threads` fans each radius query
//!     out across the corpus shards (identical clusters and TED counts).
//! repro corpus diff <left-store> <right-store> [radius]
//!     Cross-corpus comparison: shared fingerprints, unique plans, and
//!     which unique plans have no near-duplicate (within radius, default 2)
//!     on the other side.
//! repro corpus query <store-dir> <knn|radius|cluster|stats> [--k N] [--radius R]
//!                    [--probe <plan.json>] [--probe-raw <record>] [--budget N]
//!                    [--threads N] [--json]
//!     Run one query through the unified request vocabulary — the same
//!     entry point `uplan-serve` answers over HTTP. `--probe` reads a
//!     unified-JSON plan, `--probe-raw` a single raw dump record
//!     (source-sniffed). `--budget` bounds counted TED evaluations; a
//!     tripped budget is an *operational* failure (exit 1), distinct from
//!     bad arguments (exit 2). `--json` emits the exact `QueryResponse`
//!     wire document the server sends.
//! repro corpus open-gate <store-dir> <reference-store> [--k N] [--probes N]
//!                    [--min-speedup F]
//!     The lazy-load contract, measured: times open-and-first-query on a
//!     store against an eager full decode (open + every plan body decoded
//!     + same query) of a reference store holding the same corpus in a
//!     different segmentation, asserts that every recall-gate probe
//!     answers with an identical `QueryResponse` — matches *and*
//!     `QueryCost`, exact and approximate — on both, and exits 1 when the
//!     measured speedup falls below the floor (default 5x). The
//!     corpus-scale CI job drives this at the 100k-observation fixture
//!     size, 4 segments against 1.
//! repro corpus serve <store-dir> [--addr HOST:PORT] [--threads N] [--queue N]
//!                    [--merge-threads N] [--merge-interval-ms N]
//!     Serve the store over HTTP/1.1 + JSON on a snapshot/delta epoch
//!     model: lock-free k-NN/radius reads against epoch-consistent
//!     snapshots while POST /ingest batches merge in the background. The
//!     open is lazy, and every epoch merge appends one segment, so the
//!     directory is always current. Blocks until POST /shutdown, then
//!     drains gracefully and prints the per-endpoint latency histograms.
//! repro corpus sources
//!     List the accepted ingest source names.
//! ```

use minidb::profile::EngineProfile;
use uplan_convert::{convert, RawIngestOptions, Source};
use uplan_core::fingerprint::FingerprintOptions;
use uplan_core::UnifiedPlan;
use uplan_corpus::{
    encode_store, PlanCorpus, QueryError, QueryOutcome, QueryRequest, SegmentStore, DEFAULT_SHARDS,
};
use uplan_testing::generator::Generator;
use uplan_testing::inject;
use uplan_testing::qpg::{self, QpgConfig};
use uplan_viz::cluster::ClusterView;

/// A CLI failure, split by whose fault it is — and therefore by exit
/// code: **2** for bad input (unusable arguments, unparseable or
/// unrecoverable files), **1** for operational failures (the environment
/// refused a read/write the input said nothing wrong about). Scripts
/// branch on the distinction: retry operational failures, fix inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The user's arguments or input files are at fault → exit 2.
    Input(String),
    /// The environment failed (I/O, permissions) → exit 1.
    Operational(String),
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn code(&self) -> i32 {
        match self {
            CliError::Input(_) => 2,
            CliError::Operational(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Input(message) | CliError::Operational(message) => f.write_str(message),
        }
    }
}

// Bare string errors are argument/usage complaints — the common case.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Input(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Input(message.to_owned())
    }
}

/// Entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match run_inner(args) {
        Ok(report) => {
            println!("{report}");
            0
        }
        Err(error) => {
            eprintln!("{error}");
            error.code()
        }
    }
}

fn usage() -> String {
    "usage: repro corpus <import|ingest|raw-fixture|raw-check|fixture-ingest|campaign|stats|\
     cluster|diff|query|recall|open-gate|serve|salvage|mutate|compact|sources> ... \
     (see crates/bench/src/corpus_cli.rs docs)"
        .to_owned()
}

fn run_inner(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("import") => import(&args[1..]),
        Some("ingest") => ingest(&args[1..]),
        Some("raw-fixture") => raw_fixture(&args[1..]),
        Some("raw-check") => raw_check(&args[1..]),
        Some("fixture-ingest") => fixture_ingest(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("cluster") => cluster(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("recall") => recall(&args[1..]),
        Some("open-gate") => open_gate(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("salvage") => salvage(&args[1..]),
        Some("mutate") => mutate(&args[1..]),
        Some("compact") => compact(&args[1..]),
        Some("sources") => Ok(Source::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join("\n")),
        _ => Err(usage().into()),
    }
}

/// Removes `--name` from `args`; `true` when it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Removes `--name <value>` from `args`, returning the parsed value.
fn take_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let raw = args.remove(at + 1);
    args.remove(at);
    raw.parse()
        .map(Some)
        .map_err(|_| format!("bad {name} value {raw:?}"))
}

/// Why `path` could not be opened as a store, with the way out for the
/// legacy corpus files every command but `import` refuses.
fn not_a_store(path: &str, error: impl std::fmt::Display) -> String {
    format!(
        "cannot open segment store {path}: {error}\n\
         (corpora are store directories; convert a monolithic .uplanc or .jsonl \
         corpus with `repro corpus import <file> <store-dir>`)"
    )
}

/// Opens the store at `path` (lazily: plan payloads stay on disk until a
/// query touches them).
fn open_store(path: &str) -> Result<SegmentStore, CliError> {
    SegmentStore::open(path).map_err(|e| CliError::Input(not_a_store(path, e)))
}

fn load(path: &str) -> Result<PlanCorpus, CliError> {
    open_store(path).map(SegmentStore::into_corpus)
}

/// Writes `corpus` as a new store at `out`, which must not exist yet: a
/// command never replaces a corpus it was not asked to append to.
fn create_store(out: &str, corpus: PlanCorpus) -> Result<SegmentStore, CliError> {
    if std::path::Path::new(out).exists() {
        return Err(format!("{out} already exists; name a new store directory").into());
    }
    // Failing to write an output the arguments merely *name* is the
    // environment's fault, not the input's.
    SegmentStore::create(out, corpus)
        .map_err(|e| CliError::Operational(format!("cannot create segment store {out}: {e}")))
}

/// Persists an ingested batch: appended to the existing store at `out` as
/// one new segment (`--append`; cost O(batch), existing segments never
/// touched), or written as a new store.
fn store_batch(
    out: &str,
    append: bool,
    staging: PlanCorpus,
    threads: usize,
) -> Result<String, CliError> {
    if !append {
        let store = create_store(out, staging)?;
        return Ok(format!(
            "{}\nwrote {out} ({} segment(s))",
            summary(store.corpus()),
            store.census().len()
        ));
    }
    let mut store = open_store(out)?;
    let plans: Vec<UnifiedPlan> = staging.iter().map(|(_, plan)| plan.clone()).collect();
    let report = store
        .append(&plans, threads)
        .map_err(|e| CliError::Operational(format!("cannot append to {out}: {e}")))?;
    let segment = match report.segment_id {
        Some(id) => format!("segment {id} ({} bytes)", report.segment_bytes),
        None => "no segment (batch was all duplicates)".to_owned(),
    };
    Ok(format!(
        "appended {segment}: {} of {} plan(s) admitted, {} duplicate(s)\n{}\n\
         wrote {out} ({} segment(s))",
        report.admitted,
        report.observed,
        report.duplicates,
        summary(store.corpus()),
        store.census().len()
    ))
}

/// Durable facts about a corpus — what a store can actually answer.
fn summary(corpus: &PlanCorpus) -> String {
    let stats = corpus.stats();
    format!(
        "{} distinct plans, {} operations, max depth {}",
        stats.distinct, stats.operations, stats.max_depth
    )
}

/// Session-only dedup counters: persistence stores the distinct set, so
/// these are reported at observation time and not by `stats` on a reloaded
/// file.
fn session_summary(corpus: &PlanCorpus) -> String {
    format!(
        "observed {} plans this run ({} fingerprint duplicates)",
        corpus.observed(),
        corpus.duplicates()
    )
}

/// `repro corpus import`: the one command that reads a legacy corpus file
/// (UPLN document or JSON lines, see `PlanCorpus::from_legacy`). The
/// decode is strict, and the store is created only once the whole input
/// decoded — a damaged file leaves nothing behind.
fn import(args: &[String]) -> Result<String, CliError> {
    let [input, out] = args else {
        return Err("usage: repro corpus import <corpus.uplanc|corpus.jsonl> <store-dir>".into());
    };
    let bytes = std::fs::read(input)
        .map_err(|e| CliError::Operational(format!("cannot read {input}: {e}")))?;
    let corpus = PlanCorpus::from_legacy(&bytes)
        .map_err(|e| CliError::Input(format!("cannot import {input}: {e}")))?;
    let index = format!(
        "{} ({} TED evaluations)",
        if corpus.has_persisted_index() {
            "adopted"
        } else {
            "rebuilt"
        },
        corpus.index_evals()
    );
    let store = create_store(out, corpus)?;
    Ok(format!(
        "imported {input}: {}\nindex: {index}\nwrote {out} ({} segment(s))",
        summary(store.corpus()),
        store.census().len()
    ))
}

fn ingest(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(1);
    let shards: usize = take_value(&mut args, "--shards")?.unwrap_or(DEFAULT_SHARDS);
    let raw = take_flag(&mut args, "--raw");
    let append = take_flag(&mut args, "--append");
    let lenient = take_flag(&mut args, "--lenient");
    let max_errors: usize = take_value(&mut args, "--max-errors")?.unwrap_or(0);
    let quarantine: Option<String> = take_value(&mut args, "--quarantine")?;
    if raw {
        let options = RawIngestOptions {
            strict: !lenient,
            max_errors,
            quarantine: quarantine.map(std::path::PathBuf::from),
        };
        return ingest_raw_dumps(&args, threads, shards, append, &options);
    }
    if lenient || max_errors != 0 || quarantine.is_some() {
        return Err("--lenient/--max-errors/--quarantine only apply to --raw ingest".into());
    }
    let (out, source_name, files) = match args.as_slice() {
        [out, source, files @ ..] if !files.is_empty() => (out, source, files),
        _ => {
            return Err(
                "usage: repro corpus ingest <store-dir> <source> <explain-file>... \
                 [--threads N] [--shards N] [--append], or \
                 repro corpus ingest <store-dir> --raw <dump.jsonl>... \
                 [--threads N] [--shards N] [--append]"
                    .into(),
            )
        }
    };
    let source = Source::parse(source_name)?;
    let mut plans = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read {file}: {e}")))?;
        plans.push(convert(source, &text).map_err(|e| format!("{file}: {e}"))?);
    }
    let mut staging = PlanCorpus::with_shards(shards);
    staging.ingest_parallel(&plans, threads);
    let session = session_summary(&staging);
    Ok(format!(
        "ingested {} file(s) via {}: {session}\n{}",
        files.len(),
        source.name(),
        store_batch(out, append, staging, threads)?
    ))
}

/// `ingest --raw`: mixed-source raw dumps (framing sniffed per file),
/// source-sniffed per record, optionally lenient.
fn ingest_raw_dumps(
    args: &[String],
    threads: usize,
    shards: usize,
    append: bool,
    options: &RawIngestOptions,
) -> Result<String, CliError> {
    let (out, dumps) = match args {
        [out, dumps @ ..] if !dumps.is_empty() => (out, dumps),
        _ => {
            return Err(
                "usage: repro corpus ingest <store-dir> --raw <dump.jsonl>... \
                 [--threads N] [--shards N] [--append] \
                 [--lenient] [--max-errors N] [--quarantine <file>]"
                    .into(),
            )
        }
    };
    // Convert into a staging corpus (batch-local dedup), then store the
    // staged plans as one segment.
    let mut staging = PlanCorpus::with_shards(shards);
    let mut lines = 0usize;
    let mut skipped = 0usize;
    let mut censuses = Vec::new();
    for dump in dumps {
        let text = std::fs::read_to_string(dump)
            .map_err(|e| CliError::Operational(format!("cannot read {dump}: {e}")))?;
        let report = uplan_convert::ingest_raw_with(&text, &mut staging, threads, options)
            .map_err(|e| CliError::Input(format!("{dump}: {e}")))?;
        lines += report.lines;
        skipped += report.errors.len();
        censuses.push(format!(
            "{dump} [{}]: {}",
            report.framing.name(),
            report.census()
        ));
        if !report.errors.is_empty() {
            censuses.push(format!(
                "{dump}: skipped {} — {}",
                report.errors.len(),
                report.error_census()
            ));
        }
    }
    let lenient_line = if options.strict {
        String::new()
    } else {
        format!("\nlenient: {skipped} record(s) skipped")
    };
    let session = session_summary(&staging);
    Ok(format!(
        "raw-ingested {lines} plan line(s) from {} dump(s){lenient_line}\n{}\n{session}\n{}",
        dumps.len(),
        censuses.join("\n"),
        store_batch(out, append, staging, threads)?
    ))
}

/// A deterministic mixed-source raw dump covering all nine dialects: for
/// each of the first `queries` TPC-H-lite queries, one line per relational
/// serialization (PostgreSQL text+JSON, MySQL JSON+table, TiDB table,
/// SQLite EQP, SparkSQL text, SQL Server XML) plus MongoDB, Neo4j and
/// InfluxDB lines from their engines. Text dumps are JSON-string-encoded;
/// JSON documents are compacted to one line.
fn raw_fixture(args: &[String]) -> Result<String, CliError> {
    use uplan_testing::fixtures::{raw_dump_line, DialectFleet};
    let mut args = args.to_vec();
    let dirty: usize = take_value(&mut args, "--dirty")?.unwrap_or(0);
    let seed = match take_value::<String>(&mut args, "--seed")? {
        Some(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad --seed value {hex:?}"))?,
        None => 0xD127_F1EE,
    };
    let out = args
        .first()
        .ok_or("usage: repro corpus raw-fixture <out.jsonl> [queries] [--dirty N] [--seed HEX]")?;
    let queries: usize = match args.get(1) {
        Some(n) => n.parse().map_err(|_| format!("bad query count {n:?}"))?,
        None => 6,
    };
    let mut fleet = DialectFleet::new();
    let mut lines: Vec<String> = Vec::new();
    for qid in 0..queries {
        // The canonical 11-line block per query: eight relational
        // serializations, then MongoDB, Neo4j and InfluxDB.
        for (source, text) in fleet.relational(qid, qid as u32 * 7 + 3) {
            lines.push(raw_dump_line(source, &text));
        }
        for (source, text) in [
            fleet.mongo(qid),
            fleet.neo4j(qid),
            DialectFleet::influx(qid as u64 + 1, (qid as u64 + 1) * 7),
        ] {
            lines.push(raw_dump_line(source, &text));
        }
    }
    let mut dump = lines.join("\n");
    dump.push('\n');
    let dirty_line = if dirty > 0 {
        let (dirtied, injected) = inject::inject_garbage_lines(&dump, seed, dirty);
        dump = dirtied;
        format!(
            "\ninjected {} garbage line(s) (seed {seed:#x}) at: {}",
            injected.len(),
            injected
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    } else {
        String::new()
    };
    std::fs::write(out, &dump)
        .map_err(|e| CliError::Operational(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "raw-fixture: {} mixed-source plan lines ({} TPC-H-lite queries x 11 serializations)\
         {dirty_line}\nwrote {out}",
        lines.len(),
        queries
    ))
}

/// The raw-ingest gate: batched 4-thread raw ingest must produce a corpus
/// byte-identical to sequential per-source conversion of the same dump —
/// and, with `--lenient`, lenient ingest of a dirty dump must be
/// byte-identical to strict ingest of its valid lines alone.
fn raw_check(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let lenient = take_flag(&mut args, "--lenient");
    let dump_path = args
        .first()
        .ok_or("usage: repro corpus raw-check <dump.jsonl> [--lenient]")?;
    let dump = std::fs::read_to_string(dump_path)
        .map_err(|e| CliError::Operational(format!("cannot read {dump_path}: {e}")))?;
    let options = if lenient {
        RawIngestOptions::lenient()
    } else {
        RawIngestOptions::default()
    };
    let mut batched = PlanCorpus::new();
    let batched_report = uplan_convert::ingest_raw_with(&dump, &mut batched, 4, &options)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let mut sequential = PlanCorpus::new();
    let sequential_report =
        uplan_convert::ingest_raw_sequential_with(&dump, &mut sequential, &options)
            .map_err(|e| CliError::Input(e.to_string()))?;
    if batched_report != sequential_report {
        return Err(CliError::Input(format!(
            "raw ingest census diverged:\n  batched:    {}\n  sequential: {}",
            batched_report.census(),
            sequential_report.census()
        )));
    }
    if batched.stats() != sequential.stats() {
        return Err(CliError::Input(format!(
            "raw ingest stats diverged:\n  batched:    {}\n  sequential: {}",
            summary(&batched),
            summary(&sequential)
        )));
    }
    let batched_bytes = encode_store(&batched).map_err(|e| e.to_string())?;
    let sequential_bytes = encode_store(&sequential).map_err(|e| e.to_string())?;
    if batched_bytes != sequential_bytes {
        return Err("raw ingest corpus bytes diverged from the sequential reference".into());
    }

    // The lenient contract: the corpus must equal strict ingest of only
    // the valid lines (checkable when the dump is line-framed).
    let mut lenient_lines = String::new();
    if lenient {
        lenient_lines = format!(
            "\nlenient: skipped {} record(s) — {}",
            batched_report.errors.len(),
            batched_report.error_census()
        );
        if batched_report.framing == uplan_convert::RawFraming::JsonLines
            && !batched_report.errors.is_empty()
        {
            let bad: std::collections::HashSet<usize> =
                batched_report.errors.iter().map(|e| e.line).collect();
            let mut valid = String::with_capacity(dump.len());
            for (i, line) in dump.lines().enumerate() {
                if !bad.contains(&(i + 1)) {
                    valid.push_str(line);
                    valid.push('\n');
                }
            }
            let mut reference = PlanCorpus::new();
            uplan_convert::ingest_raw(&valid, &mut reference, 4)
                .map_err(|e| CliError::Input(format!("valid subset re-ingest: {e}")))?;
            let reference_bytes = encode_store(&reference).map_err(|e| e.to_string())?;
            if reference_bytes != batched_bytes {
                return Err(CliError::Input(
                    "lenient ingest diverged from strict ingest of the valid subset".into(),
                ));
            }
            lenient_lines.push_str("\nlenient ingest == strict ingest of the valid subset");
        }
    }
    Ok(format!(
        "{dump_path}: {} line(s) — {}\n{}\n{}\nraw ingest == sequential per-source conversion \
         ({} store bytes){lenient_lines}",
        batched_report.lines,
        batched_report.census(),
        session_summary(&batched),
        summary(&batched),
        batched_bytes.total_bytes()
    ))
}

/// The CI gate behind the "deterministic under parallelism" and
/// "index-free load" claims: ingests the seeded TPC-H-derived benchmark
/// stream into a new store, split into `--batches` appended segments.
/// Everything printed *except* the final `wrote …` line (which names the
/// thread count) is identical for every `--threads` value, and the store
/// files are byte-identical — CI diffs both.
fn fixture_ingest(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(1);
    let shards: usize = take_value(&mut args, "--shards")?.unwrap_or(DEFAULT_SHARDS);
    let batches: usize = take_value(&mut args, "--batches")?.unwrap_or(1);
    let seed = match take_value::<String>(&mut args, "--seed")? {
        Some(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad --seed value {hex:?}"))?,
        None => 0x5eed_cafe,
    };
    let out = match args.as_slice() {
        [out] | [out, _] => out.clone(),
        _ => {
            return Err("usage: repro corpus fixture-ingest <store-dir> [count] \
                 [--threads N] [--shards N] [--seed HEX] [--batches N]"
                .into())
        }
    };
    let count: usize = match args.get(1) {
        Some(n) => n.parse().map_err(|_| format!("bad plan count {n:?}"))?,
        None => 10_000,
    };
    let stream = crate::corpus_fixture::derived_stream(count, seed);
    let mut store = create_store(&out, PlanCorpus::with_shards(shards))?;
    let chunk = stream.len().div_ceil(batches.max(1)).max(1);
    let mut lines = vec![format!(
        "fixture-ingest: {} TPC-H-derived plans (seed {seed:#x}, {} shards, {batches} batch(es))",
        stream.len(),
        store.corpus().shard_count(),
    )];
    for (i, batch) in stream.chunks(chunk).enumerate() {
        let report = store
            .append(batch, threads)
            .map_err(|e| CliError::Operational(format!("cannot append to {out}: {e}")))?;
        let segment = match report.segment_id {
            Some(id) => format!("segment {id}, {} bytes", report.segment_bytes),
            None => "no segment".to_owned(),
        };
        lines.push(format!(
            "batch {i}: {} of {} admitted ({segment})",
            report.admitted, report.observed
        ));
    }
    lines.push(summary(store.corpus()));
    lines.push(format!(
        "BK-index built with {} TED evaluations",
        store.corpus().index_evals()
    ));
    lines.push(format!(
        "wrote {out} ({} segment(s), {threads} thread(s))",
        store.census().len()
    ));
    Ok(lines.join("\n"))
}

/// `repro corpus salvage`: recover what a damaged store still holds — the
/// segment is the recovery unit, so damaged segments drop whole and intact
/// ones recover in full — reporting exactly what was dropped.
fn salvage(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let out: Option<String> = take_value(&mut args, "--out")?;
    let path = args
        .first()
        .ok_or("usage: repro corpus salvage <store-dir> [--out <store-dir>]")?;
    let (corpus, report) = SegmentStore::salvage(path, FingerprintOptions::default())
        .map_err(|e| CliError::Operational(not_a_store(path, e)))?;
    let mut lines = vec![format!(
        "salvaged {} of {} plans from {path} ({} dropped; \
         {} of {} segment(s) recovered, manifest {})",
        report.recovered,
        report.declared,
        report.dropped,
        report.segments_recovered,
        report.segments_declared,
        if report.manifest_ok {
            "intact"
        } else {
            "rebuilt from segment deltas"
        }
    )];
    if let Some(error) = &report.error {
        lines.push(format!("stopped at: {error}"));
    }
    if report.recovered > 0 {
        lines.push(format!(
            "index: {}",
            if report.index_rebuilt {
                "rebuilt"
            } else {
                "persisted"
            }
        ));
        lines.push(summary(&corpus));
    }
    if report.recovered == 0 && report.error.is_some() {
        return Err(CliError::Input(lines.join("\n")));
    }
    if let Some(out) = out {
        create_store(&out, corpus)?;
        lines.push(format!("wrote {out}"));
    }
    Ok(lines.join("\n"))
}

/// `repro corpus compact`: merge every segment of a store into one.
fn compact(args: &[String]) -> Result<String, CliError> {
    let path = args
        .first()
        .ok_or("usage: repro corpus compact <store-dir>")?;
    let mut store = open_store(path)?;
    let report = store
        .compact()
        .map_err(|e| CliError::Operational(format!("cannot compact {path}: {e}")))?;
    Ok(format!(
        "compacted {path}: {} segment(s) -> 1, {} -> {} segment bytes\n{}",
        report.segments_before,
        report.bytes_before,
        report.bytes_after,
        summary(store.corpus())
    ))
}

/// `repro corpus mutate`: one seeded fault in one file of a copy of an
/// intact store, with the exact salvage expectation printed for the CI
/// smoke gate to compare against `repro corpus salvage`.
fn mutate(args: &[String]) -> Result<String, CliError> {
    let usage = "usage: repro corpus mutate <store-dir> <out-dir> \
                 --op <truncate|bitflip|splice|delete> [--seed HEX]";
    let mut args = args.to_vec();
    let op: String = take_value(&mut args, "--op")?.ok_or(usage)?;
    let seed = match take_value::<String>(&mut args, "--seed")? {
        Some(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad --seed value {hex:?}"))?,
        None => 0xFA_017,
    };
    let [input, out] = args.as_slice() else {
        return Err(usage.into());
    };
    let census: Vec<(u32, u64)> = open_store(input)?
        .census()
        .iter()
        .map(|row| (row.id, row.plans))
        .collect();
    let total: u64 = census.iter().map(|(_, plans)| plans).sum();
    let dir = std::path::Path::new(input);
    let plan = match op.as_str() {
        "truncate" => inject::store_truncate_plan(dir, seed),
        "bitflip" => inject::store_bitflip_plan(dir, seed),
        "splice" => inject::store_splice_plan(dir, seed),
        "delete" => inject::store_delete_plan(dir),
        other => return Err(format!("unknown --op {other:?}; {usage}").into()),
    }
    .map_err(|e| CliError::Operational(format!("cannot read {input}: {e}")))?;
    // The manifest is always listed, so the plan is never empty.
    let fault = &plan[(seed as usize) % plan.len()];
    if std::path::Path::new(out).exists() {
        return Err(format!("{out} already exists; name a new directory").into());
    }
    fault
        .apply_to_copy(dir, std::path::Path::new(out))
        .map_err(|e| CliError::Operational(format!("cannot write {out}: {e}")))?;
    let expected = inject::expected_store_recovery(&census, fault);
    Ok(format!(
        "mutate: {} (seed {seed:#x})\nexpect-recoverable: {} of {total} plans\nwrote {out}",
        fault.describe(),
        expected.recovered
    ))
}

fn parse_profile(name: &str) -> Result<EngineProfile, String> {
    let lowered = name.to_ascii_lowercase();
    EngineProfile::ALL
        .into_iter()
        // Prefix match on the display name, so "postgres" finds PostgreSQL.
        .find(|p| format!("{p}").to_ascii_lowercase().starts_with(&lowered))
        .ok_or_else(|| {
            format!(
                "unknown profile {name:?}; one of: {}",
                EngineProfile::ALL.map(|p| format!("{p}")).join(", ")
            )
        })
}

fn campaign(args: &[String]) -> Result<String, CliError> {
    let out = args
        .first()
        .ok_or("usage: repro corpus campaign <store-dir> [profile] [queries] [radius]")?;
    let profile = match args.get(1) {
        Some(name) => parse_profile(name)?,
        None => EngineProfile::Postgres,
    };
    let queries: usize = match args.get(2) {
        Some(n) => n.parse().map_err(|_| format!("bad query count {n:?}"))?,
        None => 400,
    };
    let radius: u32 = match args.get(3) {
        Some(r) => r.parse().map_err(|_| format!("bad radius {r:?}"))?,
        None => 0,
    };
    let mut db = minidb::Database::new(profile);
    let mut generator = Generator::new(0xC0FFEE);
    generator.create_schema(&mut db, 3);
    let outcome = qpg::run(
        &mut db,
        &mut generator,
        QpgConfig {
            queries,
            novelty_radius: radius,
            ..QpgConfig::default()
        },
    );
    let report = format!(
        "campaign on {profile}: {} queries, {} mutations, {} oracle failures\n{}\n{}\nwrote {out}",
        outcome.queries,
        outcome.mutations,
        outcome.failures.len(),
        session_summary(&outcome.corpus),
        summary(&outcome.corpus)
    );
    create_store(out, outcome.corpus)?;
    Ok(report)
}

/// `repro corpus stats`: the corpus summary (from manifest counters — zero
/// plan decodes), how the metric index came to be, and the per-segment
/// on-disk byte census, section by section.
fn stats(args: &[String]) -> Result<String, CliError> {
    let path = args
        .first()
        .ok_or("usage: repro corpus stats <store-dir>")?;
    let store = open_store(path)?;
    let mut lines = vec![
        format!("{path}: {}", summary(store.corpus())),
        format!(
            "index: persisted ({} TED evaluations on load)",
            store.corpus().index_evals()
        ),
        format!("segments: {}", store.census().len()),
    ];
    let mut total = 0usize;
    for row in store.census() {
        let b = &row.bytes;
        total += b.total;
        lines.push(format!(
            "  segment {:>3}: {:>7} plans, {:>9} bytes \
             (plans {}, symbols {}, index {}, features {}, offsets {}, fingerprints {}, header {})",
            row.id,
            row.plans,
            b.total,
            b.plans,
            b.symbols,
            b.index,
            b.features,
            b.offsets,
            b.fingerprints,
            b.header
        ));
    }
    lines.push(format!(
        "  on disk: {total} segment bytes + {} manifest bytes",
        std::fs::metadata(store.dir().join(uplan_corpus::MANIFEST_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    ));
    Ok(lines.join("\n"))
}

fn cluster(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(1);
    // `--dot` may appear anywhere; positionals keep their order around it.
    let dot = take_flag(&mut args, "--dot");
    let path = args
        .first()
        .ok_or("usage: repro corpus cluster <corpus> [radius] [--dot] [--threads N]")?;
    let radius: u32 = match args.get(1) {
        Some(r) => r.parse().map_err(|_| format!("bad radius {r:?}"))?,
        None => 2,
    };
    let corpus = load(path)?;
    // The radius fan-out parallelizes across shards; the clusters (and
    // their counted TED evaluations) are identical for every thread count.
    let response = corpus
        .execute(&QueryRequest::cluster(radius).with_threads(threads))
        .map_err(|e| CliError::Input(e.to_string()))?;
    let QueryOutcome::Clusters(clusters) = &response.outcome else {
        unreachable!("cluster queries answer clusters")
    };
    let views: Vec<ClusterView<'_>> = clusters
        .iter()
        .map(|c| ClusterView {
            label: format!("#{}", c.leader),
            leader: corpus.plan(c.leader),
            size: c.members.len(),
            spread: c.members.iter().map(|&(_, d)| d).max().unwrap_or(0),
        })
        .collect();
    let title = format!("{path} @ radius {radius}");
    Ok(if dot {
        uplan_viz::cluster::render_dot(&views, &title)
    } else {
        uplan_viz::cluster::render_text(&views, &title)
    })
}

fn diff(args: &[String]) -> Result<String, CliError> {
    let (left_path, right_path) = match args {
        [l, r, ..] => (l, r),
        _ => return Err("usage: repro corpus diff <left> <right> [radius]".into()),
    };
    let radius: u32 = match args.get(2) {
        Some(r) => r.parse().map_err(|_| format!("bad radius {r:?}"))?,
        None => 2,
    };
    let left = load(left_path)?;
    let right = load(right_path)?;
    let diff = left.diff(&right, radius);
    Ok(format!(
        "left  {left_path}: {} distinct\nright {right_path}: {} distinct\n\
         shared fingerprints: {}\n\
         only in left:  {} plans ({} beyond TED radius {radius})\n\
         only in right: {} plans ({} beyond TED radius {radius})",
        left.len(),
        right.len(),
        diff.shared,
        diff.fingerprint_only_left.len(),
        diff.beyond_radius_left.len(),
        diff.fingerprint_only_right.len(),
        diff.beyond_radius_right.len(),
        radius = diff.radius,
    ))
}

/// `repro corpus query` — one query through the unified request
/// vocabulary, the same entry point the `uplan-serve` handlers call.
fn query(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let json_out = take_flag(&mut args, "--json");
    let k: Option<usize> = take_value(&mut args, "--k")?;
    let radius: Option<u32> = take_value(&mut args, "--radius")?;
    let budget: Option<u64> = take_value(&mut args, "--budget")?;
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(1);
    let mode: Option<String> = take_value(&mut args, "--mode")?;
    let candidates: Option<usize> = take_value(&mut args, "--candidates")?;
    let probe_path: Option<String> = take_value(&mut args, "--probe")?;
    let probe_raw_path: Option<String> = take_value(&mut args, "--probe-raw")?;
    let (path, kind) = match args.as_slice() {
        [path, kind] => (path, kind.as_str()),
        _ => {
            return Err(
                "usage: repro corpus query <corpus> <knn|radius|cluster|stats> \
                 [--k N] [--radius R] [--probe <plan.json>] [--probe-raw <record>] \
                 [--mode exact|approx] [--candidates N] \
                 [--budget N] [--threads N] [--json]"
                    .into(),
            )
        }
    };
    let corpus = load(path)?;
    let mut request = match kind {
        "knn" => QueryRequest::knn(k.ok_or("knn queries need --k")?),
        "radius" => QueryRequest::radius(radius.ok_or("radius queries need --radius")?),
        "cluster" => QueryRequest::cluster(radius.unwrap_or(2)),
        "stats" => QueryRequest::stats(),
        other => {
            return Err(
                format!("unknown query kind {other:?}; one of knn, radius, cluster, stats").into(),
            )
        }
    };
    request = request.with_threads(threads);
    if let Some(budget) = budget {
        request = request.with_eval_budget(budget);
    }
    match mode.as_deref() {
        None | Some("exact") => {
            if let Some(n) = candidates {
                return Err(format!("--candidates {n} needs --mode approx").into());
            }
        }
        Some("approx") => request = request.approx(candidates.unwrap_or(0)),
        Some(other) => return Err(format!("unknown --mode {other:?}; one of exact, approx").into()),
    }
    if let Some(file) = &probe_path {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read probe {file}: {e}")))?;
        let plan = uplan_core::formats::unified::from_json(&text)
            .map_err(|e| CliError::Input(format!("{file}: {e}")))?;
        request = request.with_probe(plan);
    } else if let Some(file) = &probe_raw_path {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Operational(format!("cannot read probe {file}: {e}")))?;
        let mut staging = PlanCorpus::new();
        uplan_convert::ingest_raw_with(&text, &mut staging, 1, &RawIngestOptions::default())
            .map_err(|e| CliError::Input(format!("{file}: {e}")))?;
        if staging.len() != 1 {
            return Err(format!(
                "{file}: raw probe must hold exactly one plan record, got {}",
                staging.len()
            )
            .into());
        }
        request = request.with_probe(staging.plan(0).clone());
    }
    let response = match corpus.execute(&request) {
        Ok(response) => response,
        // A tripped eval budget is the environment (corpus too dense for
        // the budget), not the arguments: exit 1, distinct from exit-2
        // usage errors, so callers can tell "raise the budget" from "fix
        // the request".
        Err(e @ QueryError::BudgetExceeded { .. }) => {
            return Err(CliError::Operational(e.to_string()))
        }
        Err(e) => return Err(CliError::Input(e.to_string())),
    };
    if json_out {
        return Ok(response.to_json());
    }
    let answer = match &response.outcome {
        QueryOutcome::Matches(matches) => {
            let mut lines = vec![format!("{} match(es):", matches.len())];
            lines.extend(
                matches
                    .iter()
                    .map(|&(id, d)| format!("  #{id} @ distance {d}")),
            );
            lines.join("\n")
        }
        QueryOutcome::Clusters(clusters) => format!("{} cluster(s)", clusters.len()),
        QueryOutcome::Stats(_) => summary(&corpus),
    };
    Ok(format!(
        "{path}: {} query\n{answer}\nted_evals: {} ({} exited early, {} candidate(s) considered)",
        response.query,
        response.cost.ted_evals,
        response.cost.partial_evals,
        response.cost.candidates_considered,
    ))
}

/// `repro corpus recall` — the approximate-query quality gate. Runs k-NN
/// probes in both modes over a stored corpus and reports recall (exact
/// neighbor distance multiset recovered) plus the full-TED-evaluation
/// ratio the shortlist bought. Exits 1 (operational, like a tripped eval
/// budget) when either measurement falls below its threshold, so CI can
/// gate on the command directly.
fn recall(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let k: usize = take_value(&mut args, "--k")?.unwrap_or(5);
    let candidates: usize = take_value(&mut args, "--candidates")?.unwrap_or(0);
    let probe_count: usize = take_value(&mut args, "--probes")?.unwrap_or(24);
    let min_recall: f64 = take_value(&mut args, "--min-recall")?.unwrap_or(0.95);
    let min_ratio: f64 = take_value(&mut args, "--min-full-eval-ratio")?.unwrap_or(5.0);
    let [path] = args.as_slice() else {
        return Err(
            "usage: repro corpus recall <corpus> [--k N] [--candidates N] [--probes N] \
             [--min-recall F] [--min-full-eval-ratio F]"
                .into(),
        );
    };
    let corpus = load(path)?;
    let probes = crate::corpus_fixture::derived_stream(probe_count, 0x004e_ca11);
    let mut hit = 0usize;
    let mut wanted = 0usize;
    let mut exact_started = 0u64;
    let mut exact_full = 0u64;
    let mut approx_full = 0u64;
    let mut shortlists = 0u64;
    for probe in &probes {
        let exact = corpus
            .execute(&QueryRequest::knn(k).with_probe(probe.clone()))
            .map_err(|e| CliError::Input(e.to_string()))?;
        let approx = corpus
            .execute(
                &QueryRequest::knn(k)
                    .with_probe(probe.clone())
                    .approx(candidates),
            )
            .map_err(|e| CliError::Input(e.to_string()))?;
        let dists = |r: &uplan_corpus::QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            other => panic!("knn query answered {other:?}"),
        };
        let mut exact_d = dists(&exact);
        wanted += exact_d.len();
        for d in dists(&approx) {
            if let Some(pos) = exact_d.iter().position(|&e| e == d) {
                exact_d.remove(pos);
                hit += 1;
            }
        }
        exact_started += exact.cost.ted_evals;
        exact_full += exact.cost.ted_evals - exact.cost.partial_evals;
        approx_full += approx.cost.ted_evals - approx.cost.partial_evals;
        shortlists += approx.cost.candidates_considered;
    }
    let recall = if wanted == 0 {
        1.0
    } else {
        hit as f64 / wanted as f64
    };
    // The ratio gate compares approx full evaluations against the *started*
    // exact count — what exact answering paid per full dynamic program
    // before the early-exit kernel, and still the kernel-invariant measure
    // of traversal work. (Started counts are identical kernel on/off, so
    // this baseline cannot drift with kernel tuning.)
    let ratio = if approx_full == 0 {
        f64::INFINITY
    } else {
        exact_started as f64 / approx_full as f64
    };
    let report = format!(
        "{path}: approx k-NN vs exact over {} probe(s) (k {k}, mean shortlist {:.0})\n\
         recall: {recall:.4} ({hit}/{wanted} neighbor distances recovered; floor {min_recall})\n\
         TED evals: exact started {exact_started} (ran {exact_full} in full) vs approx \
         {approx_full} full ({ratio:.1}x fewer; floor {min_ratio}x)",
        probes.len(),
        shortlists as f64 / probes.len().max(1) as f64,
    );
    if recall < min_recall || ratio < min_ratio {
        return Err(CliError::Operational(format!(
            "{report}\napprox quality gate FAILED"
        )));
    }
    Ok(report)
}

/// `repro corpus open-gate` — the lazy-load contract, measured. Times
/// open-and-first-query on a store against an eager full decode of a
/// reference store holding the same corpus in another segmentation,
/// asserts every recall-gate probe answers identically (matches *and*
/// [`QueryCost`](uplan_corpus::query::QueryCost), exact and approximate
/// k-NN) on both, and fails operationally when the measured speedup misses
/// the floor — so the corpus-scale CI job can gate on the command
/// directly.
fn open_gate(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let k: usize = take_value(&mut args, "--k")?.unwrap_or(5);
    let probe_count: usize = take_value(&mut args, "--probes")?.unwrap_or(24);
    let min_speedup: f64 = take_value(&mut args, "--min-speedup")?.unwrap_or(5.0);
    let [store_path, reference_path] = args.as_slice() else {
        return Err(
            "usage: repro corpus open-gate <store-dir> <reference-store> [--k N] [--probes N] \
             [--min-speedup F]"
                .into(),
        );
    };
    let probes = crate::corpus_fixture::derived_stream(probe_count, 0x004e_ca11);
    let first = QueryRequest::knn(k)
        .with_probe(probes.first().expect("at least one probe").clone())
        .approx(0);
    let query_err = |e: QueryError| CliError::Input(e.to_string());

    // Timed halves, best of three. Both sides pay their full cold path:
    // the lazy open reads the manifest and, of each segment file, the
    // header, block framing and tail (plan payloads stay on disk); the
    // eager side also reads and decodes every plan body (block CRCs
    // verified) before it answers. Neither side flattens TED views up
    // front: the query builds those of the plans it touches.
    let mut lazy_secs = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let store = open_store(store_path)?;
        store.corpus().execute(&first).map_err(query_err)?;
        lazy_secs = lazy_secs.min(t.elapsed().as_secs_f64());
    }
    let mut eager_secs = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let corpus = load(reference_path)?;
        for (_, plan) in corpus.iter() {
            std::hint::black_box(plan);
        }
        corpus.execute(&first).map_err(query_err)?;
        eager_secs = eager_secs.min(t.elapsed().as_secs_f64());
    }
    let speedup = eager_secs / lazy_secs;

    // Identity half: the lazy store must answer the recall-gate probes —
    // exact and approximate — with byte-for-byte the same responses
    // (matches, epoch-free cost counters, everything `QueryResponse`
    // compares) the differently segmented reference produces.
    let lazy = load(store_path)?;
    let reference = load(reference_path)?;
    let mut answered = 0usize;
    for (i, probe) in probes.iter().enumerate() {
        for request in [
            QueryRequest::knn(k).with_probe(probe.clone()),
            QueryRequest::knn(k).with_probe(probe.clone()).approx(0),
        ] {
            let lazy_response = lazy.execute(&request).map_err(query_err)?;
            let reference_response = reference.execute(&request).map_err(query_err)?;
            if lazy_response != reference_response {
                return Err(CliError::Operational(format!(
                    "probe {i}: store and reference answers diverge\n\
                     store:     {lazy_response:?}\n\
                     reference: {reference_response:?}"
                )));
            }
            answered += 1;
        }
    }

    let report = format!(
        "{store_path}: open-and-first-query {:.1}ms vs full decode of {reference_path} {:.1}ms \
         ({speedup:.1}x faster; floor {min_speedup}x)\n\
         {answered} response(s) over {} probe(s) (exact + approx k-NN, k {k}): \
         answers and QueryCost identical to the reference store",
        lazy_secs * 1e3,
        eager_secs * 1e3,
        probes.len(),
    );
    if speedup < min_speedup {
        return Err(CliError::Operational(format!(
            "{report}\nlazy open gate FAILED"
        )));
    }
    Ok(report)
}

/// `repro corpus serve` — the corpus daemon. Blocks until POST /shutdown.
fn serve(args: &[String]) -> Result<String, CliError> {
    use uplan_serve::{Server, ServerConfig};
    let mut args = args.to_vec();
    let defaults = ServerConfig::default();
    let addr: String = take_value(&mut args, "--addr")?.unwrap_or(defaults.addr);
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(defaults.threads);
    let queue_capacity: usize =
        take_value(&mut args, "--queue")?.unwrap_or(defaults.queue_capacity);
    let merge_threads: usize =
        take_value(&mut args, "--merge-threads")?.unwrap_or(defaults.merge_threads);
    let merge_interval_ms: Option<u64> = take_value(&mut args, "--merge-interval-ms")?;
    let slow_query_us: u64 = take_value(&mut args, "--slow-query-us")?.unwrap_or(0);
    let slow_query_evals: u64 = take_value(&mut args, "--slow-query-evals")?.unwrap_or(0);
    let path = args.first().ok_or(
        "usage: repro corpus serve <store-dir> [--addr HOST:PORT] [--threads N] [--queue N] \
         [--merge-threads N] [--merge-interval-ms N] \
         [--slow-query-us N] [--slow-query-evals N]",
    )?;
    let config = ServerConfig {
        addr,
        threads,
        queue_capacity,
        merge_threads,
        merge_interval: merge_interval_ms
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.merge_interval),
        slow_query_us,
        slow_query_evals,
    };
    // The open decodes manifest + index sections only, and every epoch
    // merge appends one segment — the directory is always current.
    let store = open_store(path)?;
    let plans = store.corpus().len();
    let service = uplan_corpus::service::CorpusService::with_store(store, queue_capacity);
    let state = uplan_serve::ServeState::from_service(service, merge_threads);
    let server = Server::bind_with_state(config, state)
        .map_err(|e| CliError::Operational(format!("cannot bind the server: {e}")))?;
    let state = server.state();
    println!(
        "serving {path} ({plans} distinct plans; merges append segments) at http://{} \
         with {threads} worker(s); POST /shutdown to stop",
        server.local_addr()
    );
    let snapshot = server
        .run()
        .map_err(|e| CliError::Operational(format!("server failed: {e}")))?;
    Ok(format!(
        "served {} request(s); final epoch {}, {} distinct plans\nmetrics: {}",
        state.metrics().requests(),
        snapshot.epoch(),
        snapshot.corpus().len(),
        state.metrics().to_json_value().to_compact()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Per-process temp path: concurrent test runs (two checkouts, two CI
    /// jobs) must not share fixture files. Cleared on entry, so a crashed
    /// earlier run cannot trip the commands' "already exists" guard.
    fn temp(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    /// Every file of a store directory, by name.
    fn store_files(dir: &str) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                (
                    entry.file_name().to_string_lossy().into_owned(),
                    std::fs::read(entry.path()).unwrap(),
                )
            })
            .collect()
    }

    const TIDB_PLAN: &str = "\
+-----------------------+---------+-----------+---------------+---------------+
| id                    | estRows | task      | access object | operator info |
+-----------------------+---------+-----------+---------------+---------------+
| TableReader_7         | 5.00    | root      |               |               |
| └─TableFullScan_5     | 100.00  | cop[tikv] | table:t0      |               |
+-----------------------+---------+-----------+---------------+---------------+
";

    #[test]
    fn usage_errors_do_not_panic() {
        assert!(run_inner(&[]).is_err());
        assert!(run_inner(&strings(&["frobnicate"])).is_err());
        assert!(run_inner(&strings(&["ingest", "out"])).is_err());
        assert!(run_inner(&strings(&["ingest", "out", "oracle", "file"])).is_err());
        assert!(run_inner(&strings(&["stats", "/definitely/not/here"])).is_err());
        assert!(run_inner(&strings(&["campaign", "/no/dir/x", "db2"])).is_err());
        assert!(run_inner(&strings(&["import", "/definitely/not/here"])).is_err());
    }

    #[test]
    fn sources_lists_all_converters() {
        let listing = run_inner(&strings(&["sources"])).unwrap();
        assert_eq!(listing.lines().count(), Source::ALL.len());
        assert!(listing.contains("postgres-text"));
    }

    #[test]
    fn ingest_stats_cluster_diff_round_trip() {
        // Two tiny explain files through the TiDB table converter.
        let plan_b = TIDB_PLAN.replace("t0", "t1");
        let file_a = temp("uplan_cli_a.explain");
        let file_b = temp("uplan_cli_b.explain");
        std::fs::write(&file_a, TIDB_PLAN).unwrap();
        std::fs::write(&file_b, &plan_b).unwrap();

        let store = temp("uplan_cli_store");
        let report = run_inner(&strings(&[
            "ingest",
            &store,
            "tidb-table",
            &file_a,
            &file_b,
            &file_a,
        ]))
        .unwrap();
        // Same skeleton, different name_object values: structurally equal
        // under default fingerprints → 3 observed, 1 distinct.
        assert!(
            report.contains("observed 3 plans this run (2 fingerprint duplicates)"),
            "{report}"
        );
        assert!(report.contains("1 distinct plans"), "{report}");
        // Without --append an existing store is never replaced.
        let again = run_inner(&strings(&["ingest", &store, "tidb-table", &file_a])).unwrap_err();
        assert!(again.to_string().contains("already exists"), "{again}");

        // A second corpus arrives as JSON lines and is imported.
        let jsonl = temp("uplan_cli.jsonl");
        std::fs::write(&jsonl, load(&store).unwrap().to_jsonl()).unwrap();
        let imported_store = temp("uplan_cli_imported");
        let imported = run_inner(&strings(&["import", &jsonl, &imported_store])).unwrap();
        assert!(imported.contains("1 distinct plans"), "{imported}");

        let stats = run_inner(&strings(&["stats", &store])).unwrap();
        assert!(stats.contains("1 distinct"), "{stats}");

        let clustered = run_inner(&strings(&["cluster", &store, "1"])).unwrap();
        assert!(clustered.contains("1 clusters over 1 plans"), "{clustered}");
        let dot = run_inner(&strings(&["cluster", &store, "--dot"])).unwrap();
        assert!(dot.starts_with("digraph"), "{dot}");
        // Flag-first invocations must still honor the radius argument.
        let dot_first = run_inner(&strings(&["cluster", &store, "--dot", "5"])).unwrap();
        assert!(dot_first.contains("radius 5"), "{dot_first}");
        assert!(run_inner(&strings(&["cluster", &store, "--dot", "nope"])).is_err());

        let diffed = run_inner(&strings(&["diff", &store, &imported_store, "1"])).unwrap();
        assert!(diffed.contains("shared fingerprints: 1"), "{diffed}");

        for f in [file_a, file_b, jsonl] {
            std::fs::remove_file(f).ok();
        }
        for dir in [store, imported_store] {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn fixture_ingest_is_thread_count_invariant_and_indexed_loads_are_eval_free() {
        let out1 = temp("uplan_cli_fx1");
        let out4 = temp("uplan_cli_fx4");
        let r1 = run_inner(&strings(&[
            "fixture-ingest",
            &out1,
            "300",
            "--threads",
            "1",
        ]))
        .unwrap();
        let r4 = run_inner(&strings(&[
            "fixture-ingest",
            &out4,
            "300",
            "--threads",
            "4",
        ]))
        .unwrap();
        // Every line except the `wrote …` trailer (which names the thread
        // count) is identical — the same invariant the CI corpus-scale job
        // diffs — and so are the written files.
        let strip = |r: &str| {
            r.lines()
                .filter(|l| !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&r1), strip(&r4));
        assert_eq!(store_files(&out1), store_files(&out4));

        // Reopening adopts the persisted index without one TED evaluation.
        let stats = run_inner(&strings(&["stats", &out4])).unwrap();
        assert!(
            stats.contains("index: persisted (0 TED evaluations on load)"),
            "{stats}"
        );

        // Flag errors are reported, not panicked; the removed monolithic
        // `--index` switch is no longer accepted.
        let fresh = temp("uplan_cli_fx_flags");
        assert!(run_inner(&strings(&["fixture-ingest"])).is_err());
        assert!(run_inner(&strings(&["fixture-ingest", &fresh, "--threads"])).is_err());
        assert!(run_inner(&strings(&["fixture-ingest", &fresh, "--seed", "zz"])).is_err());
        assert!(run_inner(&strings(&["fixture-ingest", &fresh, "--index"])).is_err());
        // A store is never silently replaced.
        assert!(run_inner(&strings(&["fixture-ingest", &out1, "10"])).is_err());

        for dir in [out1, out4] {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn raw_fixture_ingests_identically_batched_and_sequential() {
        let dump = temp("uplan_cli_raw.jsonl");
        let report = run_inner(&strings(&["raw-fixture", &dump, "2"])).unwrap();
        assert!(report.contains("22 mixed-source plan lines"), "{report}");

        // The gate command agrees with itself end to end.
        let checked = run_inner(&strings(&["raw-check", &dump])).unwrap();
        assert!(
            checked.contains("raw ingest == sequential per-source conversion"),
            "{checked}"
        );
        // All nine dialects appear in the census.
        for name in [
            "postgres-text",
            "postgres-json",
            "mysql-json",
            "mysql-table",
            "tidb-table",
            "sqlite-eqp",
            "mongodb-json",
            "neo4j-table",
            "sparksql-text",
            "influxdb-text",
            "sqlserver-xml",
        ] {
            assert!(checked.contains(name), "{name} missing from {checked}");
        }

        // `ingest --raw` writes byte-identical stores for 1 and 4 threads.
        let out1 = temp("uplan_cli_raw_t1");
        let out4 = temp("uplan_cli_raw_t4");
        let r1 = run_inner(&strings(&[
            "ingest",
            &out1,
            "--raw",
            &dump,
            "--threads",
            "1",
        ]))
        .unwrap();
        run_inner(&strings(&[
            "ingest",
            &out4,
            "--raw",
            &dump,
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(r1.contains("raw-ingested 22 plan line(s)"), "{r1}");
        assert_eq!(store_files(&out1), store_files(&out4));
        let stats = run_inner(&strings(&["stats", &out4])).unwrap();
        assert!(stats.contains("persisted (0 TED evaluations"), "{stats}");

        // Threaded clustering answers exactly like the sequential path.
        let seq = run_inner(&strings(&["cluster", &out4, "2"])).unwrap();
        let par = run_inner(&strings(&["cluster", &out4, "2", "--threads", "4"])).unwrap();
        assert_eq!(seq, par);

        // Usage errors stay errors.
        assert!(run_inner(&strings(&["ingest", &out1, "--raw"])).is_err());
        assert!(run_inner(&strings(&["raw-check", "/definitely/not/here"])).is_err());

        std::fs::remove_file(dump).ok();
        for dir in [out1, out4] {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn salvage_and_mutate_agree_on_exact_expectations() {
        let intact = temp("uplan_cli_slv");
        run_inner(&strings(&[
            "fixture-ingest",
            &intact,
            "400",
            "--batches",
            "3",
        ]))
        .unwrap();

        // An intact store salvages losslessly.
        let report = run_inner(&strings(&["salvage", &intact])).unwrap();
        assert!(report.contains("0 dropped"), "{report}");
        assert!(report.contains("3 of 3 segment(s) recovered"), "{report}");

        // Every fault op, at seeds that hit the manifest and segments: the
        // salvage outcome matches the printed expectation exactly.
        for (op, seed) in [
            ("truncate", "0x5"),
            ("truncate", "0x4"),
            ("bitflip", "0xB"),
            ("splice", "0x51"),
            ("delete", "0x2"),
        ] {
            let damaged = temp(&format!("uplan_cli_slv_{op}_{seed}"));
            let mutated = run_inner(&strings(&[
                "mutate", &intact, &damaged, "--op", op, "--seed", seed,
            ]))
            .unwrap();
            let expectation = mutated
                .lines()
                .find_map(|l| l.strip_prefix("expect-recoverable: "))
                .unwrap_or_else(|| panic!("no expectation in {mutated}"));
            // "N of M plans" — must reappear verbatim in the salvage report
            // (Ok for N > 0, Input error for N == 0).
            let printed = match run_inner(&strings(&["salvage", &damaged])) {
                Ok(report) => report,
                Err(CliError::Input(message)) => message,
                Err(other) => panic!("{op} seed {seed}: {other}"),
            };
            assert!(
                printed.contains(&format!("salvaged {expectation}")),
                "{op} seed {seed}: expected {expectation:?} in {printed:?}"
            );
            std::fs::remove_dir_all(damaged).ok();
        }

        // Exit codes: unreadable paths are operational (1), bad
        // arguments are input (2).
        let missing = run_inner(&strings(&["salvage", "/definitely/not/here"])).unwrap_err();
        assert_eq!(missing.code(), 1, "{missing}");
        let usage = run_inner(&strings(&["mutate", &intact])).unwrap_err();
        assert_eq!(usage.code(), 2, "{usage}");
        let bad_op =
            run_inner(&strings(&["mutate", &intact, "/tmp/x", "--op", "scramble"])).unwrap_err();
        assert_eq!(bad_op.code(), 2, "{bad_op}");
        std::fs::remove_dir_all(intact).ok();
    }

    #[test]
    fn lenient_raw_ingest_matches_the_valid_subset_end_to_end() {
        let dump = temp("uplan_cli_dirty.jsonl");
        let report = run_inner(&strings(&[
            "raw-fixture",
            &dump,
            "2",
            "--dirty",
            "6",
            "--seed",
            "0x7",
        ]))
        .unwrap();
        assert!(report.contains("injected 6 garbage line(s)"), "{report}");

        // Strict ingest of the dirty dump is a bad-input failure (2)...
        let out = temp("uplan_cli_dirty");
        let strict = run_inner(&strings(&["ingest", &out, "--raw", &dump])).unwrap_err();
        assert_eq!(strict.code(), 2, "{strict}");

        // ...lenient ingest skips exactly the injected lines, quarantines
        // them replayably, and the gate proves valid-subset byte-identity.
        let quarantine = temp("uplan_cli_dirty_q.jsonl");
        let lenient = run_inner(&strings(&[
            "ingest",
            &out,
            "--raw",
            &dump,
            "--lenient",
            "--quarantine",
            &quarantine,
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(
            lenient.contains("raw-ingested 22 plan line(s)"),
            "{lenient}"
        );
        assert!(
            lenient.contains("lenient: 6 record(s) skipped"),
            "{lenient}"
        );
        assert_eq!(
            std::fs::read_to_string(&quarantine)
                .unwrap()
                .lines()
                .count(),
            6
        );

        let checked = run_inner(&strings(&["raw-check", &dump, "--lenient"])).unwrap();
        assert!(
            checked.contains("lenient ingest == strict ingest of the valid subset"),
            "{checked}"
        );
        // A --max-errors bound below the garbage count aborts.
        let bounded = run_inner(&strings(&[
            "ingest",
            &out,
            "--raw",
            &dump,
            "--lenient",
            "--max-errors",
            "3",
            "--append",
        ]))
        .unwrap_err();
        assert!(bounded.to_string().contains("max-errors 3"), "{bounded}");

        for f in [dump, quarantine] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(out).ok();
    }

    #[test]
    fn source_parse_errors_name_the_accepted_sources() {
        let err = run_inner(&strings(&["ingest", "out", "oracle", "file"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown source"), "{err}");
        assert!(err.contains("postgres-text"), "{err}");
        // Case-insensitive prefixes resolve when unambiguous...
        assert_eq!(Source::parse("TIDB"), Ok(Source::TidbTable));
        assert_eq!(Source::parse("Mongo"), Ok(Source::MongoJson));
        // ...and ambiguous ones say which candidates matched.
        let err = Source::parse("Postgres").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(err.contains("postgres-text"), "{err}");
        assert!(err.contains("postgres-json"), "{err}");
    }

    #[test]
    fn campaign_writes_a_loadable_corpus() {
        let out = temp("uplan_cli_campaign");
        let report = run_inner(&strings(&["campaign", &out, "postgres", "60", "0"])).unwrap();
        assert!(report.contains("campaign on PostgreSQL"), "{report}");
        let store = SegmentStore::open(&out).unwrap();
        assert!(!store.corpus().is_empty());
        std::fs::remove_dir_all(out).ok();
    }

    /// The store lifecycle end to end: fixture-ingest a batched store
    /// (byte-identical across thread counts), append with `ingest`,
    /// census with `stats`, query lazily, compact, salvage.
    #[test]
    fn segmented_store_lifecycle_through_the_cli() {
        let dir1 = temp("uplan_cli_seg_t1");
        let dir4 = temp("uplan_cli_seg_t4");
        for (dir, threads) in [(&dir1, "1"), (&dir4, "4")] {
            let report = run_inner(&strings(&[
                "fixture-ingest",
                dir,
                "600",
                "--batches",
                "3",
                "--threads",
                threads,
            ]))
            .unwrap();
            assert!(report.contains("3 batch(es)"), "{report}");
            assert!(report.contains("batch 2:"), "{report}");
        }
        // The directories are byte-identical, file for file.
        let files = store_files(&dir1);
        assert_eq!(
            files.keys().collect::<Vec<_>>(),
            [
                "manifest.uplm",
                "seg-00000.upls",
                "seg-00001.upls",
                "seg-00002.upls"
            ]
        );
        assert_eq!(files, store_files(&dir4));

        // stats prints the per-segment byte census.
        let stats = run_inner(&strings(&["stats", &dir1])).unwrap();
        assert!(stats.contains("segments: 3"), "{stats}");
        assert!(stats.contains("segment   0:"), "{stats}");
        assert!(stats.contains("persisted (0 TED evaluations"), "{stats}");
        assert!(stats.contains("on disk:"), "{stats}");

        // Lazy queries answer identically to a one-segment store.
        let single = temp("uplan_cli_seg_single");
        run_inner(&strings(&["fixture-ingest", &single, "600"])).unwrap();
        let probe_corpus = crate::corpus_fixture::derived_stream(1, 0x004e_ca11);
        let probe_file = temp("uplan_cli_seg_probe.json");
        std::fs::write(
            &probe_file,
            uplan_core::formats::unified::to_json(&probe_corpus[0]),
        )
        .unwrap();
        let knn = |dir: &str| {
            run_inner(&strings(&[
                "query",
                dir,
                "knn",
                "--k",
                "5",
                "--probe",
                &probe_file,
                "--json",
            ]))
            .unwrap()
        };
        let from_single = knn(&single);
        assert_eq!(knn(&dir1), from_single, "segmentation changed answers");

        // `ingest --append` adds a new segment.
        let explain = temp("uplan_cli_seg.explain");
        std::fs::write(&explain, TIDB_PLAN).unwrap();
        let appended = run_inner(&strings(&[
            "ingest",
            &dir1,
            "tidb-table",
            &explain,
            "--append",
        ]))
        .unwrap();
        assert!(appended.contains("appended segment 3"), "{appended}");
        assert!(appended.contains("1 of 1 plan(s) admitted"), "{appended}");
        // Re-ingesting the same file appends nothing.
        let dup = run_inner(&strings(&[
            "ingest",
            &dir1,
            "tidb-table",
            &explain,
            "--append",
        ]))
        .unwrap();
        assert!(
            dup.contains("no segment (batch was all duplicates)"),
            "{dup}"
        );

        // Salvage of the intact store is lossless.
        let salvaged = run_inner(&strings(&["salvage", &dir1])).unwrap();
        assert!(salvaged.contains("0 dropped"), "{salvaged}");
        assert!(
            salvaged.contains("4 of 4 segment(s) recovered"),
            "{salvaged}"
        );
        assert!(salvaged.contains("manifest intact"), "{salvaged}");

        // Compaction folds the four segments into one; queries agree with
        // the pre-append store (the appended TiDB plan is far from the
        // TPC-H-derived probe).
        let compacted = run_inner(&strings(&["compact", &dir1])).unwrap();
        assert!(compacted.contains("4 segment(s) -> 1"), "{compacted}");
        let stats = run_inner(&strings(&["stats", &dir1])).unwrap();
        assert!(stats.contains("segments: 1"), "{stats}");
        assert_eq!(knn(&dir1), from_single, "compaction changed answers");

        for dir in [&dir1, &dir4, &single] {
            std::fs::remove_dir_all(dir).ok();
        }
        for f in [probe_file, explain] {
            std::fs::remove_file(f).ok();
        }
    }

    /// `open-gate` proves answer/cost identity between two segmentations of
    /// one corpus; the speedup floor itself is CI's concern (tiny fixtures
    /// cannot honour a 5x decode gap, so the floor is lowered to exercise
    /// the pass path and raised to exercise the failure).
    #[test]
    fn open_gate_checks_identity_and_enforces_the_floor() {
        let dir = temp("uplan_cli_open_gate_store");
        let reference = temp("uplan_cli_open_gate_reference");
        run_inner(&strings(&["fixture-ingest", &dir, "600", "--batches", "3"])).unwrap();
        run_inner(&strings(&["fixture-ingest", &reference, "600"])).unwrap();

        let report = run_inner(&strings(&[
            "open-gate",
            &dir,
            &reference,
            "--probes",
            "4",
            "--min-speedup",
            "0",
        ]))
        .unwrap();
        assert!(
            report.contains("answers and QueryCost identical to the reference store"),
            "{report}"
        );
        assert!(report.contains("open-and-first-query"), "{report}");

        // An unreachable floor fails operationally (exit 1), naming the gate.
        let failed = run_inner(&strings(&[
            "open-gate",
            &dir,
            &reference,
            "--probes",
            "1",
            "--min-speedup",
            "1000000",
        ]))
        .unwrap_err();
        match failed {
            CliError::Operational(message) => {
                assert!(message.contains("lazy open gate FAILED"), "{message}")
            }
            other => panic!("expected an operational failure, got {other:?}"),
        }

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&reference).ok();
    }

    /// A legacy monolithic document of the 300-observation fixture, as
    /// earlier releases wrote it (checksummed v3; no index section).
    fn legacy_document() -> Vec<u8> {
        let mut encoder = uplan_core::formats::binary::BinaryEncoder::new();
        for (_, plan) in crate::corpus_fixture::derived_corpus(300, 0x1e6a).iter() {
            encoder.push(plan).unwrap();
        }
        encoder.finish()
    }

    #[test]
    fn import_converts_legacy_documents_and_rejects_damage() {
        let file = temp("uplan_cli_legacy.uplanc");
        let bytes = legacy_document();
        std::fs::write(&file, &bytes).unwrap();
        let store = temp("uplan_cli_legacy_store");
        let report = run_inner(&strings(&["import", &file, &store])).unwrap();
        assert!(report.contains("index: rebuilt"), "{report}");
        let expected = PlanCorpus::from_binary(&bytes).unwrap();
        let imported = load(&store).unwrap();
        assert_eq!(imported.len(), expected.len());
        assert_eq!(
            encode_store(&imported).unwrap(),
            encode_store(&expected).unwrap()
        );
        // The output must be new.
        let again = run_inner(&strings(&["import", &file, &store])).unwrap_err();
        assert!(again.to_string().contains("already exists"), "{again}");

        // One damaged byte inside a checksummed plan block: the import is
        // refused as bad input (exit 2), says why, and writes nothing.
        let damaged = temp("uplan_cli_legacy_damaged.uplanc");
        let mut corrupt = bytes.clone();
        let at = corrupt.len() / 2;
        corrupt[at] ^= 0x20;
        std::fs::write(&damaged, &corrupt).unwrap();
        let target = temp("uplan_cli_legacy_damaged_store");
        let err = run_inner(&strings(&["import", &damaged, &target])).unwrap_err();
        assert_eq!(err.code(), 2, "{err}");
        let message = err.to_string();
        assert!(message.contains("cannot import"), "{message}");
        assert!(message.contains("checksum"), "{message}");
        assert!(!std::path::Path::new(&target).exists());

        for f in [file, damaged] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(store).ok();
    }

    #[test]
    fn every_command_rejects_a_non_store_path_naming_import() {
        let file = temp("uplan_cli_not_a_store.uplanc");
        std::fs::write(&file, legacy_document()).unwrap();
        let out = temp("uplan_cli_not_a_store_out");
        let explain = temp("uplan_cli_not_a_store.explain");
        std::fs::write(&explain, TIDB_PLAN).unwrap();
        let commands: Vec<Vec<&str>> = vec![
            vec!["stats", &file],
            vec!["cluster", &file],
            vec!["diff", &file, &file],
            vec!["query", &file, "stats"],
            vec!["recall", &file],
            vec!["open-gate", &file, &file],
            vec!["serve", &file, "--addr", "127.0.0.1:0"],
            vec!["salvage", &file],
            vec!["compact", &file],
            vec!["mutate", &file, &out, "--op", "bitflip"],
            vec!["ingest", &file, "tidb-table", &explain, "--append"],
        ];
        for command in commands {
            let err = run_inner(&strings(&command)).unwrap_err();
            assert!(
                err.to_string().contains("repro corpus import"),
                "{command:?}: {err}"
            );
        }
        assert!(!std::path::Path::new(&out).exists());
        for f in [file, explain] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn failed_appends_leave_the_store_at_its_before_state() {
        // A directory squatting on the next segment path makes the write
        // fail even for root; the CLI reports it and the retry admits the
        // whole batch.
        let dir = temp("uplan_cli_failed_append");
        run_inner(&strings(&["fixture-ingest", &dir, "200"])).unwrap();
        let explain = temp("uplan_cli_failed_append.explain");
        std::fs::write(&explain, TIDB_PLAN).unwrap();
        let blocker = std::path::Path::new(&dir).join(uplan_corpus::segment_file(1));
        std::fs::create_dir(&blocker).unwrap();
        let args = strings(&["ingest", &dir, "tidb-table", &explain, "--append"]);
        let err = run_inner(&args).unwrap_err();
        assert_eq!(err.code(), 1, "{err}");
        std::fs::remove_dir(&blocker).unwrap();
        let retried = run_inner(&args).unwrap();
        assert!(retried.contains("1 of 1 plan(s) admitted"), "{retried}");
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_file(explain).ok();
    }
}
