//! The offline path: appending the observation stream to a fresh segment
//! store, reopening it, and checking it against an in-memory corpus.

use std::path::Path;
use std::time::Instant;

use uplan_core::fingerprint::{fingerprint_with, FingerprintOptions};
use uplan_core::UnifiedPlan;
use uplan_corpus::{PlanCorpus, QueryRequest, SegmentStore};

use crate::inputs::{BATCHES, K};
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};

/// Per-layer figures of store builds (filled by traced builds only).
#[derive(Debug, Default)]
pub struct BuildLayers {
    pub plans: u64,
    pub novel: u64,
    pub fingerprint_s: f64,
    pub ingest_s: f64,
    pub index_evals: u64,
    pub append: Samples,
    pub encode_write: Samples,
    pub bytes_written: Samples,
}

pub struct Build {
    /// Create through the last append.
    pub secs: f64,
    pub store: SegmentStore,
}

/// On-disk bytes of every file in the store directory.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir:?}: {e}"))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("cannot stat in {dir:?}: {e}"))?;
        total += meta.len();
    }
    Ok(total)
}

/// Fingerprints `plans` on `threads` threads in the chunk layout
/// `ShardedCorpus::ingest_parallel` uses (its first phase).
fn fingerprint_all(plans: &[UnifiedPlan], threads: usize) {
    let chunk = plans.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for src in plans.chunks(chunk) {
            scope.spawn(move || {
                for plan in src {
                    std::hint::black_box(fingerprint_with(plan, FingerprintOptions::default()));
                }
            });
        }
    });
}

/// Creates a store at `dir` and appends `stream` in [`BATCHES`] batches on
/// `threads` threads. Traced, it then re-runs each batch's layers beside
/// the build as shadow spans: fingerprinting alone, and the in-memory
/// `ingest_parallel` of the batch into a mirror corpus.
pub fn build(
    dir: &Path,
    stream: &[UnifiedPlan],
    threads: usize,
    tr: &Tracer,
    layers: &mut BuildLayers,
) -> Result<Build, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {dir:?}: {e}"))?;
    }
    let root = tr.id();
    let start = Instant::now();
    let mut store = tr
        .time(root, "segment.create", || {
            SegmentStore::create(dir, PlanCorpus::new())
        })
        .map_err(|e| format!("cannot create store: {e}"))?;
    let chunk = stream.len().div_ceil(BATCHES);
    let mut appends = Vec::new();
    for batch in stream.chunks(chunk) {
        let id = tr.id();
        let t = Instant::now();
        let report = store
            .append(batch, threads)
            .map_err(|e| format!("append failed: {e}"))?;
        let end = Instant::now();
        tr.record(id, root, "segment.append", t, end);
        appends.push((id, batch, (end - t).as_secs_f64(), report.segment_bytes));
    }
    let end = Instant::now();
    tr.record(root, ROOT, "op.ingest", start, end);
    let secs = (end - start).as_secs_f64();

    if tr.on() {
        let mut mirror = PlanCorpus::new();
        let mut written = 0u64;
        for (append_id, batch, append_s, bytes) in appends {
            let ingest_id = tr.id();
            let fp_start = Instant::now();
            fingerprint_all(batch, threads);
            let fp_end = Instant::now();
            tr.record(tr.id(), ingest_id, "core.fingerprint", fp_start, fp_end);
            let evals = mirror.index_evals();
            let t = Instant::now();
            let novel = mirror.ingest_parallel(batch, threads);
            let ingest_end = Instant::now();
            tr.record(ingest_id, append_id, "corpus.ingest", t, ingest_end);
            let ingest_s = (ingest_end - t).as_secs_f64();
            layers.plans += batch.len() as u64;
            layers.novel += novel as u64;
            layers.fingerprint_s += (fp_end - fp_start).as_secs_f64();
            layers.ingest_s += ingest_s;
            layers.index_evals += mirror.index_evals() - evals;
            layers.append.push(append_s * 1e3);
            layers.encode_write.push((append_s - ingest_s) * 1e3);
            written += bytes as u64;
        }
        layers.bytes_written.push(written as f64);
    }
    Ok(Build { secs, store })
}

/// `SegmentStore::open` through the first exact k-NN answer, timed in a
/// fresh process (this binary, run as `perfbench open-first-knn <store>
/// <probe.json>`), the way a new CLI or daemon process opens a store.
/// Returns `(open ms, open through first answer ms)`.
pub fn open_first_knn(dir: &Path, probe_json: &Path) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("open-first-knn")
        .arg(dir)
        .arg(probe_json)
        .output()
        .map_err(|e| format!("cannot run the open probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(Ok(open)), Some(Ok(total))) => Ok((open, total)),
        _ => Err(format!(
            "open probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The child side of [`open_first_knn`]: prints the two times in ms.
pub fn open_first_knn_child(dir: &Path, probe_json: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(probe_json)
        .map_err(|e| format!("cannot read {probe_json:?}: {e}"))?;
    let probe = uplan_core::formats::unified::from_json(&text)
        .map_err(|e| format!("bad probe plan: {e}"))?;
    let request = QueryRequest::knn(K).with_probe(probe);
    let start = Instant::now();
    let store = SegmentStore::open(dir).map_err(|e| format!("cannot open store: {e}"))?;
    let opened = Instant::now();
    store
        .corpus()
        .execute(&request)
        .map_err(|e| format!("first query failed: {e}"))?;
    let ms = |t: Instant| (t - start).as_secs_f64() * 1e3;
    Ok(format!("{} {}", ms(opened), ms(Instant::now())))
}

/// The ingest workload's check: the store written from `stream` must hold
/// exactly what an in-memory corpus built from the same stream holds, and
/// its reopened form must answer every probe identically. Returns the
/// number of mismatches found.
pub fn check_against_memory(
    dir: &Path,
    written: &SegmentStore,
    stream: &[UnifiedPlan],
    probes: &[QueryRequest],
    threads: usize,
) -> Result<usize, String> {
    let mut memory = PlanCorpus::new();
    memory.ingest_parallel(stream, threads);
    let mut mismatches = 0;
    let expected = memory.stats();
    if written.corpus().stats() != expected {
        eprintln!(
            "mismatch: store stats {:?} vs in-memory {expected:?}",
            written.corpus().stats()
        );
        mismatches += 1;
    }
    let reopened = SegmentStore::open(dir).map_err(|e| format!("cannot reopen store: {e}"))?;
    // Observation counts are session-local: a reopened corpus documents
    // `observed == distinct` and no duplicates.
    let mut reopened_expected = expected.clone();
    reopened_expected.observed = expected.distinct as u64;
    reopened_expected.duplicates = 0;
    if reopened.corpus().stats() != reopened_expected {
        eprintln!(
            "mismatch: reopened stats {:?} vs {reopened_expected:?}",
            reopened.corpus().stats()
        );
        mismatches += 1;
    }
    for (i, request) in probes.iter().enumerate() {
        let a = reopened.corpus().execute(request);
        let b = memory.execute(request);
        if a != b {
            eprintln!("mismatch: probe {i}: reopened {a:?} vs in-memory {b:?}");
            mismatches += 1;
        }
    }
    Ok(mismatches)
}
