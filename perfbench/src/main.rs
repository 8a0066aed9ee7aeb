//! End-to-end benchmark of uplan: segment-store ingest, loopback k-NN
//! serving, and k-NN reads beside raw-dump writes.
//!
//! ```text
//! perfbench --workload <ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (through `bash perfbench/run.sh ...`,
//! which builds it when needed). Scratch stores and span
//! logs go under `.bench_run/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). A wrong answer exits 1 after printing it. See
//! `perfbench/README.md` for the workloads and metrics.

mod client;
mod daemon;
mod inputs;
mod stats;
mod store;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use daemon::{Daemon, ReadResult, ServiceCounters, Until, WriteResult};
use inputs::{Seeds, Traffic, STREAM_PLANS};
use stats::Samples;
use store::BuildLayers;
use trace::Tracer;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Set-up repeats until this much wall time has passed, too, so that a
/// cheap set-up is sampled over more than a moment of the machine's speed.
const SETUP_MIN: Duration = Duration::from_secs(4);
/// Timed store builds per ingest run, at least.
const MIN_INGEST_REPS: usize = 3;
/// Store opens per run; `open_first_knn_ms` is their median.
const OPEN_REPS: usize = 21;
/// k-NN requests of the read tail (workloads whose timed phase has no
/// reads), split over the reader connections. Traced runs send half.
const READ_TAIL: usize = 8000;
/// Writes of the write tail (workloads whose timed phase has no writes).
/// Traced runs send half.
const WRITE_TAIL: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Query,
    Mixed,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "query" => Workload::Query,
                    "mixed" => Workload::Mixed,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports.
#[derive(Default)]
struct Report {
    end_to_end: Vec<(&'static str, f64, &'static str, usize)>,
    /// Metrics printed beside the end-to-end ones but left out of the
    /// result line.
    printed: Vec<(&'static str, f64, &'static str, usize)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push((name, value, unit, samples));
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push((name, value, unit));
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Share of the observed stream that was fingerprint duplicates.
fn dup_share(corpus: &uplan_corpus::PlanCorpus) -> f64 {
    corpus.duplicates() as f64 / corpus.observed().max(1) as f64
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| format!("cannot clear {to:?}: {e}"))?;
    }
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {to:?}: {e}"))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("cannot list {from:?}: {e}"))? {
        let entry = entry.map_err(|e| format!("cannot list {from:?}: {e}"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("cannot copy {:?}: {e}", entry.path()))?;
    }
    Ok(())
}

/// Everything the timed phase and the tails measure.
#[derive(Default)]
struct Measured {
    setup: Samples,
    ingest_rates: Samples,
    /// Untraced store-build times (ms), the `op.ingest` reference.
    ingest_untraced_ms: Samples,
    bytes_per_plan: f64,
    distinct: usize,
    open_ms: Samples,
    /// The `SegmentStore::open` part of each `open_ms` sample.
    open_only_ms: Samples,
    reads: ReadResult,
    /// Untraced reads of a traced run, the `op.knn` reference.
    reads_untraced: ReadResult,
    writes: WriteResult,
    writes_untraced: WriteResult,
    layers: BuildLayers,
    decoded_warm: usize,
    counters: ServiceCounters,
    segments_base: usize,
    segments_end: usize,
    base_len: usize,
    final_len: usize,
    stream_dup_share: f64,
    mismatches: u64,
    probes_checked: u64,
}

/// The client side of one served phase: reader connections, whether the
/// writer runs, and when both stop.
#[derive(Clone, Copy)]
struct Load {
    readers: u64,
    writer: bool,
    until: Until,
}

/// Runs the readers and the writer of `load` against the daemon.
fn serve_phase(
    daemon: &Daemon,
    traffic: &Traffic,
    seeds: Seeds,
    load: Load,
    tr: &Tracer,
    shadow: Option<&uplan_serve::ServeState>,
) -> (ReadResult, WriteResult) {
    let Load {
        readers,
        writer,
        until,
    } = load;
    std::thread::scope(|scope| {
        let read_handles: Vec<_> = (0..readers)
            .map(|c| {
                let until = match until {
                    Until::Count(n) => Until::Count(n / readers as usize),
                    deadline => deadline,
                };
                scope.spawn(move || {
                    daemon::read_loop(daemon.addr, traffic, seeds, c, until, tr, shadow)
                })
            })
            .collect();
        let write_handle = writer
            .then(|| scope.spawn(move || daemon::write_loop(daemon.addr, traffic, until, tr)));
        let mut reads = ReadResult::default();
        for h in read_handles {
            reads.merge(h.join().expect("reader thread panicked"));
        }
        let writes = write_handle
            .map(|h| h.join().expect("writer thread panicked"))
            .unwrap_or_default();
        (reads, writes)
    })
}

fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let threads = nproc();
    let seeds = Seeds::from(args.seed);
    let tr = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let store_dir = work.join("store");
    let ref_dir = work.join("reference");
    let mut m = Measured::default();
    // Wall time of each part of the run, for sizing it.
    let mut marks = vec![("start", Instant::now())];

    // Set-up, repeated: inputs from the seed; for the served workloads also
    // the store build, a lazy open by the daemon, and warm-up.
    let mut kept: Option<(Vec<uplan_core::UnifiedPlan>, Traffic, Option<Daemon>)> = None;
    let setup_start = Instant::now();
    while m.setup.len() < SETUP_REPS || setup_start.elapsed() < SETUP_MIN {
        if let Some((_, _, Some(daemon))) = kept.take() {
            daemon.stop()?;
        }
        let start = Instant::now();
        let stream = inputs::stream(seeds);
        let traffic = inputs::traffic(seeds)?;
        let mut served = None;
        if args.workload != Workload::Ingest {
            let build = store::build(&store_dir, &stream, threads, &tr, &mut m.layers)?;
            m.ingest_rates.push(STREAM_PLANS as f64 / build.secs);
            m.distinct = build.store.corpus().len();
            m.stream_dup_share = dup_share(build.store.corpus());
            m.bytes_per_plan = store::dir_bytes(&store_dir)? as f64 / m.distinct as f64;
            drop(build);
            let daemon = Daemon::start(&store_dir, threads)?;
            m.decoded_warm = daemon.warm(&traffic)?;
            served = Some(daemon);
        }
        m.setup.push(start.elapsed().as_secs_f64());
        kept = Some((stream, traffic, served));
    }
    marks.push(("set-up", Instant::now()));
    let (stream, traffic, served) = kept.expect("at least one set-up");
    let probe_json = work.join("probe.json");
    let probe = traffic.requests[0]
        .reference
        .probe
        .as_ref()
        .expect("k-NN requests carry a probe");
    std::fs::write(&probe_json, uplan_core::formats::unified::to_json(probe))
        .map_err(|e| format!("cannot write {probe_json:?}: {e}"))?;
    let half = |t: Instant, f: f64| t + Duration::from_secs_f64(args.seconds * f);

    let daemon = match args.workload {
        Workload::Ingest => {
            // Timed: fresh store builds; a traced run times its first half
            // untraced as the reference for the layer table.
            let start = Instant::now();
            let traced_from = half(start, if args.trace { 0.5 } else { 1.0 });
            let deadline = half(start, 1.0);
            let mut last = None;
            let mut reps = 0;
            while reps < MIN_INGEST_REPS || Instant::now() < deadline {
                let phase_tr = if Instant::now() >= traced_from {
                    &tr
                } else {
                    &untraced
                };
                let build = store::build(&store_dir, &stream, threads, phase_tr, &mut m.layers)?;
                if !phase_tr.on() {
                    m.ingest_untraced_ms.push(build.secs * 1e3);
                }
                m.ingest_rates.push(STREAM_PLANS as f64 / build.secs);
                last = Some(build.store);
                reps += 1;
            }
            marks.push(("timed", Instant::now()));
            let last = last.expect("at least one build");
            m.distinct = last.corpus().len();
            m.stream_dup_share = dup_share(last.corpus());
            m.bytes_per_plan = store::dir_bytes(&store_dir)? as f64 / m.distinct as f64;
            // Reopened and probed: against an in-memory corpus of the same
            // stream, then served.
            let probes: Vec<_> = traffic
                .requests
                .iter()
                .filter(|r| !r.raw)
                .map(|r| r.reference.clone())
                .collect();
            m.probes_checked = probes.len() as u64 + 2;
            m.mismatches +=
                store::check_against_memory(&store_dir, &last, &stream, &probes, threads)? as u64;
            drop((last, stream));
            let daemon = Daemon::start(&store_dir, threads)?;
            m.decoded_warm = daemon.warm(&traffic)?;
            daemon
        }
        Workload::Query | Workload::Mixed => {
            drop(stream);
            served.expect("served workloads start the daemon in set-up")
        }
    };

    // The reference copy and the in-process state for shadows and answers.
    // Taken before any write reaches the daemon.
    copy_dir(&store_dir, &ref_dir)?;
    let shadow = if args.trace {
        let state = daemon::local_state(&ref_dir, threads)?;
        std::hint::black_box(state.service().snapshot().corpus().iter().count());
        Some(state)
    } else {
        None
    };
    m.segments_base = daemon::segments(&daemon)?;
    m.base_len = daemon.state.service().snapshot().corpus().len();
    let counters_before = daemon::scrape(&daemon)?;

    let readers = if args.workload == Workload::Mixed {
        1
    } else {
        threads as u64
    };
    let tail = |n: usize| Until::Count(if args.trace { n / 2 } else { n });
    match args.workload {
        Workload::Ingest => {
            let (reads, _) = serve_phase(
                &daemon,
                &traffic,
                seeds,
                Load {
                    readers,
                    writer: false,
                    until: tail(READ_TAIL),
                },
                &tr,
                shadow.as_ref(),
            );
            m.reads = reads;
        }
        Workload::Query | Workload::Mixed => {
            let writer = args.workload == Workload::Mixed;
            let start = Instant::now();
            if args.trace {
                let (reads, writes) = serve_phase(
                    &daemon,
                    &traffic,
                    seeds,
                    Load {
                        readers,
                        writer,
                        until: Until::Deadline(half(start, 0.5)),
                    },
                    &untraced,
                    None,
                );
                m.reads_untraced = reads;
                m.writes_untraced = writes;
            }
            let (reads, writes) = serve_phase(
                &daemon,
                &traffic,
                seeds,
                Load {
                    readers,
                    writer,
                    until: Until::Deadline(half(start, 1.0)),
                },
                &tr,
                shadow.as_ref(),
            );
            m.reads = reads;
            m.writes = writes;
            marks.push(("timed", Instant::now()));
        }
    }
    if args.workload != Workload::Mixed {
        let (_, writes) = serve_phase(
            &daemon,
            &traffic,
            seeds,
            Load {
                readers: 0,
                writer: true,
                until: tail(WRITE_TAIL),
            },
            &tr,
            None,
        );
        m.writes = writes;
    }
    // Let the merger drain the last writes before the scrape.
    let drained = Instant::now();
    while daemon.state.service().pending() > 0 && drained.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    let counters_after = daemon::scrape(&daemon)?;
    m.counters = ServiceCounters {
        merges: counters_after.merges - counters_before.merges,
        merge_us: counters_after.merge_us - counters_before.merge_us,
    };
    m.segments_end = daemon::segments(&daemon)?;
    let final_snapshot = daemon.stop()?;
    m.final_len = final_snapshot.corpus().len();
    drop(final_snapshot);

    for _ in 0..OPEN_REPS {
        let (open, total) = store::open_first_knn(&store_dir, &probe_json)?;
        m.open_only_ms.push(open);
        m.open_ms.push(total);
    }

    marks.push(("tails", Instant::now()));
    // Correctness: every answer against the in-process reference; the
    // served store must end holding exactly the reference's plans.
    let mut reference = verify::Reference::new(&ref_dir, &traffic, threads);
    let mut answers = std::mem::take(&mut m.reads.answers);
    answers.extend(std::mem::take(&mut m.reads_untraced.answers));
    m.mismatches += reference.check_all(&answers)?;
    let expected_len = reference.len(usize::from(
        m.writes.accepted + m.writes_untraced.accepted > 0,
    ))?;
    if m.final_len != expected_len {
        eprintln!(
            "mismatch: the daemon ended with {} plans, the reference holds {expected_len}",
            m.final_len
        );
        m.mismatches += 1;
    }

    marks.push(("checks", Instant::now()));
    report.line(format!(
        "phases: {}",
        marks
            .windows(2)
            .map(|w| format!("{} {:.1}s", w[1].0, (w[1].1 - w[0].1).as_secs_f64()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    summarize(args, &m, &traffic, &tr, threads, report);
    if args.trace {
        let path = work.parent().expect("work dir has a parent").join(format!(
            "trace-{}-{}.jsonl",
            workload_name(args.workload),
            args.seed
        ));
        tr.write_jsonl(&path)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        report.line(format!("spans written to {}", path.display()));
    }
    Ok(())
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Ingest => "ingest",
        Workload::Query => "query",
        Workload::Mixed => "mixed",
    }
}

/// Prints one layer table: mean self time per `root` op over the traced
/// ops, against the untraced mean of the same op.
fn layer_table(
    report: &mut Report,
    tr: &Tracer,
    root: &'static str,
    untraced: &Samples,
    scale: f64,
    unit: &str,
) {
    let st = trace::self_times(&tr.spans(), root, "unaccounted");
    if st.roots == 0 || untraced.is_empty() {
        report.line(format!("layer table {root}: no traced or untraced ops"));
        return;
    }
    // `untraced` is in the table's unit; self times are in seconds.
    let base = untraced.mean() / scale;
    report.line(format!(
        "layer table {root}: {} traced ops, traced mean {:.1} {unit}; untraced mean {:.1} {unit} over {} ops",
        st.roots,
        st.root_mean * scale,
        base * scale,
        untraced.len()
    ));
    // Layers first, the root's own self time ("unaccounted") last.
    let mut rows = st.rows.clone();
    rows.sort_by_key(|(name, _)| *name == "unaccounted");
    let mut layers_sum = 0.0;
    for (name, secs) in &rows {
        report.line(format!(
            "  {name:<22} {:>10.1} {unit}  {:>5.1}% of traced",
            secs * scale,
            100.0 * secs / st.root_mean
        ));
        if *name != "unaccounted" {
            layers_sum += secs;
        }
    }
    report.line(format!(
        "  layers sum to {:.1}% of the untraced op; unaccounted {:.1}% of it; tracing overhead {:+.1}%",
        100.0 * layers_sum / base,
        100.0 * (base - layers_sum) / base,
        100.0 * (st.root_mean - base) / base
    ));
}

fn summarize(
    args: &Args,
    m: &Measured,
    traffic: &Traffic,
    tr: &Tracer,
    threads: usize,
    r: &mut Report,
) {
    let reads = &m.reads;
    let writes = &m.writes;
    let all_reads = reads.requests() + m.reads_untraced.requests();
    let all_writes = writes.accepted
        + writes.rejected_429
        + writes.failed
        + m.writes_untraced.accepted
        + m.writes_untraced.rejected_429
        + m.writes_untraced.failed;
    r.attempted = all_reads as u64
        + reads.io_errors
        + m.reads_untraced.io_errors
        + all_writes
        + m.ingest_rates.len() as u64
        + m.open_ms.len() as u64
        + m.probes_checked;
    r.failed = m.mismatches
        + reads.io_errors
        + m.reads_untraced.io_errors
        + writes.rejected_429
        + writes.failed
        + m.writes_untraced.rejected_429
        + m.writes_untraced.failed;

    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    // End-to-end metrics; a traced run reports its untraced half here too.
    let (rd, wr) = if args.trace && !m.reads_untraced.exact_us.is_empty() {
        (&m.reads_untraced, &m.writes_untraced)
    } else {
        (reads, writes)
    };
    let (wr_lat, wr_n) = if wr.due_ms.is_empty() {
        (&writes.due_ms, writes.due_ms.len())
    } else {
        (&wr.due_ms, wr.due_ms.len())
    };
    r.e2e("setup_s", m.setup.percentile(0.5), "s", m.setup.len());
    r.e2e(
        "ingest_plans_per_s",
        m.ingest_rates.percentile(0.5),
        "obs/s",
        m.ingest_rates.len(),
    );
    r.e2e("store_bytes_per_plan", m.bytes_per_plan, "B", 1);
    r.e2e(
        "open_first_knn_ms",
        m.open_ms.percentile(0.5),
        "ms",
        m.open_ms.len(),
    );
    r.e2e(
        "knn_rps",
        rd.requests() as f64 / rd.secs,
        "req/s",
        rd.requests(),
    );
    r.e2e(
        "knn_exact_p50_us",
        rd.exact_us.percentile(0.5),
        "us",
        rd.exact_us.len(),
    );
    r.e2e(
        "knn_approx_p50_us",
        rd.approx_us.percentile(0.5),
        "us",
        rd.approx_us.len(),
    );
    r.e2e(
        "knn_approx_p90_us",
        rd.approx_us.percentile(0.9),
        "us",
        rd.approx_us.len(),
    );
    // Printed but left out of the result line: on a two-core machine whose
    // speed swings between runs these move by more than any allowed bound
    // (README.md, "Steadiness").
    r.printed
        .push(("ingest_http_p50_ms", wr_lat.percentile(0.5), "ms", wr_n));
    r.printed.push((
        "knn_exact_p99_us",
        rd.exact_us.percentile(0.99),
        "us",
        rd.exact_us.len(),
    ));
    r.printed.push((
        "knn_approx_p99_us",
        rd.approx_us.percentile(0.99),
        "us",
        rd.approx_us.len(),
    ));
    r.printed
        .push(("ingest_http_p90_ms", wr_lat.percentile(0.9), "ms", wr_n));
    r.printed.push((
        "failed_ratio",
        per(r.failed as f64, r.attempted as f64),
        "ratio",
        r.attempted as usize,
    ));
    for (samples, q, what) in [
        (&rd.exact_us, 0.99, "knn_exact_p99_us"),
        (&rd.approx_us, 0.99, "knn_approx_p99_us"),
        (wr_lat, 0.9, "ingest_http_p90_ms"),
    ] {
        if samples.beyond(q) < 10 {
            r.line(format!(
                "warning: {what} has only {} samples beyond it",
                samples.beyond(q)
            ));
        }
    }

    // Per-layer metrics (traced runs).
    let novel = m.final_len.saturating_sub(m.base_len) as f64;
    let records = (writes.records + m.writes_untraced.records) as f64;
    let layers = &m.layers;
    r.layer(
        "convert.us_per_record",
        per(writes.convert_us.mean(), traffic.dump_records as f64),
        "us",
    );
    r.layer(
        "core.fingerprint_us_per_plan",
        per(layers.fingerprint_s * 1e6, layers.plans as f64),
        "us",
    );
    r.layer(
        "corpus.ingest_us_per_plan",
        per(layers.ingest_s * 1e6, layers.plans as f64),
        "us",
    );
    r.layer(
        "corpus.index_evals_per_novel",
        per(layers.index_evals as f64, layers.novel as f64),
        "count",
    );
    r.layer("segment.append_ms", layers.append.mean(), "ms");
    r.layer("segment.encode_write_ms", layers.encode_write.mean(), "ms");
    r.layer("segment.bytes_written", layers.bytes_written.mean(), "B");
    r.layer("segment.open_ms", m.open_only_ms.mean(), "ms");
    r.layer("query.exact_us", reads.exec_exact_us.mean(), "us");
    r.layer("query.approx_us", reads.exec_approx_us.mean(), "us");
    r.layer("query.ted_evals", reads.ted_evals.mean(), "count");
    r.layer("query.partial_evals", reads.partial_evals.mean(), "count");
    r.layer(
        "query.candidates_considered",
        reads.candidates.mean(),
        "count",
    );
    r.layer("query.evals_per_plan", reads.evals_per_plan.mean(), "ratio");
    let client_us = {
        let mut all = reads.exact_us.clone();
        all.extend(&reads.approx_us);
        all.mean()
    };
    r.layer("serve.handle_us", reads.handle_us.mean(), "us");
    r.layer("serve.socket_us", client_us - reads.handle_us.mean(), "us");
    r.layer("service.merges", m.counters.merges as f64, "count");
    r.layer(
        "service.merge_ms",
        per(m.counters.merge_us as f64 / 1e3, m.counters.merges as f64),
        "ms",
    );
    r.layer(
        "service.segments_appended",
        m.segments_end.saturating_sub(m.segments_base) as f64,
        "count",
    );
    r.layer(
        "service.pending_max",
        writes.pending_max.max(m.writes_untraced.pending_max) as f64,
        "count",
    );
    r.layer(
        "service.rejected_429",
        (writes.rejected_429 + m.writes_untraced.rejected_429) as f64,
        "count",
    );
    r.layer("loadgen.late_ms_p99", writes.late_ms.percentile(0.99), "ms");

    // Traffic properties.
    let raw = reads.raw + m.reads_untraced.raw;
    let exact = reads.exact_us.len() + m.reads_untraced.exact_us.len();
    let approx = reads.approx_us.len() + m.reads_untraced.approx_us.len();
    r.line(format!(
        "traffic: workload {} seed {} nproc {threads}; stream {STREAM_PLANS} observations, \
         {:.1}% fingerprint duplicates, {} distinct plans, {} decoded after warm-up",
        workload_name(args.workload),
        args.seed,
        100.0 * m.stream_dup_share,
        m.distinct,
        m.decoded_warm
    ));
    r.line(format!(
        "traffic: k-NN {exact} exact / {approx} approx ({raw} probe_raw, {:.1}%); writes {} \
         dumps of {} records ({records} converted), {:.1}% fingerprint duplicates; \
         segments {} -> {}",
        100.0 * raw as f64 / (exact + approx).max(1) as f64,
        writes.accepted + m.writes_untraced.accepted,
        traffic.dump_records,
        100.0 * per(records - novel, records),
        m.segments_base,
        m.segments_end
    ));
    if args.trace {
        match args.workload {
            Workload::Ingest => layer_table(r, tr, "op.ingest", &m.ingest_untraced_ms, 1e3, "ms"),
            Workload::Query | Workload::Mixed => {
                let mut untraced = m.reads_untraced.exact_us.clone();
                untraced.extend(&m.reads_untraced.approx_us);
                layer_table(r, tr, "op.knn", &untraced, 1e6, "us");
                if args.workload == Workload::Mixed {
                    layer_table(r, tr, "op.write", &m.writes_untraced.service_ms, 1e3, "ms");
                }
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("open-first-knn") {
        match argv.get(2..4) {
            Some([dir, probe]) => {
                match store::open_first_knn_child(Path::new(dir), Path::new(probe)) {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        std::process::exit(1);
                    }
                }
            }
            _ => {
                eprintln!("usage: perfbench open-first-knn <store dir> <probe.json>");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_run");
    let work = root.join(format!(
        "{}-{}",
        workload_name(args.workload),
        std::process::id()
    ));
    let mut report = Report::default();
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {work:?}: {e}"))
        .and_then(|_| run(&args, &work, &mut report));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }

    for (name, value, unit, samples) in &report.end_to_end {
        println!("{name:<22} {value:>14.3} {unit:<6} (n={samples})");
    }
    for (name, value, unit, samples) in &report.printed {
        println!("{name:<22} {value:>14.6} {unit:<6} (n={samples}; not in the result line)");
    }
    if args.trace {
        for (name, value, unit) in &report.per_layer {
            println!("{name:<30} {value:>14.3} {unit}");
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    let metrics: Vec<String> = if args.trace {
        report
            .per_layer
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
            .collect()
    } else {
        report
            .end_to_end
            .iter()
            .map(|(n, v, u, _)| {
                format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v))
            })
            .collect()
    };
    let correct = report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
