//! The served path: a real `uplan_serve::Server` on a loopback socket,
//! driven by closed-loop readers and an open-loop writer.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uplan_core::formats::json;
use uplan_corpus::service::{CorpusService, CorpusSnapshot, DEFAULT_PENDING_CAPACITY};
use uplan_corpus::SegmentStore;
use uplan_serve::http::HttpRequest;
use uplan_serve::{handle, ServeState, Server, ServerConfig};

use crate::client::{request_bytes, send, Response};
use crate::inputs::{Mode, Seeds, Sequence, Traffic};
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};

/// Open-loop writer schedule: one fleet dump is due every this many ms.
/// Converting a dump takes about 7.5 ms, so conversion keeps about a third
/// of a core busy.
pub const WRITE_INTERVAL_MS: u64 = 25;
/// Requests of each warm-up pass, spread evenly over the request table.
const WARM_REQUESTS: usize = 64;

pub struct Daemon {
    pub addr: SocketAddr,
    pub state: Arc<ServeState>,
    server: JoinHandle<std::io::Result<Arc<CorpusSnapshot>>>,
}

/// An in-process serving state over its own open of a store directory:
/// the reference answers come from its snapshot, and traced runs re-run
/// `handle` against it.
pub fn local_state(dir: &Path, threads: usize) -> Result<ServeState, String> {
    let store = SegmentStore::open(dir).map_err(|e| format!("cannot open store: {e}"))?;
    Ok(ServeState::from_service(
        CorpusService::with_store(store, DEFAULT_PENDING_CAPACITY),
        threads,
    ))
}

impl Daemon {
    /// Opens the store lazily and serves it with `threads` workers and
    /// merge threads; the merger runs at its default interval.
    pub fn start(dir: &Path, threads: usize) -> Result<Daemon, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            merge_threads: threads,
            ..ServerConfig::default()
        };
        let server = Server::bind_with_state(config, local_state(dir, threads)?)
            .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let addr = server.local_addr();
        let state = server.state();
        let server = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            state,
            server,
        })
    }

    /// Plans decoded in the currently published snapshot.
    pub fn decoded(&self) -> usize {
        self.state.service().snapshot().corpus().decoded_plans()
    }

    /// Warms the daemon until `decoded_plans()` stops growing: a walk over
    /// the published snapshot decodes every plan, then [`WARM_REQUESTS`]
    /// requests spread over the request table go over the socket. Returns
    /// the decoded count.
    pub fn warm(&self, traffic: &Traffic) -> Result<usize, String> {
        let mut decoded = usize::MAX;
        for _ in 0..3 {
            let snapshot = self.state.service().snapshot();
            std::hint::black_box(snapshot.corpus().iter().count());
            let step = traffic.requests.len().div_ceil(WARM_REQUESTS);
            for request in traffic.requests.iter().step_by(step) {
                let response = send(self.addr, &request.wire)
                    .map_err(|e| format!("warm-up request failed: {e}"))?;
                if response.status != 200 {
                    return Err(format!("warm-up request answered {}", response.status));
                }
            }
            let now = self.decoded();
            if now == decoded {
                return Ok(now);
            }
            decoded = now;
        }
        Ok(decoded)
    }

    pub fn get(&self, path: &str) -> Result<Response, String> {
        send(self.addr, &request_bytes("GET", path, "")).map_err(|e| format!("GET {path}: {e}"))
    }

    /// Shuts the daemon down gracefully and waits for its threads; returns
    /// the final snapshot.
    pub fn stop(self) -> Result<Arc<CorpusSnapshot>, String> {
        let response = send(self.addr, &request_bytes("POST", "/shutdown", ""))
            .map_err(|e| format!("shutdown request failed: {e}"));
        let joined = self
            .server
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon failed: {e}"))?;
        response?;
        Ok(joined)
    }
}

/// One answered k-NN request, kept for the correctness check.
pub struct Answer {
    pub index: usize,
    pub status: u16,
    pub body: String,
}

#[derive(Default)]
pub struct ReadResult {
    pub exact_us: Samples,
    pub approx_us: Samples,
    pub answers: Vec<Answer>,
    pub io_errors: u64,
    pub raw: u64,
    pub secs: f64,
    /// Traced runs: in-process `CorpusSnapshot::execute` and `handle` of
    /// the same requests (µs), and their counted costs.
    pub exec_exact_us: Samples,
    pub exec_approx_us: Samples,
    pub handle_us: Samples,
    pub ted_evals: Samples,
    pub partial_evals: Samples,
    pub candidates: Samples,
    pub evals_per_plan: Samples,
}

impl ReadResult {
    pub fn merge(&mut self, other: ReadResult) {
        self.exact_us.extend(&other.exact_us);
        self.approx_us.extend(&other.approx_us);
        self.answers.extend(other.answers);
        self.io_errors += other.io_errors;
        self.raw += other.raw;
        self.secs = self.secs.max(other.secs);
        self.exec_exact_us.extend(&other.exec_exact_us);
        self.exec_approx_us.extend(&other.exec_approx_us);
        self.handle_us.extend(&other.handle_us);
        self.ted_evals.extend(&other.ted_evals);
        self.partial_evals.extend(&other.partial_evals);
        self.candidates.extend(&other.candidates);
        self.evals_per_plan.extend(&other.evals_per_plan);
    }

    pub fn requests(&self) -> usize {
        self.exact_us.len() + self.approx_us.len()
    }
}

/// When a reader or writer stops.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Count(usize),
}

impl Until {
    fn done(&self, sent: usize) -> bool {
        match *self {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Count(n) => sent >= n,
        }
    }
}

/// One closed-loop reader connection: sends its request sequence one at
/// a time, each on a fresh connection, waiting for every answer. Traced,
/// it re-runs each request in process against `shadow` after the answer
/// arrives (the `serve.handle` and `query.execute` shadow spans).
pub fn read_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    seeds: Seeds,
    connection: u64,
    until: Until,
    tr: &Tracer,
    shadow: Option<&ServeState>,
) -> ReadResult {
    let mut out = ReadResult::default();
    let mut sequence = Sequence::new(seeds, connection, traffic);
    let mut reader = shadow.map(|s| s.service().reader());
    let start = Instant::now();
    let mut sent = 0usize;
    while !until.done(sent) {
        let index = sequence.next_index();
        let request = &traffic.requests[index];
        sent += 1;
        let root = tr.id();
        let t = Instant::now();
        let result = send(addr, &request.wire);
        let end = Instant::now();
        let us = (end - t).as_secs_f64() * 1e6;
        match result {
            Ok(response) => {
                tr.record(root, ROOT, "op.knn", t, end);
                match request.mode {
                    Mode::Exact => out.exact_us.push(us),
                    Mode::Approx => out.approx_us.push(us),
                }
                out.raw += u64::from(request.raw);
                out.answers.push(Answer {
                    index,
                    status: response.status,
                    body: response.body,
                });
            }
            Err(_) => out.io_errors += 1,
        }
        if let (Some(state), Some(reader)) = (shadow, reader.as_mut()) {
            shadow_request(state, reader, request, root, tr, &mut out);
        }
    }
    out.secs = start.elapsed().as_secs_f64();
    out
}

fn shadow_request(
    state: &ServeState,
    reader: &mut uplan_corpus::service::SnapshotReader,
    request: &crate::inputs::KnnRequest,
    root: u64,
    tr: &Tracer,
    out: &mut ReadResult,
) {
    let parsed = HttpRequest::read_from(&mut std::io::BufReader::new(&request.wire[..]))
        .ok()
        .flatten()
        .expect("the benchmark's own request bytes parse");
    let handle_id = tr.id();
    let t = Instant::now();
    std::hint::black_box(handle(state, reader, &parsed));
    let handle_end = Instant::now();
    let snapshot = reader.current().clone();
    let t_exec = Instant::now();
    let response = snapshot.execute(&request.reference);
    let exec_end = Instant::now();
    tr.record(tr.id(), handle_id, "query.execute", t_exec, exec_end);
    tr.record(handle_id, root, "serve.handle", t, handle_end);
    out.handle_us.push((handle_end - t).as_secs_f64() * 1e6);
    let exec_us = (exec_end - t_exec).as_secs_f64() * 1e6;
    match request.mode {
        Mode::Exact => out.exec_exact_us.push(exec_us),
        Mode::Approx => out.exec_approx_us.push(exec_us),
    }
    if let Ok(response) = response {
        let cost = response.cost;
        out.ted_evals.push(cost.ted_evals as f64);
        out.partial_evals.push(cost.partial_evals as f64);
        out.candidates.push(cost.candidates_considered as f64);
        out.evals_per_plan
            .push(cost.ted_evals as f64 / snapshot.corpus().len().max(1) as f64);
    }
}

#[derive(Default)]
pub struct WriteResult {
    /// Latency from when each write was due (ms).
    pub due_ms: Samples,
    /// How late each write was sent (ms).
    pub late_ms: Samples,
    /// Latency from when each write was sent (ms), the `op.write` span.
    pub service_ms: Samples,
    pub accepted: u64,
    pub rejected_429: u64,
    pub failed: u64,
    pub pending_max: u64,
    pub records: u64,
    /// Traced runs: in-process conversion of the same dump.
    pub convert_us: Samples,
}

/// The open-loop writer: POSTs the fleet dump to `/ingest` on a fixed
/// schedule, one connection at a time, whatever the daemon's pace.
pub fn write_loop(addr: SocketAddr, traffic: &Traffic, until: Until, tr: &Tracer) -> WriteResult {
    let mut out = WriteResult::default();
    let wire = request_bytes("POST", "/ingest", &traffic.dump);
    let interval = Duration::from_millis(WRITE_INTERVAL_MS);
    let start = Instant::now();
    let mut sent = 0usize;
    let mut roots = Vec::new();
    while !until.done(sent) {
        let due = start + interval * sent as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        sent += 1;
        let root = tr.id();
        let t = Instant::now();
        let result = send(addr, &wire);
        let end = Instant::now();
        out.late_ms.push((t - due).as_secs_f64() * 1e3);
        match result {
            Ok(response) if response.status == 202 => {
                tr.record(root, ROOT, "op.write", t, end);
                out.due_ms.push((end - due).as_secs_f64() * 1e3);
                out.service_ms.push((end - t).as_secs_f64() * 1e3);
                out.accepted += 1;
                out.records += traffic.dump_records as u64;
                let pending = json::parse(&response.body)
                    .ok()
                    .and_then(|doc| doc.get("pending").and_then(|p| p.as_int()))
                    .unwrap_or(0);
                out.pending_max = out.pending_max.max(pending.max(0) as u64);
                if tr.on() {
                    roots.push(root);
                }
            }
            Ok(response) if response.status == 429 => out.rejected_429 += 1,
            _ => out.failed += 1,
        }
    }
    // Traced: convert the same dump in process once per write, after the
    // schedule so the writer stays on time.
    for root in roots {
        let t = Instant::now();
        let staged = crate::inputs::stage(&traffic.dump);
        let end = Instant::now();
        if staged.is_ok() {
            tr.record(tr.id(), root, "convert.ingest_raw", t, end);
            out.convert_us.push((end - t).as_secs_f64() * 1e6);
        }
    }
    out
}

/// Service counters read from a `/metrics?format=json` scrape.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceCounters {
    pub merges: u64,
    /// Sum of merge durations (µs), from the histogram's count and mean.
    pub merge_us: u64,
}

pub fn scrape(daemon: &Daemon) -> Result<ServiceCounters, String> {
    let response = daemon.get("/metrics?format=json")?;
    let doc = json::parse(&response.body).map_err(|e| format!("bad /metrics JSON: {e}"))?;
    let first_value = |family: &str| {
        doc.get(family)
            .and_then(|f| f.get("metrics"))
            .and_then(|m| m.as_array())
            .and_then(|m| m.first())
            .and_then(|m| m.get("value"))
    };
    let merges = first_value("uplan_corpus_merges_total")
        .and_then(|v| v.as_int())
        .unwrap_or(0) as u64;
    let merge_us = first_value("uplan_corpus_merge_duration_us")
        .map(|h| {
            let field = |k: &str| h.get(k).and_then(|v| v.as_int()).unwrap_or(0) as u64;
            field("count") * field("mean")
        })
        .unwrap_or(0);
    Ok(ServiceCounters { merges, merge_us })
}

/// Segment count of the served store, from `/stats`.
pub fn segments(daemon: &Daemon) -> Result<usize, String> {
    let response = daemon.get("/stats")?;
    let doc = json::parse(&response.body).map_err(|e| format!("bad /stats JSON: {e}"))?;
    doc.get("segments")
        .and_then(|s| s.as_array())
        .map(|s| s.len())
        .ok_or_else(|| "/stats has no segment census".to_string())
}
