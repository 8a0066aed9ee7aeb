//! Everything a run sends to the program, derived from the workload seed.
//!
//! The program only ever sees these generated inputs: the TPC-H-derived
//! observation stream the store is built from, the held-out probe plans,
//! the raw dialect records sent as `probe_raw`, and the mixed-dialect
//! fleet dump the writer POSTs to `/ingest`.

use uplan_bench::corpus_fixture::derived_stream;
use uplan_convert::raw::{ingest_raw_with, RawIngestOptions};
use uplan_core::formats::json::{object, JsonValue};
use uplan_core::formats::unified;
use uplan_core::UnifiedPlan;
use uplan_corpus::{PlanCorpus, QueryRequest};
use uplan_testing::fixtures::{raw_dump_line, DialectFleet};

use crate::client::request_bytes;

/// Observations in the store's stream (about 38.7k distinct plans, about
/// 61% fingerprint duplicates).
pub const STREAM_PLANS: usize = 100_000;
/// The stream is appended to a fresh store in this many equal batches.
pub const BATCHES: usize = 4;
/// Held-out derived probe plans, drawn from the probe seed.
pub const PROBES: usize = 512;
/// Neighbors asked for by every k-NN request.
pub const K: usize = 5;
/// One request pair in this many carries `probe_raw` instead of a plan.
pub const RAW_EVERY: usize = 10;

/// splitmix64.
pub fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeds one workload seed expands to. The probe seed always differs
/// from the store seed, so probes are held out of the stream.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub store: u64,
    pub probe: u64,
    pub requests: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        let mut s = seed ^ 0x0075_706c_616e;
        let store = next(&mut s);
        let mut probe = next(&mut s);
        if probe == store {
            probe ^= 1;
        }
        Seeds {
            store,
            probe,
            requests: next(&mut s),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Exact,
    Approx,
}

/// One distinct k-NN request: its wire bytes and the request the
/// in-process reference executes for it.
pub struct KnnRequest {
    pub mode: Mode,
    pub raw: bool,
    pub wire: Vec<u8>,
    pub reference: QueryRequest,
}

/// The distinct request table plus the write payload.
pub struct Traffic {
    /// `(derived probes, then raw probes) x (exact, approx)`.
    pub requests: Vec<KnnRequest>,
    /// The fleet dump the writer POSTs, and its record count.
    pub dump: String,
    pub dump_records: usize,
    /// The fleet dump's plans as the `/ingest` handler stages them
    /// (converted, deduplicated within the dump, in dump order).
    pub dump_plans: Vec<UnifiedPlan>,
}

/// The raw-fixture lines for every TPC-H-lite query: eight relational
/// serializations, then MongoDB, Neo4j and InfluxDB, per query.
fn fleet_lines() -> Vec<String> {
    let mut fleet = DialectFleet::new();
    let mut lines = Vec::new();
    for qid in 0..fleet.query_count() {
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
    lines
}

/// Converts raw records exactly as the daemon's `/ingest` handler stages
/// them.
pub fn stage(dump: &str) -> Result<(PlanCorpus, usize), String> {
    let mut staging = PlanCorpus::new();
    let report = ingest_raw_with(dump, &mut staging, 1, &RawIngestOptions::default())
        .map_err(|e| format!("fleet dump does not convert: {e}"))?;
    Ok((staging, report.lines))
}

/// A plan as the daemon sees it after the wire: serialized to unified
/// JSON and parsed back.
fn over_the_wire(plan: &UnifiedPlan) -> Result<UnifiedPlan, String> {
    unified::from_json_value(&unified::to_json_value(plan))
        .map_err(|e| format!("probe does not round-trip through unified JSON: {e}"))
}

pub fn stream(seeds: Seeds) -> Vec<UnifiedPlan> {
    derived_stream(STREAM_PLANS, seeds.store)
}

pub fn traffic(seeds: Seeds) -> Result<Traffic, String> {
    let lines = fleet_lines();
    let mut dump = lines.join("\n");
    dump.push('\n');
    let (staging, dump_records) = stage(&dump)?;
    let dump_plans = staging.iter().map(|(_, p)| p.clone()).collect();

    let mut requests = Vec::new();
    // The reference request is the one the daemon parses: the wire body
    // itself, or for `probe_raw` the converted record after the same
    // unified-JSON round trip the handler makes.
    let mut push = |probe: UnifiedPlan, raw_line: Option<&str>| -> Result<(), String> {
        for mode in [Mode::Exact, Mode::Approx] {
            let mut request = QueryRequest::knn(K);
            let mut members = vec![("query", JsonValue::from("knn")), ("k", JsonValue::from(K))];
            if mode == Mode::Approx {
                request = request.approx(0);
                members.push(("mode", JsonValue::from("approx")));
            }
            let (body, reference) = match raw_line {
                Some(line) => {
                    members.push(("probe_raw", JsonValue::from(line)));
                    let reference = request.with_probe(over_the_wire(&probe)?);
                    (object(members).to_compact(), reference)
                }
                None => {
                    let body = request
                        .with_probe(probe.clone())
                        .to_json_value()
                        .to_compact();
                    let reference = QueryRequest::from_json(&body, Some("knn"))
                        .map_err(|e| format!("probe request does not parse: {e}"))?;
                    (body, reference)
                }
            };
            requests.push(KnnRequest {
                mode,
                raw: raw_line.is_some(),
                wire: request_bytes("POST", "/knn", &body),
                reference,
            });
        }
        Ok(())
    };
    for probe in derived_stream(PROBES, seeds.probe) {
        push(probe, None)?;
    }
    // Every fleet record is a `probe_raw` candidate.
    for line in &lines {
        let (staged, _) = stage(&format!("{line}\n"))?;
        if staged.len() != 1 {
            return Err(format!("raw probe converts to {} plans", staged.len()));
        }
        push(staged.plan(0).clone(), Some(line))?;
    }
    Ok(Traffic {
        requests,
        dump,
        dump_records,
        dump_plans,
    })
}

/// Fisher-Yates shuffle of `0..n`.
fn shuffled(n: usize, rng: &mut u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (next(rng) % (i as u64 + 1)) as usize);
    }
    v
}

/// The endless request sequence of one reader connection. Requests come
/// in pairs that ask the same probe exact and approx, in a seeded random
/// order within the pair so that neither mode is always the one sent
/// second; one pair in [`RAW_EVERY`] carries `probe_raw`. Derived and raw probes are each
/// visited in a seeded shuffled order, cycling, so every run sends the
/// same mix and exact and approx see the same probes. Yields indices into
/// [`Traffic::requests`].
pub struct Sequence {
    rng: u64,
    approx_first: bool,
    derived: Vec<usize>,
    raw: Vec<usize>,
    n: usize,
    derived_pairs: usize,
    raw_pairs: usize,
    probe: usize,
}

impl Sequence {
    pub fn new(seeds: Seeds, connection: u64, traffic: &Traffic) -> Sequence {
        let mut rng = seeds.requests ^ connection.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let derived = shuffled(PROBES, &mut rng);
        let raw = shuffled(traffic.requests.len() / 2 - PROBES, &mut rng);
        Sequence {
            rng,
            approx_first: false,
            derived,
            raw,
            n: 0,
            derived_pairs: 0,
            raw_pairs: 0,
            probe: 0,
        }
    }

    pub fn next_index(&mut self) -> usize {
        let second = self.n % 2 == 1;
        if !second {
            self.approx_first = next(&mut self.rng) & 1 == 1;
            let pair = self.n / 2;
            self.probe = if pair.is_multiple_of(RAW_EVERY) {
                self.raw_pairs += 1;
                PROBES + self.raw[(self.raw_pairs - 1) % self.raw.len()]
            } else {
                self.derived_pairs += 1;
                self.derived[(self.derived_pairs - 1) % self.derived.len()]
            };
        }
        self.n += 1;
        self.probe * 2 + usize::from(second != self.approx_first)
    }
}
