//! # uplan — a unified query plan representation for database systems
//!
//! This workspace facade re-exports every crate of the UPlan reproduction
//! (Ba & Rigger, *Towards a Unified Query Plan Representation*, ICDE 2025):
//!
//! * [`core`] *(uplan-core)* — the unified representation: data model, EBNF
//!   text grammar, structured formats, the nine-DBMS study registry,
//!   fingerprinting, statistics, tree edit distance;
//! * [`minidb`] — the relational engine substrate with per-DBMS planner
//!   profiles and fault injection;
//! * [`minidoc`] / [`minigraph`] — document-store and property-graph
//!   substrates;
//! * [`dialects`] — native EXPLAIN serializers of the nine studied dialects;
//! * [`convert`] *(uplan-convert)* — converters from native serialized plans
//!   into the unified representation;
//! * [`corpus`] *(uplan-corpus)* — persistent, fingerprint-deduplicated,
//!   TED-metric-indexed plan populations (BK-tree radius/k-NN queries,
//!   append-only segment-store persistence, clustering, cross-corpus diff);
//! * [`obs`] *(uplan-obs)* — zero-dependency observability: lock-cheap
//!   metrics registry with Prometheus/JSON exposition, structured span
//!   tracing with a JSONL sink;
//! * [`serve`] *(uplan-serve)* — the HTTP/1.1 + JSON daemon serving a
//!   corpus concurrently on a snapshot/delta epoch model (lock-free k-NN
//!   reads during batched ingest, counted-TED budgets, backpressure);
//! * [`testing`] *(uplan-testing)* — QPG, CERT and TLP implemented
//!   DBMS-agnostically on unified plans;
//! * [`viz`] *(uplan-viz)* — generic plan visualization;
//! * [`workloads`] *(uplan-workloads)* — TPC-H-lite, YCSB-lite,
//!   WDBench-lite.
//!
//! See `examples/quickstart.rs` for the end-to-end pipeline of the paper's
//! Fig. 2: run a query on an engine, obtain its native plan, convert it to a
//! unified plan, and process it.

pub use dialects;
pub use minidb;
pub use minidoc;
pub use minigraph;
pub use uplan_convert as convert;
pub use uplan_core as core;
pub use uplan_corpus as corpus;
pub use uplan_obs as obs;
pub use uplan_serve as serve;
pub use uplan_testing as testing;
pub use uplan_viz as viz;
pub use uplan_workloads as workloads;

/// Crate version of the facade.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
