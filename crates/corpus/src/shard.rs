//! One shard of a [`crate::ShardedCorpus`].
//!
//! A shard owns a contiguous slice of fingerprint space (plans whose
//! fingerprint *prefix* routes here) and keeps, independently of every
//! other shard: the [`FingerprintSet`] answering "seen exactly?", the plan
//! storage, and the BK-tree answering "seen anything like it?". Because a
//! plan's shard is a pure function of its fingerprint, shards never
//! coordinate — parallel ingest hands each worker whole shards and needs no
//! locks, and the facade's determinism guarantee reduces to "each shard
//! sees its plans in stream order".
//!
//! Ids are *local* here (dense per shard, also the BK node ids); the
//! facade maps them to corpus-wide insertion-ordered globals through
//! [`CorpusShard::globals`].
//!
//! Plan payloads live behind a [`PlanStore`], one slot per plan with two
//! cells filled at most once: the plan body and its pre-flattened TED
//! view. Plans ingested into a purely in-memory corpus own both cells
//! from the start. Plans appended to a segment store keep only the TED
//! view (BK insertion needs it at once); the body stays in the segment
//! file just written and decodes on first [`PlanStore::plan`], exactly
//! like a plan of a lazily opened store, which starts with both cells
//! empty. Queries never see the difference: every access goes through
//! [`PlanStore::plan`] / [`PlanStore::ted`].

use std::sync::{Arc, OnceLock};

use uplan_core::fingerprint::{Fingerprint, FingerprintOptions, FingerprintSet};
use uplan_core::ted::{TedPlan, TedScratch};
use uplan_core::UnifiedPlan;

use crate::bktree::BkTree;
use crate::features::{features_of, FeatureVector};
use crate::segment::SegmentSource;

/// How ingest keeps a fingerprint-novel plan
/// ([`crate::ShardedCorpus::ingest_kept`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keep {
    /// An owned copy of the plan: the corpus is its only home.
    Owned,
    /// The TED view only: the body is about to be written to a segment,
    /// and the slot is pointed at those bytes once they are committed
    /// ([`PlanStore::address`]).
    TedOnly,
}

/// One plan's storage. The segment address is meaningless for plans that
/// own their body; for the others the body decodes from the shared
/// [`SegmentSource`] on first touch.
#[derive(Debug, Clone)]
struct PlanSlot {
    /// Index into the source's segment list (`u32::MAX` when unaddressed).
    seg: u32,
    /// Plan index within that segment.
    idx: u32,
    /// The pre-flattened TED view. Boxed, like `plan`, so an undecoded
    /// slot costs pointers, not inline payloads.
    ted: OnceLock<Box<TedPlan>>,
    /// The decoded plan body.
    plan: OnceLock<Box<UnifiedPlan>>,
}

impl PlanSlot {
    fn new(ted: Option<TedPlan>, plan: Option<UnifiedPlan>) -> PlanSlot {
        fn cell<T>(value: Option<T>) -> OnceLock<Box<T>> {
            value.map_or_else(OnceLock::new, |v| OnceLock::from(Box::new(v)))
        }
        PlanSlot {
            seg: u32::MAX,
            idx: u32::MAX,
            ted: cell(ted),
            plan: cell(plan),
        }
    }
}

/// Plan payload storage for one shard: dense by local id, decode-on-first-
/// touch when backed by a segment source. Cloning preserves whatever is
/// already decoded (cheap for an untouched lazy corpus, deep for owned
/// plans and TED views).
#[derive(Debug, Default, Clone)]
pub(crate) struct PlanStore {
    /// Shared segment files that addressed slots decode from; `None` for
    /// a purely in-RAM shard.
    source: Option<Arc<SegmentSource>>,
    slots: Vec<PlanSlot>,
}

impl PlanStore {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Makes room for at least `additional` more slots.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Appends an owned plan (flattening its TED view now).
    pub(crate) fn push(&mut self, plan: UnifiedPlan) {
        self.slots
            .push(PlanSlot::new(Some(TedPlan::new(&plan)), Some(plan)));
    }

    /// Appends a slot holding only a TED view; its body is reachable once
    /// the slot is [addressed](PlanStore::address).
    pub(crate) fn push_ted(&mut self, ted: TedPlan) {
        self.slots.push(PlanSlot::new(Some(ted), None));
    }

    /// Appends an empty slot addressing plan `idx` of segment `seg`.
    pub(crate) fn push_lazy(&mut self, seg: u32, idx: u32) {
        self.slots.push(PlanSlot {
            seg,
            idx,
            ..PlanSlot::new(None, None)
        });
    }

    /// Points slot `local` at plan `idx` of segment `seg`.
    pub(crate) fn address(&mut self, local: usize, seg: u32, idx: u32) {
        let slot = &mut self.slots[local];
        (slot.seg, slot.idx) = (seg, idx);
    }

    /// Switches to `source`, which must hold every segment the slots
    /// address.
    pub(crate) fn attach(&mut self, source: Arc<SegmentSource>) {
        self.source = Some(source);
    }

    /// Gives slot `local` an owned copy of its plan, unless it holds one
    /// already.
    pub(crate) fn own(&mut self, local: usize, plan: UnifiedPlan) {
        let _ = self.slots[local].plan.set(Box::new(plan));
    }

    /// The stored plan, decoding it on first touch.
    pub(crate) fn plan(&self, local: usize) -> &UnifiedPlan {
        let slot = &self.slots[local];
        slot.plan.get_or_init(|| {
            let source = self
                .source
                .as_ref()
                .expect("undecoded slot without a segment source");
            Box::new(source.load(slot.seg, slot.idx))
        })
    }

    /// The stored plan's pre-flattened TED view, decoding the plan on
    /// first touch when the view is not kept yet.
    pub(crate) fn ted(&self, local: usize) -> &TedPlan {
        self.slots[local]
            .ted
            .get_or_init(|| Box::new(TedPlan::new(self.plan(local))))
    }

    /// Plans whose body is decoded (or owned) in memory.
    pub(crate) fn decoded(&self) -> usize {
        self.slots.iter().filter(|s| s.plan.get().is_some()).count()
    }
}

/// One fingerprint-prefix shard: dedup set + plan storage + BK-tree.
#[derive(Debug, Default, Clone)]
pub(crate) struct CorpusShard {
    /// Fingerprint dedup for the plans routed to this shard.
    pub(crate) dedup: FingerprintSet,
    /// Plan payloads, dense by local id (eager or lazily decoded).
    pub(crate) store: PlanStore,
    /// Fingerprint per local id.
    pub(crate) fingerprints: Vec<Fingerprint>,
    /// Local id → corpus-wide global id.
    pub(crate) globals: Vec<u32>,
    /// Structural feature vector per local id — the approximate-query
    /// pre-filter (see [`crate::features`]). Computed at store time (or
    /// adopted from a persisted feature section), always dense and always
    /// eager: queries read vectors without touching plan payloads.
    pub(crate) features: Vec<FeatureVector>,
    /// BK-tree over local ids (node id == local id, always sequential).
    pub(crate) index: BkTree,
    /// TED evaluations spent building `index` (insert routing).
    pub(crate) index_evals: u64,
}

impl CorpusShard {
    pub(crate) fn with_options(options: FingerprintOptions) -> CorpusShard {
        CorpusShard {
            dedup: FingerprintSet::with_options(options),
            ..CorpusShard::default()
        }
    }

    /// Makes room for at least `additional` more plans.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.dedup.reserve(additional);
        self.store.reserve(additional);
        self.fingerprints.reserve(additional);
        self.globals.reserve(additional);
        self.features.reserve(additional);
    }

    /// Distinct plans stored in this shard.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Stores a fingerprint-novel plan and routes it into the BK-tree
    /// (evaluating TED against the plans already here). Returns the local
    /// id. The caller has already claimed `fp` in [`CorpusShard::dedup`].
    pub(crate) fn store(&mut self, plan: UnifiedPlan, fp: Fingerprint, global: u32) -> u32 {
        let local = self.store_with_features(plan, fp, global, None);
        self.index_local(local);
        local
    }

    /// [`CorpusShard::store`] that keeps only the plan's TED view (see
    /// [`Keep::TedOnly`]).
    pub(crate) fn store_ted(&mut self, plan: &UnifiedPlan, fp: Fingerprint, global: u32) -> u32 {
        let local = self.push_meta(fp, global, features_of(plan));
        self.store.push_ted(TedPlan::new(plan));
        self.index_local(local);
        local
    }

    /// Routes stored plan `local` into the BK-tree.
    fn index_local(&mut self, local: u32) {
        let store = &self.store;
        let probe = store.ted(local as usize);
        let mut scratch = TedScratch::default();
        let evals = self.index.insert(local, |other| {
            probe.distance(store.ted(other as usize), &mut scratch) as u32
        });
        self.index_evals += evals;
    }

    /// Stores a plan *without* touching the BK-tree, with an optional
    /// precomputed feature vector — the indexed-load path, where the tree
    /// is adopted wholesale from a persisted topology afterwards
    /// ([`CorpusShard::adopt_index`]) and vectors may come from a
    /// persisted section.
    pub(crate) fn store_with_features(
        &mut self,
        plan: UnifiedPlan,
        fp: Fingerprint,
        global: u32,
        features: Option<FeatureVector>,
    ) -> u32 {
        let features = features.unwrap_or_else(|| features_of(&plan));
        let local = self.push_meta(fp, global, features);
        self.store.push(plan);
        local
    }

    /// Records a new plan's eager metadata; the caller pushes its slot.
    fn push_meta(&mut self, fp: Fingerprint, global: u32, features: FeatureVector) -> u32 {
        let local = u32::try_from(self.store.len()).expect("corpus shard overflow");
        self.features.push(features);
        self.fingerprints.push(fp);
        self.globals.push(global);
        local
    }

    /// Stores a *lazy* plan: all metadata (fingerprint, features, global)
    /// eager, the payload a segment address decoded on first touch. The
    /// caller has already claimed `fp` in the dedup set and attaches the
    /// shard's source ([`PlanStore::attach`]) before any plan is read.
    pub(crate) fn store_lazy(
        &mut self,
        fp: Fingerprint,
        global: u32,
        features: FeatureVector,
        seg: u32,
        idx: u32,
    ) -> u32 {
        let local = self.push_meta(fp, global, features);
        self.store.push_lazy(seg, idx);
        local
    }

    /// Adopts a persisted BK topology over the plans already stored —
    /// zero TED evaluations. Errors when the topology cannot describe this
    /// shard's population.
    pub(crate) fn adopt_index(&mut self, edges: &[(u32, u32)]) -> Result<(), String> {
        self.index = BkTree::from_edges(self.store.len(), edges)?;
        Ok(())
    }
}
