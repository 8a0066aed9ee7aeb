//! Structural plan fingerprinting — the plan-identity primitive of QPG.
//!
//! Query Plan Guidance (paper Section V, A.1) mutates the database state
//! whenever no *new* query plan has been observed for a while. "Evaluating
//! whether a query plan is structurally different from another requires
//! ignoring unstable information, such as random identifiers and the
//! estimated cost in query plans"; the paper also reports a bug in the
//! original QPG implementation where TiDB's random operator identifiers
//! (`TableReader_7`) were not excluded, making every plan look new.
//!
//! [`fingerprint`] therefore hashes only the *stable* skeleton of a plan:
//! operation categories and identifiers, tree shape, and — optionally —
//! Configuration-property identifiers. Cardinality, Cost and Status values
//! never participate; numeric suffixes on operation identifiers are stripped.
//!
//! ## Scheme (v2) and stability
//!
//! Fingerprints must not change across Rust releases, platforms or
//! processes (QPG persists seen-plan sets between runs), so nothing here
//! depends on `DefaultHasher`, pointer values or symbol table order. Every
//! identifier's FNV-1a *content hash* is memoized by the interner at intern
//! time ([`crate::Symbol`]); a fingerprint sequentially mixes those
//! pre-computed 64-bit hashes (plus structural tags and child counts)
//! through a fixed 64-bit permutation-multiply mixer. The hot path touches
//! no identifier bytes and allocates nothing per node.
//!
//! v2 replaced v1's byte-stream FNV over identifier strings in the
//! intern-and-borrow migration: hashing memoized symbol hashes instead of
//! re-walking strings is what makes fingerprinting O(1) per node. The
//! change invalidated v1 plan sets once; `tests/golden.rs` pins the v2
//! values.

use crate::model::{PlanNode, PropertyCategory, UnifiedPlan};
use crate::symbol::SymbolTable;

/// Version of the fingerprint scheme (bump invalidates persisted sets).
pub const FINGERPRINT_SCHEME_VERSION: u32 = 2;

/// What a fingerprint takes into account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintOptions {
    /// Strip trailing `_<digits>` from operation identifiers (TiDB-style
    /// random identifiers). Disabling this models the parser bug the paper
    /// found in the original QPG implementation.
    pub strip_numeric_suffixes: bool,
    /// Include Configuration-property *identifiers* (not values): two scans
    /// that differ in having a `filter` are structurally different plans.
    pub include_configuration_keys: bool,
    /// Include Configuration-property *values* as well; off by default
    /// because literals inside predicates are unstable across generated
    /// queries.
    pub include_configuration_values: bool,
}

impl Default for FingerprintOptions {
    fn default() -> Self {
        FingerprintOptions {
            strip_numeric_suffixes: true,
            include_configuration_keys: true,
            include_configuration_values: false,
        }
    }
}

/// A 64-bit structural fingerprint of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Fingerprints a plan with default options.
pub fn fingerprint(plan: &UnifiedPlan) -> Fingerprint {
    fingerprint_with(plan, FingerprintOptions::default())
}

/// Fingerprints a plan with explicit options.
///
/// With default options this allocates nothing per node: identifiers are
/// interned [`crate::Symbol`]s whose stable (suffix-stripped) forms were
/// memoized at intern time, the symbol table's read lock is taken once for
/// the whole plan, and per-node Configuration keys are sorted in a stack
/// buffer. (Opting into `include_configuration_values` renders values,
/// which allocates.)
pub fn fingerprint_with(plan: &UnifiedPlan, opts: FingerprintOptions) -> Fingerprint {
    let table = SymbolTable::read();
    let mut state = SEED;
    if let Some(root) = &plan.root {
        state = hash_node(root, opts, &table, state);
    }
    // Plan-associated properties: only Configuration participates; the
    // Status properties (planning time etc.) are unstable by definition.
    if opts.include_configuration_keys {
        let mut keys = KeyBuf::new();
        for p in &plan.properties {
            if p.category == PropertyCategory::Configuration {
                keys.push((table.str(p.identifier), p.identifier, None));
            }
        }
        for (_, key, _) in keys.sorted() {
            state = mix(state, TAG_PLAN_PROP);
            state = mix(state, table.content_hash(*key));
        }
    }
    Fingerprint(state)
}

/// Seed of the mixer chain (the FNV-1a offset basis, kept for tradition).
const SEED: u64 = crate::symbol::FNV_OFFSET;

// Structural tags keeping the mix sequence prefix-free: a node's children
// block is bracketed by its child count and an end tag, so reshaping a tree
// without changing its node multiset still changes the fingerprint.
const TAG_NODE: u64 = 0x6e6f_6465;
const TAG_PROP: u64 = 0x7072_6f70;
const TAG_PLAN_PROP: u64 = 0x706c_616e;
const TAG_END: u64 = 0x65_6e64;

/// Order-sensitive 64-bit mixer (murmur-style xorshift-multiply). Pure
/// integer arithmetic — identical on every platform and process.
#[inline]
fn mix(state: u64, x: u64) -> u64 {
    let mut z = state.rotate_left(23) ^ x;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^ (z >> 33)
}

// For opt-in Configuration *values*, which have no interned symbol to
// borrow a memoized hash from.
use crate::symbol::fnv1a;

/// Sort buffer for a node's Configuration keys: inline for the common case
/// (real plan nodes carry a handful of properties), heap only beyond that.
/// Entries are `(spelling, symbol, rendered value)`; sorting is by spelling
/// (and value) so the canonical key order is interning-order-independent.
struct KeyBuf<'a> {
    inline: [(&'a str, crate::Symbol, Option<String>); 8],
    len: usize,
    spill: Vec<(&'a str, crate::Symbol, Option<String>)>,
}

impl<'a> KeyBuf<'a> {
    /// Inline slots start as a dummy entry, overwritten before use.
    fn new() -> KeyBuf<'a> {
        KeyBuf {
            inline: std::array::from_fn(|_| ("", crate::Symbol::CAT_PRODUCER, None)),
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, entry: (&'a str, crate::Symbol, Option<String>)) {
        if self.len < self.inline.len() {
            self.inline[self.len] = entry;
            self.len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    fn sorted(&mut self) -> &[(&'a str, crate::Symbol, Option<String>)] {
        let by_key_then_value =
            |a: &(&str, crate::Symbol, Option<String>),
             b: &(&str, crate::Symbol, Option<String>)| {
                (a.0, &a.2).cmp(&(b.0, &b.2))
            };
        if self.spill.is_empty() {
            let slice = &mut self.inline[..self.len];
            slice.sort_unstable_by(by_key_then_value);
            &self.inline[..self.len]
        } else {
            for entry in &mut self.inline[..self.len] {
                let moved = std::mem::replace(entry, ("", crate::Symbol::CAT_PRODUCER, None));
                self.spill.push(moved);
            }
            self.len = 0;
            self.spill.sort_unstable_by(by_key_then_value);
            &self.spill
        }
    }
}

/// The stable form of an operation identifier: trailing `_<digits>` removed.
///
/// ```
/// assert_eq!(uplan_core::fingerprint::stable_identifier("TableReader_7"), "TableReader");
/// assert_eq!(uplan_core::fingerprint::stable_identifier("Sort"), "Sort");
/// assert_eq!(uplan_core::fingerprint::stable_identifier("Top_N"), "Top_N");
/// ```
pub fn stable_identifier(identifier: &str) -> &str {
    match identifier.rfind('_') {
        Some(idx)
            if idx > 0
                && idx + 1 < identifier.len()
                && identifier[idx + 1..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            &identifier[..idx]
        }
        _ => identifier,
    }
}

fn hash_node(
    node: &PlanNode,
    opts: FingerprintOptions,
    table: &SymbolTable,
    mut state: u64,
) -> u64 {
    state = mix(state, TAG_NODE);
    state = mix(
        state,
        table.content_hash(node.operation.category.name_symbol()),
    );
    let ident = if opts.strip_numeric_suffixes {
        // Memoized at intern time — no per-node suffix scan.
        table.stable(node.operation.identifier)
    } else {
        node.operation.identifier
    };
    state = mix(state, table.content_hash(ident));

    if opts.include_configuration_keys {
        let mut keys = KeyBuf::new();
        for p in &node.properties {
            if p.category == PropertyCategory::Configuration {
                let value = opts.include_configuration_values.then(|| p.value.render());
                keys.push((table.str(p.identifier), p.identifier, value));
            }
        }
        for (_, key, value) in keys.sorted() {
            state = mix(state, TAG_PROP);
            state = mix(state, table.content_hash(*key));
            if let Some(v) = value {
                state = mix(state, fnv1a(v.as_bytes()));
            }
        }
    }

    state = mix(state, node.children.len() as u64);
    for child in &node.children {
        state = hash_node(child, opts, table, state);
    }
    mix(state, TAG_END)
}

/// A growable set of observed plan fingerprints — the single "have I seen
/// this plan?" implementation.
///
/// This is the fingerprint-identity layer that every deduplication consumer
/// shares: `uplan-corpus`'s metric-indexed store keeps one of these per
/// shard as its dedup front end before plans reach the TED index. (The
/// pre-0.1 `PlanSet` alias that forwarded here has been removed.)
#[derive(Debug, Default, Clone)]
pub struct FingerprintSet {
    seen: std::collections::HashSet<Fingerprint>,
    options: FingerprintOptions,
}

impl FingerprintSet {
    /// Empty set with default fingerprint options.
    pub fn new() -> Self {
        FingerprintSet::default()
    }

    /// Empty set with explicit fingerprint options.
    pub fn with_options(options: FingerprintOptions) -> Self {
        FingerprintSet {
            seen: Default::default(),
            options,
        }
    }

    /// The fingerprint options this set observes with.
    pub fn options(&self) -> FingerprintOptions {
        self.options
    }

    /// Fingerprints a plan under this set's options (without recording it).
    pub fn fingerprint_of(&self, plan: &UnifiedPlan) -> Fingerprint {
        fingerprint_with(plan, self.options)
    }

    /// Records a plan; returns `true` if it was structurally new.
    pub fn observe(&mut self, plan: &UnifiedPlan) -> bool {
        self.insert(self.fingerprint_of(plan))
    }

    /// Records a pre-computed fingerprint; returns `true` if it was new.
    pub fn insert(&mut self, fp: Fingerprint) -> bool {
        self.seen.insert(fp)
    }

    /// Makes room for at least `additional` more fingerprints.
    pub fn reserve(&mut self, additional: usize) {
        self.seen.reserve(additional);
    }

    /// Whether a structurally equal plan has been recorded.
    pub fn contains(&self, plan: &UnifiedPlan) -> bool {
        self.seen.contains(&self.fingerprint_of(plan))
    }

    /// Whether a fingerprint has been recorded.
    pub fn contains_fingerprint(&self, fp: Fingerprint) -> bool {
        self.seen.contains(&fp)
    }

    /// Number of distinct plans observed.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// `true` if no plans have been observed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Iterates over the distinct fingerprints observed (arbitrary order).
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.seen.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlanNode, Property, UnifiedPlan};

    fn tidb_like(reader_id: u32, rows: i64) -> UnifiedPlan {
        let scan = PlanNode::producer(format!("TableFullScan_{}", reader_id + 1))
            .with_property(Property::cardinality("rows", rows))
            .with_property(Property::cost("cost", rows as f64 * 0.5));
        let root = PlanNode::executor(format!("TableReader_{reader_id}"))
            .with_property(Property::status("task_type", "root"))
            .with_child(scan);
        UnifiedPlan::with_root(root)
    }

    #[test]
    fn random_identifiers_do_not_change_fingerprints() {
        // The original QPG TiDB parser bug: `TableReader_7` vs `TableReader_12`.
        assert_eq!(
            fingerprint(&tidb_like(7, 10)),
            fingerprint(&tidb_like(12, 10))
        );
    }

    #[test]
    fn cardinality_cost_status_values_are_ignored() {
        assert_eq!(
            fingerprint(&tidb_like(7, 10)),
            fingerprint(&tidb_like(7, 99999))
        );
    }

    #[test]
    fn structure_changes_fingerprints() {
        let one = tidb_like(7, 10);
        let mut two = tidb_like(7, 10);
        two.root
            .as_mut()
            .unwrap()
            .children
            .push(PlanNode::producer("TableFullScan_9"));
        assert_ne!(fingerprint(&one), fingerprint(&two));
    }

    #[test]
    fn operation_identity_changes_fingerprints() {
        let scan = UnifiedPlan::with_root(PlanNode::producer("Full_Table_Scan"));
        let idx = UnifiedPlan::with_root(PlanNode::producer("Index_Scan"));
        assert_ne!(fingerprint(&scan), fingerprint(&idx));

        let as_join = UnifiedPlan::with_root(PlanNode::join("Full_Table_Scan"));
        assert_ne!(fingerprint(&scan), fingerprint(&as_join));
    }

    #[test]
    fn configuration_keys_matter_but_values_do_not_by_default() {
        let with_filter = |lit: &str| {
            UnifiedPlan::with_root(
                PlanNode::producer("Full_Table_Scan")
                    .with_property(Property::configuration("filter", format!("c0 < {lit}"))),
            )
        };
        let without = UnifiedPlan::with_root(PlanNode::producer("Full_Table_Scan"));
        assert_eq!(
            fingerprint(&with_filter("5")),
            fingerprint(&with_filter("900"))
        );
        assert_ne!(fingerprint(&with_filter("5")), fingerprint(&without));
    }

    #[test]
    fn configuration_values_can_be_opted_in() {
        let opts = FingerprintOptions {
            include_configuration_values: true,
            ..FingerprintOptions::default()
        };
        let make = |lit: &str| {
            UnifiedPlan::with_root(
                PlanNode::producer("Full_Table_Scan")
                    .with_property(Property::configuration("filter", format!("c0 < {lit}"))),
            )
        };
        assert_ne!(
            fingerprint_with(&make("5"), opts),
            fingerprint_with(&make("900"), opts)
        );
    }

    #[test]
    fn buggy_options_model_the_qpg_parser_bug() {
        let opts = FingerprintOptions {
            strip_numeric_suffixes: false,
            ..FingerprintOptions::default()
        };
        // Without suffix stripping, the same logical plan looks new each time.
        assert_ne!(
            fingerprint_with(&tidb_like(7, 10), opts),
            fingerprint_with(&tidb_like(12, 10), opts)
        );
    }

    #[test]
    fn sibling_order_is_significant() {
        // Hash-join build/probe sides are not interchangeable.
        let left_right = UnifiedPlan::with_root(
            PlanNode::join("Hash_Join")
                .with_child(PlanNode::producer("Full_Table_Scan"))
                .with_child(PlanNode::producer("Index_Scan")),
        );
        let right_left = UnifiedPlan::with_root(
            PlanNode::join("Hash_Join")
                .with_child(PlanNode::producer("Index_Scan"))
                .with_child(PlanNode::producer("Full_Table_Scan")),
        );
        assert_ne!(fingerprint(&left_right), fingerprint(&right_left));
    }

    #[test]
    fn nesting_is_unambiguous() {
        // (a (b c)) vs ((a b) c)-style shape confusion must not collide.
        let nested = UnifiedPlan::with_root(PlanNode::executor("Gather").with_child(
            PlanNode::executor("Gather").with_child(PlanNode::producer("Full_Table_Scan")),
        ));
        let flat = UnifiedPlan::with_root(
            PlanNode::executor("Gather")
                .with_child(PlanNode::executor("Gather"))
                .with_child(PlanNode::producer("Full_Table_Scan")),
        );
        assert_ne!(fingerprint(&nested), fingerprint(&flat));
    }

    #[test]
    fn stable_identifier_edge_cases() {
        assert_eq!(stable_identifier("TableReader_7"), "TableReader");
        assert_eq!(stable_identifier("a_1_2"), "a_1");
        assert_eq!(stable_identifier("x_"), "x_");
        assert_eq!(stable_identifier("_9"), "_9"); // nothing before the suffix
        assert_eq!(stable_identifier("plain"), "plain");
    }

    #[test]
    fn fingerprint_set_tracks_novelty() {
        let mut set = FingerprintSet::new();
        assert!(set.is_empty());
        assert!(set.observe(&tidb_like(7, 10)));
        assert!(!set.observe(&tidb_like(12, 10)));
        assert!(set.contains(&tidb_like(1, 3)));
        assert_eq!(set.len(), 1);
        let fp = set.fingerprint_of(&tidb_like(3, 5));
        assert!(set.contains_fingerprint(fp));
        assert!(!set.insert(fp));
        assert_eq!(set.fingerprints().count(), 1);

        let mut strict = FingerprintSet::with_options(FingerprintOptions {
            strip_numeric_suffixes: false,
            ..FingerprintOptions::default()
        });
        assert!(strict.observe(&tidb_like(7, 10)));
        assert!(strict.observe(&tidb_like(12, 10)));
        assert_eq!(strict.len(), 2);
        assert!(!strict.options().strip_numeric_suffixes);
    }

    #[test]
    fn fingerprints_are_stable_across_runs() {
        // Regression pin: if this changes, persisted QPG state breaks.
        let fp = fingerprint(&tidb_like(7, 10));
        assert_eq!(fp, fingerprint(&tidb_like(7, 10)));
        assert_eq!(fp.to_string().len(), 16);
    }
}
