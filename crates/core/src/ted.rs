//! Tree edit distance between unified plans.
//!
//! The paper's discussion (Section VI, *Additional use cases*) proposes
//! "similarity on tree structures" as a metric for comparing different
//! DBMSs' query plans through the unified representation. This module
//! implements the classic Zhang–Shasha ordered tree edit distance with unit
//! costs, where two nodes match when their operation category and stable
//! identifier agree, plus a normalized similarity on top.
//!
//! Hot-path representation: node labels are `(category symbol, stable
//! identifier symbol)` pairs packed into one `u64` each — label equality is
//! an integer compare, flattening a tree allocates three flat vectors and
//! zero per-node strings (stable forms are memoized by the interner), and
//! the dynamic program runs over two reused single-`Vec` tables instead of
//! per-keyroot-pair nested allocations.

use crate::model::{PlanNode, UnifiedPlan};
use crate::symbol::SymbolTable;

/// Post-order flattening of a tree with leftmost-leaf-descendant indices —
/// the standard Zhang–Shasha preprocessing.
#[derive(Debug, Clone)]
struct Flat {
    /// `(category name symbol) << 32 | (stable identifier symbol)`.
    labels: Vec<u64>,
    /// `lld[i]` = post-order index of the leftmost leaf descendant of node `i`.
    lld: Vec<u32>,
    /// Post-order indices of keyroots (nodes with a left sibling, plus root),
    /// ascending.
    keyroots: Vec<u32>,
}

fn flatten(root: &PlanNode, table: &SymbolTable) -> Flat {
    let mut labels = Vec::new();
    let mut lld = Vec::new();

    fn walk(
        node: &PlanNode,
        table: &SymbolTable,
        labels: &mut Vec<u64>,
        lld: &mut Vec<u32>,
    ) -> u32 {
        let mut leftmost = None;
        for child in &node.children {
            let child_index = walk(child, table, labels, lld);
            leftmost.get_or_insert(lld[child_index as usize]);
        }
        let index = labels.len() as u32;
        let category = node.operation.category.name_symbol().index();
        let stable = table.stable(node.operation.identifier).index();
        labels.push(u64::from(category) << 32 | u64::from(stable));
        lld.push(leftmost.unwrap_or(index));
        index
    }
    walk(root, table, &mut labels, &mut lld);

    // Keyroots: for each distinct lld value, the highest post-order index.
    // One reverse pass suffices: the first time an lld value is seen walking
    // right-to-left *is* its highest index (O(n), replacing an O(n²) scan).
    let mut keyroots = Vec::new();
    let mut seen = vec![false; labels.len()];
    for i in (0..labels.len() as u32).rev() {
        let lld_i = lld[i as usize] as usize;
        if !seen[lld_i] {
            seen[lld_i] = true;
            keyroots.push(i);
        }
    }
    // The DP fills small subtrees first, so keyroots must ascend.
    keyroots.reverse();
    Flat {
        labels,
        lld,
        keyroots,
    }
}

/// Outcome of a bounded tree-edit-distance evaluation
/// ([`tree_edit_distance_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedTed {
    /// The true distance — guaranteed equal to [`tree_edit_distance`] and
    /// `<=` the bound.
    Exact(usize),
    /// The true distance exceeds the bound; the exact value was not
    /// computed (that is the point — the evaluation stopped early).
    Exceeded,
}

impl BoundedTed {
    /// The distance when it was within the bound.
    pub fn exact(self) -> Option<usize> {
        match self {
            BoundedTed::Exact(d) => Some(d),
            BoundedTed::Exceeded => None,
        }
    }
}

/// Sentinel for dynamic-program cells whose true value provably exceeds the
/// bound. Half of `u32::MAX` so saturating additions never wrap back under
/// any real distance.
const EXCEEDED: u32 = u32::MAX / 2;

/// A plan pre-flattened for repeated tree-edit-distance evaluations.
///
/// Flattening (post-order walk, symbol-table reads, three vector
/// allocations) costs about as much as the dynamic program itself on
/// typical plan sizes, so callers that evaluate one probe against many
/// stored plans — BK traversals, shortlist re-ranks, index builds —
/// flatten each side once and evaluate over the views with a reused
/// [`TedScratch`]. [`tree_edit_distance`] and
/// [`tree_edit_distance_bounded`] are one-shot wrappers over this type.
#[derive(Debug, Clone, Default)]
pub struct TedPlan {
    /// `None` for an empty plan (no root): the distance to a peer is then
    /// the peer's node count.
    flat: Option<Flat>,
}

/// Reusable dynamic-program tables for [`TedPlan`] evaluations: the n×m
/// tree-distance table plus the forest-distance scratch, grown on demand
/// and recycled across evaluations so the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct TedScratch {
    td: Vec<u32>,
    fd: Vec<u32>,
}

impl TedPlan {
    /// Flattens `plan` once for many evaluations.
    pub fn new(plan: &UnifiedPlan) -> TedPlan {
        TedPlan {
            flat: plan.root.as_ref().map(|root| {
                let table = SymbolTable::read();
                flatten(root, &table)
            }),
        }
    }

    /// Nodes in the flattened tree (zero for an empty plan).
    pub fn node_count(&self) -> usize {
        self.flat.as_ref().map_or(0, |flat| flat.labels.len())
    }

    /// Exact distance to `other` — equal to [`tree_edit_distance`] on the
    /// source plans.
    pub fn distance(&self, other: &TedPlan, scratch: &mut TedScratch) -> usize {
        match (&self.flat, &other.flat) {
            (None, None) => 0,
            (Some(flat), None) | (None, Some(flat)) => flat.labels.len(),
            (Some(a), Some(b)) => zhang_shasha(a, b, scratch),
        }
    }

    /// Bounded distance to `other` — equal to
    /// [`tree_edit_distance_bounded`] on the source plans.
    pub fn distance_bounded(
        &self,
        other: &TedPlan,
        bound: usize,
        scratch: &mut TedScratch,
    ) -> BoundedTed {
        let verdict = |d: usize| {
            if d <= bound {
                BoundedTed::Exact(d)
            } else {
                BoundedTed::Exceeded
            }
        };
        match (&self.flat, &other.flat) {
            (None, None) => verdict(0),
            (Some(flat), None) | (None, Some(flat)) => verdict(flat.labels.len()),
            (Some(a), Some(b)) => {
                // Size difference is a lower bound on the distance: cheapest
                // possible rejection, no dynamic program needed.
                if a.labels.len().abs_diff(b.labels.len()) > bound {
                    return BoundedTed::Exceeded;
                }
                let band = u32::try_from(bound)
                    .unwrap_or(EXCEEDED - 1)
                    .min(EXCEEDED - 1) as usize;
                verdict(zhang_shasha_banded(a, b, band, scratch) as usize)
            }
        }
    }
}

/// Zhang–Shasha tree edit distance with unit insert/delete/rename costs.
///
/// Empty plans (no tree) are treated as empty trees: the distance between an
/// empty and a non-empty plan is the node count of the latter.
pub fn tree_edit_distance(a: &UnifiedPlan, b: &UnifiedPlan) -> usize {
    TedPlan::new(a).distance(&TedPlan::new(b), &mut TedScratch::default())
}

fn zhang_shasha(a: &Flat, b: &Flat, scratch: &mut TedScratch) -> usize {
    let (n, m) = (a.labels.len(), b.labels.len());
    // Flat n×m tree-distance table plus one forest-distance scratch sized
    // for the worst keyroot pair — both recycled from `scratch`.
    scratch.td.clear();
    scratch.td.resize(n * m, 0);
    scratch.fd.clear();
    scratch.fd.resize((n + 1) * (m + 1), 0);
    let (td, fd) = (&mut scratch.td, &mut scratch.fd);

    for &i in &a.keyroots {
        for &j in &b.keyroots {
            tree_dist(a, b, i as usize, j as usize, td, fd);
        }
    }
    td[(n - 1) * m + (m - 1)] as usize
}

fn tree_dist(a: &Flat, b: &Flat, i: usize, j: usize, td: &mut [u32], fd: &mut [u32]) {
    let m = b.labels.len();
    let ali = a.lld[i] as usize;
    let blj = b.lld[j] as usize;
    let rows = i - ali + 2;
    let cols = j - blj + 2;
    // Column `c` of the forest matrix is node `blj + c - 1` of `b`.
    let b_lld = &b.lld[blj..=j];
    let b_labels = &b.labels[blj..=j];
    // Forest distance matrix (row stride `cols`), indexed from
    // (ali-1, blj-1) conceptually. Row 0 is the empty `a` forest.
    for (c, cell) in fd[..cols].iter_mut().enumerate() {
        *cell = c as u32;
    }
    for r in 1..rows {
        let ai = ali + r - 1;
        let a_lld = a.lld[ai] as usize;
        let whole_a = a_lld == ali;
        let label_a = a.labels[ai];
        let td_row = &mut td[ai * m + blj..=ai * m + j];
        let (done, rest) = fd.split_at_mut(r * cols);
        let up_row = &done[(r - 1) * cols..];
        // The forest without the subtree at `ai` (always an earlier row).
        let skip_row = &done[(a_lld - ali) * cols..];
        let row = &mut rest[..cols];
        // The left neighbour stays in a register across the row.
        let mut left = r as u32;
        row[0] = left;
        let cells = row[1..]
            .iter_mut()
            .zip(up_row[..cols].windows(2))
            .zip(b_lld.iter().zip(b_labels))
            .zip(td_row.iter_mut());
        for (((cell, up), (&lld_b, &label_b)), known) in cells {
            let skip_c = lld_b as usize - blj;
            // Both forests are whole trees rooted at ai/bj: the diagonal
            // is a rename, and the result is a new tree distance.
            // Otherwise the diagonal skips both subtrees at their known
            // tree distance. Selected, not branched on.
            let whole = whole_a & (skip_c == 0);
            let rename = up[0] + u32::from(label_a != label_b);
            let forest = skip_row[skip_c] + *known;
            let diag = if whole { rename } else { forest };
            let best = (up[1] + 1).min(left + 1).min(diag);
            *known = if whole { best } else { *known };
            *cell = best;
            left = best;
        }
    }
}

/// Zhang–Shasha with a diagonal band: the exact distance when it is within
/// `bound`, [`BoundedTed::Exceeded`] otherwise — without paying for the
/// full dynamic program in the latter case.
///
/// Soundness sketch: a forest-distance cell `(r, c)` compares forests of
/// `r` and `c` nodes, so its true value is at least `|r − c|`. Cells with
/// `|r − c| > bound` therefore provably exceed the bound and can be banded
/// out (replaced by an over-approximation). All recurrences are mins over
/// monotone additions, so every computed value stays an over-approximation
/// of the true value; and any cell whose true value is `<= bound` has an
/// optimal derivation that passes only through cells with values `<=
/// bound` — all inside the band, hence computed exactly by induction. The
/// final value is thus exact whenever it lands within the bound, and
/// strictly above the bound exactly when the true distance is.
pub fn tree_edit_distance_bounded(a: &UnifiedPlan, b: &UnifiedPlan, bound: usize) -> BoundedTed {
    TedPlan::new(a).distance_bounded(&TedPlan::new(b), bound, &mut TedScratch::default())
}

fn zhang_shasha_banded(a: &Flat, b: &Flat, band: usize, scratch: &mut TedScratch) -> u32 {
    let (n, m) = (a.labels.len(), b.labels.len());
    // Tree-distance entries whose whole-tree cell falls outside the band are
    // never written; initializing to the sentinel makes reading them sound
    // (their true value provably exceeds the bound).
    scratch.td.clear();
    scratch.td.resize(n * m, EXCEEDED);
    scratch.fd.clear();
    scratch.fd.resize((n + 1) * (m + 1), 0);
    let (td, fd) = (&mut scratch.td, &mut scratch.fd);

    for &i in &a.keyroots {
        for &j in &b.keyroots {
            tree_dist_banded(a, b, i as usize, j as usize, band, td, fd);
        }
    }
    // The root pair sits on the main diagonal within the band (the caller
    // checked the size difference), so this entry was written.
    td[(n - 1) * m + (m - 1)]
}

/// [`tree_dist`] restricted to the diagonal band `|r − c| <= band`. Cells
/// outside the band read as [`EXCEEDED`]; the two cells flanking each row's
/// band are written explicitly so the next row's up/left reads see the
/// sentinel rather than stale scratch from an earlier keyroot pair.
fn tree_dist_banded(
    a: &Flat,
    b: &Flat,
    i: usize,
    j: usize,
    band: usize,
    td: &mut [u32],
    fd: &mut [u32],
) {
    let m = b.labels.len();
    let ali = a.lld[i] as usize;
    let blj = b.lld[j] as usize;
    let rows = i - ali + 2;
    let cols = j - blj + 2;
    fd[0] = 0;
    for r in 1..rows {
        fd[r * cols] = r as u32;
    }
    for (c, cell) in fd[..cols].iter_mut().enumerate().skip(1) {
        *cell = c as u32;
    }
    for r in 1..rows {
        let lo = r.saturating_sub(band).max(1);
        let hi = (r + band).min(cols - 1);
        if lo > hi {
            // Every remaining row lies entirely below the band.
            break;
        }
        let row_base = r * cols;
        if lo > 1 {
            fd[row_base + lo - 1] = EXCEEDED;
        }
        if hi + 1 < cols {
            fd[row_base + hi + 1] = EXCEEDED;
        }
        let ai = ali + r - 1;
        let a_lld = a.lld[ai] as usize;
        let whole_a = a_lld == ali;
        let label_a = a.labels[ai];
        let td_row = ai * m;
        for c in lo..=hi {
            let bj = blj + c - 1;
            let cell = row_base + c;
            let up = fd[cell - cols].saturating_add(1);
            let left = fd[cell - 1].saturating_add(1);
            let value = if whole_a && b.lld[bj] as usize == blj {
                let rename = u32::from(label_a != b.labels[bj]);
                let diag = fd[cell - cols - 1].saturating_add(rename);
                let best = up.min(left).min(diag);
                td[td_row + bj] = best;
                best
            } else {
                let prev_r = a_lld - ali;
                let prev_c = b.lld[bj] as usize - blj;
                // The far-diagonal jump can land outside the band, where the
                // scratch holds stale data — such cells exceed the bound by
                // construction, so substitute the sentinel.
                let prev = if prev_r.abs_diff(prev_c) > band {
                    EXCEEDED
                } else {
                    fd[prev_r * cols + prev_c]
                };
                let diag = prev.saturating_add(td[td_row + bj]);
                up.min(left).min(diag)
            };
            fd[cell] = value;
        }
    }
}

/// Normalized similarity in `[0, 1]`: `1 − ted / (|a| + |b|)`.
///
/// The sum (not the max) bounds the distance: renames can make two
/// same-size trees cost more than their size (delete + insert both sides),
/// so `max` would not keep the ratio below 1. Two empty plans are fully
/// similar.
pub fn similarity(a: &UnifiedPlan, b: &UnifiedPlan) -> f64 {
    let size_a = a.operation_count();
    let size_b = b.operation_count();
    if size_a + size_b == 0 {
        return 1.0;
    }
    1.0 - tree_edit_distance(a, b) as f64 / (size_a + size_b) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PlanNode;

    fn leaf(name: &str) -> PlanNode {
        PlanNode::producer(name)
    }

    fn join(children: Vec<PlanNode>) -> PlanNode {
        PlanNode::join("Hash_Join").with_children(children)
    }

    #[test]
    fn identical_plans_have_zero_distance() {
        let plan = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        assert_eq!(tree_edit_distance(&plan, &plan.clone()), 0);
        assert_eq!(similarity(&plan, &plan.clone()), 1.0);
    }

    #[test]
    fn single_rename_costs_one() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")]));
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn category_participates_in_labels() {
        let a = UnifiedPlan::with_root(PlanNode::producer("Scan"));
        let b = UnifiedPlan::with_root(PlanNode::executor("Scan"));
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn insertion_costs_one() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A")]));
        let b = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn wrapper_insertion_costs_one() {
        // PG plan vs the same plan under a Gather node.
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(
            PlanNode::executor("Gather").with_child(join(vec![leaf("A"), leaf("B")])),
        );
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn empty_plan_distances() {
        let empty = UnifiedPlan::new();
        let three = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        assert_eq!(tree_edit_distance(&empty, &empty.clone()), 0);
        assert_eq!(tree_edit_distance(&empty, &three), 3);
        assert_eq!(tree_edit_distance(&three, &empty), 3);
        assert_eq!(similarity(&empty, &empty.clone()), 1.0);
        assert_eq!(similarity(&empty, &three), 0.0);
        assert!(similarity(&three, &three.clone()) == 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = UnifiedPlan::with_root(join(vec![
            leaf("A"),
            PlanNode::executor("Hash_Row").with_child(leaf("B")),
        ]));
        let b = UnifiedPlan::with_root(join(vec![leaf("B"), leaf("C"), leaf("A")]));
        assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")]));
        let c = UnifiedPlan::with_root(PlanNode::folder("Agg").with_child(join(vec![leaf("C")])));
        let ab = tree_edit_distance(&a, &b);
        let bc = tree_edit_distance(&b, &c);
        let ac = tree_edit_distance(&a, &c);
        assert!(ac <= ab + bc, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn stable_identifiers_are_used() {
        let a = UnifiedPlan::with_root(PlanNode::executor("TableReader_7").with_child(leaf("A")));
        let b = UnifiedPlan::with_root(PlanNode::executor("TableReader_12").with_child(leaf("A")));
        assert_eq!(tree_edit_distance(&a, &b), 0);
    }

    /// Every plan pair used elsewhere in this module, for cross-checking
    /// the bounded kernel against the full one.
    fn test_plans() -> Vec<UnifiedPlan> {
        vec![
            UnifiedPlan::new(),
            UnifiedPlan::with_root(leaf("A")),
            UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")])),
            UnifiedPlan::with_root(join(vec![leaf("A"), leaf("C")])),
            UnifiedPlan::with_root(
                PlanNode::executor("Gather").with_child(join(vec![leaf("A"), leaf("B")])),
            ),
            UnifiedPlan::with_root(join(vec![
                leaf("A"),
                PlanNode::executor("Hash_Row").with_child(leaf("B")),
            ])),
            UnifiedPlan::with_root(join(vec![leaf("B"), leaf("C"), leaf("A")])),
            UnifiedPlan::with_root(PlanNode::folder("Agg").with_child(join(vec![leaf("C")]))),
            UnifiedPlan::with_root(PlanNode::combinator("Sort").with_child(
                PlanNode::folder("Aggregate").with_child(join(vec![
                    leaf("Full_Table_Scan"),
                    PlanNode::executor("Hash_Row").with_child(leaf("Full_Table_Scan")),
                ])),
            )),
            UnifiedPlan::with_root(
                PlanNode::projector("Project").with_child(
                    PlanNode::combinator("Sort").with_child(
                        PlanNode::folder("Aggregate").with_child(join(vec![
                            leaf("Full_Table_Scan"),
                            leaf("Full_Table_Scan"),
                        ])),
                    ),
                ),
            ),
        ]
    }

    #[test]
    fn bounded_ted_agrees_with_full_ted_at_every_bound() {
        let plans = test_plans();
        for a in &plans {
            for b in &plans {
                let exact = tree_edit_distance(a, b);
                for bound in 0..=(exact + 3) {
                    let got = tree_edit_distance_bounded(a, b, bound);
                    if exact <= bound {
                        assert_eq!(got, BoundedTed::Exact(exact), "bound {bound}");
                    } else {
                        assert_eq!(got, BoundedTed::Exceeded, "bound {bound}");
                    }
                }
            }
        }
    }

    /// The textbook full-DP kernel — every neighbour read from the table,
    /// one branch per cell — that [`tree_dist`] must agree with on every
    /// pair.
    fn reference_distance(a: &Flat, b: &Flat) -> u32 {
        let (n, m) = (a.labels.len(), b.labels.len());
        let mut td = vec![0u32; n * m];
        let mut fd = vec![0u32; (n + 1) * (m + 1)];
        for &i in &a.keyroots {
            for &j in &b.keyroots {
                reference_tree_dist(a, b, i as usize, j as usize, &mut td, &mut fd);
            }
        }
        td[(n - 1) * m + (m - 1)]
    }

    fn reference_tree_dist(a: &Flat, b: &Flat, i: usize, j: usize, td: &mut [u32], fd: &mut [u32]) {
        let m = b.labels.len();
        let ali = a.lld[i] as usize;
        let blj = b.lld[j] as usize;
        let rows = i - ali + 2;
        let cols = j - blj + 2;
        fd[0] = 0;
        for r in 1..rows {
            fd[r * cols] = r as u32;
        }
        for (c, cell) in fd[..cols].iter_mut().enumerate().skip(1) {
            *cell = c as u32;
        }
        for r in 1..rows {
            let ai = ali + r - 1;
            let a_lld = a.lld[ai] as usize;
            let whole_a = a_lld == ali;
            let label_a = a.labels[ai];
            let td_row = ai * m;
            for c in 1..cols {
                let bj = blj + c - 1;
                let cell = r * cols + c;
                let up = fd[cell - cols] + 1;
                let left = fd[cell - 1] + 1;
                let value = if whole_a && b.lld[bj] as usize == blj {
                    let rename = u32::from(label_a != b.labels[bj]);
                    let diag = fd[cell - cols - 1] + rename;
                    let best = up.min(left).min(diag);
                    td[td_row + bj] = best;
                    best
                } else {
                    let prev_r = a_lld - ali;
                    let prev_c = b.lld[bj] as usize - blj;
                    let diag = fd[prev_r * cols + prev_c] + td[td_row + bj];
                    up.min(left).min(diag)
                };
                fd[cell] = value;
            }
        }
    }

    /// A pseudo-random tree of at most `budget` nodes: arity 0–4, labels
    /// drawn from a small pool (so renames and matches both occur) under
    /// three operation categories.
    fn random_tree(state: &mut u64, budget: &mut usize, depth: usize) -> PlanNode {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as usize
        };
        let name = ["A", "B", "C", "Scan", "Hash_Join"][next() % 5];
        let mut node = match next() % 3 {
            0 => PlanNode::producer(name),
            1 => PlanNode::executor(name),
            _ => PlanNode::join(name),
        };
        *budget = budget.saturating_sub(1);
        let arity = if depth == 0 { 0 } else { next() % 5 };
        for _ in 0..arity {
            if *budget == 0 {
                break;
            }
            node.children.push(random_tree(state, budget, depth - 1));
        }
        node
    }

    #[test]
    fn full_kernel_matches_the_reference_kernel_on_generated_trees() {
        let mut state = 7u64;
        let flats: Vec<Flat> = (0..200)
            .map(|i| {
                let mut budget = 1 + i % 20;
                let root = random_tree(&mut state, &mut budget, 1 + i % 6);
                flatten(&root, &SymbolTable::read())
            })
            .collect();
        let mut scratch = TedScratch::default();
        for a in &flats {
            for b in &flats {
                assert_eq!(
                    zhang_shasha(a, b, &mut scratch),
                    reference_distance(a, b) as usize,
                    "{} vs {} nodes",
                    a.labels.len(),
                    b.labels.len()
                );
            }
        }
    }

    #[test]
    fn bounded_ted_handles_extreme_bounds() {
        let a = UnifiedPlan::with_root(join(vec![leaf("A"), leaf("B")]));
        let b = UnifiedPlan::with_root(PlanNode::folder("Agg").with_child(join(vec![leaf("C")])));
        let exact = tree_edit_distance(&a, &b);
        assert_eq!(
            tree_edit_distance_bounded(&a, &b, usize::MAX),
            BoundedTed::Exact(exact)
        );
        assert_eq!(
            tree_edit_distance_bounded(&a, &a.clone(), 0),
            BoundedTed::Exact(0)
        );
        assert_eq!(BoundedTed::Exact(exact).exact(), Some(exact));
        assert_eq!(BoundedTed::Exceeded.exact(), None);
    }

    #[test]
    fn known_distance_on_paper_like_plans() {
        // PG-style:   Sort -> Agg -> Join(scan, Hash(scan))
        // TiDB-style: Project -> Sort -> Agg -> Join(scan, scan)
        let pg = UnifiedPlan::with_root(PlanNode::combinator("Sort").with_child(
            PlanNode::folder("Aggregate").with_child(join(vec![
                leaf("Full_Table_Scan"),
                PlanNode::executor("Hash_Row").with_child(leaf("Full_Table_Scan")),
            ])),
        ));
        let tidb = UnifiedPlan::with_root(
            PlanNode::projector("Project").with_child(
                PlanNode::combinator("Sort").with_child(
                    PlanNode::folder("Aggregate")
                        .with_child(join(vec![leaf("Full_Table_Scan"), leaf("Full_Table_Scan")])),
                ),
            ),
        );
        // Delete Hash_Row, insert Project.
        assert_eq!(tree_edit_distance(&pg, &tidb), 2);
        let sim = similarity(&pg, &tidb);
        assert!(sim > 0.6 && sim < 1.0, "similarity {sim}");
    }
}
