//! The query engine: candidates → fragment matches → joins → answers.

use crate::cache::fnv1a;
use crate::compiled::{
    is_availability, Binding, CompiledMatcher, CompiledPlan, MatchContext, MatchStats,
    SnapshotCache,
};
use crate::join::{stack_tree_desc, VisibilityChecker};
use crate::pattern::PNodeId;
use crate::plan::QueryPlan;
use crate::xpath::{parse_query, QueryParseError};
use dol_acl::SubjectId;
use dol_core::EmbeddedDol;
use dol_storage::disk::StorageError;
use dol_storage::{with_io_deadline, BPlusTree, Deadline, IoStats, StructStore, ValueStore};
use dol_xml::{TagId, TagInterner};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The security mode of one evaluation. `Hash`/`Eq` so a (query, security)
/// pair can key a result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Security {
    /// Unsecured evaluation (the plain NoK baseline).
    None,
    /// ε-NoK / Cho et al. semantics: a binding is discarded iff one of its
    /// bound data nodes is inaccessible to the subject (paper §4).
    BindingLevel(SubjectId),
    /// Gabillon–Bruno semantics (§4.2): additionally, every ancestor of
    /// every bound node must be accessible — an inaccessible node hides its
    /// entire subtree.
    SubtreeVisibility(SubjectId),
}

impl Security {
    fn subject(self) -> Option<SubjectId> {
        match self {
            Security::None => None,
            Security::BindingLevel(s) | Security::SubtreeVisibility(s) => Some(s),
        }
    }
}

/// Errors from query evaluation.
#[derive(Debug)]
pub enum QueryError {
    /// The query string failed to parse.
    Parse(QueryParseError),
    /// The storage layer failed.
    Storage(StorageError),
    /// A secure mode was requested on an engine built without a DOL.
    NoAccessControl,
    /// The evaluation's [`ExecOptions::deadline`] expired (or was cancelled)
    /// mid-query. The boxed stats describe the *partial* work done before
    /// the abort — counters and I/O only, never a partial answer.
    DeadlineExceeded(Box<ExecStats>),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Storage(e) => write!(f, "{e}"),
            QueryError::NoAccessControl => {
                write!(f, "secure evaluation requested but no DOL is attached")
            }
            QueryError::DeadlineExceeded(stats) => write!(
                f,
                "query deadline exceeded after visiting {} node(s)",
                stats.nodes_visited
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryParseError> for QueryError {
    fn from(e: QueryParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// Execution options (ablation knobs plus the evaluation's time budget).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Enable the §3.3 page-skip optimization (default: true).
    pub page_skip: bool,
    /// Cooperative deadline/cancellation for the whole evaluation (default:
    /// [`Deadline::never`]). The matcher checks it between node loads and
    /// the buffer pool between retry attempts; expiry aborts the query with
    /// [`QueryError::DeadlineExceeded`] carrying the partial-work stats —
    /// never with a partial answer, and never masked by fail-closed.
    pub deadline: Deadline,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            page_skip: true,
            deadline: Deadline::never(),
        }
    }
}

/// Per-query execution statistics (the measured quantities of §5.2).
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecStats {
    /// Candidate fragment roots considered.
    pub candidates: u64,
    /// Data nodes loaded during matching.
    pub nodes_visited: u64,
    /// Nodes rejected by accessibility checks.
    pub nodes_denied: u64,
    /// Candidates rejected from in-memory block headers without I/O.
    pub blocks_skipped: u64,
    /// Structural-join output pairs.
    pub join_pairs: u64,
    /// Path nodes inspected by the subtree-visibility checker (ε-STD only).
    pub visibility_nodes: u64,
    /// Storage failures masked as inaccessibility during secure evaluation
    /// (the fail-closed policy). Always 0 in [`Security::None`], where
    /// storage errors abort the query instead.
    pub blocks_failed_closed: u64,
    /// Buffer-pool I/O incurred by this query.
    pub io: IoStats,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
}

impl ExecStats {
    /// Folds one matcher's counters in.
    fn add_match(&mut self, m: &MatchStats) {
        self.nodes_visited += m.nodes_visited;
        self.nodes_denied += m.nodes_denied;
        self.blocks_skipped += m.candidates_block_skipped;
        self.blocks_failed_closed += m.blocks_failed_closed;
    }
}

/// The result of one evaluation.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Document positions bound to the returning node, ascending, distinct —
    /// the "answers returned" of Figure 7.
    pub matches: Vec<u64>,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// A query engine over one secured (or unsecured) document store.
///
/// Construction scans the store once to build the tag B+-tree index used to
/// seed NoK pattern matching (§4.1: "using B+ trees on the subtree root's
/// value or tag names to start the matching").
pub struct QueryEngine<'a> {
    store: &'a StructStore,
    values: &'a ValueStore,
    tags: &'a TagInterner,
    dol: Option<&'a EmbeddedDol>,
    tag_index: IndexRef<'a>,
    /// Optional tag+value index: built by `new`, absent in `with_index`
    /// engines unless supplied.
    value_index: ValueIndexRef<'a>,
}

enum ValueIndexRef<'a> {
    None,
    Owned(BPlusTree<(TagId, u64), Vec<u64>>),
    Borrowed(&'a BPlusTree<(TagId, u64), Vec<u64>>),
}

impl ValueIndexRef<'_> {
    fn get(&self) -> Option<&BPlusTree<(TagId, u64), Vec<u64>>> {
        match self {
            ValueIndexRef::None => None,
            ValueIndexRef::Owned(t) => Some(t),
            ValueIndexRef::Borrowed(t) => Some(t),
        }
    }
}

enum IndexRef<'a> {
    Owned(BPlusTree<TagId, Vec<u64>>),
    Borrowed(&'a BPlusTree<TagId, Vec<u64>>),
}

impl IndexRef<'_> {
    fn get(&self) -> &BPlusTree<TagId, Vec<u64>> {
        match self {
            IndexRef::Owned(t) => t,
            IndexRef::Borrowed(t) => t,
        }
    }
}

/// Builds the tag index of a store: `tag → ascending positions`.
pub fn build_tag_index(store: &StructStore) -> Result<BPlusTree<TagId, Vec<u64>>, StorageError> {
    let mut tag_index: BPlusTree<TagId, Vec<u64>> = BPlusTree::new();
    for entry in store.iter() {
        let (pos, rec) = entry?;
        match tag_index.get_mut(&rec.tag) {
            Some(v) => v.push(pos),
            None => {
                tag_index.insert(rec.tag, vec![pos]);
            }
        }
    }
    Ok(tag_index)
}

/// Builds the tag+value index: `(tag, value hash) → ascending positions` of
/// value-carrying nodes — the other B+-tree the paper starts matching from
/// (§4.1: "B+ trees on the subtree root's value or tag names").
pub fn build_value_index(
    store: &StructStore,
    values: &ValueStore,
) -> Result<BPlusTree<(TagId, u64), Vec<u64>>, StorageError> {
    let mut idx: BPlusTree<(TagId, u64), Vec<u64>> = BPlusTree::new();
    for entry in store.iter() {
        let (pos, rec) = entry?;
        if !rec.has_value {
            continue;
        }
        let Some(v) = values.get(pos)? else { continue };
        let key = (rec.tag, value_hash(&v));
        match idx.get_mut(&key) {
            Some(list) => list.push(pos),
            None => {
                idx.insert(key, vec![pos]);
            }
        }
    }
    Ok(idx)
}

/// A stable 64-bit value hash for the value index — the shared FNV-1a from
/// the cache layer ([`fnv1a`]). Collisions are harmless: the matcher
/// re-checks the actual value.
fn value_hash(v: &str) -> u64 {
    fnv1a(v)
}

impl<'a> QueryEngine<'a> {
    /// Builds an engine (and its tag index) over a store.
    pub fn new(
        store: &'a StructStore,
        values: &'a ValueStore,
        tags: &'a TagInterner,
        dol: Option<&'a EmbeddedDol>,
    ) -> Result<Self, StorageError> {
        Ok(Self {
            store,
            values,
            tags,
            dol,
            tag_index: IndexRef::Owned(build_tag_index(store)?),
            value_index: ValueIndexRef::Owned(build_value_index(store, values)?),
        })
    }

    /// Builds an engine over a store with an externally maintained tag
    /// index (so long-lived databases don't rescan the store per query).
    pub fn with_index(
        store: &'a StructStore,
        values: &'a ValueStore,
        tags: &'a TagInterner,
        dol: Option<&'a EmbeddedDol>,
        tag_index: &'a BPlusTree<TagId, Vec<u64>>,
    ) -> Self {
        Self {
            store,
            values,
            tags,
            dol,
            tag_index: IndexRef::Borrowed(tag_index),
            value_index: ValueIndexRef::None,
        }
    }

    /// Attaches an externally maintained tag+value index (see
    /// [`build_value_index`]) so value-constrained fragment roots seed from
    /// it.
    pub fn set_value_index(&mut self, idx: &'a BPlusTree<(TagId, u64), Vec<u64>>) {
        self.value_index = ValueIndexRef::Borrowed(idx);
    }

    /// The positions of every node with `tag` (ascending), or of every node
    /// for the wildcard. Borrows straight from the tag index when possible —
    /// a candidate list is consulted once per query, and cloning (or
    /// re-sorting) the hottest tag's full position vector per call dominated
    /// the serve mix. Index lists are built by one document-order scan and
    /// are therefore already strictly ascending; that invariant is
    /// debug-asserted here (the leaf fast path and the join sort-elision
    /// depend on it) instead of re-sorted away.
    pub fn candidates(&self, tag: Option<TagId>) -> Cow<'_, [u64]> {
        match tag {
            Some(t) => match self.tag_index.get().get(&t) {
                Some(v) => {
                    debug_assert_doc_order(v);
                    Cow::Borrowed(v.as_slice())
                }
                None => Cow::Owned(Vec::new()),
            },
            None => Cow::Owned((0..self.store.total_nodes()).collect()),
        }
    }

    /// Candidate positions for a fragment root with an optional value
    /// constraint: the tag+value index narrows the list when available
    /// (hash collisions are re-checked by the matcher).
    pub fn candidates_for(&self, tag: Option<TagId>, value: Option<&str>) -> Cow<'_, [u64]> {
        if let (Some(t), Some(v), Some(idx)) = (tag, value, self.value_index.get()) {
            return match idx.get(&(t, value_hash(v))) {
                Some(list) => {
                    debug_assert_doc_order(list);
                    Cow::Borrowed(list.as_slice())
                }
                None => Cow::Owned(Vec::new()),
            };
        }
        self.candidates(tag)
    }

    /// Parses and evaluates `query` under `security`.
    pub fn execute(&self, query: &str, security: Security) -> Result<QueryResult, QueryError> {
        let plan = QueryPlan::new(parse_query(query)?);
        self.execute_plan(&plan, security)
    }

    /// Evaluates a pre-built plan.
    pub fn execute_plan(
        &self,
        plan: &QueryPlan,
        security: Security,
    ) -> Result<QueryResult, QueryError> {
        self.execute_plan_opts(plan, security, ExecOptions::default())
    }

    /// Evaluates a pre-built plan with explicit execution options.
    ///
    /// The options' [`deadline`](ExecOptions::deadline) is installed as the
    /// calling thread's I/O deadline for the duration; on expiry the query
    /// aborts with [`QueryError::DeadlineExceeded`] carrying the counters
    /// and I/O accumulated so far.
    ///
    /// The plan is lowered to a [`CompiledPlan`] for this call; long-lived
    /// callers should cache the lowering and use
    /// [`execute_compiled_opts`](Self::execute_compiled_opts).
    pub fn execute_plan_opts(
        &self,
        plan: &QueryPlan,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, QueryError> {
        let compiled = CompiledPlan::compile(plan, self.tags);
        self.run_timed(plan, &compiled, security, &opts)
    }

    /// Evaluates a plan through a pre-lowered automaton (normally from the
    /// [`PlanCache`](crate::cache::PlanCache)). A lowering that is stale for
    /// this engine's tag space ([`CompiledPlan::is_current`]) is replaced by
    /// an ephemeral recompile — correctness never depends on freshness, only
    /// the reuse does.
    pub fn execute_compiled_opts(
        &self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, QueryError> {
        if compiled.is_current(self.tags) {
            self.run_timed(plan, compiled, security, &opts)
        } else {
            let fresh = CompiledPlan::compile(plan, self.tags);
            self.run_timed(plan, &fresh, security, &opts)
        }
    }

    /// Timing, I/O delta, and deadline-abort plumbing around
    /// [`run_pipeline`](Self::run_pipeline).
    fn run_timed(
        &self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        security: Security,
        opts: &ExecOptions,
    ) -> Result<QueryResult, QueryError> {
        let start = Instant::now();
        let io_before = self.store.pool().stats();
        let mut stats = ExecStats::default();
        let outcome = with_io_deadline(&opts.deadline, || {
            self.run_pipeline(plan, compiled, security, opts, &mut stats)
        });
        stats.io = self.store.pool().stats().since(&io_before);
        stats.elapsed = start.elapsed();
        match outcome {
            Ok(matches) => Ok(QueryResult { matches, stats }),
            Err(QueryError::Storage(StorageError::DeadlineExceeded)) => {
                Err(QueryError::DeadlineExceeded(Box::new(stats)))
            }
            Err(e) => Err(e),
        }
    }

    /// Stages 1–4 of one evaluation; split out so the caller can attach the
    /// partial stats to a deadline abort. Stage 1 is here: every fragment's
    /// candidates — seeded from the tag (or tag+value) index, or the
    /// document root for an anchored query — are matched through
    /// [`CompiledMatcher`], with the §3.3 skip mask precomputed **once** per
    /// evaluation (word-parallel, from in-memory headers) and single-node
    /// fragments routed through the compressed-domain leaf fast path;
    /// [`finish_pipeline`](Self::finish_pipeline) runs stages 2–4.
    fn run_pipeline(
        &self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        security: Security,
        opts: &ExecOptions,
        stats: &mut ExecStats,
    ) -> Result<Vec<u64>, QueryError> {
        let subject = security.subject();
        let access = match (subject, self.dol) {
            (Some(s), Some(dol)) => Some((dol, s)),
            (Some(_), None) => return Err(QueryError::NoAccessControl),
            (None, _) => None,
        };
        let mut ctx = MatchContext::new(self.store, self.values, access);
        ctx.deadline = opts.deadline.clone();
        let ctx = ctx;
        // GB semantics need every fragment root exported so its ancestor
        // path can be checked; the matcher takes a flag instead of a cloned,
        // re-lowered plan (sound because a fragment root never appears in
        // its own kin table).
        let force_root_output = matches!(security, Security::SubtreeVisibility(_));
        // One word-parallel pass over the in-memory block directory replaces
        // the per-candidate skip probe. Purely in-memory: no I/O.
        let skip_mask: Option<Vec<u64>> = match (&ctx.column, ctx.access) {
            (Some(col), Some((dol, _))) if opts.page_skip => {
                Some(dol.block_skip_mask(self.store, col))
            }
            _ => None,
        };
        debug_assert_eq!(
            compiled.fragments().len(),
            plan.trees.len(),
            "compiled plan must be lowered from this query plan"
        );
        // Shared per-execution snapshot cache: the leaf fast path and the
        // join's ancestor-interval fetch latch each distinct block at most
        // once between them.
        let mut snaps = SnapshotCache::new(self.store.block_count());
        let mut results: Vec<Vec<Binding>> = Vec::with_capacity(plan.trees.len());
        for i in 0..plan.trees.len() {
            let frag = compiled.fragment(i);
            let anchored_root = i == 0 && plan.pattern.anchored();
            let candidates: Cow<'_, [u64]> = if anchored_root {
                Cow::Owned(vec![0u64])
            } else if frag.is_satisfiable() {
                self.candidates_for(frag.root_tag(), frag.root_value())
            } else {
                Cow::Owned(Vec::new())
            };
            stats.candidates += candidates.len() as u64;
            // The leaf fast path classifies whole blocks in the compressed
            // domain; it requires candidates drawn from the tag index (an
            // anchored root's `[0]` is not).
            let mut m = CompiledMatcher::new(&ctx, frag, force_root_output, skip_mask.as_deref());
            let tuples = if frag.is_leaf() && !anchored_root {
                m.match_leaf_candidates(&candidates, &mut snaps)?
            } else {
                let mut tuples = Vec::new();
                for &c in candidates.iter() {
                    tuples.extend(m.match_root(c)?);
                }
                tuples
            };
            stats.add_match(&m.stats);
            results.push(tuples);
        }
        self.finish_pipeline(plan, security, results, stats, &mut snaps)
    }

    /// Stages 2–4 of one evaluation: the subtree-visibility filter, the
    /// bottom-up structural joins, and the returning-node projection. The
    /// join's ancestor-interval fetch goes through the execution's shared
    /// [`SnapshotCache`] — one page access per distinct block, shared with
    /// the leaf fast path that produced the bindings.
    fn finish_pipeline(
        &self,
        plan: &QueryPlan,
        security: Security,
        mut results: Vec<Vec<Binding>>,
        stats: &mut ExecStats,
        snaps: &mut SnapshotCache,
    ) -> Result<Vec<u64>, QueryError> {
        let subject = security.subject();
        // 2. Subtree-visibility filter on fragment-root bindings.
        if let Security::SubtreeVisibility(s) = security {
            let Some(dol) = self.dol else {
                return Err(QueryError::NoAccessControl);
            };
            for (i, tree) in plan.trees.iter().enumerate() {
                if results[i].is_empty() {
                    continue;
                }
                let root = tree.root;
                // Check in document order so the checker can share paths.
                let mut order: Vec<usize> = (0..results[i].len()).collect();
                order.sort_unstable_by_key(|&t| bound(&results[i][t], root));
                let mut checker = VisibilityChecker::new(self.store, dol, s);
                let mut keep = vec![false; results[i].len()];
                for t in order {
                    let pos = bound(&results[i][t], root);
                    keep[t] = match checker.check(pos) {
                        Ok(visible) => visible,
                        Err(e) if !is_availability(&e) => {
                            // Subtree visibility is always a secure mode:
                            // an unverifiable ancestor path fails closed.
                            stats.blocks_failed_closed += 1;
                            false
                        }
                        Err(e) => return Err(e.into()),
                    };
                }
                stats.visibility_nodes += checker.nodes_inspected;
                let mut it = keep.into_iter();
                results[i].retain(|_| it.next().unwrap_or(false));
            }
        }

        // 3. Structural joins, bottom-up (desc_tree is always the greater
        //    index, so reverse order folds leaves into their ancestors).
        for join in plan.joins.iter().rev() {
            let desc_root = plan.trees[join.desc_tree].root;
            let desc_tuples = std::mem::take(&mut results[join.desc_tree]);
            let anc_tuples = std::mem::take(&mut results[join.anc_tree]);
            if desc_tuples.is_empty() || anc_tuples.is_empty() {
                results[join.anc_tree] = Vec::new();
                continue;
            }
            // Sort both sides in document order of their join positions —
            // unless a side already arrives sorted (leaf fast-path output
            // and single-output fragments do), in which case the re-sort is
            // elided.
            let mut anc_sorted: Vec<&Binding> = anc_tuples.iter().collect();
            if !is_sorted_by_bound(&anc_sorted, join.anc_pnode) {
                anc_sorted.sort_unstable_by_key(|b| bound(b, join.anc_pnode));
            }
            let mut desc_sorted: Vec<&Binding> = desc_tuples.iter().collect();
            if !is_sorted_by_bound(&desc_sorted, desc_root) {
                desc_sorted.sort_unstable_by_key(|b| bound(b, desc_root));
            }
            let mut anc_intervals = Vec::with_capacity(anc_sorted.len());
            let mut anc_kept: Vec<&Binding> = Vec::with_capacity(anc_sorted.len());
            // Batched interval fetch: the execution's snapshot cache serves
            // every anchor in a block from one page access — usually one the
            // leaf fast path already paid for; a failed block fails closed
            // once per binding it hides.
            for b in anc_sorted {
                let pos = bound(b, join.anc_pnode);
                let blk = self.store.block_of_pos(pos);
                match snaps.get(self.store, blk, subject.is_some())? {
                    Some(snap) => {
                        let size = snap.node((pos - snap.first_pos()) as usize).size;
                        anc_intervals.push((pos, pos + u64::from(size)));
                        anc_kept.push(b);
                    }
                    // Fail closed: a binding whose anchor can no longer be
                    // verified is dropped from the join.
                    None => stats.blocks_failed_closed += 1,
                }
            }
            let anc_sorted = anc_kept;
            let desc_positions: Vec<u64> =
                desc_sorted.iter().map(|b| bound(b, desc_root)).collect();
            let pairs = stack_tree_desc(&anc_intervals, &desc_positions);
            stats.join_pairs += pairs.len() as u64;
            let mut merged = Vec::with_capacity(pairs.len());
            for (ai, dj) in pairs {
                let mut t = anc_sorted[ai].clone();
                t.extend(desc_sorted[dj].iter().copied());
                t.sort_unstable_by_key(|&(p, _)| p);
                t.dedup();
                merged.push(t);
            }
            merged.sort_unstable();
            merged.dedup();
            results[join.anc_tree] = merged;
        }

        // 4. Project the returning node.
        let returning = plan.pattern.returning();
        let mut matches: Vec<u64> = results[0].iter().map(|b| bound(b, returning)).collect();
        matches.sort_unstable();
        matches.dedup();
        Ok(matches)
    }
}

/// The data position bound to `pnode` in a binding.
fn bound(binding: &Binding, pnode: PNodeId) -> u64 {
    binding
        .iter()
        .find(|&&(p, _)| p == pnode)
        .map(|&(_, d)| d)
        .expect("pattern node is an output of its fragment")
}

/// Whether `tuples` is already non-decreasing in the position bound to
/// `pnode` — the join's sort-elision test (O(n), no allocation).
fn is_sorted_by_bound(tuples: &[&Binding], pnode: PNodeId) -> bool {
    tuples
        .windows(2)
        .all(|w| bound(w[0], pnode) <= bound(w[1], pnode))
}

/// Debug invariant behind the no-re-sort policy: index candidate lists are
/// produced by one document-order scan and must be strictly ascending.
fn debug_assert_doc_order(list: &[u64]) {
    debug_assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "index candidate list must be strictly ascending in document order"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::{AccessibilityMap, FnOracle};
    use dol_storage::{BufferPool, FaultConfig, FaultDisk, MemDisk, StoreConfig};
    use dol_xml::{parse, Document, NodeId};
    use std::sync::Arc;

    struct Db {
        store: StructStore,
        values: ValueStore,
        doc: Document,
        dol: EmbeddedDol,
    }

    fn db(xml: &str, map: Option<&AccessibilityMap>, max_rec: usize) -> Db {
        let doc = parse(xml).unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let cfg = StoreConfig {
            max_records_per_block: max_rec,
        };
        let all = FnOracle::new(1, |_, _| true);
        let (store, dol) = match map {
            Some(m) => EmbeddedDol::build(pool.clone(), cfg, &doc, m).unwrap(),
            None => EmbeddedDol::build(pool.clone(), cfg, &doc, &all).unwrap(),
        };
        let mut values = ValueStore::new(pool);
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        Db {
            store,
            values,
            doc,
            dol,
        }
    }

    fn query(d: &Db, q: &str, sec: Security) -> Vec<u64> {
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), Some(&d.dol)).unwrap();
        engine.execute(q, sec).unwrap().matches
    }

    const DOC: &str = "<site><regions><africa><item><name>gold</name><quantity>1</quantity>\
                       </item><item><name>salt</name></item></africa></regions>\
                       <categories><category><name>metals</name></category></categories></site>";
    // positions: site=0 regions=1 africa=2 item=3 name=4 quantity=5 item=6
    //            name=7 categories=8 category=9 name=10

    #[test]
    fn single_fragment_queries() {
        let d = db(DOC, None, 300);
        assert_eq!(
            query(
                &d,
                "/site/regions/africa/item[name][quantity]",
                Security::None
            ),
            vec![3]
        );
        assert_eq!(
            query(&d, "/site/regions/africa/item", Security::None),
            vec![3, 6]
        );
        assert_eq!(
            query(&d, "/site/*/africa/item/name", Security::None),
            vec![4, 7]
        );
        assert_eq!(query(&d, "//item[name=\"salt\"]", Security::None), vec![6]);
        assert_eq!(query(&d, "/regions", Security::None), Vec::<u64>::new());
    }

    #[test]
    fn descendant_join_queries() {
        let d = db(DOC, None, 300);
        assert_eq!(query(&d, "//regions//name", Security::None), vec![4, 7]);
        assert_eq!(query(&d, "//site//name", Security::None), vec![4, 7, 10]);
        assert_eq!(query(&d, "//africa//quantity", Security::None), vec![5]);
        assert_eq!(
            query(&d, "//category//quantity", Security::None),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn chained_descendants() {
        let d = db("<a><p><x/><p><x/></p></p><p><y/></p></a>", None, 300);
        // a=0 p=1 x=2 p=3 x=4 p=5 y=6.
        // x at 2 descends from p at 1; x at 4 descends from both p nodes.
        assert_eq!(query(&d, "//p//x", Security::None), vec![2, 4]);
        assert_eq!(query(&d, "//a//p//x", Security::None), vec![2, 4]);
        // Only x at 4 has a p strictly between it and another p.
        assert_eq!(query(&d, "//p//p//x", Security::None), vec![4]);
    }

    #[test]
    fn secure_binding_level() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        // Deny quantity (5): the [quantity] predicate can no longer be bound.
        map.set(SubjectId(0), NodeId(5), false);
        let d = db(DOC, Some(&map), 300);
        let s = Security::BindingLevel(SubjectId(0));
        assert_eq!(
            query(&d, "/site/regions/africa/item[name][quantity]", s),
            Vec::<u64>::new()
        );
        // Un-predicated items still match.
        assert_eq!(query(&d, "/site/regions/africa/item[name]", s), vec![3, 6]);
    }

    #[test]
    fn binding_vs_subtree_visibility_semantics() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        // africa (2) denied, but its descendants stay accessible.
        map.set(SubjectId(0), NodeId(2), false);
        let d = db(DOC, Some(&map), 300);
        // Cho semantics: //name doesn't bind africa, so names survive.
        assert_eq!(
            query(&d, "//site//name", Security::BindingLevel(SubjectId(0))),
            vec![4, 7, 10]
        );
        // Gabillon–Bruno: names under africa are hidden with their subtree.
        assert_eq!(
            query(
                &d,
                "//site//name",
                Security::SubtreeVisibility(SubjectId(0))
            ),
            vec![10]
        );
    }

    #[test]
    fn figure_2_semantics_note() {
        // §4: accessibility of nodes NOT bound by the pattern has no impact
        // under Cho semantics.
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(1), false); // regions unbound in //item
        let d = db(DOC, Some(&map), 300);
        assert_eq!(
            query(&d, "//item[name]", Security::BindingLevel(SubjectId(0))),
            vec![3, 6]
        );
        assert_eq!(
            query(
                &d,
                "//item[name]",
                Security::SubtreeVisibility(SubjectId(0))
            ),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn secure_without_dol_errors() {
        let d = db(DOC, None, 300);
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), None).unwrap();
        assert!(matches!(
            engine.execute("//item", Security::BindingLevel(SubjectId(0))),
            Err(QueryError::NoAccessControl)
        ));
        assert_eq!(
            engine.execute("//item", Security::None).unwrap().matches,
            vec![3, 6]
        );
    }

    #[test]
    fn stats_populated() {
        let d = db(DOC, None, 2);
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), Some(&d.dol)).unwrap();
        // Both fragments are single-node, so the leaf fast path answers from
        // the index plus block headers — zero nodes materialized; the join
        // still reads pages for intervals.
        let r = engine.execute("//site//name", Security::None).unwrap();
        assert_eq!(r.matches.len(), 3);
        assert!(r.stats.candidates >= 4);
        assert_eq!(r.stats.nodes_visited, 0, "leaf fast path decodes no node");
        assert!(r.stats.join_pairs >= 3);
        assert!(r.stats.io.logical_reads > 0);
    }

    #[test]
    fn stale_compiled_plan_recompiles_and_answers() {
        let d = db(DOC, None, 300);
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), Some(&d.dol)).unwrap();
        let plan = QueryPlan::new(parse_query("//item[name]").unwrap());
        // Lower against a *smaller* tag space (simulating a plan cached
        // before this document's tags were interned): the fence detects it
        // and the engine recompiles ephemerally — same answer.
        let mut old_tags = TagInterner::new();
        old_tags.intern("item");
        old_tags.intern("name");
        let stale = CompiledPlan::compile(&plan, &old_tags);
        assert!(!stale.is_current(d.doc.tags()));
        let r = engine
            .execute_compiled_opts(&plan, &stale, Security::None, ExecOptions::default())
            .unwrap();
        assert_eq!(r.matches, vec![3, 6]);
        // A current lowering is used as-is.
        let fresh = CompiledPlan::compile(&plan, d.doc.tags());
        let r2 = engine
            .execute_compiled_opts(&plan, &fresh, Security::None, ExecOptions::default())
            .unwrap();
        assert_eq!(r2.matches, vec![3, 6]);
    }

    #[test]
    fn value_index_narrows_candidates() {
        let d = db(DOC, None, 300);
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), Some(&d.dol)).unwrap();
        // //name="gold": the value index seeds exactly the matching node.
        let narrowed = engine.execute("//name[=\"gold\"]", Security::None).unwrap();
        assert_eq!(narrowed.matches, vec![4]);
        assert_eq!(narrowed.stats.candidates, 1, "value index should seed 1");
        // Without the value index (borrowed-index engine), all `name` nodes
        // are candidates — same answer, more work.
        let tag_index = build_tag_index(&d.store).unwrap();
        let plain =
            QueryEngine::with_index(&d.store, &d.values, d.doc.tags(), Some(&d.dol), &tag_index);
        let wide = plain.execute("//name[=\"gold\"]", Security::None).unwrap();
        assert_eq!(wide.matches, narrowed.matches);
        assert!(wide.stats.candidates > narrowed.stats.candidates);
    }

    #[test]
    fn following_sibling_queries() {
        // r: x, y, x, z — sibling order matters.
        let d = db("<r><x/><y/><x/><z/></r>", None, 300);
        // y with a following x sibling: only the first y qualifies; the
        // returning node is the x that follows it.
        assert_eq!(query(&d, "//y~x", Security::None), vec![3]);
        // x with following z: both x's have a later z sibling.
        assert_eq!(query(&d, "//x~z", Security::None), vec![4]);
        // z with following x: nothing follows z.
        assert_eq!(query(&d, "//z~x", Security::None), Vec::<u64>::new());
        // Predicate form: return the y that has a following x.
        assert_eq!(query(&d, "//y[~x]", Security::None), vec![2]);
    }

    #[test]
    fn following_sibling_respects_security() {
        let doc = parse("<r><a/><b/><c/></r>").unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(3), false); // deny c
        let d = db("<r><a/><b/><c/></r>", Some(&map), 300);
        assert_eq!(query(&d, "//a~c", Security::None), vec![3]);
        assert_eq!(
            query(&d, "//a~c", Security::BindingLevel(SubjectId(0))),
            Vec::<u64>::new()
        );
        // Denied intermediate siblings do not matter (they are unbound).
        assert_eq!(
            query(&d, "//a~b", Security::BindingLevel(SubjectId(0))),
            vec![2]
        );
    }

    #[test]
    fn storage_failures_fail_closed_in_secure_modes() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        // Every page read fails once the faults are armed; the build and the
        // index scans run disarmed so layout and candidates are intact.
        let fault = Arc::new(FaultDisk::new(
            Arc::new(MemDisk::new()),
            FaultConfig {
                permanent_read_failure: 1.0,
                ..FaultConfig::default()
            },
        ));
        fault.set_armed(false);
        let pool = Arc::new(BufferPool::new(fault.clone(), 256));
        let cfg = StoreConfig {
            max_records_per_block: 2,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), cfg, &doc, &map).unwrap();
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        let engine = QueryEngine::new(&store, &values, doc.tags(), Some(&dol)).unwrap();
        pool.flush_all().unwrap();
        fault.set_armed(true);

        // Secure modes: unreadable blocks hide their nodes — the query
        // completes with a (possibly empty) answer and the stat records why.
        for sec in [
            Security::BindingLevel(SubjectId(0)),
            Security::SubtreeVisibility(SubjectId(0)),
        ] {
            pool.clear_cache().unwrap();
            let r = engine.execute("//item[name]", sec).unwrap();
            assert!(r.matches.is_empty(), "{sec:?}");
            assert!(r.stats.blocks_failed_closed > 0, "{sec:?}");
        }

        // Unsecured evaluation has nothing to protect: the error surfaces.
        pool.clear_cache().unwrap();
        assert!(matches!(
            engine.execute("//item[name]", Security::None),
            Err(QueryError::Storage(_))
        ));

        // Disarmed again, everything is back to normal.
        fault.set_armed(false);
        pool.clear_cache().unwrap();
        let ok = engine
            .execute("//item[name]", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        assert_eq!(ok.matches, vec![3, 6]);
        assert_eq!(ok.stats.blocks_failed_closed, 0);
    }

    #[test]
    fn expired_deadline_aborts_with_partial_stats_in_every_mode() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let d = db(DOC, Some(&map), 2);
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), Some(&d.dol)).unwrap();
        let plan = QueryPlan::new(parse_query("//item[name]").unwrap());
        for sec in [
            Security::None,
            Security::BindingLevel(SubjectId(0)),
            Security::SubtreeVisibility(SubjectId(0)),
        ] {
            // Sanity: with no deadline the query answers.
            let ok = engine
                .execute_plan_opts(&plan, sec, ExecOptions::default())
                .unwrap();
            assert_eq!(ok.matches, vec![3, 6], "{sec:?}");
            // An already-expired deadline aborts — typed error with the
            // partial-work stats, never a (shrunken) answer.
            let opts = ExecOptions {
                deadline: Deadline::after(Duration::ZERO),
                ..ExecOptions::default()
            };
            match engine.execute_plan_opts(&plan, sec, opts) {
                Err(QueryError::DeadlineExceeded(stats)) => {
                    assert_eq!(stats.blocks_failed_closed, 0, "{sec:?}: not a data fault");
                }
                other => panic!("{sec:?}: expected deadline abort, got {other:?}"),
            }
            // Cancellation mid-flight behaves identically (token fired
            // before execution here; the matcher re-checks between loads).
            let deadline = Deadline::never();
            deadline.token().cancel();
            let opts = ExecOptions {
                deadline,
                ..ExecOptions::default()
            };
            assert!(matches!(
                engine.execute_plan_opts(&plan, sec, opts),
                Err(QueryError::DeadlineExceeded(_))
            ));
        }
    }

    #[test]
    fn breaker_open_surfaces_instead_of_masking() {
        use dol_storage::RetryPolicy;
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let fault = Arc::new(FaultDisk::new(
            Arc::new(MemDisk::new()),
            FaultConfig {
                permanent_read_failure: 1.0,
                ..FaultConfig::default()
            },
        ));
        fault.set_armed(false);
        let pool = Arc::new(BufferPool::new(fault.clone(), 256));
        let cfg = StoreConfig {
            max_records_per_block: 2,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), cfg, &doc, &map).unwrap();
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        let engine = QueryEngine::new(&store, &values, doc.tags(), Some(&dol)).unwrap();
        pool.flush_all().unwrap();
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            backoff_start: Duration::ZERO,
            breaker_threshold: 1,
            breaker_probe_every: 1_000,
            ..RetryPolicy::default()
        });
        fault.set_armed(true);
        pool.clear_cache().unwrap();

        // The first failed read is a data fault (masked, fail-closed); it
        // trips the breaker, and the very next read is refused with
        // `BreakerOpen` — which must surface even in secure mode: a tripped
        // breaker is unavailability, not "inaccessible".
        let err = engine.execute("//item[name]", Security::BindingLevel(SubjectId(0)));
        assert!(
            matches!(err, Err(QueryError::Storage(StorageError::BreakerOpen))),
            "expected BreakerOpen, got {err:?}"
        );
        assert!(pool.breaker_is_open());

        // Healing: disarm the faults, reset the breaker, and the same
        // engine answers again.
        fault.set_armed(false);
        pool.set_retry_policy(RetryPolicy::default());
        pool.clear_cache().unwrap();
        let ok = engine
            .execute("//item[name]", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        assert_eq!(ok.matches, vec![3, 6]);
    }

    #[test]
    fn anchored_root_must_be_document_root() {
        let d = db("<a><a><b/></a></a>", None, 300);
        assert_eq!(query(&d, "/a/b", Security::None), Vec::<u64>::new());
        assert_eq!(query(&d, "//a/b", Security::None), vec![2]);
        assert_eq!(query(&d, "/a/a/b", Security::None), vec![2]);
    }
}
