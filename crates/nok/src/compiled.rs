//! Compiled twig execution — query→automaton lowering and the ε-NoK
//! matcher (Algorithm 1).
//!
//! A fragment match starts from a candidate data node for the fragment root
//! (seeded by the engine from a tag index) and proceeds by top-down
//! navigation: `FIRST-CHILD` / `FOLLOWING-SIBLING` over the block-oriented
//! encoding, exactly as in the paper. The data children of each matched node
//! are scanned **once**; in secure mode each loaded child's accessibility is
//! checked from the code on its own page (`ACCESS(u)`, Algorithm 1 line 6)
//! and inaccessible children are never recursed into — which is sound for
//! the binding-level (Cho et al.) semantics because an inaccessible node
//! cannot participate in any surviving binding. Where Algorithm 1 reports
//! existence plus the returning node's matches, the matcher enumerates the
//! distinct tuples over the fragment's *output* pattern nodes (fragment
//! root / join anchors / returning node), which is what the structural-join
//! stage consumes; pattern children whose subtree carries no output are
//! matched existentially with early exit.
//!
//! Per-query facts are derived **once**: a parsed [`QueryPlan`] is lowered
//! into a [`CompiledPlan`] — a flat, cache-friendly automaton:
//!
//! * per pattern node, one [`CNode`] record with the tag **pre-resolved** to a
//!   [`TagId`] (integer compare, no string hashing), the value predicate
//!   pre-boxed, and output/carries-output bits precomputed;
//! * per fragment, a single flat `kin` array holding every node's child-axis
//!   and following-sibling-axis pattern children as two contiguous ranges
//!   (`kin_start..kin_mid..kin_end`), so the matcher's inner loop slices
//!   instead of filtering;
//! * a `tag_space` fence recording the interner length at compile time, so a
//!   cached plan is revalidated in O(1) against any snapshot (the interner is
//!   append-only: equal length ⇒ identical resolution).
//!
//! [`CompiledMatcher`] executes the automaton under the fail-closed policy,
//! with the deadline checked every [`DEADLINE_CHECK_MASK`]` + 1` node visits;
//! the differential property test in `tests/proptest_compiled.rs` checks its
//! answers against the naive reference evaluator ([`crate::reference`]).
//! Page-skips are decided from a precomputed word-parallel skip mask
//! ([`dol_core::EmbeddedDol::block_skip_mask`]) instead of a per-candidate
//! codebook probe.
//!
//! For **leaf fragments** (single pattern node — the descendant sides of all
//! `//`-joins, which dominate the Table-1 mix) the matcher additionally
//! offers [`CompiledMatcher::match_leaf_candidates`]: candidates are grouped
//! by block and classified in the *compressed domain* — block header first
//! (skip mask / uniform-code test, zero I/O), then the code runs of the
//! execution's shared [`SnapshotCache`] (one latch per block per query),
//! and — only under a value predicate — one [`StructStore::block_probe`]
//! page scan producing word-packed tag/value masks, so only candidates
//! surviving the word tests ever decode a value. This turns the paper's
//! §3.3 page-skip into a general early-exit inside partially-accessible
//! blocks.

use crate::pattern::{Axis, PNodeId};
use crate::plan::QueryPlan;
use dol_acl::SubjectId;
use dol_core::{AccessBitmap, EmbeddedDol, SubjectColumn};
use dol_storage::disk::StorageError;
use dol_storage::{BlockSnapshot, Deadline, NodeRec, StructStore, ValueStore};
use dol_xml::{TagId, TagInterner};
use std::sync::Arc;

/// A partial result: data positions bound to output pattern nodes,
/// ascending by pattern node id.
pub type Binding = Vec<(PNodeId, u64)>;

/// Whether `e` is an *availability* outcome — the caller's deadline expired
/// (or was cancelled), or the buffer pool's circuit breaker refused the
/// operation. These must never be masked by the fail-closed policy: masking
/// would silently shrink a secure answer, whereas the contract of a timed-out
/// or breaker-refused query is a typed error and *no* answer.
#[inline]
pub(crate) fn is_availability(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::DeadlineExceeded | StorageError::BreakerOpen
    )
}

/// Deadline checks piggy-back on node loads, once every this many visited
/// nodes (power of two; the check itself is an atomic load plus, for real
/// deadlines, one `Instant::now()`).
pub(crate) const DEADLINE_CHECK_MASK: u64 = 0xFF;

/// Everything a fragment match needs to read.
pub struct MatchContext<'a> {
    /// The structural block store.
    pub store: &'a StructStore,
    /// Character data (for value predicates).
    pub values: &'a ValueStore,
    /// `Some((dol, subject))` enables ε-NoK accessibility checking.
    pub access: Option<(&'a EmbeddedDol, SubjectId)>,
    /// Decoded accessibility column for the subject, shared by every matcher
    /// of one evaluation. When present, the per-node check is a single
    /// shift-and-mask on an immutable snapshot — no codebook lock, no
    /// ACL-entry read.
    pub column: Option<Arc<SubjectColumn>>,
    /// The evaluation's cooperative time budget, checked between node loads
    /// (every [`DEADLINE_CHECK_MASK`]` + 1` visits). Defaults to
    /// [`Deadline::never`]; expiry surfaces as
    /// [`StorageError::DeadlineExceeded`] and is never fail-closed-masked.
    pub deadline: Deadline,
}

impl<'a> MatchContext<'a> {
    /// Builds a context, decoding the subject's column once up front when
    /// access control is attached.
    pub fn new(
        store: &'a StructStore,
        values: &'a ValueStore,
        access: Option<(&'a EmbeddedDol, SubjectId)>,
    ) -> Self {
        let column = access.map(|(dol, s)| dol.column(s));
        Self {
            store,
            values,
            access,
            column,
            deadline: Deadline::never(),
        }
    }

    /// Whether the node whose code is `code` is accessible (always true in
    /// unsecured mode).
    #[inline]
    pub fn code_accessible(&self, code: u32) -> bool {
        match (&self.column, self.access) {
            (Some(col), _) => col.check_code(code),
            (None, Some((dol, s))) => dol.check_code(code, s),
            (None, None) => true,
        }
    }
}

/// Counters accumulated during matching.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Data nodes loaded (structure + piggy-backed code).
    pub nodes_visited: u64,
    /// Nodes rejected by the accessibility check.
    pub nodes_denied: u64,
    /// Candidate roots rejected without any page read thanks to the
    /// in-memory block-header skip test.
    pub candidates_block_skipped: u64,
    /// Reads that failed (corrupt or unreadable page) during secure
    /// evaluation and were treated as entirely inaccessible instead of
    /// aborting — the fail-closed policy. Always 0 in unsecured mode, where
    /// storage errors propagate to the caller.
    pub blocks_failed_closed: u64,
}

/// One pattern node, lowered: everything `node_matches`/`enum_node` need,
/// flat and resolved.
#[derive(Debug, Default, Clone)]
pub struct CNode {
    /// Resolved tag (`None` = wildcard, or unmatchable — see below).
    pub tag: Option<TagId>,
    /// The pattern names a tag that does not exist in the document at all.
    pub unmatchable: bool,
    /// Required character-data value, if any.
    pub value: Option<Box<str>>,
    /// Whether this node's bindings are exported from the fragment.
    pub is_output: bool,
    /// Whether this node's fragment-subtree contains an output.
    pub carries_output: bool,
    /// Start of this node's child-axis pattern children in
    /// [`CompiledFragment::kin`].
    pub kin_start: u32,
    /// End of child-axis / start of following-sibling-axis children.
    pub kin_mid: u32,
    /// End of following-sibling-axis children.
    pub kin_end: u32,
}

/// One NoK fragment, lowered to flat tables.
#[derive(Debug, Clone)]
pub struct CompiledFragment {
    root: PNodeId,
    /// Indexed by `PNodeId` over the *whole* pattern (fragments share the
    /// pattern's id space; non-member slots are inert defaults).
    nodes: Vec<CNode>,
    /// Flat next-of-kin table; each member's `CNode` holds its ranges.
    kin: Vec<PNodeId>,
    satisfiable: bool,
    leaf: bool,
}

impl CompiledFragment {
    /// The fragment's root pattern node.
    #[inline]
    pub fn root(&self) -> PNodeId {
        self.root
    }

    /// The compiled record of pattern node `p`.
    #[inline]
    pub fn node(&self, p: PNodeId) -> &CNode {
        &self.nodes[p.index()]
    }

    /// Resolved tag of the fragment root (`None` = wildcard).
    #[inline]
    pub fn root_tag(&self) -> Option<TagId> {
        self.nodes[self.root.index()].tag
    }

    /// Value predicate on the fragment root, if any.
    #[inline]
    pub fn root_value(&self) -> Option<&str> {
        self.nodes[self.root.index()].value.as_deref()
    }

    /// Whether the fragment is a single pattern node (leaf fast path).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Whether this fragment can match anything at all (false when a member
    /// names a tag absent from the document).
    #[inline]
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiable
    }
}

/// A query lowered against one tag space: one [`CompiledFragment`] per
/// [`QueryPlan`] fragment, in the same order (joins still come from the
/// plan — compilation changes fragment *matching*, not join structure).
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    tag_space: usize,
    frags: Vec<CompiledFragment>,
}

impl CompiledPlan {
    /// Lowers `plan` against `tags`. Pure CPU; no storage access.
    pub fn compile(plan: &QueryPlan, tags: &TagInterner) -> CompiledPlan {
        let pattern = &plan.pattern;
        let n = pattern.len();
        let frags = plan
            .trees
            .iter()
            .map(|tree| {
                let mut nodes: Vec<CNode> = vec![CNode::default(); n];
                for id in pattern.iter() {
                    let pn = pattern.node(id);
                    let c = &mut nodes[id.index()];
                    if let Some(name) = &pn.tag {
                        match tags.get(name) {
                            Some(t) => c.tag = Some(t),
                            None => c.unmatchable = true,
                        }
                    }
                    c.value = pn.value.as_deref().map(Box::from);
                }
                for &o in &tree.outputs {
                    nodes[o.index()].is_output = true;
                    nodes[o.index()].carries_output = true;
                }
                // carries_output via child-edge closure, members-last-first
                // (members are in preorder, so children come after parents).
                for &m in tree.members.iter().rev() {
                    if nodes[m.index()].carries_output {
                        continue;
                    }
                    let any = pattern
                        .node(m)
                        .children
                        .iter()
                        .filter(|&&c| pattern.node(c).axis != Axis::Descendant)
                        .any(|&c| nodes[c.index()].carries_output);
                    if any {
                        nodes[m.index()].carries_output = true;
                    }
                }
                // Flat kin table: child-axis children, then sibling-axis.
                let mut kin: Vec<PNodeId> = Vec::new();
                for &m in &tree.members {
                    let ks = kin.len() as u32;
                    kin.extend(
                        pattern
                            .node(m)
                            .children
                            .iter()
                            .copied()
                            .filter(|&c| pattern.node(c).axis == Axis::Child),
                    );
                    let km = kin.len() as u32;
                    kin.extend(
                        pattern
                            .node(m)
                            .children
                            .iter()
                            .copied()
                            .filter(|&c| pattern.node(c).axis == Axis::FollowingSibling),
                    );
                    let ke = kin.len() as u32;
                    let c = &mut nodes[m.index()];
                    c.kin_start = ks;
                    c.kin_mid = km;
                    c.kin_end = ke;
                }
                let satisfiable = !tree.members.iter().any(|m| nodes[m.index()].unmatchable);
                let leaf = tree.members.len() == 1;
                CompiledFragment {
                    root: tree.root,
                    nodes,
                    kin,
                    satisfiable,
                    leaf,
                }
            })
            .collect();
        CompiledPlan {
            tag_space: tags.len(),
            frags,
        }
    }

    /// Whether this compilation is valid against `tags`. The interner is
    /// append-only, so equal length implies identical name→id resolution; a
    /// longer interner may have interned a tag this plan resolved as
    /// unmatchable, requiring recompilation.
    #[inline]
    pub fn is_current(&self, tags: &TagInterner) -> bool {
        self.tag_space == tags.len()
    }

    /// The compiled fragments, in [`QueryPlan::trees`] order.
    #[inline]
    pub fn fragments(&self) -> &[CompiledFragment] {
        &self.frags
    }

    /// Compiled fragment `i`.
    #[inline]
    pub fn fragment(&self, i: usize) -> &CompiledFragment {
        &self.frags[i]
    }
}

/// Executes one compiled fragment (ε-NoK): flat table lookups, no per-call
/// axis filtering, and word-mask page-skips.
pub struct CompiledMatcher<'a> {
    ctx: &'a MatchContext<'a>,
    frag: &'a CompiledFragment,
    /// Treat the fragment root as an output even if the plan didn't mark it
    /// (GB subtree-visibility semantics: every fragment root's binding is
    /// needed for the visibility filter). Sound without recompilation
    /// because a fragment root never appears in its own kin table, so its
    /// `carries_output` bit is never consulted.
    force_root_output: bool,
    /// Precomputed §3.3 skip mask, one bit per block
    /// ([`dol_core::EmbeddedDol::block_skip_mask`]); `None` disables
    /// page-skipping (unsecured evaluation or ablation).
    skip_mask: Option<&'a [u64]>,
    /// Block-granular snapshot cache for the tree walk: one
    /// [`StructStore::block_snapshot`](dol_storage::StructStore::block_snapshot)
    /// page access amortizes every node load and sibling step landing in
    /// the same block, instead of one page latch per visited node, while
    /// records decode lazily so sparse walks never pay for slots they skip.
    blk: BlockCache,
    /// Match counters.
    pub stats: MatchStats,
}

/// The matcher's current cached block; `first > end` means empty.
struct BlockCache {
    /// First document position in the cached block.
    first: u64,
    /// One past the last cached position.
    end: u64,
    /// The block's page failed a non-availability read under secure
    /// evaluation: every load in it answers fail-closed.
    failed: bool,
    /// The owned snapshot (`None` when `failed`).
    snap: Option<BlockSnapshot>,
}

impl BlockCache {
    fn empty() -> Self {
        Self {
            first: u64::MAX,
            end: 0,
            failed: false,
            snap: None,
        }
    }
}

/// Per-execution shared block-snapshot cache for the compiled pipeline's
/// **sequential** stages — leaf-candidate classification and the join's
/// ancestor-interval fetch. Every distinct block is latched and snapshotted
/// at most once per query, no matter how many fragments or join anchors land
/// in it (a `//a//a` twig probes each candidate block once, not once per
/// fragment plus once in the join). A block whose page fails a
/// non-availability read under secure evaluation is cached as failed, so
/// every later probe answers fail-closed without re-reading. Memory is one
/// page copy per distinct block touched, released when the execution ends.
pub struct SnapshotCache {
    slots: Vec<SnapState>,
}

enum SnapState {
    Missing,
    Failed,
    Present(BlockSnapshot),
}

impl SnapshotCache {
    /// An empty cache for a store with `block_count` blocks.
    pub fn new(block_count: usize) -> Self {
        let mut slots = Vec::with_capacity(block_count);
        slots.resize_with(block_count, || SnapState::Missing);
        Self { slots }
    }

    /// The snapshot of block `idx`, taken on first use. `Ok(None)` means the
    /// block failed a non-availability read while `fail_closed` was set —
    /// the caller must treat its nodes as inaccessible. With `fail_closed`
    /// unset, read errors propagate uncached. One execution runs under one
    /// security mode, so `fail_closed` is constant across an instance's
    /// lifetime.
    pub fn get(
        &mut self,
        store: &StructStore,
        idx: usize,
        fail_closed: bool,
    ) -> Result<Option<&BlockSnapshot>, StorageError> {
        if matches!(self.slots[idx], SnapState::Missing) {
            match store.block_snapshot(idx) {
                Ok(s) => self.slots[idx] = SnapState::Present(s),
                Err(e) if fail_closed && !is_availability(&e) => {
                    self.slots[idx] = SnapState::Failed;
                }
                Err(e) => return Err(e),
            }
        }
        match &self.slots[idx] {
            SnapState::Present(s) => Ok(Some(s)),
            SnapState::Failed => Ok(None),
            SnapState::Missing => unreachable!("slot filled or errored above"),
        }
    }
}

impl<'a> CompiledMatcher<'a> {
    /// Prepares a matcher for `frag` under `ctx`.
    pub fn new(
        ctx: &'a MatchContext<'a>,
        frag: &'a CompiledFragment,
        force_root_output: bool,
        skip_mask: Option<&'a [u64]>,
    ) -> Self {
        Self {
            ctx,
            frag,
            force_root_output,
            skip_mask,
            blk: BlockCache::empty(),
            stats: MatchStats::default(),
        }
    }

    #[inline]
    fn output(&self, p: PNodeId) -> bool {
        self.frag.nodes[p.index()].is_output || (self.force_root_output && p == self.frag.root)
    }

    /// Whether storage failures must be masked as inaccessibility. Secure
    /// evaluation (ε-NoK) may never answer with data it could not verify, so
    /// a corrupt or unreadable block simply hides its nodes — the answer can
    /// only shrink, never leak. Unsecured evaluation has nothing to protect
    /// and reports the error instead.
    #[inline]
    fn fail_closed(&self) -> bool {
        self.ctx.access.is_some()
    }

    #[inline]
    fn block_skipped(&self, block: usize) -> bool {
        match self.skip_mask {
            Some(mask) => mask
                .get(block >> 6)
                .is_some_and(|w| w & (1u64 << (block & 63)) != 0),
            None => false,
        }
    }

    /// The `(record, code)` at `pos` through the block cache: a miss
    /// snapshots the block with one page access; hits decode straight from
    /// the owned snapshot with no latch. Fail-closed on data faults (the
    /// failing block stays cached so every load in it answers `None` without
    /// re-reading); availability outcomes propagate.
    fn fetch(&mut self, pos: u64) -> Result<Option<(NodeRec, u32)>, StorageError> {
        if !(self.blk.first <= pos && pos < self.blk.end) {
            let store = self.ctx.store;
            let idx = store.block_of_pos(pos);
            let info = *store.block_info(idx);
            let (snap, failed) = match store.block_snapshot(idx) {
                Ok(snap) => (Some(snap), false),
                Err(e) if self.fail_closed() && !is_availability(&e) => (None, true),
                Err(e) => return Err(e),
            };
            self.blk = BlockCache {
                first: info.first_pos,
                end: info.first_pos + u64::from(info.count),
                failed,
                snap,
            };
        }
        if self.blk.failed {
            self.stats.blocks_failed_closed += 1;
            return Ok(None);
        }
        let snap = self
            .blk
            .snap
            .as_ref()
            .expect("snapshot present unless failed");
        let slot = (pos - self.blk.first) as usize;
        Ok(Some((snap.node(slot), snap.code(slot))))
    }

    /// Loads a node record and its piggy-backed code: fail-closed on data
    /// faults (`Ok(None)`, "treat as inaccessible"), availability outcomes
    /// propagate, deadline re-checked every `DEADLINE_CHECK_MASK + 1` visits.
    fn load_node(&mut self, pos: u64) -> Result<Option<(NodeRec, u32)>, StorageError> {
        if self.stats.nodes_visited & DEADLINE_CHECK_MASK == 0 {
            self.ctx.deadline.check()?;
        }
        self.fetch(pos)
    }

    /// FOLLOWING-SIBLING with the fail-closed policy: an unreadable next
    /// record truncates the sibling chain instead of aborting.
    fn next_sibling(&mut self, pos: u64, rec: &NodeRec) -> Result<Option<u64>, StorageError> {
        let next = pos + u64::from(rec.size);
        if next >= self.ctx.store.total_nodes() {
            return Ok(None);
        }
        // The sibling test only needs the next record's depth, served from
        // the block cache.
        match self.fetch(next)? {
            Some((nrec, _)) => Ok((nrec.depth == rec.depth).then_some(next)),
            None => Ok(None),
        }
    }

    /// Attempts to match the fragment with its root bound to `pos`.
    /// Returns the distinct output bindings (empty = no match). The
    /// candidate's own tag/value/accessibility are (re)checked here, after
    /// the §3.3 page-skip test on its block.
    pub fn match_root(&mut self, pos: u64) -> Result<Vec<Binding>, StorageError> {
        if !self.frag.satisfiable {
            return Ok(Vec::new());
        }
        if self.skip_mask.is_some() {
            let block = self.ctx.store.block_of_pos(pos);
            if self.block_skipped(block) {
                self.stats.candidates_block_skipped += 1;
                self.ctx.store.pool().note_page_skipped();
                return Ok(Vec::new());
            }
        }
        let Some((rec, code)) = self.load_node(pos)? else {
            return Ok(Vec::new());
        };
        self.stats.nodes_visited += 1;
        if !self.ctx.code_accessible(code) {
            self.stats.nodes_denied += 1;
            return Ok(Vec::new());
        }
        if !self.node_matches(self.frag.root, pos, &rec)? {
            return Ok(Vec::new());
        }
        self.enum_node(self.frag.root, pos, &rec)
    }

    /// Tag and value test of `pnode` against the data node at `pos`.
    fn node_matches(
        &mut self,
        pnode: PNodeId,
        pos: u64,
        rec: &NodeRec,
    ) -> Result<bool, StorageError> {
        let frag = self.frag;
        let n = &frag.nodes[pnode.index()];
        if let Some(t) = n.tag {
            if rec.tag != t {
                return Ok(false);
            }
        } else if n.unmatchable {
            return Ok(false);
        }
        if let Some(v) = &n.value {
            if !rec.has_value {
                return Ok(false);
            }
            let actual = match self.ctx.values.get(pos) {
                Ok(a) => a,
                Err(e) if self.fail_closed() && !is_availability(&e) => {
                    self.stats.blocks_failed_closed += 1;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            };
            match actual {
                Some(actual) if actual.as_str() == &**v => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Enumerates output bindings for `pnode` matched at `pos` (whose
    /// tag/value/access checks already passed): the data children are
    /// scanned once for the child-axis pattern children (Algorithm 1's
    /// repeat loop over FIRST-CHILD/FOLLOWING-SIBLING), the node's own
    /// following siblings for the sibling-axis ones, and the per-pattern-node
    /// binding sets are cross-multiplied onto the node's own binding. Kin
    /// ranges are slices of the flat table — no per-call filtering or
    /// allocation beyond the binding sets themselves.
    fn enum_node(
        &mut self,
        pnode: PNodeId,
        pos: u64,
        rec: &NodeRec,
    ) -> Result<Vec<Binding>, StorageError> {
        let frag = self.frag;
        let n = &frag.nodes[pnode.index()];
        let pchildren = &frag.kin[n.kin_start as usize..n.kin_mid as usize];
        let psiblings = &frag.kin[n.kin_mid as usize..n.kin_end as usize];
        let own: Binding = if self.output(pnode) {
            vec![(pnode, pos)]
        } else {
            Vec::new()
        };
        if pchildren.is_empty() && psiblings.is_empty() {
            return Ok(vec![own]);
        }
        let first = self.ctx.store.first_child_of(pos, rec);
        let child_results = self.scan_kin(pchildren, first)?;
        let next = self.next_sibling(pos, rec)?;
        let sib_results = self.scan_kin(psiblings, next)?;
        let (Some(child_results), Some(sib_results)) = (child_results, sib_results) else {
            return Ok(Vec::new());
        };
        let mut acc: Vec<Binding> = vec![own];
        for (&c, results) in pchildren
            .iter()
            .zip(&child_results)
            .chain(psiblings.iter().zip(&sib_results))
        {
            if !frag.nodes[c.index()].carries_output {
                continue;
            }
            let mut next = Vec::with_capacity(acc.len() * results.len());
            for base in &acc {
                for add in results {
                    let mut merged = base.clone();
                    merged.extend(add.iter().copied());
                    next.push(merged);
                }
            }
            acc = next;
        }
        for b in &mut acc {
            b.sort_unstable_by_key(|&(p, _)| p);
        }
        acc.sort_unstable();
        acc.dedup();
        Ok(acc)
    }

    /// Matches the pattern nodes `pats` against the data-node chain starting
    /// at `start` and linked by FOLLOWING-SIBLING, with per-node
    /// accessibility checks. Returns `None` if some pattern node found no
    /// witness, else one binding set per pattern node.
    fn scan_kin(
        &mut self,
        pats: &[PNodeId],
        start: Option<u64>,
    ) -> Result<Option<Vec<Vec<Binding>>>, StorageError> {
        let frag = self.frag;
        let mut results: Vec<Vec<Binding>> = vec![Vec::new(); pats.len()];
        if pats.is_empty() {
            return Ok(Some(results));
        }
        let mut satisfied: Vec<bool> = vec![false; pats.len()];
        let mut u = start;
        while let Some(upos) = u {
            // Fail-closed: an unreadable link truncates the kin chain — the
            // remaining siblings are unreachable, hence hidden.
            let Some((urec, ucode)) = self.load_node(upos)? else {
                break;
            };
            self.stats.nodes_visited += 1;
            if self.ctx.code_accessible(ucode) {
                for (i, &c) in pats.iter().enumerate() {
                    // Existential pattern nodes stop at the first witness.
                    if satisfied[i] && !frag.nodes[c.index()].carries_output {
                        continue;
                    }
                    if self.node_matches(c, upos, &urec)? {
                        let bs = self.enum_node(c, upos, &urec)?;
                        if !bs.is_empty() {
                            satisfied[i] = true;
                            results[i].extend(bs);
                        }
                    }
                }
            } else {
                self.stats.nodes_denied += 1;
            }
            // Early exit once everything is satisfied and no further scan
            // can add output bindings.
            if satisfied.iter().all(|&s| s)
                && pats.iter().all(|&c| !frag.nodes[c.index()].carries_output)
            {
                break;
            }
            u = self.next_sibling(upos, &urec)?;
        }
        if satisfied.iter().any(|&s| !s) {
            return Ok(None);
        }
        Ok(Some(results))
    }

    /// Leaf fast path: matches a **single-node** fragment against a sorted
    /// (document-order) candidate list in the compressed domain, block by
    /// block. For each block of candidates, in order:
    ///
    /// 1. the precomputed skip mask rejects fully-denied uniform blocks with
    ///    zero I/O;
    /// 2. a uniform block (`change` bit clear) is decided entirely from its
    ///    in-memory header: all-denied or — absent a value predicate —
    ///    all-matched, again zero I/O;
    /// 3. otherwise one [`StructStore::block_probe`] page scan yields
    ///    word-packed tag/value masks and the code runs, an
    ///    [`AccessBitmap`] classifies all slots with word ops, and only
    ///    survivors of `tag ∧ access` ever decode a value.
    ///
    /// Candidates come from the tag(+value) index, so their tag is already
    /// known to match; the probe's tag mask re-checks it anyway (defense in
    /// depth, and wildcards pass trivially). The deadline is checked before
    /// every page probe and every `DEADLINE_CHECK_MASK + 1` candidates;
    /// `nodes_visited` stays 0 on this path — no per-node record is ever
    /// materialized.
    ///
    /// # Panics
    /// Debug-asserts that the fragment is a leaf.
    pub fn match_leaf_candidates(
        &mut self,
        candidates: &[u64],
        snaps: &mut SnapshotCache,
    ) -> Result<Vec<Binding>, StorageError> {
        debug_assert!(self.frag.leaf, "leaf fast path on a non-leaf fragment");
        if !self.frag.satisfiable {
            return Ok(Vec::new());
        }
        let root = self.frag.root;
        let root_tag = self.frag.root_tag();
        let value: Option<&str> = self.frag.nodes[root.index()].value.as_deref();
        let emit = self.output(root);
        let secure = self.ctx.access.is_some();
        let store = self.ctx.store;
        let mut out: Vec<Binding> = Vec::new();
        let mut processed: u64 = 0;
        let mut i = 0usize;
        while i < candidates.len() {
            // Group the candidates sharing a block.
            let block = store.block_of_pos(candidates[i]);
            let info = *store.block_info(block);
            let block_end = info.first_pos + u64::from(info.count);
            let mut j = i + 1;
            while j < candidates.len() && candidates[j] < block_end {
                j += 1;
            }
            let group = &candidates[i..j];
            i = j;
            if processed & DEADLINE_CHECK_MASK == 0 {
                self.ctx.deadline.check()?;
            }
            processed += group.len() as u64;
            // (1) §3.3 skip from the precomputed mask — zero I/O.
            if self.block_skipped(block) {
                self.stats.candidates_block_skipped += group.len() as u64;
                for _ in group {
                    store.pool().note_page_skipped();
                }
                continue;
            }
            // (2) Uniform block: the header decides accessibility for every
            // slot — zero I/O unless a value must be read.
            if secure && !info.change {
                if !self.ctx.code_accessible(info.first_code) {
                    self.stats.nodes_denied += group.len() as u64;
                    continue;
                }
                if value.is_none() {
                    if emit {
                        out.extend(group.iter().map(|&pos| vec![(root, pos)]));
                    } else {
                        out.extend(group.iter().map(|_| Binding::new()));
                    }
                    continue;
                }
            } else if !secure && value.is_none() {
                // Unsecured, no predicate: index candidates are the answer.
                if emit {
                    out.extend(group.iter().map(|&pos| vec![(root, pos)]));
                } else {
                    out.extend(group.iter().map(|_| Binding::new()));
                }
                continue;
            }
            // (3a) Secure changing block, no value predicate: the code runs
            // alone decide — the shared snapshot (one latch per block per
            // execution) answers each candidate's code; the tag is already
            // proven by the index, exactly as paths (2)/(2b) trust it.
            if value.is_none() {
                debug_assert!(secure && info.change, "handled by (2)/(2b) otherwise");
                self.ctx.deadline.check()?;
                let Some(snap) = snaps.get(store, block, true)? else {
                    self.stats.blocks_failed_closed += group.len() as u64;
                    continue;
                };
                for &pos in group {
                    let slot = (pos - info.first_pos) as usize;
                    if self.ctx.code_accessible(snap.code(slot)) {
                        out.push(if emit {
                            vec![(root, pos)]
                        } else {
                            Binding::new()
                        });
                    } else {
                        self.stats.nodes_denied += 1;
                    }
                }
                continue;
            }
            // (3b) Value predicate: full compressed-domain probe — one page
            // access producing word-packed tag/value masks and the runs.
            self.ctx.deadline.check()?;
            let probe = match store.block_probe(block, root_tag) {
                Ok(p) => p,
                Err(e) if secure && !is_availability(&e) => {
                    self.stats.blocks_failed_closed += group.len() as u64;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let access: Option<AccessBitmap> = match (&self.ctx.column, secure) {
                (Some(col), _) => {
                    let count = u64::from(probe.count);
                    let runs = probe.runs.iter().enumerate().map(|(k, &(slot, code))| {
                        let end = probe
                            .runs
                            .get(k + 1)
                            .map_or(count, |&(next, _)| u64::from(next));
                        (u64::from(slot), end, code)
                    });
                    Some(AccessBitmap::from_runs(count, runs, col))
                }
                (None, true) => None, // fall back to per-code checks below
                (None, false) => None,
            };
            for &pos in group {
                let slot = (pos - probe.first_pos) as usize;
                let bit = 1u64 << (slot & 63);
                let accessible = match (&access, secure) {
                    (Some(a), _) => a.word(slot >> 6) & bit != 0,
                    (None, true) => {
                        // No decoded column (engine always supplies one;
                        // kept for direct API use): walk the runs.
                        // runs[0] is always (0, first_code), so last() hits.
                        let code = probe
                            .runs
                            .iter()
                            .take_while(|&&(s, _)| u64::from(s) <= slot as u64)
                            .last()
                            .map_or(0, |&(_, c)| c);
                        self.ctx.code_accessible(code)
                    }
                    (None, false) => true,
                };
                if secure && !accessible {
                    self.stats.nodes_denied += 1;
                    continue;
                }
                if probe.tag_mask[slot >> 6] & bit == 0 {
                    continue;
                }
                if let Some(v) = value {
                    if probe.value_mask[slot >> 6] & bit == 0 {
                        continue;
                    }
                    let actual = match self.ctx.values.get(pos) {
                        Ok(a) => a,
                        Err(e) if secure && !is_availability(&e) => {
                            self.stats.blocks_failed_closed += 1;
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    match actual {
                        Some(actual) if actual == v => {}
                        _ => continue,
                    }
                }
                out.push(if emit {
                    vec![(root, pos)]
                } else {
                    Binding::new()
                });
            }
        }
        // Candidates arrive strictly ascending and blocks are processed in
        // order, so the bindings are already sorted — dedup alone suffices
        // (it collapses the all-empty bindings of a non-output fragment).
        debug_assert!(out.windows(2).all(|w| w[0] <= w[1]), "leaf output sorted");
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{naive_eval_str, RefSecurity};
    use crate::xpath::parse_query;
    use dol_acl::{AccessibilityMap, FnOracle, SubjectId};
    use dol_core::EmbeddedDol;
    use dol_storage::{BufferPool, MemDisk, StoreConfig, StructStore, ValueStore};
    use dol_xml::{parse, Document, NodeId};
    use std::sync::Arc;

    struct Fixture {
        store: StructStore,
        values: ValueStore,
        doc: Document,
        dol: EmbeddedDol,
    }

    fn fixture(xml: &str, map: Option<&AccessibilityMap>, max_rec: usize) -> Fixture {
        let doc = parse(xml).unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
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
        Fixture {
            store,
            values,
            doc,
            dol,
        }
    }

    fn ctx<'a>(f: &'a Fixture, secure: Option<SubjectId>) -> MatchContext<'a> {
        MatchContext::new(&f.store, &f.values, secure.map(|s| (&f.dol, s)))
    }

    /// Matches a single-fragment query from every candidate position (only
    /// the document root when anchored), projects the bindings on the
    /// returning node, asserts that answer equals the reference evaluator's
    /// over the same document and map, and returns it.
    fn assert_agree(
        f: &Fixture,
        map: Option<&AccessibilityMap>,
        query: &str,
        secure: Option<SubjectId>,
    ) -> Vec<u64> {
        let plan = QueryPlan::new(parse_query(query).unwrap());
        assert_eq!(plan.trees.len(), 1, "{query}: one NoK fragment expected");
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(f, secure);
        let mask = c
            .column
            .as_ref()
            .map(|col| f.dol.block_skip_mask(&f.store, col));
        let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false, mask.as_deref());
        let candidates: Vec<u64> = if plan.pattern.anchored() {
            vec![0]
        } else {
            (0..f.store.total_nodes()).collect()
        };
        let returning = plan.pattern.returning();
        let mut got = Vec::new();
        for cand in candidates {
            for b in m.match_root(cand).unwrap() {
                got.extend(b.iter().filter(|&&(p, _)| p == returning).map(|&(_, d)| d));
            }
        }
        got.sort_unstable();
        got.dedup();
        let sec = match secure {
            Some(s) => RefSecurity::Binding(map.expect("secure check needs the map"), s),
            None => RefSecurity::None,
        };
        let want = naive_eval_str(&f.doc, query, sec);
        assert_eq!(got, want, "query {query} secure {secure:?}");
        got
    }

    const FIG2: &str = "<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>";
    // positions: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 l=11

    #[test]
    fn compiled_matches_reference_on_figure_2() {
        let f = fixture(FIG2, None, 300);
        for (q, want) in [
            ("/a[b][c]", vec![0]),
            ("//h[j][k]/l", vec![11]),
            ("/a/*", vec![1, 2, 3, 4]),
            // A missing branch fails the whole fragment.
            ("//h[j][k]/m", vec![]),
            ("/a[b][zz]", vec![]),
            // A tag absent from the document short-circuits.
            ("//nosuch", vec![]),
        ] {
            assert_eq!(assert_agree(&f, None, q, None), want, "{q}");
        }
        // Every binding of a multi-match fragment is enumerated.
        let f = fixture("<r><x><n/></x><x><n/><n/></x></r>", None, 300);
        assert_eq!(assert_agree(&f, None, "//x/n", None), vec![2, 4, 5]);
    }

    #[test]
    fn compiled_matches_reference_secure() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(3, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(9), false); // deny j
        for p in 7..12 {
            map.set(SubjectId(1), NodeId(p), true); // subject 1 sees only h's subtree
        }
        map.set(SubjectId(2), NodeId(0), true); // subject 2 sees only the root
        for max_rec in [300, 3, 2] {
            let f = fixture(FIG2, Some(&map), max_rec);
            for s in [
                None,
                Some(SubjectId(0)),
                Some(SubjectId(1)),
                Some(SubjectId(2)),
            ] {
                for q in ["//h[j][k]/l", "//h[k]/l", "/a[b][c]", "//h/*", "//h", "/a"] {
                    assert_agree(&f, Some(&map), q, s);
                }
            }
            // A denied bound node prunes the match; unbound nodes and
            // unsecured evaluation are unaffected.
            let s0 = Some(SubjectId(0));
            assert!(assert_agree(&f, Some(&map), "//h[j][k]/l", s0).is_empty());
            assert_eq!(assert_agree(&f, Some(&map), "//h[k]/l", s0), vec![11]);
            assert_eq!(assert_agree(&f, Some(&map), "//h[j][k]/l", None), vec![11]);
            // A denied candidate root fails fast.
            let s2 = Some(SubjectId(2));
            assert!(assert_agree(&f, Some(&map), "//h", s2).is_empty());
            assert_eq!(assert_agree(&f, Some(&map), "/a", s2), vec![0]);
        }
    }

    #[test]
    fn compiled_values_checked() {
        let f = fixture(
            "<r><item><name>gold</name></item><item><name>salt</name></item></r>",
            None,
            300,
        );
        assert_eq!(
            assert_agree(&f, None, "//item[name=\"gold\"]", None),
            vec![1]
        );
    }

    #[test]
    fn leaf_fast_path_matches_document() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in [0u32, 4, 7, 8, 9, 10, 11] {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for max_rec in [300, 3, 2] {
            let f = fixture(FIG2, Some(&map), max_rec);
            let plan = QueryPlan::new(parse_query("//h//j").unwrap());
            let compiled = CompiledPlan::compile(&plan, f.doc.tags());
            for secure in [None, Some(SubjectId(0))] {
                let c = ctx(&f, secure);
                let mask = c
                    .column
                    .as_ref()
                    .map(|col| f.dol.block_skip_mask(&f.store, col));
                for ti in 0..plan.trees.len() {
                    let frag = compiled.fragment(ti);
                    assert!(frag.is_leaf());
                    let root = frag.root();
                    assert!(frag.node(root).is_output, "join anchor or returning node");
                    // The reference, straight from the document and map:
                    // every node with the fragment's tag that the subject
                    // may read.
                    let name = plan.pattern.node(root).tag.as_deref().unwrap();
                    let tagged: Vec<u64> = f
                        .doc
                        .preorder()
                        .filter(|&d| f.doc.name_of(d) == name)
                        .map(|d| u64::from(d.0))
                        .collect();
                    let want: Vec<Binding> = tagged
                        .iter()
                        .filter(|&&p| match secure {
                            Some(s) => map.accessible(s, NodeId(p as u32)),
                            None => true,
                        })
                        .map(|&p| vec![(root, p)])
                        .collect();
                    let mut cm = CompiledMatcher::new(&c, frag, false, mask.as_deref());
                    let mut snaps = SnapshotCache::new(f.store.block_count());
                    let got = cm.match_leaf_candidates(&tagged, &mut snaps).unwrap();
                    assert_eq!(got, want, "fragment {ti} secure={secure:?}");
                    assert_eq!(cm.stats.nodes_visited, 0, "compressed domain only");
                }
            }
        }
    }

    #[test]
    fn leaf_fast_path_value_predicate() {
        let f = fixture(
            "<r><item><name>gold</name></item><item><name>salt</name></item></r>",
            None,
            2,
        );
        let mut pt = crate::pattern::PatternTree::new(Some("name"), false);
        pt.set_value(crate::pattern::PNodeId(0), "gold");
        let plan = QueryPlan::new(pt);
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(&f, None);
        let frag = compiled.fragment(0);
        let tagged: Vec<u64> = (0..f.store.total_nodes())
            .filter(|&p| Some(f.store.node(p).unwrap().tag) == frag.root_tag())
            .collect();
        let mut cm = CompiledMatcher::new(&c, frag, false, None);
        let mut snaps = SnapshotCache::new(f.store.block_count());
        let got = cm.match_leaf_candidates(&tagged, &mut snaps).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], vec![(PNodeId(0), 2)]);
    }

    #[test]
    fn block_skip_counts() {
        // Deny everything: with tiny blocks every candidate is rejected from
        // the precomputed skip mask, on both the tree walk and the leaf fast
        // path, without touching a page.
        let doc = parse(FIG2).unwrap();
        let map = AccessibilityMap::new(1, doc.len());
        let f = fixture(FIG2, Some(&map), 2);
        let plan = QueryPlan::new(parse_query("//h").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(&f, Some(SubjectId(0)));
        let mask = f.dol.block_skip_mask(&f.store, c.column.as_ref().unwrap());
        let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false, Some(&mask));
        f.store.pool().reset_stats();
        assert!(m.match_root(7).unwrap().is_empty());
        assert_eq!(m.stats.candidates_block_skipped, 1);
        assert_eq!(f.store.pool().stats().logical_reads, 0, "no page touched");
        assert_eq!(f.store.pool().stats().pages_skipped, 1, "skip counted");
        let mut snaps = SnapshotCache::new(f.store.block_count());
        assert!(m
            .match_leaf_candidates(&[7], &mut snaps)
            .unwrap()
            .is_empty());
        assert_eq!(m.stats.candidates_block_skipped, 2);
        assert_eq!(f.store.pool().stats().logical_reads, 0, "no page touched");
    }

    #[test]
    fn expired_deadline_is_never_masked_by_fail_closed() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let f = fixture(FIG2, Some(&map), 300);
        let plan = QueryPlan::new(parse_query("//h[j][k]/l").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let expired = Deadline::after(std::time::Duration::ZERO);
        let cancelled = Deadline::never();
        cancelled.token().cancel();
        // Secure mode would normally mask storage errors; an expired or
        // cancelled deadline must abort the match instead of shrinking the
        // answer.
        for deadline in [expired, cancelled] {
            let mut c = ctx(&f, Some(SubjectId(0)));
            c.deadline = deadline;
            let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false, None);
            assert!(matches!(
                m.match_root(7),
                Err(StorageError::DeadlineExceeded)
            ));
            assert_eq!(m.stats.blocks_failed_closed, 0, "not a data fault");
        }
    }

    #[test]
    fn stale_plan_detected_by_tag_fence() {
        let f = fixture(FIG2, None, 300);
        let plan = QueryPlan::new(parse_query("//h").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        assert!(compiled.is_current(f.doc.tags()));
        let mut grown = f.doc.tags().clone();
        grown.intern("brand-new-tag");
        assert!(!compiled.is_current(&grown));
    }

    #[test]
    fn force_root_output_adds_root_binding() {
        let f = fixture(FIG2, None, 300);
        let plan = QueryPlan::new(parse_query("//h/l").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(&f, None);
        let mut plain = CompiledMatcher::new(&c, compiled.fragment(0), false, None);
        let mut forced = CompiledMatcher::new(&c, compiled.fragment(0), true, None);
        let a = plain.match_root(7).unwrap();
        let b = forced.match_root(7).unwrap();
        assert_eq!(a, vec![vec![(PNodeId(1), 11)]]);
        assert_eq!(b, vec![vec![(PNodeId(0), 7), (PNodeId(1), 11)]]);
    }
}
