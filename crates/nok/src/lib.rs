#![warn(missing_docs)]
// Query evaluation sits on the fail-closed boundary: production code must
// propagate typed errors, never unwrap them. Tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! The NoK twig query processor with secure evaluation (paper §3.1, §4).
//!
//! A **twig query** is a small pattern tree whose nodes carry tag (and
//! optionally value) constraints and whose edges are parent/child (`/`) or
//! ancestor/descendant (`//`) relationships; one pattern node is the
//! *returning node*. Evaluation finds all bindings of pattern nodes to data
//! nodes and returns the data nodes bound to the returning node.
//!
//! Pipeline:
//!
//! 1. [`xpath`] parses query strings such as
//!    `/site/regions/africa/item[location][name][quantity]` into a
//!    [`PatternTree`].
//! 2. [`plan`] partitions the pattern tree into **NoK subtrees** — maximal
//!    fragments connected only by parent/child ("next-of-kin") edges — linked
//!    by ancestor–descendant join edges.
//! 3. [`compiled`] lowers each NoK subtree once into a flat automaton, and its
//!    [`CompiledMatcher`] finds the subtree's matches by top-down navigation
//!    over the [`dol_storage::StructStore`] (Algorithm 1, ε-NoK): candidate
//!    roots are seeded from a tag B+-tree index, and in secure mode every
//!    visited node's accessibility is checked from the code piggy-backed on
//!    its own page, with whole blocks skipped via the in-memory header test.
//! 4. [`join`] combines subtree matches with a Stack-Tree-Desc structural
//!    join; the subtree-visibility variant (ε-STD) implements the stricter
//!    Gabillon–Bruno semantics in which an inaccessible node hides its whole
//!    subtree.
//! 5. [`engine`] ties it together and reports per-query execution statistics
//!    (visited nodes, skipped blocks, buffer-pool I/O) used by the
//!    experiments.
//!
//! Two secure semantics are provided (paper §4 and §4.2):
//!
//! * [`Security::BindingLevel`] — Cho et al.: a result is eliminated iff one
//!   of its *bound* nodes is inaccessible (Theorem 1: ε-NoK plus any
//!   non-secured structural join evaluates this securely);
//! * [`Security::SubtreeVisibility`] — Gabillon–Bruno: additionally every
//!   ancestor of every bound node must be accessible.

pub mod cache;
pub mod compiled;
pub mod engine;
pub mod join;
pub mod pattern;
pub mod plan;
pub mod reference;
pub mod xpath;

pub use cache::{fnv1a, LruCache, PlanCache};
pub use compiled::{CompiledFragment, CompiledMatcher, CompiledPlan};
pub use engine::{
    build_tag_index, build_value_index, ExecOptions, ExecStats, QueryEngine, QueryError,
    QueryResult, Security,
};
pub use pattern::{Axis, PNodeId, PatternNode, PatternTree};
pub use plan::{JoinEdge, NokTree, QueryPlan};
pub use xpath::{parse_query, QueryParseError, MAX_PATTERN_NODES};
