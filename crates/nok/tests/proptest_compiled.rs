//! Differential property tests for compiled twig execution: the engine's
//! answer must equal the naive reference evaluator's
//! ([`dol_nok::reference::naive_eval`], computed straight from the
//! in-memory document and accessibility map) over random documents, random
//! twig patterns, random two-subject accessibility matrices, all three
//! security semantics, both page-skip settings, and block sizes that force
//! multi-block layouts.
//!
//! Deadline behavior is part of the contract: at any injected abort point
//! the engine must return either the full correct answer or a typed
//! [`QueryError::DeadlineExceeded`] — never a partial or shrunken answer.
//! (The leaf fast path can answer some fragments with zero node loads, so
//! an expired deadline does not always fire.)

use dol_acl::{AccessibilityMap, SubjectId};
use dol_core::EmbeddedDol;
use dol_nok::reference::{naive_eval, RefSecurity};
use dol_nok::{Axis, ExecOptions, PatternTree, QueryEngine, QueryError, QueryPlan, Security};
use dol_storage::{BufferPool, Deadline, MemDisk, StoreConfig, StructStore, ValueStore};
use dol_xml::{Document, DocumentBuilder, NodeId};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const VALUES: [&str; 2] = ["x", "y"];

fn arb_doc() -> impl Strategy<Value = Document> {
    proptest::collection::vec((0usize..4, 0u8..4, proptest::option::of(0usize..2)), 1..60).prop_map(
        |raw| {
            let mut b = DocumentBuilder::new();
            b.open(TAGS[0]);
            let mut depth = 1;
            for (tag, action, value) in raw {
                match action {
                    0 if depth < 6 => {
                        b.open(TAGS[tag]);
                        depth += 1;
                    }
                    1 | 2 => {
                        b.leaf(TAGS[tag], value.map(|v| VALUES[v]));
                    }
                    _ => {
                        if depth > 1 {
                            b.close();
                            depth -= 1;
                        }
                    }
                }
            }
            while depth > 0 {
                b.close();
                depth -= 1;
            }
            b.finish().unwrap()
        },
    )
}

fn arb_pattern() -> impl Strategy<Value = PatternTree> {
    (
        proptest::option::of(0usize..4),
        any::<bool>(),
        proptest::collection::vec(
            (
                0usize..6,
                proptest::option::of(0usize..4),
                0u8..3,
                proptest::option::of(0usize..2),
            ),
            0..5,
        ),
        0usize..6,
    )
        .prop_map(|(root_tag, anchored, children, ret)| {
            let mut p = PatternTree::new(root_tag.map(|t| TAGS[t]), anchored);
            for (parent, tag, axis_pick, value) in children {
                let parent = dol_nok::PNodeId((parent % p.len()) as u32);
                let axis = match axis_pick {
                    0 => Axis::Child,
                    1 => Axis::Descendant,
                    _ => Axis::FollowingSibling,
                };
                let id = p.add_child(parent, axis, tag.map(|t| TAGS[t]));
                if let Some(v) = value {
                    p.set_value(id, VALUES[v]);
                }
            }
            let ret = dol_nok::PNodeId((ret % p.len()) as u32);
            p.set_returning(ret);
            p
        })
}

struct Fixture {
    store: StructStore,
    values: ValueStore,
    dol: EmbeddedDol,
    doc: Document,
}

fn build(doc: Document, map: &AccessibilityMap, max_rec: usize) -> Fixture {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
    let (store, dol) = EmbeddedDol::build(
        pool.clone(),
        StoreConfig {
            max_records_per_block: max_rec,
        },
        &doc,
        map,
    )
    .unwrap();
    let mut values = ValueStore::new(pool);
    for id in doc.preorder() {
        if let Some(v) = &doc.node(id).value {
            values.put(u64::from(id.0), v).unwrap();
        }
    }
    Fixture {
        store,
        values,
        dol,
        doc,
    }
}

fn map_from_bits(bits: &[bool], n: usize) -> AccessibilityMap {
    let mut map = AccessibilityMap::new(2, n);
    for (i, bit) in bits.iter().enumerate() {
        if *bit {
            map.set(
                SubjectId((i / n.max(1) % 2) as u32),
                NodeId((i % n.max(1)) as u32),
                true,
            );
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The core differential property: engine ≡ reference on the answer,
    /// for every security mode × page-skip setting × block size.
    #[test]
    fn compiled_execution_matches_reference(
        doc in arb_doc(),
        pattern in arb_pattern(),
        bits in proptest::collection::vec(any::<bool>(), 0..120),
        max_rec in prop_oneof![Just(4usize), Just(300usize)],
        page_skip in any::<bool>(),
    ) {
        let map = map_from_bits(&bits, doc.len());
        let f = build(doc, &map, max_rec);
        let engine = QueryEngine::new(&f.store, &f.values, f.doc.tags(), Some(&f.dol)).unwrap();
        let plan = QueryPlan::new(pattern.clone());
        for (sec, reference) in [
            (Security::None, RefSecurity::None),
            (Security::BindingLevel(SubjectId(0)), RefSecurity::Binding(&map, SubjectId(0))),
            (Security::BindingLevel(SubjectId(1)), RefSecurity::Binding(&map, SubjectId(1))),
            (Security::SubtreeVisibility(SubjectId(0)), RefSecurity::Subtree(&map, SubjectId(0))),
            (Security::SubtreeVisibility(SubjectId(1)), RefSecurity::Subtree(&map, SubjectId(1))),
        ] {
            let got = engine
                .execute_plan_opts(&plan, sec, ExecOptions { page_skip, ..ExecOptions::default() })
                .unwrap();
            let want = naive_eval(&f.doc, &pattern, reference);
            prop_assert_eq!(
                &got.matches,
                &want,
                "query {} sec {:?} page_skip {}",
                pattern.to_query_string(),
                sec,
                page_skip
            );
        }
    }

    /// Deadline contract inside the compiled loop: at every injected abort
    /// point the result is either the full correct answer or a typed
    /// `DeadlineExceeded` with partial stats and no data fault — never a
    /// partial answer. Cancellation tokens behave identically.
    #[test]
    fn compiled_deadline_aborts_are_typed_and_never_partial(
        doc in arb_doc(),
        pattern in arb_pattern(),
        bits in proptest::collection::vec(any::<bool>(), 0..120),
        cancel in any::<bool>(),
    ) {
        let map = map_from_bits(&bits, doc.len());
        let f = build(doc, &map, 4);
        let engine = QueryEngine::new(&f.store, &f.values, f.doc.tags(), Some(&f.dol)).unwrap();
        let plan = QueryPlan::new(pattern.clone());
        for sec in [
            Security::None,
            Security::BindingLevel(SubjectId(0)),
            Security::SubtreeVisibility(SubjectId(1)),
        ] {
            // The full answer, no deadline.
            let full = engine
                .execute_plan_opts(&plan, sec, ExecOptions::default())
                .unwrap()
                .matches;
            // An abort point that fires at the first check.
            let deadline = if cancel {
                let d = Deadline::never();
                d.token().cancel();
                d
            } else {
                Deadline::after(Duration::ZERO)
            };
            let opts = ExecOptions { deadline, ..ExecOptions::default() };
            match engine.execute_plan_opts(&plan, sec, opts) {
                // Zero-I/O fast paths may legitimately complete even with an
                // expired deadline — but then the answer must be the full one.
                Ok(r) => prop_assert_eq!(
                    &r.matches, &full,
                    "query {} sec {:?}: completed answer must be full",
                    pattern.to_query_string(), sec
                ),
                Err(QueryError::DeadlineExceeded(stats)) => {
                    prop_assert_eq!(
                        stats.blocks_failed_closed, 0,
                        "deadline is availability, not a data fault"
                    );
                }
                Err(other) => prop_assert!(
                    false,
                    "query {} sec {:?}: unexpected error {:?}",
                    pattern.to_query_string(), sec, other
                ),
            }
        }
    }
}
