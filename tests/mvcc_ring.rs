//! MVCC epoch ring end-to-end: writers never evict readers.
//!
//! The contract (DESIGN.md §14): with `epoch_retain: N` (`N = 0`
//! included), a [`DbReader`] pinned to any of the last `N + 1` committed
//! epochs answers **exactly**
//! the sequential oracle of its own epoch, forever — concurrent solo
//! commits, group-commit batches and codebook bumps notwithstanding. A
//! reader that falls below the retention floor gets the typed
//! [`DbError::RetentionExceeded`] — never a wrong, torn, or mixed-epoch
//! answer. Recovery raises the ring barrier: every pre-recovery reader is
//! refused instead of trusting bytes recovery may have rewritten.
//!
//! The proptest drives random interleavings of reader pin/release, queries,
//! solo updates, multi-member batches (with failing members), codebook
//! bumps and (no-op) recovery against a model that keeps one full query
//! oracle per epoch plus the predicted retention floor.

use secure_xml::acl::{AccessibilityMap, SubjectId};
use secure_xml::xml::NodeId;
use secure_xml::{DbConfig, DbError, SecureXmlDb, Security, UpdateFn};
use std::collections::HashMap;

const SUITE: [&str; 3] = ["//b/c", "//d/e", "//d//keyword"];
const XML: &str = "<a><b><c>v1</c></b><d><e>v2</e><f/><parlist><listitem><keyword>k\
                   </keyword></listitem></parlist></d></a>";
const RETAIN: usize = 3;

fn modes() -> Vec<Security> {
    vec![
        Security::None,
        Security::BindingLevel(SubjectId(0)),
        Security::BindingLevel(SubjectId(1)),
        Security::SubtreeVisibility(SubjectId(1)),
    ]
}

fn build(retain: usize) -> SecureXmlDb {
    let doc = secure_xml::xml::parse(XML).unwrap();
    let nodes = doc.len();
    let mut map = AccessibilityMap::new(2, nodes);
    for p in 0..nodes as u32 {
        map.set(SubjectId(0), NodeId(p), true);
        map.set(SubjectId(1), NodeId(p), p % 3 != 0 || p == 0);
    }
    let cfg = DbConfig {
        epoch_retain: retain,
        ..DbConfig::default()
    };
    SecureXmlDb::with_config(doc, &map, cfg).unwrap()
}

/// Sequential answers of the whole suite at the database's current state,
/// through the uncached handle path.
fn suite_oracle(db: &SecureXmlDb) -> HashMap<(usize, usize), Vec<u64>> {
    let mut out = HashMap::new();
    for (qi, q) in SUITE.iter().enumerate() {
        for (mi, sec) in modes().iter().enumerate() {
            out.insert((qi, mi), db.query(q, *sec).unwrap().matches);
        }
    }
    out
}

#[test]
fn run_batch_commits_members_atomically_in_one_epoch() {
    let mut db = build(RETAIN);
    let pinned = db.reader();
    let oracle0 = suite_oracle(&db);
    assert_eq!(db.epoch(), 0);

    // Four members: a grant, a revoke, one that dirties pages and THEN
    // fails (proving savepoint rollback unwinds its partial work), and a
    // subtree revoke. Subject 1 starts with access everywhere except
    // nodes 3 and 6 (`p % 3 == 0`).
    let members: Vec<UpdateFn> = vec![
        Box::new(|d: &mut SecureXmlDb| d.set_node_access(3, SubjectId(1), true)),
        Box::new(|d: &mut SecureXmlDb| d.set_node_access(2, SubjectId(1), false)),
        Box::new(|d: &mut SecureXmlDb| {
            d.set_node_access(6, SubjectId(1), true)?;
            d.set_node_access(77_777, SubjectId(1), true)
        }),
        Box::new(|d: &mut SecureXmlDb| d.set_subtree_access(7, SubjectId(1), false)),
    ];
    let results = db.run_batch(&members).unwrap();
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert!(results[1].is_ok());
    assert!(matches!(results[2], Err(DbError::InvalidNode(77_777))));
    assert!(results[3].is_ok());

    // One epoch for the whole batch.
    assert_eq!(db.epoch(), 1);
    let r = db.reader();
    // Peers landed ...
    assert!(r.accessible(3, SubjectId(1)).unwrap());
    assert!(!r.accessible(2, SubjectId(1)).unwrap());
    assert!(!r.accessible(7, SubjectId(1)).unwrap());
    assert!(!r.accessible(8, SubjectId(1)).unwrap());
    // ... the failed member's partial grant did not.
    assert!(
        !r.accessible(6, SubjectId(1)).unwrap(),
        "member 2's pre-failure work must be rolled back with it"
    );
    // The pre-batch reader still answers epoch-0 truth, query by query.
    for (qi, q) in SUITE.iter().enumerate() {
        for (mi, sec) in modes().iter().enumerate() {
            assert_eq!(
                pinned.query(q, *sec).unwrap().matches,
                oracle0[&(qi, mi)],
                "pinned reader diverged on {q}"
            );
        }
    }
}

#[test]
fn empty_and_all_failing_batches_still_advance_one_epoch() {
    let mut db = build(RETAIN);
    assert!(db.run_batch(&[]).unwrap().is_empty());
    assert_eq!(db.epoch(), 0, "an empty batch commits nothing");
    let members: Vec<UpdateFn> = vec![
        Box::new(|d: &mut SecureXmlDb| d.set_node_access(88_888, SubjectId(1), true)),
        Box::new(|d: &mut SecureXmlDb| d.set_node_access(99_999, SubjectId(1), true)),
    ];
    let results = db.run_batch(&members).unwrap();
    assert!(results.iter().all(|r| r.is_err()));
    assert_eq!(
        db.epoch(),
        1,
        "the batch itself committed (vacuously) — one epoch, uniform floor tracking"
    );
    assert!(!db.is_poisoned());
}

#[test]
fn recovery_raises_the_ring_barrier_and_refuses_old_pins() {
    use secure_xml::storage::{FaultConfig, FaultDisk, MemDisk};
    use std::sync::Arc;

    let doc = secure_xml::xml::parse(XML).unwrap();
    let nodes = doc.len();
    let mut map = AccessibilityMap::new(2, nodes);
    for p in 0..nodes as u32 {
        map.set(SubjectId(0), NodeId(p), true);
        map.set(SubjectId(1), NodeId(p), true);
    }
    let fault = Arc::new(FaultDisk::new(
        Arc::new(MemDisk::new()),
        FaultConfig {
            seed: 7,
            permanent_read_failure: 1.0,
            ..FaultConfig::default()
        },
    ));
    fault.set_armed(false);
    let mut db = SecureXmlDb::with_config_on(
        fault.clone(),
        doc,
        &map,
        DbConfig {
            epoch_retain: RETAIN,
            ..DbConfig::default()
        },
    )
    .unwrap();
    db.set_node_access(2, SubjectId(1), false).unwrap();
    let pinned = db.reader();
    assert_eq!(pinned.epoch(), 1);

    // Poison: every read fails, so the next real update dies mid-flight.
    db.store().pool().flush_all().unwrap();
    fault.set_armed(true);
    db.store().pool().clear_cache().unwrap();
    assert!(db.set_node_access(3, SubjectId(1), false).is_err());
    assert!(db.is_poisoned());

    // In-process recovery must land on a whole epoch AND raise the ring
    // barrier: the pre-recovery pin is refused, not served rewritten bytes.
    fault.set_armed(false);
    db.store().pool().clear_cache().unwrap();
    db.recover().unwrap();
    assert!(!db.is_poisoned());
    assert_eq!(db.retention_floor(), db.epoch());
    match pinned.query("//b/c", Security::BindingLevel(SubjectId(1))) {
        Err(DbError::RetentionExceeded { seen: 1, .. }) => {}
        other => panic!("expected RetentionExceeded after recovery, got {other:?}"),
    }
    // A fresh reader serves the recovered (pre-failed-update) state.
    let fresh = db.reader();
    assert!(!fresh.accessible(2, SubjectId(1)).unwrap());
    assert!(
        fresh.accessible(3, SubjectId(1)).unwrap(),
        "the failed update must have fully rolled back"
    );
}

// ---------------------------------------------------------------------
// Proptest: interleavings against one oracle per epoch + a floor model
// ---------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Step {
        /// Pin a new reader at the current epoch.
        Pin,
        /// Drop a pinned reader.
        Release(u8),
        /// Query through a pinned reader (reader, query, mode).
        Query(u8, u8, u8),
        /// Solo commit: single-node access flip.
        SetNode(u16, bool, bool),
        /// Solo commit: subtree access flip.
        SetSubtree(u16, bool, bool),
        /// Group-commit batch: members are (pos seed, must_fail).
        Batch(Vec<(u16, bool)>),
        /// Codebook-only commit.
        AddSubject,
        /// No-op recovery on a healthy handle.
        Recover,
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            prop_oneof![
                3 => Just(Step::Pin),
                1 => any::<u8>().prop_map(Step::Release),
                6 => (any::<u8>(), any::<u8>(), any::<u8>())
                    .prop_map(|(r, q, m)| Step::Query(r, q, m)),
                3 => (any::<u16>(), any::<bool>(), any::<bool>())
                    .prop_map(|(p, s, a)| Step::SetNode(p, s, a)),
                2 => (any::<u16>(), any::<bool>(), any::<bool>())
                    .prop_map(|(p, s, a)| Step::SetSubtree(p, s, a)),
                3 => proptest::collection::vec((any::<u16>(), any::<bool>()), 1..5)
                    .prop_map(Step::Batch),
                1 => Just(Step::AddSubject),
                1 => Just(Step::Recover),
            ],
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn every_pinned_reader_answers_its_own_epoch_or_fails_typed(steps in arb_steps()) {
            // Retain 0 is the degenerate window: every commit retires the
            // epoch it overtakes.
            for retain in [0, RETAIN] {
                let mut db = build(retain);
                let len = db.len() as u64;
                let all_modes = modes();
                // The model: one full oracle per committed epoch, plus the
                // predicted retention floor (epoch minus the window size).
                let mut oracles: HashMap<u64, HashMap<(usize, usize), Vec<u64>>> = HashMap::new();
                oracles.insert(0, suite_oracle(&db));
                let mut readers: Vec<secure_xml::DbReader> = Vec::new();
                let pos_of = |seed: u16| 1 + u64::from(seed) % (len - 1);

                for step in steps.clone() {
                    match step {
                        Step::Pin => {
                            if readers.len() < 8 {
                                readers.push(db.reader());
                            }
                        }
                        Step::Release(i) => {
                            if !readers.is_empty() {
                                let i = i as usize % readers.len();
                                readers.swap_remove(i);
                            }
                        }
                        Step::Query(r, q, m) => {
                            if readers.is_empty() {
                                continue;
                            }
                            let reader = &readers[r as usize % readers.len()];
                            let query = SUITE[q as usize % SUITE.len()];
                            let sec = all_modes[m as usize % all_modes.len()];
                            let pin = reader.epoch();
                            let floor = db.retention_floor();
                            match reader.query(query, sec) {
                                Ok(res) => {
                                    prop_assert!(pin >= floor, "unservable pin answered");
                                    let qi = q as usize % SUITE.len();
                                    let mi = m as usize % all_modes.len();
                                    prop_assert_eq!(
                                        &res.matches,
                                        &oracles[&pin][&(qi, mi)],
                                        "epoch-{} reader diverged from its oracle", pin
                                    );
                                }
                                Err(DbError::RetentionExceeded { seen, oldest, now }) => {
                                    prop_assert!(pin < floor, "servable pin refused");
                                    prop_assert_eq!(seen, pin);
                                    prop_assert_eq!(oldest, floor);
                                    prop_assert_eq!(now, db.epoch());
                                }
                                Err(e) => panic!("unexpected query error: {e}"),
                            }
                        }
                        Step::SetNode(p, s, allow) => {
                            db.set_node_access(pos_of(p), SubjectId(u32::from(s)), allow).unwrap();
                            oracles.insert(db.epoch(), suite_oracle(&db));
                        }
                        Step::SetSubtree(p, s, allow) => {
                            db.set_subtree_access(pos_of(p), SubjectId(u32::from(s)), allow).unwrap();
                            oracles.insert(db.epoch(), suite_oracle(&db));
                        }
                        Step::Batch(specs) => {
                            let before = db.epoch();
                            let members: Vec<UpdateFn> = specs
                                .iter()
                                .map(|&(p, fail)| {
                                    let pos = pos_of(p);
                                    let f: UpdateFn = if fail {
                                        // Dirty a page, then fail: the member
                                        // must be rolled back whole.
                                        Box::new(move |d: &mut SecureXmlDb| {
                                            d.set_node_access(pos, SubjectId(1), true)?;
                                            d.set_node_access(1_000_000, SubjectId(1), true)
                                        })
                                    } else {
                                        Box::new(move |d: &mut SecureXmlDb| {
                                            d.set_node_access(pos, SubjectId(1), false)
                                        })
                                    };
                                    f
                                })
                                .collect();
                            let results = db.run_batch(&members).unwrap();
                            prop_assert_eq!(results.len(), specs.len());
                            for (spec, res) in specs.iter().zip(&results) {
                                prop_assert_eq!(
                                    spec.1,
                                    res.is_err(),
                                    "member success must mirror its spec"
                                );
                            }
                            prop_assert_eq!(db.epoch(), before + 1, "one epoch per batch");
                            oracles.insert(db.epoch(), suite_oracle(&db));
                        }
                        Step::AddSubject => {
                            db.add_subject(Some(SubjectId(0))).unwrap();
                            oracles.insert(db.epoch(), suite_oracle(&db));
                        }
                        Step::Recover => {
                            let before = db.epoch();
                            db.recover().unwrap();
                            prop_assert_eq!(db.epoch(), before, "healthy recover is a no-op");
                        }
                    }
                    // The floor model: retain N keeps the last N+1 epochs.
                    prop_assert_eq!(
                        db.retention_floor(),
                        db.epoch().saturating_sub(retain as u64),
                        "floor diverged from the model"
                    );
                }
                // Terminal: a fresh reader agrees with the handle everywhere.
                let fresh = db.reader();
                for (qi, q) in SUITE.iter().enumerate() {
                    for (mi, sec) in all_modes.iter().enumerate() {
                        let _ = (qi, mi);
                        prop_assert_eq!(
                            fresh.query(q, *sec).unwrap().matches,
                            db.query(q, *sec).unwrap().matches
                        );
                    }
                }
                db.store().check_integrity().unwrap();
            }
        }
    }
}
