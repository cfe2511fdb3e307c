//! Crash-recovery torture harness: a mixed update workload over the full
//! secure database, power-cut at **every** physical write point.
//!
//! The harness answers the recovery question end to end, not just at the
//! page level: after a crash anywhere inside update `i` — including inside
//! WAL recovery itself on the subsequent open — the reopened database must
//! be in *exactly* the state after `i-1` or after `i` updates. "State" is
//! judged by a fingerprint covering the serialized document, the whole
//! accessibility matrix, every node value, and the answers of a secure
//! query suite under every subject — so a single leaked or lost node, a
//! torn code run, or a stale catalog shows up as a mixed state.
//!
//! Method: an oracle pass applies the workload on healthy disks, forking
//! the data and log images after every update and fingerprinting each
//! state `S_i`. Then, for each update, a fresh database is opened on the
//! `S_{i-1}` image behind a [`CrashDisk`] power rail shared by the data and
//! log disks, the update is re-applied, and the rail is cut after `k`
//! writes for every `k` in the update's write window (odd `k` also tears
//! the fatal write at a sector boundary). The raw disks are then reopened —
//! running real WAL recovery — integrity-checked, and fingerprinted.

use crate::setup::{fnv, FNV_OFFSET};
use crate::table::Table;
use crate::Effort;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::acl::SubjectId;
use secure_xml::storage::{CrashDisk, CrashState, Disk, MemDisk};
use secure_xml::workloads::{synth_multi, SynthAclConfig};
use secure_xml::{DbConfig, DbError, SecureXmlDb, Security};
use std::sync::Arc;

/// The fixed seed used when the caller does not supply one (CI does not).
pub const DEFAULT_SEED: u64 = 13_639_585;

/// The secure query suite every recovered state must answer identically.
const QUERIES: &[&str] = &["//item[name]", "//people/person", "//keyword"];

/// One concrete update of the workload (positions already resolved, so a
/// replay applies exactly the same mutation).
enum Op {
    SetNode(u64, u32, bool),
    SetSubtree(u64, u32, bool),
    Delete(u64),
    Insert(u64, String),
    Move(u64, u64),
    AddSubject(Option<u32>),
    RemoveSubject(u32),
    Checkpoint,
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::SetNode(..) => "set-node",
            Op::SetSubtree(..) => "set-subtree",
            Op::Delete(..) => "delete",
            Op::Insert(..) => "insert",
            Op::Move(..) => "move",
            Op::AddSubject(..) => "add-subject",
            Op::RemoveSubject(..) => "remove-subject",
            Op::Checkpoint => "checkpoint",
        }
    }
}

fn apply(db: &mut SecureXmlDb, op: &Op) -> Result<(), DbError> {
    match op {
        Op::SetNode(pos, s, allow) => db.set_node_access(*pos, SubjectId(*s), *allow),
        Op::SetSubtree(pos, s, allow) => db.set_subtree_access(*pos, SubjectId(*s), *allow),
        Op::Delete(pos) => db.delete_subtree(*pos),
        Op::Insert(parent, xml) => {
            let sub = secure_xml::xml::parse(xml).expect("harness subtree parses");
            db.insert_subtree(*parent, &sub).map(|_| ())
        }
        Op::Move(pos, parent) => db.move_subtree(*pos, *parent).map(|_| ()),
        Op::AddSubject(copy) => db.add_subject(copy.map(SubjectId)).map(|_| ()),
        Op::RemoveSubject(s) => db.remove_subject(SubjectId(*s)),
        Op::Checkpoint => db.checkpoint(),
    }
}

/// Draws the next valid update for the current database state.
fn gen_op(rng: &mut StdRng, db: &SecureXmlDb, step: usize) -> Op {
    if step % 9 == 8 {
        return Op::Checkpoint;
    }
    let n = db.len() as u64;
    let width = db.dol().codebook().width() as u32;
    loop {
        match rng.gen_range(0..10u32) {
            0..=2 => {
                return Op::SetNode(
                    rng.gen_range(0..n),
                    rng.gen_range(0..width),
                    rng.gen_bool(0.5),
                )
            }
            3..=4 => {
                return Op::SetSubtree(
                    rng.gen_range(0..n),
                    rng.gen_range(0..width),
                    rng.gen_bool(0.5),
                )
            }
            5 => {
                if n < 60 {
                    continue;
                }
                let pos = rng.gen_range(1..n);
                let size = db.store().node(pos).expect("node").size as u64;
                if size > 25 {
                    continue;
                }
                return Op::Delete(pos);
            }
            6 => {
                let parent = rng.gen_range(0..n);
                let tag = ["extra", "note", "flag"][rng.gen_range(0..3usize)];
                let xml = format!("<{tag}><w>v{}</w></{tag}>", rng.gen_range(0..1000u32));
                return Op::Insert(parent, xml);
            }
            7 => {
                if n < 60 {
                    continue;
                }
                let pos = rng.gen_range(1..n);
                let size = db.store().node(pos).expect("node").size as u64;
                if size > 25 {
                    continue;
                }
                let parent = rng.gen_range(0..n);
                if parent >= pos && parent < pos + size {
                    continue;
                }
                return Op::Move(pos, parent);
            }
            8 => {
                if width >= 8 {
                    continue;
                }
                let copy = rng.gen_bool(0.5).then(|| rng.gen_range(0..width));
                return Op::AddSubject(copy);
            }
            _ => {
                if db.dol().codebook().live_subjects() <= 2 {
                    continue;
                }
                let s = rng.gen_range(0..width);
                if db.dol().codebook().is_removed(SubjectId(s)) {
                    continue;
                }
                return Op::RemoveSubject(s);
            }
        }
    }
}

/// FNV-1a over everything observable: document shape, accessibility matrix,
/// values, and the secure answers of [`QUERIES`] under every subject.
fn fingerprint(db: &SecureXmlDb) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, db.document().to_xml().as_bytes());
    let width = db.dol().codebook().width() as u32;
    fnv(&mut h, &u64::from(width).to_le_bytes());
    let n = db.len() as u64;
    for s in 0..width {
        for p in 0..n {
            fnv(
                &mut h,
                &[u8::from(
                    db.accessible(p, SubjectId(s)).expect("accessible"),
                )],
            );
        }
    }
    for p in 0..n {
        if let Some(v) = db.value(p).expect("value") {
            fnv(&mut h, v.as_bytes());
        }
        fnv(&mut h, b"|");
    }
    for q in QUERIES {
        for s in 0..width {
            let res = db
                .query(q, Security::BindingLevel(SubjectId(s)))
                .expect("query");
            for m in res.matches {
                fnv(&mut h, &m.to_le_bytes());
            }
            fnv(&mut h, b";");
        }
    }
    h
}

fn open(data: Arc<dyn Disk>, log: Arc<dyn Disk>, cfg: DbConfig) -> Result<SecureXmlDb, DbError> {
    SecureXmlDb::open_on(data, log, cfg)
}

/// Runs the torture harness: `--quick` sweeps a smaller workload, `--full`
/// the acceptance-scale one (≥200 mixed updates). Panics on any mixed
/// state, integrity failure, or unrecoverable image — CI treats the run as
/// the assertion.
pub fn run(effort: Effort, seed: u64) {
    let ops_n = effort.pick(60, 220);
    let cfg = DbConfig {
        // Deliberately tiny: transactions must spill, evict and fault pages
        // back in, so data-page writes interleave with WAL writes.
        buffer_pool_pages: 40,
        max_records_per_block: 16,
        epoch_retain: 8,
    };
    println!("Crash-recovery torture harness (seed {seed}, {ops_n} updates)\n");

    // Initial secured document, saved to a memory image.
    let doc = crate::setup::xmark_doc(effort.scale(0.01, 0.04));
    let map = synth_multi(
        &doc,
        &SynthAclConfig {
            propagation_ratio: 0.05,
            accessibility_ratio: 0.6,
            sibling_locality: 0.5,
            seed,
        },
        3,
    );
    let db0 = SecureXmlDb::with_config(doc, &map, cfg).expect("build");
    let base_data = Arc::new(MemDisk::new());
    db0.save_to_disk(base_data.clone()).expect("save image");
    drop(db0);

    // Oracle pass: healthy run, forking both disks after every update.
    let data = base_data;
    let log = Arc::new(MemDisk::new());
    let mut oracle = open(data.clone(), log.clone(), cfg).expect("open oracle");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snaps: Vec<(MemDisk, MemDisk)> = vec![(data.fork(), log.fork())];
    let mut fps: Vec<u64> = vec![fingerprint(&oracle)];
    let mut ops: Vec<Op> = Vec::with_capacity(ops_n);
    for step in 0..ops_n {
        let op = gen_op(&mut rng, &oracle, step);
        apply(&mut oracle, &op).expect("healthy update");
        ops.push(op);
        snaps.push((data.fork(), log.fork()));
        fps.push(fingerprint(&oracle));
    }
    println!(
        "oracle: {} nodes, {} subjects after {} updates\n",
        oracle.len(),
        oracle.dol().codebook().width(),
        ops_n
    );
    drop(oracle);

    // Crash sweep: for each update, cut the power at every write point of
    // its window (open S_{i-1} + apply op_i), then recover and judge.
    let mut t = Table::new(
        "crash sweep (every physical write point, alternating torn writes)",
        &[
            "op kind",
            "ops",
            "crash points",
            "pre-state",
            "post-state",
            "crashed in recovery",
        ],
    );
    let mut by_kind: std::collections::BTreeMap<&'static str, [u64; 4]> =
        std::collections::BTreeMap::new();
    let mut total_points = 0u64;
    for (i, op) in ops.iter().enumerate() {
        // Write window: replay once with an uncuttable rail.
        let window = {
            let d = Arc::new(snaps[i].0.fork());
            let l = Arc::new(snaps[i].1.fork());
            let state = CrashState::unlimited();
            let mut db = open(
                Arc::new(CrashDisk::new(d, state.clone())),
                Arc::new(CrashDisk::new(l, state.clone())),
                cfg,
            )
            .expect("open replay");
            apply(&mut db, op).expect("healthy replay");
            assert_eq!(
                fingerprint(&db),
                fps[i + 1],
                "replay of op {i} diverged from the oracle"
            );
            state.writes_issued()
        };
        let counts = by_kind.entry(op.kind()).or_default();
        counts[0] += 1;
        for k in 0..window {
            let d = Arc::new(snaps[i].0.fork());
            let l = Arc::new(snaps[i].1.fork());
            let state = CrashState::new(k, k % 2 == 1, seed ^ (i as u64) << 20 ^ k);
            let survived_open = match open(
                Arc::new(CrashDisk::new(d.clone(), state.clone())),
                Arc::new(CrashDisk::new(l.clone(), state.clone())),
                cfg,
            ) {
                Ok(mut db) => {
                    let _ = apply(&mut db, op);
                    true
                }
                Err(_) => false,
            };
            // Reopen the raw disks: recovery must land on a state boundary.
            let db = open(d, l, cfg).unwrap_or_else(|e| {
                panic!(
                    "op {i} ({}) crash at write {k}: unrecoverable image: {e}",
                    op.kind()
                )
            });
            db.store()
                .check_integrity()
                .unwrap_or_else(|e| panic!("op {i} crash at write {k}: integrity: {e}"));
            let f = fingerprint(&db);
            if f == fps[i] {
                counts[1] += 1;
            } else if f == fps[i + 1] {
                counts[2] += 1;
            } else {
                panic!(
                    "MIXED STATE: op {i} ({}) crash at write {k} recovered to \
                     neither S_{i} nor S_{}",
                    op.kind(),
                    i + 1
                );
            }
            if !survived_open {
                counts[3] += 1;
            }
            total_points += 1;
        }
    }
    for (kind, c) in &by_kind {
        t.row(&[
            (*kind).into(),
            c[0].to_string(),
            (c[1] + c[2]).to_string(),
            c[1].to_string(),
            c[2].to_string(),
            c[3].to_string(),
        ]);
    }
    t.print();
    println!(
        "\n{total_points} crash points, every recovery an exact before- or \
         after-state (zero mixed states)\n"
    );
}
