//! MVCC epoch ring + group commit: the acceptance gate for "writers that
//! never evict readers".
//!
//! Three sections, one database protocol:
//!
//! 1. **Throughput at equal durability** — the same update sequence on a
//!    real file-backed database, committed solo (one WAL transaction and
//!    one fsync per update) vs group-committed (`run_batch`, K updates
//!    per WAL transaction and fsync). Both end in byte-equal query
//!    answers; the batched column amortizes the per-transaction catalog +
//!    meta rewrite and the sync, which is where the throughput headline
//!    comes from.
//! 2. **Pinned readers under a writer** — snapshot readers pinned to
//!    every retained epoch keep answering their own epoch's oracle
//!    exactly while batches commit over them; a reader that outlives the
//!    retention window gets typed [`DbError::RetentionExceeded`] (never a
//!    wrong or torn answer) and [`DbReader::query_with_retry`] refreshes
//!    it onto the live epoch.
//! 3. **Concurrent group commit** — writer threads submit two-node
//!    atomic updates through the [`GroupCommitter`] while reader threads
//!    check the pair invariant on every snapshot: members land whole or
//!    not at all, rejected members never disturb their batch peers, and
//!    the committer's counters reconcile exactly.
//!
//! The correctness gates (pinned readers on their own oracle, zero
//! invariant violations, solo ≡ batched answers, counter reconciliation,
//! batched fsyncs/update
//! at most a fifth of solo) are asserted in **every** mode; `--smoke`
//! only pins the effort so CI runs a deterministic small instance. The
//! throughput ratio is recorded in `BENCH_mvcc.json`, never gated — it
//! depends on the disk behind the temp dir.

use crate::table::Table;
use crate::Effort;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::acl::SubjectId;
use secure_xml::storage::{Disk, FileDisk};
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::{
    DbConfig, DbError, DbReader, GroupCommitConfig, GroupCommitter, SecureXmlDb, Security, UpdateFn,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Epochs the version ring retains in every section.
const RETAIN: usize = 4;
/// Members folded into one WAL transaction by the batched column.
const BATCH_K: usize = 16;
/// The subject whose accessibility the update storm flips.
const SUBJECT: SubjectId = SubjectId(1);

/// The query suite every oracle check replays.
const SUITE: &[&str] = &["//listitem//keyword", "//item//emph", "//category[name]"];
/// The security modes the suite runs under.
const MODES: &[Security] = &[Security::None, Security::BindingLevel(SUBJECT)];

/// Runs the MVCC + group-commit experiment.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let effort = if smoke { Effort::Quick } else { effort };
    println!("MVCC epoch ring + group commit (seed {seed}, retain {RETAIN}, K={BATCH_K})\n");

    let tp = throughput(effort, seed);
    let pr = pinned_readers(effort, seed);
    let cc = concurrent(effort, seed);

    let mut t = Table::new("mvcc", &["section", "updates", "metric", "value"]);
    t.row(&[
        "throughput".into(),
        tp.updates.to_string(),
        "solo updates/s".into(),
        format!("{:.0}", tp.solo_ups),
    ]);
    t.row(&[
        "throughput".into(),
        tp.updates.to_string(),
        "batched updates/s".into(),
        format!("{:.0}", tp.batched_ups),
    ]);
    t.row(&[
        "throughput".into(),
        tp.updates.to_string(),
        "batched/solo ratio".into(),
        format!("{:.2}x", tp.ratio),
    ]);
    t.row(&[
        "throughput".into(),
        tp.updates.to_string(),
        "fsyncs/update solo".into(),
        format!("{:.3}", tp.solo_fsyncs_per_update),
    ]);
    t.row(&[
        "throughput".into(),
        tp.updates.to_string(),
        "fsyncs/update batched".into(),
        format!("{:.3}", tp.batched_fsyncs_per_update),
    ]);
    t.row(&[
        "pinned readers".into(),
        pr.commits.to_string(),
        "oracle checks".into(),
        pr.oracle_checks.to_string(),
    ]);
    t.row(&[
        "pinned readers".into(),
        pr.commits.to_string(),
        "retention refusals".into(),
        pr.retention_refusals.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "batches".into(),
        cc.batches.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "max batch".into(),
        cc.max_batch_seen.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "rejected members".into(),
        cc.rejected.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "overload pushbacks".into(),
        cc.overloads.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "reader snapshots".into(),
        cc.reader_checks.to_string(),
    ]);
    t.print();
    println!(
        "(Solo and batched columns run the identical update sequence to byte-equal\n\
         answers; the batched column folds {BATCH_K} updates into one WAL transaction\n\
         and one fsync. Pinned readers replay their epoch's oracle after every\n\
         commit; past the {RETAIN}-epoch window they fail typed and refresh.)\n"
    );

    write_json(seed, &tp, &pr, &cc);

    if smoke {
        println!("mvcc --smoke: all assertions passed\n");
    }
}

/// Section 1 results: solo vs group-committed update throughput.
struct Throughput {
    updates: usize,
    solo_ups: f64,
    batched_ups: f64,
    ratio: f64,
    solo_fsyncs_per_update: f64,
    batched_fsyncs_per_update: f64,
}

/// Section 2 results: pinned readers against per-epoch oracles.
struct Pinned {
    commits: usize,
    oracle_checks: usize,
    retention_refusals: usize,
}

/// Section 3 results: the concurrent committer's reconciled counters.
struct Concurrent {
    submitted: u64,
    committed: u64,
    rejected: u64,
    batches: u64,
    max_batch_seen: u64,
    overloads: u64,
    solo_fallbacks: u64,
    reader_checks: u64,
    retry_refreshes: u64,
    probe_refusals: u64,
}

fn acl_config() -> SynthAclConfig {
    SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.6,
        sibling_locality: 0.5,
        seed: 9,
    }
}

fn build_mem(effort: Effort, scale_quick: f64, scale_full: f64) -> SecureXmlDb {
    let doc = xmark(&XmarkConfig {
        scale: effort.scale(scale_quick, scale_full),
        seed: 20050405,
    });
    let map = synth_multi(&doc, &acl_config(), 3);
    SecureXmlDb::with_config(
        doc,
        &map,
        DbConfig {
            epoch_retain: RETAIN,
            ..DbConfig::default()
        },
    )
    .expect("build")
}

/// The full suite's answers on one handle, used as a whole-epoch oracle.
fn suite_answers(reader: &DbReader) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for q in SUITE {
        for &sec in MODES {
            out.push(reader.query(q, sec).expect("oracle query").matches);
        }
    }
    out
}

/// Solo vs batched commits of the same update sequence on file-backed
/// disks (real fsyncs), ending in identical states.
fn throughput(effort: Effort, seed: u64) -> Throughput {
    let dir = std::env::temp_dir().join(format!("dol-bench-mvcc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let doc = xmark(&XmarkConfig {
        scale: effort.scale(0.02, 0.1),
        seed: 20050405,
    });
    let map = synth_multi(&doc, &acl_config(), 3);
    let cfg = DbConfig {
        epoch_retain: RETAIN,
        ..DbConfig::default()
    };
    let image = SecureXmlDb::with_config(doc, &map, cfg).expect("build");
    let n = image.len() as u64;
    let updates = effort.pick(12, 120) * BATCH_K;
    let ops: Vec<(u64, bool)> = {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..updates)
            .map(|_| (rng.gen_range(1..n), rng.gen_bool(0.5)))
            .collect()
    };

    let open = |name: &str| -> SecureXmlDb {
        let data: Arc<dyn Disk> =
            Arc::new(FileDisk::create(&dir.join(format!("{name}.img"))).expect("data disk"));
        image.save_to_disk(data.clone()).expect("save image");
        let wal: Arc<dyn Disk> =
            Arc::new(FileDisk::create(&dir.join(format!("{name}.wal"))).expect("wal disk"));
        SecureXmlDb::open_on(data, wal, cfg).expect("open")
    };

    // Solo: every update is its own WAL transaction and fsync.
    let mut solo = open("solo");
    let wal = solo.store().pool().wal().expect("wal attached");
    let fsyncs_before = wal.stats().commits;
    let start = Instant::now();
    for &(pos, allow) in &ops {
        solo.set_node_access(pos, SUBJECT, allow).expect("solo set");
    }
    let solo_secs = start.elapsed().as_secs_f64();
    let solo_fsyncs = wal.stats().commits - fsyncs_before;

    // Batched: K updates fold into one WAL transaction and one fsync.
    let mut batched = open("batched");
    let wal = batched.store().pool().wal().expect("wal attached");
    let fsyncs_before = wal.stats().commits;
    let epoch_before = batched.epoch();
    let start = Instant::now();
    for chunk in ops.chunks(BATCH_K) {
        let members: Vec<UpdateFn> = chunk
            .iter()
            .map(|&(pos, allow)| -> UpdateFn {
                Box::new(move |db: &mut SecureXmlDb| db.set_node_access(pos, SUBJECT, allow))
            })
            .collect();
        let results = batched.run_batch(&members).expect("batch commit");
        assert!(
            results.iter().all(|r| r.is_ok()),
            "every throughput member is a valid update"
        );
    }
    let batched_secs = start.elapsed().as_secs_f64();
    let batched_fsyncs = wal.stats().commits - fsyncs_before;
    let batches = updates.div_ceil(BATCH_K) as u64;
    assert_eq!(
        batched.epoch() - epoch_before,
        batches,
        "one epoch per batch, not per member"
    );
    let ws = wal.stats();
    assert_eq!(
        ws.batch_commits, batches,
        "every batch logged a batch record"
    );
    assert_eq!(
        ws.batched_members, updates as u64,
        "the WAL accounted every batch member"
    );

    // Equal durability must also mean equal answers: the two databases saw
    // the same updates and must agree query-for-query.
    let solo_answers = suite_answers(&solo.reader());
    let batched_answers = suite_answers(&batched.reader());
    assert_eq!(
        solo_answers, batched_answers,
        "solo and group-committed histories diverged"
    );

    std::fs::remove_dir_all(&dir).ok();

    let solo_fpu = solo_fsyncs as f64 / updates as f64;
    let batched_fpu = batched_fsyncs as f64 / updates as f64;
    assert!(
        solo_fpu >= 1.0,
        "solo commits must fsync at least once per update (got {solo_fpu:.3})"
    );
    assert!(
        batched_fpu * 5.0 <= solo_fpu,
        "group commit must amortize fsyncs at least 5x \
         (solo {solo_fpu:.3}/update, batched {batched_fpu:.3}/update)"
    );
    Throughput {
        updates,
        solo_ups: updates as f64 / solo_secs,
        batched_ups: updates as f64 / batched_secs,
        ratio: solo_secs / batched_secs,
        solo_fsyncs_per_update: solo_fpu,
        batched_fsyncs_per_update: batched_fpu,
    }
}

/// Readers pinned to every retained epoch answer their own oracle after
/// every group commit; past the window they fail typed and refresh.
fn pinned_readers(effort: Effort, seed: u64) -> Pinned {
    let mut db = build_mem(effort, 0.02, 0.05);
    let n = db.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let commits = RETAIN + effort.pick(3, 8);
    let mut pinned: Vec<(DbReader, Vec<Vec<u64>>)> = Vec::new();
    let mut oracle_checks = 0usize;
    let mut retention_refusals = 0usize;

    for _ in 0..commits {
        let r = db.reader();
        let oracle = suite_answers(&r);
        pinned.push((r, oracle));

        let members: Vec<UpdateFn> = (0..4)
            .map(|_| -> UpdateFn {
                let pos = rng.gen_range(1..n);
                let allow = rng.gen_bool(0.5);
                Box::new(move |db: &mut SecureXmlDb| db.set_node_access(pos, SUBJECT, allow))
            })
            .collect();
        let results = db.run_batch(&members).expect("batch");
        assert!(results.iter().all(|r| r.is_ok()));

        let floor = db.retention_floor();
        assert_eq!(
            floor,
            db.epoch().saturating_sub(RETAIN as u64),
            "the ring floor tracks the epoch minus the retention window"
        );
        for (r, oracle) in &pinned {
            let mut i = 0;
            for q in SUITE {
                for &sec in MODES {
                    match r.query(q, sec) {
                        Ok(res) if r.epoch() >= floor => {
                            oracle_checks += 1;
                            assert_eq!(
                                res.matches,
                                oracle[i],
                                "pinned epoch {} answered off its own oracle on {q}",
                                r.epoch()
                            );
                        }
                        Ok(_) => panic!(
                            "reader pinned below the floor ({} < {floor}) must refuse, not answer",
                            r.epoch()
                        ),
                        Err(DbError::RetentionExceeded { seen, oldest, now }) => {
                            retention_refusals += 1;
                            assert!(seen < floor, "refusal for a servable epoch {seen}");
                            assert_eq!(seen, r.epoch());
                            assert_eq!(oldest, floor);
                            assert_eq!(now, db.epoch());
                        }
                        Err(e) => panic!("pinned reader failed untyped on {q}: {e}"),
                    }
                    i += 1;
                }
            }
        }
    }

    assert!(
        retention_refusals > 0,
        "the sweep must outlive the window to exercise RetentionExceeded"
    );
    // The refresh path: the oldest reader re-snapshots and serves the
    // *live* epoch's answers.
    let (mut oldest, _) = pinned.swap_remove(0);
    let live = suite_answers(&db.reader());
    let refreshed = oldest
        .query_with_retry(SUITE[0], MODES[1], 1, || db.reader())
        .expect("refresh path");
    assert_eq!(
        refreshed.matches, live[1],
        "refreshed reader serves the live epoch"
    );
    Pinned {
        commits,
        oracle_checks,
        retention_refusals,
    }
}

/// Writer threads push two-node atomic members through the group
/// committer while reader threads check the pair invariant on every
/// snapshot; the counters must reconcile exactly.
fn concurrent(effort: Effort, seed: u64) -> Concurrent {
    let mut db = build_mem(effort, 0.02, 0.05);
    let n = db.len() as u64;
    // Two probe nodes whose accessibility every member sets *together*:
    // readers must never observe them split.
    let (a, b) = (1u64, n / 2);
    db.run_update(|d| {
        d.set_node_access(a, SUBJECT, true)?;
        d.set_node_access(b, SUBJECT, true)
    })
    .expect("seed the probe pair");

    let gc = GroupCommitter::new(
        Arc::new(RwLock::new(db)),
        GroupCommitConfig {
            queue_capacity: 32,
            max_batch: 8,
            flush_interval: std::time::Duration::from_millis(1),
        },
    );
    let writers = 4;
    let per_writer = effort.pick(40, 200);
    let done = AtomicBool::new(false);
    let committed_ok = AtomicU64::new(0);
    let rejected_members = AtomicU64::new(0);
    let overload_retries = AtomicU64::new(0);
    let reader_checks = AtomicU64::new(0);
    let invariant_violations = AtomicU64::new(0);
    let retry_refreshes = AtomicU64::new(0);
    let probe_refusals = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..writers {
            let gc = &gc;
            let committed_ok = &committed_ok;
            let rejected_members = &rejected_members;
            let overload_retries = &overload_retries;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64) << 32);
                for i in 0..per_writer {
                    // Every 11th member fails validation on purpose: it must
                    // be rejected alone, leaving its batch peers intact.
                    let poison_pill = i % 11 == 10;
                    let v = rng.gen_bool(0.5);
                    let submit = || {
                        gc.submit_fn(move |db| {
                            if poison_pill {
                                return db.set_node_access(u64::MAX, SUBJECT, v);
                            }
                            db.set_node_access(a, SUBJECT, v)?;
                            db.set_node_access(b, SUBJECT, v)
                        })
                    };
                    loop {
                        match submit() {
                            Ok(()) => {
                                assert!(!poison_pill, "an invalid member cannot commit");
                                committed_ok.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(DbError::Overloaded) => {
                                // Backpressure: nothing was queued; yield and
                                // resubmit.
                                overload_retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(DbError::InvalidNode(_)) if poison_pill => {
                                rejected_members.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) => panic!("writer {w} update {i} failed: {e}"),
                        }
                    }
                }
            });
        }
        for _ in 0..3 {
            let gc = &gc;
            let done = &done;
            let reader_checks = &reader_checks;
            let invariant_violations = &invariant_violations;
            let retry_refreshes = &retry_refreshes;
            let probe_refusals = &probe_refusals;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let mut r = gc.reader();
                    // A snapshot is a whole epoch: the pair moves together.
                    match (r.accessible(a, SUBJECT), r.accessible(b, SUBJECT)) {
                        (Ok(x), Ok(y)) => {
                            reader_checks.fetch_add(1, Ordering::Relaxed);
                            if x != y {
                                invariant_violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // The snapshot aged past the window between mint and
                        // probe: legal under a fast writer storm, typed,
                        // never wrong — the next loop iteration refreshes.
                        (Err(DbError::RetentionExceeded { .. }), _)
                        | (_, Err(DbError::RetentionExceeded { .. })) => {
                            probe_refusals.fetch_add(1, Ordering::Relaxed);
                        }
                        (Err(e), _) | (_, Err(e)) => panic!("reader probe failed: {e}"),
                    }
                    let before = r.epoch();
                    let res = r.query_with_retry(SUITE[0], MODES[1], 8, || gc.reader());
                    res.expect("retry query rides through the writer storm");
                    if r.epoch() != before {
                        retry_refreshes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // The writer threads spawned first; wait for them by joining the
        // scope's writer handles implicitly: spawn a sentinel that flips
        // `done` once all submissions are accounted for.
        let gc = &gc;
        let done = &done;
        let committed_ok = &committed_ok;
        let rejected_members = &rejected_members;
        s.spawn(move || {
            let total = (writers * per_writer) as u64;
            while committed_ok.load(Ordering::Relaxed) + rejected_members.load(Ordering::Relaxed)
                < total
            {
                std::thread::yield_now();
            }
            // One final coherent look before stopping the readers.
            let r = gc.reader();
            let x = r.accessible(a, SUBJECT).expect("final probe");
            let y = r.accessible(b, SUBJECT).expect("final probe");
            assert_eq!(x, y, "the final epoch must hold the pair invariant");
            done.store(true, Ordering::Release);
        });
    });

    let stats = gc.stats();
    let db = Arc::clone(gc.db());
    gc.close();
    let db = db.read().unwrap_or_else(|e| e.into_inner());
    assert!(!db.is_poisoned(), "the storm must end on a healthy handle");

    // Counter reconciliation: every submission is accounted exactly once.
    let ok = committed_ok.load(Ordering::Relaxed);
    let rejected = rejected_members.load(Ordering::Relaxed);
    assert_eq!(ok + rejected, (writers * per_writer) as u64);
    assert_eq!(stats.committed, ok, "committer lost or invented commits");
    assert_eq!(stats.rejected, rejected, "committer miscounted rejections");
    assert_eq!(
        stats.submitted,
        stats.committed + stats.rejected,
        "submissions must partition into commits and rejections"
    );
    assert_eq!(
        stats.overloads,
        overload_retries.load(Ordering::Relaxed),
        "every Overloaded the writers saw is an admission-control pushback"
    );
    assert_eq!(
        stats.solo_fallbacks, 0,
        "no batch needed the solo-replay path"
    );
    assert!(stats.batches >= 1);
    assert_eq!(
        invariant_violations.load(Ordering::Relaxed),
        0,
        "a reader saw the probe pair split: a batch member tore"
    );

    Concurrent {
        submitted: stats.submitted,
        committed: stats.committed,
        rejected: stats.rejected,
        batches: stats.batches,
        max_batch_seen: stats.max_batch_seen,
        overloads: stats.overloads,
        solo_fallbacks: stats.solo_fallbacks,
        reader_checks: reader_checks.load(Ordering::Relaxed),
        retry_refreshes: retry_refreshes.load(Ordering::Relaxed),
        probe_refusals: probe_refusals.load(Ordering::Relaxed),
    }
}

fn write_json(seed: u64, tp: &Throughput, pr: &Pinned, cc: &Concurrent) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"mvcc\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"epoch_retain\": {RETAIN},\n"));
    out.push_str(&format!("  \"batch_k\": {BATCH_K},\n"));
    out.push_str(&format!("  \"updates\": {},\n", tp.updates));
    out.push_str(&format!(
        "  \"solo_updates_per_sec\": {:.1},\n",
        tp.solo_ups
    ));
    out.push_str(&format!(
        "  \"batched_updates_per_sec\": {:.1},\n",
        tp.batched_ups
    ));
    out.push_str(&format!("  \"throughput_ratio\": {:.2},\n", tp.ratio));
    out.push_str(&format!(
        "  \"fsyncs_per_update_solo\": {:.4},\n",
        tp.solo_fsyncs_per_update
    ));
    out.push_str(&format!(
        "  \"fsyncs_per_update_batched\": {:.4},\n",
        tp.batched_fsyncs_per_update
    ));
    out.push_str(&format!("  \"pinned_commits\": {},\n", pr.commits));
    out.push_str(&format!(
        "  \"pinned_oracle_checks\": {},\n",
        pr.oracle_checks
    ));
    out.push_str(&format!(
        "  \"retention_refusals\": {},\n",
        pr.retention_refusals
    ));
    out.push_str(&format!("  \"gc_submitted\": {},\n", cc.submitted));
    out.push_str(&format!("  \"gc_committed\": {},\n", cc.committed));
    out.push_str(&format!("  \"gc_rejected\": {},\n", cc.rejected));
    out.push_str(&format!("  \"gc_batches\": {},\n", cc.batches));
    out.push_str(&format!("  \"gc_max_batch\": {},\n", cc.max_batch_seen));
    out.push_str(&format!("  \"gc_overloads\": {},\n", cc.overloads));
    out.push_str(&format!(
        "  \"gc_solo_fallbacks\": {},\n",
        cc.solo_fallbacks
    ));
    out.push_str(&format!("  \"gc_reader_checks\": {},\n", cc.reader_checks));
    out.push_str(&format!(
        "  \"gc_retry_refreshes\": {},\n",
        cc.retry_refreshes
    ));
    out.push_str(&format!("  \"gc_probe_refusals\": {}\n", cc.probe_refusals));
    out.push_str("}\n");
    match std::fs::File::create("BENCH_mvcc.json").and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("(wrote BENCH_mvcc.json)\n"),
        Err(e) => eprintln!("could not write BENCH_mvcc.json: {e}"),
    }
}
