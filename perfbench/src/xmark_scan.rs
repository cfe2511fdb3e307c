//! `xmark-scan`: the embedded engine on data larger than the buffer pool.
//!
//! XMark at scale 8 (about 208k nodes, a 13 MB image) is saved and
//! reopened with `open_from` under the default configuration, whose
//! 1024-page pool holds 4 MiB: the image is about 3.2 times the pool, so
//! queries miss the pool, read the file and verify checksums. Sixteen
//! uncorrelated synthetic subjects (`synth_multi`, default ratios) label
//! it. Two threads run a closed loop through `SecureXmlDb::query`, which
//! skips the result cache: Table-1 Q4–Q6 make 75% of the mix and Q1–Q3
//! 25%, with 75% binding-level and 25% subtree-visibility semantics and
//! subjects uniform.
//!
//! Why: matching, accessibility checks and ε-STD visibility do almost all
//! the work, with pool misses, file reads and checksums; server, result
//! cache and WAL do none. Between the read phases a burst of durable
//! subtree ACL edits (one WAL fsync each, no group commit) times updates on
//! the large image. The edits change only a seventeenth subject column that
//! no query reads, so every answer stays checkable.

use crate::engine_load::{
    check_reference, edit_burst, eps_extra_reads, report_eps, xmark_input, ExecSums, Key,
    EDIT_SUBJECT, SUBJECTS, TABLE1,
};
use crate::report::{median, ratio, Lat, Outcome};
use crate::setup::{file_len, mix, prepare, wal_of, WorkDir, PHASES};
use crate::trace::{self, SpanBuf};
use crate::Args;
use dol_acl::SubjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::SecureXmlDb;
use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};

const SCALE: f64 = 8.0;
const THREADS: usize = 2;
const SETUP_ROUNDS: usize = 3;
/// Keys checked against the naive reference evaluator per run.
const REFERENCE_SAMPLE: usize = 6;
/// Durable edits per run, spread over the bursts between read phases.
const EDITS: usize = 100;

/// What the read phases of one pass produced.
#[derive(Default)]
struct Pass {
    lat: Lat,
    exec_ms: Vec<f64>,
    sums: ExecSums,
    errors: u64,
    /// Queries per second of each phase.
    phase_qps: Vec<f64>,
    /// Key → answer digest; a key answered two ways is a mismatch.
    digests: BTreeMap<Key, (usize, u64)>,
    spans: Vec<SpanBuf>,
}

fn digest(matches: &[u64]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in matches {
        h = (h ^ m).wrapping_mul(0x0100_0000_01b3);
    }
    (matches.len(), h)
}

/// Q4–Q6 are drawn three times as often as Q1–Q3. The two groups differ
/// in cost by two orders of magnitude (sub-millisecond path matches against
/// 10 ms structural joins); with equal shares the median would sit on the
/// gap between them and jump between the modes from run to run.
fn draw(rng: &mut StdRng) -> Key {
    let query = if rng.gen_bool(0.25) {
        rng.gen_range(0..3)
    } else {
        rng.gen_range(3..6)
    };
    Key {
        query,
        subject: rng.gen_range(0..SUBJECTS),
        subtree: rng.gen_bool(0.25),
    }
}

/// One read phase: two closed-loop threads for `secs`, each following its
/// own seeded stream. Results accumulate into `pass`.
fn phase(db: &SecureXmlDb, seed: u64, secs: f64, origin: Instant, traced: bool, pass: &mut Pass) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let per_thread: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix(seed, 100 + t as u64));
                    let mut spans = SpanBuf::new(traced, origin);
                    let mut lat = Lat::default();
                    let mut exec = Vec::new();
                    let mut sums = ExecSums::default();
                    let mut errors = 0u64;
                    let mut digests: BTreeMap<Key, (usize, u64)> = BTreeMap::new();
                    let mut conflicts = Vec::new();
                    let mut req = (seed << 8 | t as u64) << 32;
                    while Instant::now() < stop {
                        req += 1;
                        let key = draw(&mut rng);
                        let root = spans.open("bench.op", req, None);
                        let t0 = Instant::now();
                        let res = db.query(key.text(), key.security());
                        let t1 = Instant::now();
                        lat.push(t1 - origin, (t1 - t0).as_secs_f64() * 1e3);
                        match res {
                            Ok(r) => {
                                let call = spans.open("db.query", req, Some(root));
                                spans.leaf("nok.exec", req, call, t1 - r.stats.elapsed, t1);
                                spans.close(call, t0, t1);
                                exec.push(r.stats.elapsed.as_secs_f64() * 1e3);
                                sums.add(&r.stats, r.matches.len());
                                let d = digest(&r.matches);
                                if *digests.entry(key).or_insert(d) != d {
                                    conflicts.push(key);
                                }
                            }
                            Err(_) => errors += 1,
                        }
                        spans.close(root, t0, Instant::now());
                    }
                    (lat, exec, sums, errors, digests, conflicts, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let queries0 = pass.sums.queries;
    for (lat, exec, sums, errors, digests, mut conflicts, spans) in per_thread {
        pass.lat.extend(&lat);
        pass.exec_ms.extend(exec);
        pass.sums.merge(&sums);
        pass.errors += errors;
        for (k, d) in digests {
            if *pass.digests.entry(k).or_insert(d) != d {
                conflicts.push(k);
            }
        }
        for key in conflicts {
            pass.digests.insert(key, (usize::MAX, 0));
        }
        pass.spans.push(spans);
    }
    let secs = start.elapsed().as_secs_f64();
    pass.phase_qps
        .push((pass.sums.queries - queries0) as f64 / secs);
}

fn check_digests(p: &Pass, out: &mut Outcome) {
    for (key, d) in &p.digests {
        if d.0 == usize::MAX {
            out.mismatch(format!("{key:?} answered differently within one run"));
        }
    }
}

/// Edit latencies and the storage they cost.
#[derive(Default)]
struct Edits {
    lat: Lat,
    failed: u64,
    physical_writes: u64,
    wal_bytes: i64,
    image_bytes: i64,
}

/// [`PHASES`] read phases sharing `secs`, each followed by an edit burst.
fn pass(
    db: &mut SecureXmlDb,
    image: &std::path::Path,
    args: &Args,
    secs: f64,
    n_edits: usize,
    traced: bool,
    edits: &mut Edits,
) -> Pass {
    let origin = Instant::now();
    let mut p = Pass::default();
    for k in 0..PHASES {
        phase(
            db,
            mix(args.seed, k as u64),
            secs / PHASES as f64,
            origin,
            traced,
            &mut p,
        );
        let io0 = db.io_stats();
        let (image0, wal0) = (file_len(image), file_len(&wal_of(image)));
        let (lat, failed) = edit_burst(
            n_edits / PHASES,
            db.len() as u64,
            mix(args.seed, 50 + k as u64),
            origin,
            |pos, allow| {
                db.set_subtree_access(pos, SubjectId(EDIT_SUBJECT), allow)
                    .is_ok()
            },
        );
        edits.lat.extend(&lat);
        edits.failed += failed;
        edits.physical_writes += db.io_stats().since(&io0).physical_writes;
        edits.wal_bytes += file_len(&wal_of(image)) as i64 - wal0 as i64;
        edits.image_bytes += file_len(image) as i64 - image0 as i64;
    }
    p
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let work = WorkDir::new("xmark-scan")?;
    let input = xmark_input(SCALE, args.seed);
    let acl = &input.acl;
    let ready = prepare(
        &input.text,
        input.doc.len(),
        SETUP_ROUNDS,
        &work.0,
        out,
        |doc| SecureXmlDb::from_document(doc, acl),
    )?;
    let mut db = ready.db;
    let image = ready.image.clone();

    // Warm-up outside the window: every query's plan once per semantics.
    for q in 0..TABLE1.len() {
        for subtree in [false, true] {
            let key = Key {
                query: q,
                subject: 0,
                subtree,
            };
            db.query(key.text(), key.security())?;
        }
    }

    let secs = args.seconds as f64;
    let mut edits = Edits::default();
    // The traced run splits its time between an untraced pass and a traced
    // one over the same seeded streams; they differ only by the spans.
    let (w, untraced_p50) = if args.trace {
        let untraced = pass(
            &mut db,
            &image,
            args,
            secs / 2.0,
            EDITS / 2,
            false,
            &mut edits,
        );
        check_digests(&untraced, out);
        let io0 = db.io_stats();
        let cache0 = db.cache_stats();
        let w = pass(
            &mut db,
            &image,
            args,
            secs / 2.0,
            EDITS / 2,
            true,
            &mut edits,
        );
        let io = db.io_stats().since(&io0);
        let cache = db.cache_stats();
        // The pass's I/O includes its edit bursts; the reads dominate it.
        let q = w.sums.queries as f64;
        out.set(
            "storage.logical_reads_per_query",
            ratio(io.logical_reads as f64, q),
        );
        out.set(
            "storage.miss_ratio",
            ratio(io.physical_reads as f64, io.logical_reads as f64),
        );
        out.set("storage.evictions_per_query", ratio(io.evictions as f64, q));
        out.set(
            "storage.shared_latch_ratio",
            ratio(
                io.read_shared as f64,
                (io.read_shared + io.read_exclusive_fallback) as f64,
            ),
        );
        let hits = (cache.plan_hits - cache0.plan_hits) as f64;
        let misses = (cache.plan_misses - cache0.plan_misses) as f64;
        out.set("nok.plan_hit_ratio", ratio(hits, hits + misses));
        (w, Some(untraced.lat.p50()))
    } else {
        (
            pass(&mut db, &image, args, secs, EDITS, false, &mut edits),
            None,
        )
    };

    let p50 = w.lat.p50();
    out.set("query_p50_ms", p50);
    out.set("query_p99_ms", w.lat.pct(0.99));
    out.set("query_qps", median(&w.phase_qps));
    out.fact("query_samples", w.lat.len());
    out.fact("query_threads", THREADS);
    out.fact(
        "query_mix",
        "Table-1 Q1-Q3 25%, Q4-Q6 75%, uniform within; 75% binding, 25% subtree; 16 subjects uniform",
    );
    out.fact("distinct_keys_seen", w.digests.len());

    // Every key must have had one answer, and a seeded sample of them must
    // equal the naive reference evaluator's.
    check_digests(&w, out);
    let keys: Vec<Key> = w.digests.keys().copied().collect();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 5));
    for _ in 0..REFERENCE_SAMPLE.min(keys.len()) {
        let key = keys[rng.gen_range(0..keys.len())];
        let got = db.query(key.text(), key.security())?;
        if digest(&got.matches) != w.digests[&key] {
            out.mismatch(format!("{key:?}: window answer differs from a repeat"));
        }
        check_reference(&input, key, &got.matches, out);
    }
    out.fact("reference_checked_keys", REFERENCE_SAMPLE);

    let disk = file_len(&image) + file_len(&wal_of(&image));
    out.set("disk_bytes_per_node", disk as f64 / ready.nodes as f64);
    out.set("update_p25_ms", edits.lat.pct(0.25));
    out.set("update_p50_ms", edits.lat.p50());
    out.set("update_p90_ms", edits.lat.pct(0.90));
    out.fact("edits", edits.lat.len());
    out.fact(
        "flush_policy",
        "embedded: one WAL fsync per update transaction",
    );

    if let Some(untraced_p50) = untraced_p50 {
        w.sums.report(out);
        out.set("nok.exec_ms_p50", median(&w.exec_ms));
        let n = edits.lat.len() as f64;
        out.set(
            "storage.physical_writes_per_edit",
            edits.physical_writes as f64 / n,
        );
        out.set("storage.wal_bytes_per_edit", edits.wal_bytes as f64 / n);
        out.set("storage.image_bytes_per_edit", edits.image_bytes as f64 / n);
        let subjects: Vec<SubjectId> = (0..SUBJECTS).map(SubjectId).collect();
        report_eps(eps_extra_reads(&db, &TABLE1[..3], &subjects), out);
        let times = trace::finish(&w.spans, &work.trace_path(args))?;
        crate::report_trace(out, &times, untraced_p50, p50, &["db.query", "nok.exec"]);
        out.unmeasured(
            "storage self time",
            "buffer-pool and file reads run inside SecureXmlDb::query; only their counters are visible",
        );
        out.unmeasured(
            "reader.*, commit.*, server.*, loadgen.*",
            "this workload calls the embedded engine directly, without readers, committer, server or an open-loop generator",
        );
    }

    out.attempted = w.sums.queries + w.errors + edits.lat.len() as u64;
    out.failed = w.errors + edits.failed;
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    Ok(())
}
