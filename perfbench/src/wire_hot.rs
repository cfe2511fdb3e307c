//! `wire-hot`: read-only traffic through the wire front door with a working
//! set that fits every cache.
//!
//! XMark at scale 2 (about 53k nodes, a 3.4 MB image) fits the default
//! 4 MiB pool. `Server::start` serves the reopened image on a loopback port
//! in this process. Two client connections run a closed loop over the
//! Table-1 queries (Zipf 1 over Q1–Q6) × 16 subjects × 2 semantics: 192
//! keys, all inside the 1024-entry result cache, so after the warm-up pass
//! nearly every query is a result-cache hit.
//!
//! Why: the engine does almost nothing. Frame and JSON coding, the
//! per-connection threads, admission and the cache lookup are the whole
//! cost, so this is the bypass case for every engine or storage change.
//! Between the read phases a burst of durable subtree ACL edits goes
//! through the server's group committer (default flush policy: one fsync
//! per batch). The edits change only a subject column no query reads; each
//! commit still bumps the epoch, so the first query of each key after a
//! burst misses the result cache.

use crate::engine_load::{
    edit_burst, eps_extra_reads, report_eps, xmark_input, Key, EDIT_SUBJECT, SUBJECTS, TABLE1,
};
use crate::report::{median, ratio, Lat, Outcome};
use crate::setup::{file_len, mix, prepare, wal_of, WorkDir, PHASES};
use crate::trace::{self, SpanBuf};
use crate::wire::{self, client_err, READ_TIMEOUT};
use crate::Args;
use dol_acl::SubjectId;
use dol_server::{Client, Server, ServerConfig, UpdateOp, WireSemantics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::SecureXmlDb;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::time::{Duration, Instant};

const SCALE: f64 = 2.0;
const CONNECTIONS: usize = 2;
const SETUP_ROUNDS: usize = 7;
/// Durable edits per run, spread over the bursts between read phases.
const EDITS: usize = 100;
/// The server's result-cache capacity the key space is sized against.
const RESULT_CACHE_ENTRIES: usize = 1024;

/// Zipf(1) draw over the six queries.
fn draw(rng: &mut StdRng) -> Key {
    let weights: [f64; 6] = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0];
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    let mut query = weights.len() - 1;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            query = i;
            break;
        }
        x -= w;
    }
    Key {
        query,
        subject: rng.gen_range(0..SUBJECTS),
        subtree: rng.gen_bool(0.5),
    }
}

fn semantics(key: Key) -> WireSemantics {
    if key.subtree {
        WireSemantics::Subtree
    } else {
        WireSemantics::Binding
    }
}

/// What the read phases of one pass produced.
#[derive(Default)]
struct Pass {
    lat: Lat,
    ok: u64,
    errors: BTreeMap<String, u64>,
    wrong: Vec<Key>,
    /// Queries per second of each phase.
    phase_qps: Vec<f64>,
    spans: Vec<SpanBuf>,
}

/// One read phase: every connection runs a closed loop for `secs` on its
/// own seeded stream, checking each answer against the in-process one.
fn phase(
    clients: &mut [Client],
    expected: &HashMap<Key, Vec<u64>>,
    seed: u64,
    secs: f64,
    origin: Instant,
    traced: bool,
    pass: &mut Pass,
) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let per_conn: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix(seed, 200 + c as u64));
                    let mut spans = SpanBuf::new(traced, origin);
                    let mut lat = Lat::default();
                    let mut ok = 0u64;
                    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
                    let mut wrong = Vec::new();
                    let mut req = (seed << 8 | c as u64) << 32;
                    while Instant::now() < stop {
                        req += 1;
                        let key = draw(&mut rng);
                        let root = spans.open("bench.op", req, None);
                        let t0 = Instant::now();
                        let res = client.query(key.text(), key.subject, semantics(key), None);
                        let t1 = Instant::now();
                        spans.leaf("server.call", req, root, t0, t1);
                        lat.push(t1 - origin, (t1 - t0).as_secs_f64() * 1e3);
                        match res {
                            Ok(m) if expected.get(&key) == Some(&m) => ok += 1,
                            Ok(_) => wrong.push(key),
                            Err(e) => *errors.entry(wire::error_code(&e)).or_default() += 1,
                        }
                        spans.close(root, t0, Instant::now());
                    }
                    (lat, ok, errors, wrong, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let ok0 = pass.ok;
    for (lat, ok, errors, wrong, spans) in per_conn {
        pass.lat.extend(&lat);
        pass.ok += ok;
        for (k, n) in errors {
            *pass.errors.entry(k).or_default() += n;
        }
        pass.wrong.extend(wrong);
        pass.spans.push(spans);
    }
    pass.phase_qps
        .push((pass.ok - ok0) as f64 / start.elapsed().as_secs_f64());
}

/// [`PHASES`] read phases sharing `secs`, each followed by a burst of
/// durable edits sent through `admin`.
#[allow(clippy::too_many_arguments)]
fn pass(
    clients: &mut [Client],
    admin: &mut Client,
    expected: &HashMap<Key, Vec<u64>>,
    nodes: u64,
    args: &Args,
    secs: f64,
    n_edits: usize,
    traced: bool,
    edits: &mut (Lat, u64),
) -> Pass {
    let origin = Instant::now();
    let mut p = Pass::default();
    for k in 0..PHASES {
        let seed = mix(args.seed, k as u64);
        phase(
            clients,
            expected,
            seed,
            secs / PHASES as f64,
            origin,
            traced,
            &mut p,
        );
        let (lat, failed) = edit_burst(
            n_edits / PHASES,
            nodes,
            mix(args.seed, 50 + k as u64),
            origin,
            |pos, allow| {
                let op = UpdateOp::SetSubtreeAccess {
                    pos,
                    subject: EDIT_SUBJECT,
                    allow,
                };
                admin.update(op, None).is_ok()
            },
        );
        edits.0.extend(&lat);
        edits.1 += failed;
    }
    p
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let work = WorkDir::new("wire-hot")?;
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
    let db = ready.db;
    let image = ready.image.clone();

    // Every key's in-process answer on the same image: the wire must agree.
    let mut expected = HashMap::new();
    for query in 0..TABLE1.len() {
        for subject in 0..SUBJECTS {
            for subtree in [false, true] {
                let key = Key {
                    query,
                    subject,
                    subtree,
                };
                expected.insert(key, db.query(key.text(), key.security())?.matches);
            }
        }
    }
    out.fact("distinct_keys", expected.len());
    out.fact("result_cache_entries", RESULT_CACHE_ENTRIES);
    if args.trace {
        let subjects: Vec<SubjectId> = (0..SUBJECTS).map(SubjectId).collect();
        report_eps(eps_extra_reads(&db, &TABLE1[..3], &subjects), out);
        let mean_answers = expected.values().map(Vec::len).sum::<usize>() / expected.len().max(1);
        out.set("server.codec_us", wire::codec_us(mean_answers));
    }

    let server = Server::start(db, ServerConfig::default())?;
    let addr = server.local_addr().to_string();
    let mut admin = Client::connect(&addr, READ_TIMEOUT).map_err(client_err)?;
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(&addr, READ_TIMEOUT).map_err(client_err)?);
    }
    // Warm-up: every key once, filling the result cache.
    let mut keys: Vec<Key> = expected.keys().copied().collect();
    keys.sort();
    for &key in &keys {
        match admin.query(key.text(), key.subject, semantics(key), None) {
            Ok(m) if m == expected[&key] => {}
            Ok(_) => out.mismatch(format!("{key:?}: wire answer differs from in-process")),
            Err(e) => out.mismatch(format!("{key:?}: warm-up failed: {e}")),
        }
    }

    let secs = args.seconds as f64;
    let nodes = ready.nodes;
    let mut edits = (Lat::default(), 0u64);
    let s0 = wire::snapshot(&mut admin).map_err(client_err)?;
    let (image0, wal0) = (file_len(&image), file_len(&wal_of(&image)));
    let mut run_pass = |secs: f64, n_edits: usize, traced: bool, edits: &mut (Lat, u64)| {
        pass(
            &mut clients,
            &mut admin,
            &expected,
            nodes,
            args,
            secs,
            n_edits,
            traced,
            edits,
        )
    };
    // The traced run splits its time between an untraced pass and a traced
    // one over the same seeded streams; they differ only by the spans.
    let (w, untraced_p50) = if args.trace {
        let untraced = run_pass(secs / 2.0, EDITS / 2, false, &mut edits);
        for key in &untraced.wrong {
            out.mismatch(format!("{key:?}: wire answer differs from in-process"));
        }
        let w = run_pass(secs / 2.0, EDITS / 2, true, &mut edits);
        (w, Some(untraced.lat.p50()))
    } else {
        (run_pass(secs, EDITS, false, &mut edits), None)
    };
    let s1 = wire::snapshot(&mut admin).map_err(client_err)?;
    let (image1, wal1) = (file_len(&image), file_len(&wal_of(&image)));
    for key in &w.wrong {
        out.mismatch(format!("{key:?}: wire answer differs from in-process"));
    }
    let p50 = w.lat.p50();
    out.set("query_p50_ms", p50);
    out.set("query_p99_ms", w.lat.pct(0.99));
    out.set("query_qps", median(&w.phase_qps));
    out.fact("query_samples", w.lat.len());
    out.fact("connections", CONNECTIONS);
    out.fact(
        "query_mix",
        "Table-1 Q1-Q6 Zipf(1); 50% binding, 50% subtree; 16 subjects uniform",
    );
    let query_errors: u64 = w.errors.values().sum();
    for (code, n) in &w.errors {
        out.findings.push(format!("query errors {code}: {n}"));
    }
    out.set("disk_bytes_per_node", (image1 + wal1) as f64 / nodes as f64);
    let (edit_lat, edit_failed) = edits;
    out.set("update_p25_ms", edit_lat.pct(0.25));
    out.set("update_p50_ms", edit_lat.p50());
    out.set("update_p90_ms", edit_lat.pct(0.90));
    out.fact("edits", edit_lat.len());
    out.fact(
        "flush_policy",
        "server default group commit: one fsync per batch (max 16, 2 ms window)",
    );

    if let Some(untraced_p50) = untraced_p50 {
        // Counters span both passes and their edit bursts.
        let mut call: Vec<f64> = w.lat.ms.clone();
        call.sort_by(f64::total_cmp);
        s1.report_window(&s0, median(&call), out);
        let n = edit_lat.len() as f64;
        out.set(
            "storage.physical_writes_per_edit",
            (s1.physical_writes - s0.physical_writes) as f64 / n,
        );
        out.set(
            "storage.wal_bytes_per_edit",
            (wal1 as f64 - wal0 as f64) / n,
        );
        out.set(
            "storage.image_bytes_per_edit",
            (image1 as f64 - image0 as f64) / n,
        );
        let batches = (s1.batches - s0.batches) as f64;
        out.set("commit.batches_per_edit", batches / n);
        out.set(
            "commit.mean_batch",
            ratio((s1.committed - s0.committed) as f64, batches),
        );
        let times = trace::finish(&w.spans, &work.trace_path(args))?;
        crate::report_trace(out, &times, untraced_p50, p50, &["server.call"]);
        out.unmeasured(
            "storage.evictions_per_query, storage.shared_latch_ratio",
            "the server's stats reply exposes no eviction or latch counters",
        );
        out.unmeasured(
            "nok.* engine counters, core.nodes_denied_per_query, core.blocks_skipped_per_query",
            "ExecStats do not cross the wire, and result-cache hits run no engine",
        );
        out.unmeasured(
            "core.transitions_per_edit, loadgen.*",
            "edits here go to a column no query reads and no in-process mirror replays them; the loop is closed",
        );
    }

    drop(clients);
    drop(admin);
    drop(server);
    out.attempted = w.ok + w.wrong.len() as u64 + query_errors + edit_lat.len() as u64;
    out.failed = query_errors + edit_failed;
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    Ok(())
}
