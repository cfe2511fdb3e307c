//! `serve` — multi-client secure-query serving throughput (not a paper
//! artifact).
//!
//! N client threads replay a Zipf-weighted mix of the Table-1 queries over a
//! shared [`SecureXmlDb`], each through its own [`secure_xml::DbReader`]
//! snapshot:
//! readers share the store, indexes, DOL, and the plan/result caches by
//! `Arc`, so the serving path takes no database-wide lock — page accesses on
//! the warm buffer pool take *shared* latches, and warm result-cache hits do
//! no page I/O at all. An optional writer interleaves single-node ACL
//! updates; with the MVCC epoch ring overtaken readers keep serving their
//! pinned epoch, so a snapshot refresh happens only when a reader outlives
//! the retention window (`RetentionExceeded`, the `query_with_retry`
//! fallback), and never in a read-only mix.
//!
//! Every [`PROBE_EVERY`]-th operation carries an already-expired deadline;
//! whatever the cache holds, its outcome is accounted a **bounded refusal**
//! (a warm result-cache hit is served `Ok` by the engine but the wire front
//! door refuses the same request at dispatch, so counting it as served
//! would let the in-process and wire availability columns disagree).
//!
//! Reported per client count: QPS, p50/p99 latency, plan/result cache hit
//! rates, the shared-vs-exclusive page-latch ratio, snapshot refreshes, and an
//! order-independent fingerprint of every result (equal across same-seed
//! runs — re-checked here by running one mix twice). Every read-only result
//! is also compared against a sequential oracle computed up front. Machine-
//! readable output goes to `BENCH_serve.json`.
//!
//! `--smoke` runs a pinned-seed configuration and asserts determinism, zero
//! divergences and zero refreshes on the read-only mixes, and a >90%
//! shared-latch ratio. Throughput is *reported but not gated*: the CI container
//! has a single CPU, so thread scaling is measured for shape, not asserted.

use crate::setup::{fnv, security_of, table1_oracle, xmark_doc, OpKey, Oracle, FNV_OFFSET, TABLE1};
use crate::table::{pct, Table};
use crate::Effort;
use dol_acl::{GroupSpace, SubjectId};
use dol_storage::IoStats;
use dol_workloads::{synth_multi, SynthAclConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::{CacheStats, DbError, Deadline, ExecOptions, SecureXmlDb};
use std::io::Write as _;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Pinned seed for CI smoke runs (the paper's submission date).
pub const DEFAULT_SEED: u64 = 20050405;

/// Subjects in the synthetic ACL (queries pick one uniformly).
const SUBJECTS: usize = 4;
/// Zipf exponent of the query-mix weights.
const ZIPF_EXPONENT: f64 = 1.0;
/// Per-operation bound on snapshot refreshes; exhausting it panics (never
/// hit in practice: a fresh snapshot is inside the retention window until
/// the writer commits that many more times).
const MAX_REFRESHES: u32 = 1000;
/// Every `PROBE_EVERY`-th operation (offset [`PROBE_OFFSET`]) carries an
/// already-expired deadline. Whatever the cache state, the outcome is a
/// **bounded refusal**: a cold probe aborts with the typed
/// `DeadlineExceeded`, and a warm result-cache hit — served `Ok` by the
/// engine, since a hit costs no I/O — is classified the same way, because
/// the wire front door (`dol-server`) refuses any request whose deadline
/// lapsed before dispatch. Counting that hit as *served* here would make
/// the in-process availability column disagree with the wire's.
const PROBE_EVERY: usize = 16;
/// Probe phase offset, coprime with the update cadence so the update mix
/// never swallows a probe slot.
const PROBE_OFFSET: usize = 3;

/// One serving mix configuration.
struct MixConfig {
    clients: usize,
    ops_per_client: usize,
    /// Client 0 replaces every `update_every`-th operation with an ACL
    /// update through the write lock; `0` = read-only mix.
    update_every: usize,
    seed: u64,
    /// Subject ids the mix draws from (flat ids, or sampled factored
    /// users under `--subjects=N`).
    pool: Vec<u32>,
}

/// Everything one mix run reports.
struct MixReport {
    clients: usize,
    read_only: bool,
    queries: u64,
    updates: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    plan_hit_rate: f64,
    /// Query→automaton lowerings during the mix. After the first mix warms
    /// the plan cache this stays 0: serving reuses cached lowerings.
    plan_compiles: u64,
    result_hit_rate: f64,
    shared_reads: u64,
    exclusive_fallbacks: u64,
    /// Snapshot refreshes caused by `RetentionExceeded` — the fallback for
    /// readers held past the retention window.
    retention_refreshes: u64,
    divergences: u64,
    /// Expired-deadline probe operations — all of them refused, whether the
    /// refusal was a typed `DeadlineExceeded` abort (cold) or a warm
    /// result-cache hit reclassified to match the wire semantics.
    bounded_refusals: u64,
    /// The warm-hit share of [`bounded_refusals`](Self::bounded_refusals):
    /// probes the engine answered `Ok` from the result cache.
    warm_refusals: u64,
    /// Queries aborted by a deadline during the mix. Only the expired
    /// probes set deadlines, so this must reconcile as
    /// `bounded_refusals - warm_refusals`.
    deadline_aborts: u64,
    fingerprint: u64,
}

impl MixReport {
    fn shared_ratio(&self) -> f64 {
        let total = self.shared_reads + self.exclusive_fallbacks;
        if total == 0 {
            return 1.0; // no page access at all (fully cache-served)
        }
        self.shared_reads as f64 / total as f64
    }

    /// Fraction of query operations that produced an answer: bounded
    /// refusals are subtracted — a warm-cache `Ok` under an expired
    /// deadline counts as refused, exactly as the wire front door accounts
    /// it.
    fn availability(&self) -> f64 {
        if self.queries == 0 {
            return 1.0;
        }
        (self.queries - self.bounded_refusals) as f64 / self.queries as f64
    }
}

struct ClientOutcome {
    latencies_ns: Vec<u64>,
    queries: u64,
    updates: u64,
    retention_refreshes: u64,
    divergences: u64,
    bounded_refusals: u64,
    warm_refusals: u64,
    fingerprint: u64,
}

/// Zipf cumulative weights over the Table-1 queries.
fn zipf_cumulative() -> Vec<f64> {
    let mut cum = Vec::with_capacity(TABLE1.len());
    let mut total = 0.0;
    for i in 0..TABLE1.len() {
        total += 1.0 / ((i + 1) as f64).powf(ZIPF_EXPONENT);
        cum.push(total);
    }
    cum
}

fn pick_weighted(rng: &mut StdRng, cum: &[f64]) -> usize {
    let total = *cum.last().expect("nonempty mix");
    let r = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= r).min(cum.len() - 1)
}

/// Draws one operation of the mix (shared by clients and the oracle).
fn draw_op(rng: &mut StdRng, cum: &[f64], pool: &[u32]) -> OpKey {
    let qi = pick_weighted(rng, cum);
    let subject = pool[rng.gen_range(0..pool.len())];
    let subtree_vis = rng.gen_bool(0.25);
    (qi, subject, subtree_vis)
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        plan_compiles: after.plan_compiles - before.plan_compiles,
        result_hits: after.result_hits - before.result_hits,
        result_misses: after.result_misses - before.result_misses,
        deadline_aborts: after.deadline_aborts - before.deadline_aborts,
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

/// Runs one serving mix and gathers its report. The oracle check only
/// applies to read-only mixes (updates change the answers mid-run).
fn run_mix(db: &Arc<RwLock<SecureXmlDb>>, oracle: &Oracle, cfg: &MixConfig) -> MixReport {
    let (io0, cache0) = {
        let g = db.read().expect("db lock");
        (g.io_stats(), g.cache_stats())
    };
    let cum = zipf_cumulative();
    let start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                let cum = &cum;
                scope.spawn(move || run_client(db, oracle, cfg, client, cum))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = start.elapsed();
    let (io1, cache1) = {
        let g = db.read().expect("db lock");
        (g.io_stats(), g.cache_stats())
    };
    let io = io1.since(&io0);
    let caches = cache_delta(cache1, cache0);

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let queries: u64 = outcomes.iter().map(|o| o.queries).sum();
    MixReport {
        clients: cfg.clients,
        read_only: cfg.update_every == 0,
        queries,
        updates: outcomes.iter().map(|o| o.updates).sum(),
        qps: queries as f64 / elapsed.as_secs_f64(),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        plan_hit_rate: hit_rate(caches.plan_hits, caches.plan_misses),
        plan_compiles: caches.plan_compiles,
        result_hit_rate: hit_rate(caches.result_hits, caches.result_misses),
        shared_reads: io.read_shared,
        exclusive_fallbacks: io.read_exclusive_fallback,
        retention_refreshes: outcomes.iter().map(|o| o.retention_refreshes).sum(),
        divergences: outcomes.iter().map(|o| o.divergences).sum(),
        bounded_refusals: outcomes.iter().map(|o| o.bounded_refusals).sum(),
        warm_refusals: outcomes.iter().map(|o| o.warm_refusals).sum(),
        deadline_aborts: caches.deadline_aborts,
        // Order-independent across clients: XOR of per-client streams.
        fingerprint: outcomes.iter().fold(0, |h, o| h ^ o.fingerprint),
    }
}

fn run_client(
    db: &Arc<RwLock<SecureXmlDb>>,
    oracle: &Oracle,
    cfg: &MixConfig,
    client: usize,
    cum: &[f64],
) -> ClientOutcome {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut reader = db.read().expect("db lock").reader();
    let mut out = ClientOutcome {
        latencies_ns: Vec::with_capacity(cfg.ops_per_client),
        queries: 0,
        updates: 0,
        retention_refreshes: 0,
        divergences: 0,
        bounded_refusals: 0,
        warm_refusals: 0,
        fingerprint: FNV_OFFSET,
    };
    for op in 0..cfg.ops_per_client {
        if cfg.update_every > 0 && client == 0 && (op + 1) % cfg.update_every == 0 {
            let mut g = db.write().expect("db lock");
            let pos = rng.gen_range(1..g.len() as u64);
            let subject = SubjectId(cfg.pool[rng.gen_range(0..cfg.pool.len())]);
            let allow = rng.gen_bool(0.5);
            g.set_node_access(pos, subject, allow)
                .expect("serve update");
            out.updates += 1;
            continue;
        }
        if op % PROBE_EVERY == PROBE_OFFSET {
            // Expired-deadline probe: dol-server refuses any request whose
            // deadline lapsed before dispatch, warm cache or not, so both
            // outcomes here are bounded refusals — never "served".
            let key = draw_op(&mut rng, cum, &cfg.pool);
            let t0 = Instant::now();
            loop {
                let opts = ExecOptions {
                    deadline: Deadline::after(Duration::ZERO),
                    ..ExecOptions::default()
                };
                match reader.query_opts(TABLE1[key.0].1, security_of(key), opts) {
                    Ok(_) => {
                        out.warm_refusals += 1;
                        break;
                    }
                    Err(DbError::DeadlineExceeded(_)) => break,
                    Err(DbError::RetentionExceeded { .. }) => {
                        out.retention_refreshes += 1;
                        reader = db.read().expect("db lock").reader();
                    }
                    Err(e) => panic!("client {client} probe failed: {e}"),
                }
            }
            out.bounded_refusals += 1;
            out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
            out.queries += 1;
            continue;
        }
        let key = draw_op(&mut rng, cum, &cfg.pool);
        let security = security_of(key);
        let t0 = Instant::now();
        // The refresh loop `query_with_retry` runs, unrolled here so the
        // refreshes are counted.
        let mut refreshes = 0u32;
        let result = loop {
            match reader.query(TABLE1[key.0].1, security) {
                Ok(r) => break r,
                Err(DbError::RetentionExceeded { .. }) if refreshes < MAX_REFRESHES => {
                    refreshes += 1;
                    out.retention_refreshes += 1;
                    reader = db.read().expect("db lock").reader();
                }
                Err(e) => panic!("client {client} query failed: {e}"),
            }
        };
        out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        out.queries += 1;
        // Fingerprint the (operation, answer) pair, order-sensitively
        // within this client's deterministic stream.
        let h = &mut out.fingerprint;
        let len = result.matches.len() as u64;
        for x in [op as u64, key.0 as u64, key.1.into(), key.2.into(), len] {
            fnv(h, &x.to_le_bytes());
        }
        for m in &result.matches {
            fnv(h, &m.to_le_bytes());
        }
        if cfg.update_every == 0 {
            match oracle.get(&key) {
                Some(expect) if *expect == result.matches => {}
                _ => out.divergences += 1,
            }
        }
    }
    out
}

/// Escapes nothing (the emitted strings are plain identifiers); formats one
/// report as a JSON object.
fn json_object(r: &MixReport) -> String {
    format!(
        "{{\"clients\": {}, \"read_only\": {}, \"queries\": {}, \"updates\": {}, \
         \"qps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
         \"plan_hit_rate\": {:.4}, \"plan_compiles\": {}, \"result_hit_rate\": {:.4}, \
         \"shared_reads\": {}, \"exclusive_fallbacks\": {}, \"shared_ratio\": {:.4}, \
         \"retention_refreshes\": {}, \"bounded_refusals\": {}, \"warm_refusals\": {}, \
         \"availability\": {:.4}, \
         \"deadline_aborts\": {}, \"divergences\": {}, \
         \"fingerprint\": \"{:#018x}\"}}",
        r.clients,
        r.read_only,
        r.queries,
        r.updates,
        r.qps,
        r.p50_us,
        r.p99_us,
        r.plan_hit_rate,
        r.plan_compiles,
        r.result_hit_rate,
        r.shared_reads,
        r.exclusive_fallbacks,
        r.shared_ratio(),
        r.retention_refreshes,
        r.bounded_refusals,
        r.warm_refusals,
        r.availability(),
        r.deadline_aborts,
        r.divergences,
        r.fingerprint,
    )
}

fn write_json(
    seed: u64,
    scale: f64,
    nodes: usize,
    subject_count: usize,
    runs: &[MixReport],
    deterministic: bool,
    session_io: IoStats,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"serve\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"xmark_scale\": {scale},\n"));
    out.push_str(&format!("  \"nodes\": {nodes},\n"));
    out.push_str(&format!("  \"subjects\": {subject_count},\n"));
    out.push_str(&format!("  \"zipf_exponent\": {ZIPF_EXPONENT},\n"));
    out.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    out.push_str(&format!(
        "  \"session_shared_ratio\": {:.4},\n",
        shared_ratio_of(session_io)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&json_object(r));
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    match std::fs::File::create("BENCH_serve.json").and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("(wrote BENCH_serve.json)\n"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
}

fn shared_ratio_of(io: IoStats) -> f64 {
    let total = io.read_shared + io.read_exclusive_fallback;
    if total == 0 {
        return 1.0;
    }
    io.read_shared as f64 / total as f64
}

/// Builds the corporate group hierarchy (company -> departments -> teams)
/// the `--subjects=N` serving population factors through; team group ids
/// double as physical columns (groups are created first, in column order).
fn corporate_space(departments: usize, teams_per_dept: usize) -> (GroupSpace, Vec<SubjectId>) {
    let mut space = GroupSpace::new();
    let company = space.add_subject(&[]);
    space.bind_direct(company, company.0);
    let mut depts = Vec::with_capacity(departments);
    for _ in 0..departments {
        let g = space.add_subject(&[company]);
        space.bind_direct(g, g.0);
        depts.push(g);
    }
    let mut teams = Vec::with_capacity(departments * teams_per_dept);
    for &dept in &depts {
        for _ in 0..teams_per_dept {
            let g = space.add_subject(&[dept]);
            space.bind_direct(g, g.0);
            teams.push(g);
        }
    }
    (space, teams)
}

/// Runs the serving benchmark. `max_clients` caps the thread-scaling sweep
/// (`0` = default of 4); `smoke` pins a small deterministic configuration
/// and asserts the invariants CI depends on. `subjects` lifts the serving
/// population off the hardcoded 4: `0` keeps the legacy flat build
/// byte-for-byte (the smoke gate's configuration); `N > 0` labels the same
/// document over the corporate group hierarchy's physical columns, registers
/// `N` users through the membership table, and serves the mix from a sampled
/// user pool — the factored serving path at population scale.
pub fn run(effort: Effort, seed: u64, max_clients: usize, smoke: bool, subjects: usize) {
    let max_clients = match max_clients {
        0 => 4,
        n => n,
    };
    let scale = if smoke { 0.05 } else { effort.scale(0.08, 0.5) };
    let ops = if smoke { 300 } else { effort.pick(500, 3000) };
    let doc = xmark_doc(scale);
    let nodes = doc.len();
    let acl_cfg = SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.6,
        sibling_locality: 0.5,
        seed,
    };
    let (db, pool) = if subjects == 0 {
        let map = synth_multi(&doc, &acl_cfg, SUBJECTS);
        let db = SecureXmlDb::from_document(doc, &map).expect("build db");
        (db, (0..SUBJECTS as u32).collect::<Vec<u32>>())
    } else {
        let (space, teams) = corporate_space(8, 8);
        let physical = space.len();
        let map = synth_multi(&doc, &acl_cfg, physical);
        let mut db =
            SecureXmlDb::from_document_factored(doc, &map, space).expect("build factored db");
        // Register the population purely through the membership table,
        // chunked per team; user ids are contiguous from `physical`.
        for (ti, &team) in teams.iter().enumerate() {
            let count = subjects / teams.len() + usize::from(ti < subjects % teams.len());
            if count > 0 {
                db.add_grouped_subjects(count, &[team])
                    .expect("register users");
            }
        }
        let n_pool = subjects.min(32);
        let pool = (0..n_pool)
            .map(|k| (physical + k * subjects / n_pool) as u32)
            .collect();
        (db, pool)
    };
    let subject_count = if subjects == 0 { SUBJECTS } else { subjects };
    let oracle = table1_oracle(&db, pool.iter().copied());
    db.reset_io_stats(); // exclude build + oracle I/O from the lock ratios
    let session_io0 = db.io_stats();
    let db = Arc::new(RwLock::new(db));

    let mut t = Table::new(
        &format!(
            "secure serving throughput (XMark {nodes} nodes, {subject_count} subjects \
             ({} in the mix pool), Zipf Table-1 mix, {ops} ops/client, seed {seed})",
            pool.len()
        ),
        &[
            "clients",
            "mode",
            "QPS",
            "p50",
            "p99",
            "result hits",
            "plan hits",
            "compiles",
            "shared latch",
            "refreshes",
            "avail",
            "refused",
            "deadline aborts",
            "divergences",
        ],
    );
    let mut runs: Vec<MixReport> = Vec::new();

    // Read-only thread-scaling sweep. On the 1-CPU CI container the QPS
    // column measures overhead, not scaling — reported, never gated.
    let mut clients = 1usize;
    while clients <= max_clients {
        let cfg = MixConfig {
            clients,
            ops_per_client: ops,
            update_every: 0,
            seed,
            pool: pool.clone(),
        };
        let r = run_mix(&db, &oracle, &cfg);
        push_row(&mut t, &r);
        runs.push(r);
        clients *= 2;
    }

    // Determinism: replay the first configuration with the same seed; the
    // result fingerprints must be bit-identical (the result cache is warm
    // now, so this also proves cached answers equal executed answers).
    let replay = run_mix(
        &db,
        &oracle,
        &MixConfig {
            clients: 1,
            ops_per_client: ops,
            update_every: 0,
            seed,
            pool: pool.clone(),
        },
    );
    let deterministic = replay.fingerprint == runs[0].fingerprint;
    push_row(&mut t, &replay);
    runs.push(replay);

    // Update mix: client 0 interleaves ACL updates; readers held past the
    // retention window refresh.
    let update_cfg = MixConfig {
        clients: 2,
        ops_per_client: ops,
        update_every: 8,
        seed: seed ^ 0xffff,
        pool: pool.clone(),
    };
    let upd = run_mix(&db, &oracle, &update_cfg);
    push_row(&mut t, &upd);
    runs.push(upd);
    t.print();

    let session_io = db.read().expect("db lock").io_stats().since(&session_io0);
    println!(
        "(Session shared-latch ratio {} over {} page reads; determinism replay {}.)\n",
        pct(shared_ratio_of(session_io)),
        session_io.read_shared + session_io.read_exclusive_fallback,
        if deterministic { "matched" } else { "DIVERGED" },
    );
    write_json(
        seed,
        scale,
        nodes,
        subject_count,
        &runs,
        deterministic,
        session_io,
    );

    if smoke {
        assert!(deterministic, "same-seed replay fingerprint diverged");
        for r in &runs {
            // Bounded-refusal accounting: every expired-deadline probe is
            // deterministic in count, and each one resolves either as a
            // typed cold abort (CacheStats::deadline_aborts) or as a
            // warm-cache hit reclassified to a refusal — never as served.
            assert_eq!(
                r.bounded_refusals,
                probes_per_client(ops) * r.clients as u64,
                "an expired-deadline probe escaped the bounded-refusal column"
            );
            assert!(
                r.availability() < 1.0,
                "bounded refusals were counted as served availability"
            );
            assert_eq!(
                (r.queries - r.bounded_refusals) as f64 / r.queries as f64,
                r.availability(),
                "non-probe operations went unanswered"
            );
            assert_eq!(
                r.deadline_aborts + r.warm_refusals,
                r.bounded_refusals,
                "cold aborts + warm-hit reclassifications failed to cover the probes"
            );
            if r.read_only {
                assert_eq!(
                    r.retention_refreshes, 0,
                    "a read-only mix cannot age past the retention window"
                );
                assert_eq!(r.divergences, 0, "reader answers diverged from the oracle");
            }
        }
        assert!(
            session_io.read_shared > 0,
            "serving mix never took the shared read path"
        );
        assert!(
            shared_ratio_of(session_io) > 0.90,
            "shared-latch ratio {:.4} <= 0.90",
            shared_ratio_of(session_io)
        );
        println!("serve --smoke: all assertions passed\n");
    }
}

/// Deterministic expired-deadline probe count of one client's op stream
/// (the update cadence never collides with a probe slot).
fn probes_per_client(ops: usize) -> u64 {
    (0..ops)
        .filter(|op| op % PROBE_EVERY == PROBE_OFFSET)
        .count() as u64
}

fn push_row(t: &mut Table, r: &MixReport) {
    t.row(&[
        r.clients.to_string(),
        if r.read_only {
            "read-only".into()
        } else {
            format!("updates/{}", 8)
        },
        format!("{:.0}", r.qps),
        format!("{:.1} us", r.p50_us),
        format!("{:.1} us", r.p99_us),
        pct(r.result_hit_rate),
        pct(r.plan_hit_rate),
        r.plan_compiles.to_string(),
        pct(r.shared_ratio()),
        r.retention_refreshes.to_string(),
        pct(r.availability()),
        r.bounded_refusals.to_string(),
        r.deadline_aborts.to_string(),
        r.divergences.to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_weights_are_cumulative_and_skewed() {
        let cum = zipf_cumulative();
        assert_eq!(cum.len(), TABLE1.len());
        assert!(cum.windows(2).all(|w| w[0] < w[1]));
        // The head query carries the largest single weight.
        let w0 = cum[0];
        let w_last = cum[TABLE1.len() - 1] - cum[TABLE1.len() - 2];
        assert!(w0 > w_last * 2.0);
        // Sampling respects the skew, roughly.
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            counts[pick_weighted(&mut rng, &cum)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn smoke_mix_on_a_tiny_db() {
        let doc = xmark_doc(0.01);
        let map = synth_multi(
            &doc,
            &SynthAclConfig {
                propagation_ratio: 0.05,
                accessibility_ratio: 0.6,
                sibling_locality: 0.5,
                seed: 3,
            },
            SUBJECTS,
        );
        let db = SecureXmlDb::from_document(doc, &map).unwrap();
        let pool: Vec<u32> = (0..SUBJECTS as u32).collect();
        let oracle = table1_oracle(&db, pool.iter().copied());
        db.reset_io_stats();
        let db = Arc::new(RwLock::new(db));
        let cfg = MixConfig {
            clients: 2,
            ops_per_client: 40,
            update_every: 0,
            seed: 11,
            pool: pool.clone(),
        };
        let a = run_mix(&db, &oracle, &cfg);
        let b = run_mix(&db, &oracle, &cfg);
        assert_eq!(a.fingerprint, b.fingerprint, "same-seed mixes must agree");
        assert_eq!(a.divergences + b.divergences, 0);
        assert_eq!(a.retention_refreshes + b.retention_refreshes, 0);
        assert!(b.result_hit_rate > 0.9, "second run must be cache-warm");

        // And with updates: every query is answered (an exhausted refresh
        // budget or any other error panics the client).
        let upd = run_mix(
            &db,
            &oracle,
            &MixConfig {
                clients: 2,
                ops_per_client: 40,
                update_every: 4,
                seed: 11,
                pool,
            },
        );
        assert!(upd.updates > 0);
    }
}
