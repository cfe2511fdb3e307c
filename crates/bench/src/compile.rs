//! Compiled twig execution latency on the Table-1 mix.
//!
//! Every run uses a **warm plan cache** (each query is parsed and lowered to
//! a [`dol_nok::CompiledPlan`] once, and that lowering serves every run) and
//! **no result cache** (the engine has none — every run touches the
//! matcher). Each query runs under both security modes and against both a
//! cold and a warm buffer pool, reporting p50/p99 latencies and the Table-1
//! mix p50 (the sum of per-query p50s).
//!
//! Every run's answer is asserted equal to the naive reference evaluator's
//! ([`dol_nok::reference::naive_eval_str`], computed straight from the
//! in-memory document and the subject's accessibility map) in every
//! configuration; `--smoke` runs a small pinned instance under the same
//! assertions plus one lowering per query. Latencies are recorded, never
//! gated, so CI stays robust to noisy neighbors.

use crate::setup::{
    synth_column, xmark_doc, BenchDb, ColumnOracle, Q3_SINGLE_PATH, SUBJECT, TABLE1,
};
use crate::table::Table;
use crate::Effort;
use dol_acl::AccessibilityMap;
use dol_nok::reference::{naive_eval_str, RefSecurity};
use dol_nok::{ExecOptions, PlanCache, QueryEngine, Security};
use std::io::Write;
use std::time::Instant;

/// One (query, security, cache-temperature) measurement.
struct Row {
    query_id: &'static str,
    security: &'static str,
    cache: &'static str,
    p50_us: f64,
    p99_us: f64,
    answers: usize,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Times `iters` runs of `run`, returning sorted latencies in nanoseconds.
/// `prepare` runs before each iteration outside the timed window (the cold
/// configurations clear the buffer pool there).
fn time_runs(
    iters: usize,
    mut prepare: impl FnMut(),
    mut run: impl FnMut() -> Vec<u64>,
    expect: &[u64],
) -> Vec<u64> {
    let mut ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        prepare();
        let t = Instant::now();
        let matches = run();
        ns.push(t.elapsed().as_nanos() as u64);
        assert_eq!(matches, expect, "every run must answer as the reference");
    }
    ns.sort_unstable();
    ns
}

/// Runs the compiled-execution experiment. `smoke` pins a small instance;
/// the reference assertions hold in every mode.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let scale = if smoke { 0.05 } else { effort.scale(0.2, 1.0) };
    let warm_iters = if smoke { 9 } else { effort.pick(31, 101) };
    let cold_iters = if smoke { 5 } else { effort.pick(9, 21) };
    let doc = xmark_doc(scale);
    let nodes = doc.len();
    let col = synth_column(&doc, 0.6, 0.05, seed);
    let mut map = AccessibilityMap::new(1, nodes);
    *map.column_mut(SUBJECT) = col.clone();
    let db = BenchDb::build(doc, &ColumnOracle(col), 4096);
    let engine: QueryEngine<'_> = db.engine();
    let cache = PlanCache::new(16);

    println!(
        "compiled twig execution (XMark {nodes} nodes, seed {seed}, warm plan cache, \
         no result cache, answers checked against the reference evaluator)\n"
    );

    let mut queries: Vec<(&str, &str)> = TABLE1.to_vec();
    queries.push(Q3_SINGLE_PATH);
    let mut rows: Vec<Row> = Vec::new();
    for (qid, q) in &queries {
        // Parse once, lower once: the warm plan cache every run shares.
        let (plan, compiled) = cache
            .get_or_compile(q, db.doc.tags())
            .expect("Table-1 query parses");
        for (sec_name, sec, reference) in [
            ("none", Security::None, RefSecurity::None),
            (
                "binding",
                Security::BindingLevel(SUBJECT),
                RefSecurity::Binding(&map, SUBJECT),
            ),
        ] {
            let expect = naive_eval_str(&db.doc, q, reference);
            for (cache_name, cold) in [("warm", false), ("cold", true)] {
                let iters = if cold { cold_iters } else { warm_iters };
                let prepare = || {
                    if cold {
                        db.pool.clear_cache().expect("clear");
                    }
                };
                let ns = time_runs(
                    iters,
                    prepare,
                    || {
                        engine
                            .execute_compiled_opts(&plan, &compiled, sec, ExecOptions::default())
                            .expect("compiled run")
                            .matches
                    },
                    &expect,
                );
                rows.push(Row {
                    query_id: qid,
                    security: sec_name,
                    cache: cache_name,
                    p50_us: percentile_us(&ns, 0.50),
                    p99_us: percentile_us(&ns, 0.99),
                    answers: expect.len(),
                });
            }
        }
    }

    let mut t = Table::new(
        "compiled twig execution",
        &["query", "security", "pool", "p50", "p99", "answers"],
    );
    for r in &rows {
        t.row(&[
            r.query_id.to_string(),
            r.security.to_string(),
            r.cache.to_string(),
            format!("{:.1} us", r.p50_us),
            format!("{:.1} us", r.p99_us),
            r.answers.to_string(),
        ]);
    }
    t.print();

    // Table-1 mix time: the sum of per-query p50s, per security mode and
    // pool temperature.
    let mut mix: Vec<(String, f64)> = Vec::new();
    for sec in ["none", "binding"] {
        for cache in ["warm", "cold"] {
            let total: f64 = rows
                .iter()
                .filter(|r| r.security == sec && r.cache == cache)
                .map(|r| r.p50_us)
                .sum();
            println!("Table-1 mix ({sec}, {cache} pool): {total:.1} us p50");
            mix.push((format!("{sec}_{cache}"), total));
        }
    }
    println!(
        "({} lowerings for {} (query, mode, pool) configurations; every run's answer \
         equalled the reference evaluator's.)\n",
        cache.compiles(),
        rows.len(),
    );

    write_json(seed, scale, nodes, &rows, &mix);

    if smoke {
        // The reference assertions already ran on every iteration; the smoke
        // gate also confirms the lowering was reused across every run of a
        // query and that the mix is not vacuous.
        assert_eq!(
            cache.compiles() as usize,
            queries.len(),
            "one lowering per query, reused across all runs"
        );
        assert!(
            rows.iter().any(|r| r.answers > 0),
            "the mix answered nothing; the check is vacuous"
        );
        println!("compile --smoke: all assertions passed\n");
    }
}

fn write_json(seed: u64, scale: f64, nodes: usize, rows: &[Row], mix: &[(String, f64)]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"compile\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"xmark_scale\": {scale},\n"));
    out.push_str(&format!("  \"nodes\": {nodes},\n"));
    for (name, us) in mix {
        out.push_str(&format!("  \"mix_p50_us_{name}\": {us:.2},\n"));
    }
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"security\": \"{}\", \"pool\": \"{}\", \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"answers\": {}}}{}",
            r.query_id,
            r.security,
            r.cache,
            r.p50_us,
            r.p99_us,
            r.answers,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::File::create("BENCH_compile.json").and_then(|mut f| f.write_all(out.as_bytes()))
    {
        Ok(()) => println!("(wrote BENCH_compile.json)\n"),
        Err(e) => eprintln!("could not write BENCH_compile.json: {e}"),
    }
}
