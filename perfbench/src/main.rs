//! The secure-query benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <xmark-scan|wire-hot|portal-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run builds its inputs from `--seed`,
//! sets the system up through its public entry points, measures for
//! `--seconds`, checks the answers, and prints a header line, every metric
//! by name with its unit, any findings, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run measures
//! an untraced window and then a traced one, and reports the per-layer
//! metrics, the layers' self times and the tracing overhead. Spans are
//! written to `.bench_out/trace-<workload>-<seed>.csv`. A wrong answer
//! makes the run exit with code 1.
//!
//! The benchmark adds nothing to the program: it times the calls it makes
//! and reads the counters those calls already return.

mod engine_load;
mod portal_churn;
mod report;
mod setup;
mod trace;
mod wire;
mod wire_hot;
mod xmark_scan;

use report::{Outcome, END_TO_END, PER_LAYER, REPORTED};
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <xmark-scan|wire-hot|portal-churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Records the traced run's self times per layer, the share of the
/// client-observed time they account for, and the tracing overhead.
/// `layers` are the span names on the blocking path below the root.
pub fn report_trace(
    out: &mut Outcome,
    t: &trace::SelfTimes,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
    layers: &[&str],
) {
    /// Share of the root spans the layer spans must cover.
    const ATTRIBUTION_TOLERANCE: f64 = 0.10;
    let layer = |prefix: &str| -> f64 {
        layers
            .iter()
            .filter(|n| n.starts_with(prefix))
            .map(|n| t.self_us_per_op(n))
            .fold(0.0, |a, b| a + b)
    };
    let op = t.op_us();
    let attributed = layers
        .iter()
        .map(|n| t.self_us_per_op(n))
        .fold(0.0, |a, b| a + b);
    out.set("trace.op_us", op);
    out.set(
        "trace.self_us.bench",
        t.self_us_per_op("bench.op") + t.self_us_per_op("bench.edit"),
    );
    out.set("trace.self_us.db", layer("db."));
    out.set("trace.self_us.nok", layer("nok."));
    out.set("trace.self_us.server", layer("server."));
    out.set("trace.self_us.loadgen", layer("loadgen."));
    let share = report::ratio(attributed, op);
    out.set("trace.attributed_ratio", share);
    out.set("trace.query_p50_ms_untraced", untraced_p50_ms);
    out.set("trace.query_p50_ms_traced", traced_p50_ms);
    out.set(
        "trace.overhead_pct",
        report::ratio(traced_p50_ms - untraced_p50_ms, untraced_p50_ms) * 100.0,
    );
    out.fact("attribution_tolerance", ATTRIBUTION_TOLERANCE);
    for (name, (ns, n)) in &t.by_name {
        out.fact(
            &format!("self_ms_total.{name}"),
            format!("{:.3} over {n} spans", *ns as f64 / 1e6),
        );
    }
    if share < 1.0 - ATTRIBUTION_TOLERANCE {
        out.findings.push(format!(
            "FINDING: layer self times cover {:.1}% of the client-observed time, below the {:.0}% tolerance",
            share * 100.0,
            (1.0 - ATTRIBUTION_TOLERANCE) * 100.0
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let res = match args.workload.as_str() {
        "xmark-scan" => xmark_scan::run(&args, &mut out),
        "wire-hot" => wire_hot::run(&args, &mut out),
        "portal-churn" => portal_churn::run(&args, &mut out),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = res {
        eprintln!("{}: run failed: {e}", args.workload);
        return ExitCode::from(3);
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    out.fact("operations_attempted", out.attempted);
    out.fact("operations_failed", out.failed);
    println!(
        "# header {}",
        report::header_json(
            &report::revision(),
            &args.workload,
            args.seed,
            args.trace,
            &out
        )
    );
    for (name, unit) in table {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<36} {v:>14.4} {unit}");
    }
    if !args.trace {
        for (name, unit) in REPORTED {
            let v = out.values.get(name).copied().unwrap_or(0.0);
            println!("{name:<36} {v:>14.4} {unit} (reported, not gated)");
        }
    }
    for f in &out.findings {
        println!("{f}");
    }
    println!("{}", report::result_json(&out, table));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
