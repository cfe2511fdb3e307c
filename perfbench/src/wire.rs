//! What the wire workloads read back from the server: the `stats` reply,
//! the query-latency histogram and refusal counters of the `metrics` text,
//! and a timing of the client-side codec.

use crate::report::{ratio, Outcome};
use dol_server::json::{self, Json};
use dol_server::proto::{self, Method, Request, WireSemantics};
use dol_server::{frame, Client, ClientError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a client waits for any reply before it counts as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Counters read from one `stats` reply and one `metrics` text.
#[derive(Clone, Default)]
pub struct ServerSnap {
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub physical_writes: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub committed: u64,
    pub batches: u64,
    /// Cumulative query-latency histogram: (upper bound µs, count).
    pub query_hist: Vec<(f64, u64)>,
    /// Typed refusals by wire code.
    pub refusals: BTreeMap<String, u64>,
}

fn field(v: &Json, group: &str, name: &str) -> u64 {
    v.get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_uint)
        .unwrap_or(0)
}

/// Reads the server's counters over an open connection.
pub fn snapshot(c: &mut Client) -> Result<ServerSnap, ClientError> {
    let s = c.stats()?;
    let text = c.metrics_text()?;
    let mut snap = ServerSnap {
        logical_reads: field(&s, "io", "logical_reads"),
        physical_reads: field(&s, "io", "physical_reads"),
        physical_writes: field(&s, "io", "physical_writes"),
        plan_hits: field(&s, "cache", "plan_hits"),
        plan_misses: field(&s, "cache", "plan_misses"),
        result_hits: field(&s, "cache", "result_hits"),
        result_misses: field(&s, "cache", "result_misses"),
        committed: field(&s, "commit", "committed"),
        batches: field(&s, "commit", "batches"),
        ..ServerSnap::default()
    };
    for line in text.lines() {
        let Some((key, val)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(val) = val.parse::<u64>() else {
            continue;
        };
        if let Some(rest) = key.strip_prefix("dol_request_latency_us_bucket{method=\"query\",le=\"")
        {
            let le = rest.trim_end_matches("\"}");
            if let Ok(le) = le.parse::<f64>() {
                snap.query_hist.push((le, val));
            }
        } else if let Some(rest) = key.strip_prefix("dol_refusals_total{code=\"") {
            snap.refusals
                .insert(rest.trim_end_matches("\"}").to_string(), val);
        }
    }
    Ok(snap)
}

impl ServerSnap {
    /// Median server-side query time between two snapshots, interpolated
    /// inside the power-of-two histogram bucket that holds it.
    pub fn service_p50_us(&self, before: &ServerSnap) -> f64 {
        let prev: BTreeMap<u64, u64> = before
            .query_hist
            .iter()
            .map(|&(le, n)| (le as u64, n))
            .collect();
        let cum: Vec<(f64, u64)> = self
            .query_hist
            .iter()
            .map(|&(le, n)| (le, n - prev.get(&(le as u64)).copied().unwrap_or(0)))
            .collect();
        let total = cum.last().map_or(0, |c| c.1);
        if total == 0 {
            return 0.0;
        }
        let half = total as f64 / 2.0;
        let mut lo_count = 0u64;
        for &(le, n) in &cum {
            if n as f64 >= half {
                let lo = if le <= 1.0 { 0.0 } else { le / 2.0 };
                let inside = (n - lo_count) as f64;
                return lo + (le - lo) * ratio(half - lo_count as f64, inside);
            }
            lo_count = n;
        }
        0.0
    }

    /// Refusals counted between two snapshots, by code.
    pub fn refusals_since(&self, before: &ServerSnap) -> BTreeMap<String, u64> {
        self.refusals
            .iter()
            .map(|(k, &v)| (k.clone(), v - before.refusals.get(k).copied().unwrap_or(0)))
            .filter(|(_, v)| *v > 0)
            .collect()
    }

    /// Records the reader, plan-cache and refusal metrics of a window.
    pub fn report_window(&self, before: &ServerSnap, client_p50_ms: f64, out: &mut Outcome) {
        let rh = (self.result_hits - before.result_hits) as f64;
        let rm = (self.result_misses - before.result_misses) as f64;
        out.set("reader.result_hit_ratio", ratio(rh, rh + rm));
        let ph = (self.plan_hits - before.plan_hits) as f64;
        let pm = (self.plan_misses - before.plan_misses) as f64;
        out.set("nok.plan_hit_ratio", ratio(ph, ph + pm));
        let q = rh + rm;
        let lr = (self.logical_reads - before.logical_reads) as f64;
        out.set("storage.logical_reads_per_query", ratio(lr, q));
        out.set(
            "storage.miss_ratio",
            ratio((self.physical_reads - before.physical_reads) as f64, lr),
        );
        let service = self.service_p50_us(before);
        out.set("server.service_us_p50", service);
        out.set("server.wire_overhead_us", client_p50_ms * 1e3 - service);
        let refusals = self.refusals_since(before);
        out.set("server.refusals", refusals.values().sum::<u64>() as f64);
        for (code, n) in refusals {
            out.fact(&format!("refusals.{code}"), n);
        }
    }
}

/// Mean client-side codec time per query in µs: encoding a request and
/// its frame, and parsing a reply carrying `answers` matches.
pub fn codec_us(answers: usize) -> f64 {
    const ROUNDS: u32 = 2000;
    let reply = proto::ok_response(
        1,
        Json::obj(vec![
            (
                "matches",
                Json::Arr((0..answers as i64).map(|i| Json::Int(i * 37)).collect()),
            ),
            ("epoch", Json::Int(0)),
        ]),
    );
    let t = Instant::now();
    for id in 0..ROUNDS {
        let req = Request {
            id: u64::from(id),
            method: Method::Query {
                query: "//listitem//keyword".into(),
                subject: id % 16,
                semantics: WireSemantics::Binding,
            },
            deadline_ms: None,
        };
        let framed = frame::encode_frame(&proto::encode_request(&req));
        let parsed = json::parse(std::hint::black_box(&reply)).expect("reply parses");
        std::hint::black_box((framed, parsed));
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}

/// A client failure as a boxed-error message.
pub fn client_err(e: ClientError) -> String {
    e.to_string()
}

/// The wire code of a failed call, for the refusal tally.
pub fn error_code(e: &ClientError) -> String {
    match e {
        ClientError::Server(code, _) => code.as_str().to_string(),
        ClientError::Io(_) => "client_io".into(),
        ClientError::Frame(_) => "client_frame".into(),
        ClientError::Protocol(_) => "client_protocol".into(),
    }
}
