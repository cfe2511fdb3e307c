//! Pieces shared by the workloads: the Table-1 queries, the seeded XMark
//! input and its reference check, engine counters summed over a window, the
//! paper's zero-extra-I/O count, and the bursts of durable ACL edits the
//! closed-loop workloads run between their read phases.

use crate::report::{ratio, Lat, Outcome};
use crate::setup::mix;
use dol_acl::{AccessibilityMap, SubjectId};
use dol_nok::reference::{naive_eval_str, RefSecurity};
use dol_workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::xml::Document;
use secure_xml::{ExecStats, SecureXmlDb, Security};
use std::time::Instant;

/// The paper's Table-1 queries.
pub const TABLE1: [&str; 6] = [
    "/site/regions/africa/item[location][name][quantity]",
    "/site/categories/category[name]/description/text/bold",
    "/site/categories/category/name[description/text/bold]",
    "//parlist//parlist",
    "//listitem//keyword",
    "//item//emph",
];

/// Synthetic subjects the queries run as (uncorrelated columns).
pub const SUBJECTS: u32 = 16;

/// One more synthetic column that only the ACL edits touch: no query runs
/// as it, so the edits leave every query's answer unchanged.
pub const EDIT_SUBJECT: u32 = SUBJECTS;

/// One (query, subject, semantics) key; `subtree` selects ε-STD.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Key {
    pub query: usize,
    pub subject: u32,
    pub subtree: bool,
}

impl Key {
    pub fn security(self) -> Security {
        if self.subtree {
            Security::SubtreeVisibility(SubjectId(self.subject))
        } else {
            Security::BindingLevel(SubjectId(self.subject))
        }
    }

    pub fn text(self) -> &'static str {
        TABLE1[self.query]
    }
}

/// The generated XMark input: document, its XML text, and the ACL map.
pub struct XmarkInput {
    pub doc: Document,
    pub text: String,
    pub acl: AccessibilityMap,
}

/// Builds the seeded XMark document at `scale` with [`SUBJECTS`] synthetic
/// subjects plus [`EDIT_SUBJECT`] at the default ratios.
pub fn xmark_input(scale: f64, seed: u64) -> XmarkInput {
    let doc = xmark(&XmarkConfig {
        scale,
        seed: mix(seed, 1),
    });
    let acl = synth_multi(
        &doc,
        &SynthAclConfig {
            seed: mix(seed, 2),
            ..SynthAclConfig::default()
        },
        SUBJECTS as usize + 1,
    );
    let text = doc.to_xml();
    XmarkInput { doc, text, acl }
}

/// Checks the engine's answer for `key` against the naive reference
/// evaluator over the same accessibility map.
pub fn check_reference(input: &XmarkInput, key: Key, got: &[u64], out: &mut Outcome) {
    let s = SubjectId(key.subject);
    let sec = if key.subtree {
        RefSecurity::Subtree(&input.acl, s)
    } else {
        RefSecurity::Binding(&input.acl, s)
    };
    let want = naive_eval_str(&input.doc, key.text(), sec);
    if want != got {
        out.mismatch(format!(
            "{key:?}: engine {} answers, reference {}",
            got.len(),
            want.len()
        ));
    }
}

/// Engine counters summed over the queries of a window.
#[derive(Default, Clone, Copy)]
pub struct ExecSums {
    pub queries: u64,
    pub answers: u64,
    pub candidates: u64,
    pub nodes_visited: u64,
    pub nodes_denied: u64,
    pub blocks_skipped: u64,
    pub join_pairs: u64,
    pub visibility_nodes: u64,
}

impl ExecSums {
    pub fn add(&mut self, s: &ExecStats, answers: usize) {
        self.queries += 1;
        self.answers += answers as u64;
        self.candidates += s.candidates;
        self.nodes_visited += s.nodes_visited;
        self.nodes_denied += s.nodes_denied;
        self.blocks_skipped += s.blocks_skipped;
        self.join_pairs += s.join_pairs;
        self.visibility_nodes += s.visibility_nodes;
    }

    pub fn merge(&mut self, o: &ExecSums) {
        self.queries += o.queries;
        self.answers += o.answers;
        self.candidates += o.candidates;
        self.nodes_visited += o.nodes_visited;
        self.nodes_denied += o.nodes_denied;
        self.blocks_skipped += o.blocks_skipped;
        self.join_pairs += o.join_pairs;
        self.visibility_nodes += o.visibility_nodes;
    }

    /// Records the per-query engine metrics.
    pub fn report(&self, out: &mut Outcome) {
        let q = self.queries as f64;
        out.set(
            "core.nodes_denied_per_query",
            ratio(self.nodes_denied as f64, q),
        );
        out.set(
            "core.blocks_skipped_per_query",
            ratio(self.blocks_skipped as f64, q),
        );
        out.set("nok.candidates_per_query", ratio(self.candidates as f64, q));
        out.set(
            "nok.nodes_visited_per_query",
            ratio(self.nodes_visited as f64, q),
        );
        out.set("nok.join_pairs_per_query", ratio(self.join_pairs as f64, q));
        out.set(
            "nok.visibility_nodes_per_query",
            ratio(self.visibility_nodes as f64, q),
        );
        out.set(
            "nok.answers_per_visited",
            ratio(self.answers as f64, self.nodes_visited as f64),
        );
    }
}

/// The paper's zero-extra-I/O claim: logical page reads of `queries` for
/// every subject under binding-level security, minus the same queries
/// unsecured. Run on a quiet database (the engine's I/O counters are
/// pool-wide). The paper predicts a sum ≤ 0.
pub fn eps_extra_reads(db: &SecureXmlDb, queries: &[&str], subjects: &[SubjectId]) -> i64 {
    let reads = |q: &str, sec: Security| -> i64 {
        db.query(q, sec)
            .map_or(0, |r| r.stats.io.logical_reads as i64)
    };
    let mut extra = 0i64;
    for q in queries {
        let plain = reads(q, Security::None);
        for &s in subjects {
            extra += reads(q, Security::BindingLevel(s)) - plain;
        }
    }
    extra
}

/// Records the paper's zero-extra-I/O invariant as a count with a finding
/// when it is broken.
pub fn report_eps(extra: i64, out: &mut Outcome) {
    out.set("core.eps_extra_reads", extra as f64);
    if extra > 0 {
        out.findings.push(format!(
            "FINDING: core.eps_extra_reads = {extra} > 0: binding-level queries read more pages than unsecured ones (paper predicts <= 0)"
        ));
    }
}

/// One burst of `n` durable subtree grants and revocations on seeded
/// positions, applied one at a time through `apply`. Returns the latencies
/// (ms, stamped relative to `origin`) and the number that failed.
pub fn edit_burst(
    n: usize,
    nodes: u64,
    seed: u64,
    origin: Instant,
    mut apply: impl FnMut(u64, bool) -> bool,
) -> (Lat, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lat = Lat::default();
    let mut failed = 0;
    for i in 0..n {
        let pos = rng.gen_range(1..nodes);
        let t = Instant::now();
        if !apply(pos, i % 2 == 1) {
            failed += 1;
        }
        let done = Instant::now();
        lat.push(done - origin, (done - t).as_secs_f64() * 1e3);
    }
    (lat, failed)
}
