//! `portal-churn`: ACL writes beside reads on a durable image.
//!
//! The grouped corporate world (`GroupedWorld`: 8 departments × 8 teams,
//! 73 group columns, `team_size` 400, about 20k nodes) with 10,000
//! registered users is served by `dol-server` from an `open_from` image with
//! its WAL. The load is an open loop over two connections at fixed rates,
//! each operation timed from its due time: the user connection sends the
//! grouped-portal queries for random users at [`QUERY_RATE`] and the admin
//! connection sends ACL edits at [`EDIT_RATE`]: three in four are
//! `SetSubtreeAccess` of the company column or a team column on a folder
//! subtree (through the group committer, default flush policy: one fsync
//! per batch) and one in four a `set_membership` edit (its own transaction
//! and fsync). The two kinds differ in cost about 2.5-fold, so the gated
//! `update_p25_ms` is the first quartile of the subtree edits alone; the
//! median and p90 over all edits are printed beside it.
//!
//! Why: every commit bumps the epoch and 10k users make result keys nearly
//! unique, so reads run the engine through the factored codebook's derived
//! columns, while writes exercise the group commit, the WAL append and
//! fsync, the catalog and meta rewrite and the MVCC ring. After the run the
//! acknowledged edits are replayed on an in-process mirror, which must give
//! the wire's answers for a probe set; the image must then reopen and pass
//! `verify_integrity`.

use crate::engine_load::{eps_extra_reads, report_eps, ExecSums};
use crate::report::{median, percentile, ratio, Lat, Outcome};
use crate::setup::{file_len, mix, prepare, wal_of, WorkDir};
use crate::trace::{self, SpanBuf};
use crate::wire::{self, client_err, READ_TIMEOUT};
use crate::Args;
use dol_acl::SubjectId;
use dol_server::{Client, Server, ServerConfig, UpdateOp, WireSemantics};
use dol_workloads::{GroupedConfig, GroupedWorld};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::xml::Document;
use secure_xml::{DbError, SecureXmlDb, Security};
use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};

const DEPARTMENTS: usize = 8;
const TEAMS_PER_DEPT: usize = 8;
const TEAM_SIZE: usize = 400;
const USERS: usize = 10_000;
/// Queries per second offered on the user connection: under a fifth of
/// what one connection sustains with this mix (mean service time near
/// 3 ms), so queueing stays small and a slow second on the host is not
/// amplified into a backlog.
const QUERY_RATE: f64 = 60.0;
/// ACL edits per second offered on the admin connection.
const EDIT_RATE: f64 = 20.0;
/// Offset of the edit schedule from the query schedule: half a query
/// interval. The query rate is a multiple of the edit rate, so without it
/// every edit would be due at the same instant as a query and its latency
/// would turn on how the host shares two CPUs between the two.
const EDIT_PHASE_S: f64 = 0.5 / QUERY_RATE;
const SETUP_ROUNDS: usize = 15;
/// Probe queries compared between wire, mirror and reopened image: up to
/// this many for users whose memberships were edited, and as many again
/// for random users.
const PROBES: usize = 24;

/// Grouped-portal queries: a path and a path with a descendant step,
/// drawn 25/75, three in four with binding-level semantics. Their costs
/// differ tenfold (about 0.4 and 3.5 ms), so the median falls inside the
/// binding-level runs of the second query rather than on the gap.
const QUERIES: [&str; 2] = [
    "/workspace/department/team",
    "/workspace/department/team//folder",
];

/// One ACL edit of the admin connection.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// `group` is the company column or a team column.
    Subtree {
        pos: u64,
        group: u32,
        allow: bool,
    },
    Membership {
        user: u32,
        team: u32,
        member: bool,
    },
}

/// The seeded world and the names the load draws from.
struct Portal {
    world: GroupedWorld,
    text: String,
    folders: Vec<u64>,
    /// First registered user id; users are contiguous.
    first_user: u32,
}

impl Portal {
    fn new(seed: u64) -> Self {
        let world = GroupedWorld::generate(&GroupedConfig {
            departments: DEPARTMENTS,
            teams_per_dept: TEAMS_PER_DEPT,
            team_size: TEAM_SIZE,
            initial_users: 4,
            seed: mix(seed, 1),
        });
        let folders = world
            .doc
            .preorder()
            .filter(|&n| world.doc.name_of(n) == "folder")
            .map(|n| u64::from(n.0))
            .collect();
        let first_user = world.space().len() as u32;
        let text = world.doc.to_xml();
        Self {
            world,
            text,
            folders,
            first_user,
        }
    }

    /// The secured database with every user registered, one bulk
    /// registration per team.
    fn build(&self, doc: Document) -> Result<SecureXmlDb, DbError> {
        let mut db = SecureXmlDb::from_document_factored(
            doc,
            &self.world.oracle(),
            self.world.space().clone(),
        )?;
        let teams = self.world.teams();
        let mut next = self.first_user;
        for (i, &team) in teams.iter().enumerate() {
            let count = USERS / teams.len() + usize::from(i < USERS % teams.len());
            let first = db.add_grouped_subjects(count, &[team])?;
            if first.0 != next {
                return Err(DbError::Integrity(format!(
                    "users registered from {} instead of {next}",
                    first.0
                )));
            }
            next += count as u32;
        }
        Ok(db)
    }

    fn user(&self, rng: &mut StdRng) -> u32 {
        self.first_user + rng.gen_range(0..USERS as u32)
    }

    /// One query of the mix: (query, user, subtree semantics).
    fn draw(&self, rng: &mut StdRng) -> (&'static str, u32, bool) {
        let q = QUERIES[usize::from(rng.gen_bool(0.75))];
        (q, self.user(rng), rng.gen_bool(0.25))
    }

    fn team(&self, rng: &mut StdRng) -> u32 {
        let teams = self.world.teams();
        teams[rng.gen_range(0..teams.len())].0
    }

    fn edits(&self, seed: u64, n: usize) -> Vec<Edit> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 4 != 3 {
                    // The generated world grants the whole workspace to the
                    // company group, and a user's rights are the OR over
                    // its groups, so an edit of a team column alone changes
                    // no answer. Company-column edits make folders private
                    // to the teams and departments granted there, and
                    // team-column edits then share or unshare them.
                    let group = if rng.gen_bool(0.5) {
                        self.world.company().0
                    } else {
                        self.team(&mut rng)
                    };
                    Edit::Subtree {
                        pos: self.folders[rng.gen_range(0..self.folders.len())],
                        group,
                        allow: rng.gen_bool(0.5),
                    }
                } else {
                    Edit::Membership {
                        user: self.user(&mut rng),
                        team: self.team(&mut rng),
                        member: rng.gen_bool(0.5),
                    }
                }
            })
            .collect()
    }
}

fn security(subject: u32, subtree: bool) -> (Security, WireSemantics) {
    if subtree {
        (
            Security::SubtreeVisibility(SubjectId(subject)),
            WireSemantics::Subtree,
        )
    } else {
        (
            Security::BindingLevel(SubjectId(subject)),
            WireSemantics::Binding,
        )
    }
}

/// One open-loop generator's record.
#[derive(Default)]
struct Loop {
    lat: Lat,
    /// Send-to-answer time of each call, without the generator's delay.
    call_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ok: u64,
    errors: BTreeMap<String, u64>,
}

/// Issues `count` operations at `rate` from `origin + phase`; each is
/// timed from its due time, and how late the generator sent it is recorded.
fn open_loop(
    origin: Instant,
    phase: Duration,
    rate: f64,
    count: usize,
    root: &'static str,
    spans: &mut SpanBuf,
    req_base: u64,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Loop {
    let mut l = Loop::default();
    for i in 0..count {
        let due = origin + phase + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let req = req_base + i as u64;
        let id = spans.open(root, req, None);
        let sent = Instant::now();
        let res = op(i);
        let done = Instant::now();
        spans.leaf("loadgen.late", req, id, due, sent);
        spans.leaf("server.call", req, id, sent, done);
        spans.close(id, due, done);
        l.lat.push(done - origin, (done - due).as_secs_f64() * 1e3);
        l.call_ms.push((done - sent).as_secs_f64() * 1e3);
        l.late_ms.push((sent - due).as_secs_f64() * 1e3);
        match res {
            Ok(()) => l.ok += 1,
            Err(code) => *l.errors.entry(code).or_default() += 1,
        }
    }
    l
}

struct Window {
    queries: Loop,
    edits: Loop,
    /// Acknowledged edits, in the order the server applied them.
    acked: Vec<Edit>,
    /// Every edit offered, in the order of `edits`' samples.
    offered: Vec<Edit>,
    secs: f64,
    spans: Vec<SpanBuf>,
}

fn window(
    portal: &Portal,
    addr: &str,
    seed: u64,
    secs: f64,
    traced: bool,
) -> Result<Window, Box<dyn Error>> {
    let n_queries = (QUERY_RATE * secs) as usize;
    let n_edits = (EDIT_RATE * secs) as usize;
    let edits = portal.edits(mix(seed, 300), n_edits);
    let mut user = Client::connect(addr, READ_TIMEOUT).map_err(client_err)?;
    let mut admin = Client::connect(addr, READ_TIMEOUT).map_err(client_err)?;
    let origin = Instant::now();
    let (queries, (edit_loop, acked), spans) = std::thread::scope(|s| {
        let q = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 301));
            let mut spans = SpanBuf::new(traced, origin);
            let l = open_loop(
                origin,
                Duration::ZERO,
                QUERY_RATE,
                n_queries,
                "bench.op",
                &mut spans,
                1 << 48,
                |_| {
                    let (q, subject, subtree) = portal.draw(&mut rng);
                    let (_, sem) = security(subject, subtree);
                    user.query(q, subject, sem, None)
                        .map(|_| ())
                        .map_err(|e| wire::error_code(&e))
                },
            );
            (l, spans)
        });
        let e = s.spawn(|| {
            let mut spans = SpanBuf::new(traced, origin);
            let mut acked = Vec::new();
            let l = open_loop(
                origin,
                Duration::from_secs_f64(EDIT_PHASE_S),
                EDIT_RATE,
                n_edits,
                "bench.edit",
                &mut spans,
                2 << 48,
                |i| {
                    let res = match edits[i] {
                        Edit::Subtree { pos, group, allow } => admin.update(
                            UpdateOp::SetSubtreeAccess {
                                pos,
                                subject: group,
                                allow,
                            },
                            None,
                        ),
                        Edit::Membership { user, team, member } => {
                            admin.set_membership(user, team, member).map(|_| ())
                        }
                    };
                    res.map(|()| acked.push(edits[i]))
                        .map_err(|e| wire::error_code(&e))
                },
            );
            ((l, acked), spans)
        });
        let (ql, qspans) = q.join().expect("query generator panicked");
        let (el, espans) = e.join().expect("edit generator panicked");
        (ql, el, vec![qspans, espans])
    });
    Ok(Window {
        queries,
        edits: edit_loop,
        acked,
        offered: edits,
        secs: origin.elapsed().as_secs_f64(),
        spans,
    })
}

/// Replays acknowledged edits on the mirror; returns the transition deltas
/// of the subtree edits (Prop. 1 predicts at most 2 each).
fn replay(mirror: &mut SecureXmlDb, acked: &[Edit]) -> Result<Vec<i64>, DbError> {
    let mut deltas = Vec::new();
    for e in acked {
        match *e {
            Edit::Subtree { pos, group, allow } => {
                let before = mirror.dol_stats()?.transitions as i64;
                mirror.set_subtree_access(pos, SubjectId(group), allow)?;
                deltas.push(mirror.dol_stats()?.transitions as i64 - before);
            }
            Edit::Membership { user, team, member } => {
                mirror.set_group_membership(SubjectId(user), SubjectId(team), member)?;
            }
        }
    }
    Ok(deltas)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let work = WorkDir::new("portal-churn")?;
    let portal = Portal::new(args.seed);
    let ready = prepare(
        &portal.text,
        portal.world.doc.len(),
        SETUP_ROUNDS,
        &work.0,
        out,
        |doc| portal.build(doc),
    )?;
    let image = ready.image.clone();
    let (image0, wal0) = (file_len(&image), file_len(&wal_of(&image)));
    let server = Server::start(ready.db, ServerConfig::default())?;
    let addr = server.local_addr().to_string();
    let mut stats = Client::connect(&addr, READ_TIMEOUT).map_err(client_err)?;

    // The traced run splits its time between an untraced window and a
    // traced one.
    let secs = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let before = wire::snapshot(&mut stats).map_err(client_err)?;
    let untraced = window(&portal, &addr, args.seed, secs, false)?;
    let mut acked = untraced.acked.clone();
    let (w, untraced_p50, before) = if args.trace {
        let p50 = untraced.queries.lat.p50();
        let mid = wire::snapshot(&mut stats).map_err(client_err)?;
        let w = window(&portal, &addr, mix(args.seed, 1), secs, true)?;
        acked.extend(w.acked.iter().copied());
        (w, Some(p50), mid)
    } else {
        (untraced, None, before)
    };
    let after = wire::snapshot(&mut stats).map_err(client_err)?;
    let (image1, wal1) = (file_len(&image), file_len(&wal_of(&image)));

    let p50 = w.queries.lat.p50();
    out.set("query_p50_ms", p50);
    out.set("query_p99_ms", w.queries.lat.pct(0.99));
    out.set("query_qps", w.queries.ok as f64 / w.secs);
    // Subtree edits (the group-commit path) and membership edits differ in
    // cost about 2.5-fold; the gated quartile is over the subtree edits
    // alone, so that it never falls on the gap between the two.
    let mut subtree = Vec::new();
    let mut membership = Vec::new();
    for (&ms, e) in w.edits.lat.ms.iter().zip(&w.offered) {
        match e {
            Edit::Subtree { .. } => subtree.push(ms),
            Edit::Membership { .. } => membership.push(ms),
        }
    }
    subtree.sort_by(f64::total_cmp);
    out.set("update_p25_ms", percentile(&subtree, 0.25));
    out.set("update_p50_ms", w.edits.lat.p50());
    out.set("update_p90_ms", w.edits.lat.pct(0.90));
    out.set(
        "disk_bytes_per_node",
        (image1 + wal1) as f64 / ready.nodes as f64,
    );
    out.fact("subtree_edit_samples", subtree.len());
    out.fact("membership_edit_p50_ms", median(&membership));
    out.fact("query_samples", w.queries.lat.len());
    out.fact("edit_samples", w.edits.lat.len());
    out.fact("query_rate_per_s", QUERY_RATE);
    out.fact("edit_rate_per_s", EDIT_RATE);
    out.fact("users", USERS);
    out.fact("group_columns", portal.world.physical_subjects());
    out.fact(
        "flush_policy",
        "server default group commit: one fsync per batch (max 16, 2 ms window); set_membership commits alone",
    );
    let errors: u64 = w
        .queries
        .errors
        .values()
        .chain(w.edits.errors.values())
        .sum();
    for (code, n) in w.queries.errors.iter().chain(&w.edits.errors) {
        out.findings.push(format!("operation errors {code}: {n}"));
    }

    // The mirror: the same build in process, with every acknowledged edit.
    let mut mirror = portal.build(secure_xml::xml::parse(&portal.text)?)?;
    let deltas = replay(&mut mirror, &acked)?;
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 9));
    // Users whose memberships the run edited, then users drawn at random:
    // a lost or misapplied edit shows in the first group's answers.
    let mut touched: Vec<u32> = acked
        .iter()
        .filter_map(|e| match *e {
            Edit::Membership { user, .. } => Some(user),
            Edit::Subtree { .. } => None,
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let mut probes = Vec::new();
    for &user in touched.iter().take(PROBES) {
        let (q, _, subtree) = portal.draw(&mut rng);
        probes.push((q, user, subtree));
    }
    for _ in 0..PROBES {
        probes.push(portal.draw(&mut rng));
    }
    let mut sums = ExecSums::default();
    let mut exec_ms = Vec::new();
    let mut expected = Vec::new();
    for &(q, subject, subtree) in &probes {
        let (sec, wsem) = security(subject, subtree);
        let r = mirror.query(q, sec)?;
        sums.add(&r.stats, r.matches.len());
        exec_ms.push(r.stats.elapsed.as_secs_f64() * 1e3);
        match stats.query(q, subject, wsem, None) {
            Ok(m) if m == r.matches => {}
            Ok(m) => out.mismatch(format!(
                "{q} for user {subject}: wire {} answers, mirror {}",
                m.len(),
                r.matches.len()
            )),
            Err(e) => out.mismatch(format!("{q} for user {subject}: probe failed: {e}")),
        }
        expected.push(r.matches);
    }
    out.fact("probes", probes.len());
    out.fact("acked_edits", acked.len());

    if let Some(untraced_p50) = untraced_p50 {
        after.report_window(&before, median(&w.queries.call_ms), out);
        sums.report(out);
        out.set("nok.exec_ms_p50", median(&exec_ms));
        let users: Vec<SubjectId> = probes.iter().map(|p| SubjectId(p.1)).collect();
        report_eps(eps_extra_reads(&mirror, &QUERIES, &users), out);
        let mean_answers = expected.iter().map(Vec::len).sum::<usize>() / probes.len();
        out.set("server.codec_us", wire::codec_us(mean_answers));
        let edits = acked.len() as f64;
        let subtree_edits = deltas.len() as f64;
        out.set(
            "storage.physical_writes_per_edit",
            ratio(
                (after.physical_writes - before.physical_writes) as f64,
                w.acked.len() as f64,
            ),
        );
        out.set(
            "storage.wal_bytes_per_edit",
            ratio(wal1 as f64 - wal0 as f64, edits),
        );
        out.set(
            "storage.image_bytes_per_edit",
            ratio(image1 as f64 - image0 as f64, edits),
        );
        let batches = (after.batches - before.batches) as f64;
        let committed = (after.committed - before.committed) as f64;
        out.set("commit.batches_per_edit", ratio(batches, committed));
        out.set("commit.mean_batch", ratio(committed, batches));
        let mut late: Vec<f64> = w
            .queries
            .late_ms
            .iter()
            .chain(&w.edits.late_ms)
            .copied()
            .collect();
        late.sort_by(f64::total_cmp);
        out.set("loadgen.late_p99_ms", percentile(&late, 0.99));
        let mean = ratio(deltas.iter().sum::<i64>() as f64, subtree_edits);
        let max = deltas.iter().copied().max().unwrap_or(0);
        out.set("core.transitions_per_edit", mean);
        out.set("core.transitions_per_edit_max", max as f64);
        if max > 2 {
            out.findings.push(format!(
                "FINDING: core.transitions_per_edit max = {max} > 2 (Prop. 1 predicts at most 2 per subtree update)"
            ));
        }
        out.unmeasured(
            "storage.evictions_per_query, storage.shared_latch_ratio",
            "the server's stats reply exposes no eviction or latch counters",
        );
        out.unmeasured(
            "nok.*, core.nodes_denied_per_query, core.blocks_skipped_per_query, core.eps_extra_reads",
            "ExecStats do not cross the wire; these come from the probe queries re-run on the in-process mirror",
        );
        let times = trace::finish(&w.spans, &work.trace_path(args))?;
        crate::report_trace(
            out,
            &times,
            untraced_p50,
            p50,
            &["server.call", "loadgen.late"],
        );
    }

    // Durability: drain (checkpoint), reopen, verify, and re-ask the probes.
    drop(stats);
    drop(server);
    let reopened = SecureXmlDb::open_from(&image)?;
    if let Err(e) = reopened.verify_integrity() {
        out.mismatch(format!("reopened image fails verify_integrity: {e}"));
    }
    for (&(q, subject, subtree), want) in probes.iter().zip(&expected) {
        let got = reopened.query(q, security(subject, subtree).0)?;
        if &got.matches != want {
            out.mismatch(format!(
                "{q} for user {subject}: reopened image differs from mirror"
            ));
        }
    }

    out.attempted = (w.queries.lat.len() + w.edits.lat.len()) as u64;
    out.failed = errors;
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    Ok(())
}
