//! The wire front door: a TCP server speaking the framed JSON protocol.
//!
//! ## Architecture
//!
//! One **accept thread** polls a non-blocking listener so it can also watch
//! the drain flag. Each connection gets a **reader thread** (frame decode,
//! admission control, deadline stamping) and a **worker thread** (method
//! execution, response writing) joined by a channel — so the reader keeps
//! consuming the socket while a request executes, which is what lets a
//! client disconnect *cancel* its in-flight requests: the reader sees the
//! EOF and fires every [`CancelToken`] it registered.
//!
//! ## Robustness properties
//!
//! * **Admission control**: a server-wide in-flight cap; a request that
//!   finds the window full is refused with `overloaded` before any work
//!   happens. The slot is held by an RAII guard, so every exit path —
//!   success, typed error, cancelled client, worker exit — releases it.
//! * **Fail closed**: a refused or failed request is answered with a typed
//!   error and nothing else; partial answers never reach the wire (the
//!   engine already guarantees this in-process; the server maps each
//!   [`DbError`] to its wire code and attaches no result).
//! * **Deadlines**: `deadline_ms` starts at decode time, so queue wait
//!   counts against the budget. A request whose deadline expired before
//!   dispatch is refused with `deadline_exceeded` — even when a warm cache
//!   could have answered it — keeping wire availability accounting aligned
//!   with the in-process benchmarks' bounded-refusal column.
//! * **Degraded serving**: a poisoned database keeps answering queries
//!   (pre-transaction mirror snapshots) while updates are refused with
//!   `poisoned`; the `recover` admin method heals in place.
//! * **Graceful drain**: `shutdown` (or [`Server::drain`]) stops the
//!   accept loop, half-closes every connection's read side, lets in-flight
//!   requests finish (or deadline out), flushes and closes the group
//!   committer, and checkpoints the database before [`Server::wait`]
//!   returns.

use crate::frame;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::proto::{self, DecodeError, ErrorCode, Method, Request, UpdateOp, WireSemantics};
use dol_acl::SubjectId;
use secure_xml::{
    DbError, Deadline, ExecOptions, GroupCommitConfig, GroupCommitter, SecureXmlDb, Security,
    ServerStats,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; read it back
    /// with [`Server::local_addr`]).
    pub addr: String,
    /// Per-frame payload cap (see [`frame::DEFAULT_MAX_FRAME`]).
    pub max_frame: usize,
    /// Server-wide in-flight request cap (admission control): requests over
    /// it are refused with `overloaded`.
    pub max_inflight: usize,
    /// Socket read timeout: a connection idle past it is closed.
    pub idle_timeout: Duration,
    /// Query latency (µs) at or above which the slow-query counter bumps.
    pub slow_query_us: u64,
    /// Retry budget for the snapshot-refresh/backoff ladder under each
    /// `query` request.
    pub query_retries: u32,
    /// Group-committer tuning for the `update` path.
    pub commit: GroupCommitConfig,
    /// Enables testing-only operations (`fail_after_dirty`): off in
    /// production, on in the chaos harness.
    pub testing: bool,
    /// Base seed for the per-connection jittered retry backoff.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_frame: frame::DEFAULT_MAX_FRAME,
            max_inflight: 64,
            idle_timeout: Duration::from_secs(30),
            slow_query_us: 50_000,
            query_retries: 3,
            commit: GroupCommitConfig::default(),
            testing: false,
            seed: 1,
        }
    }
}

/// Counting semaphore for admission control; slots release by RAII.
struct Admission {
    cap: usize,
    used: AtomicUsize,
}

impl Admission {
    fn try_acquire(self: &Arc<Self>) -> Option<AdmissionSlot> {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            if cur >= self.cap {
                return None;
            }
            match self
                .used
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    return Some(AdmissionSlot {
                        adm: Arc::clone(self),
                    })
                }
                Err(now) => cur = now,
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }
}

/// An occupied admission slot; dropping it (any exit path) frees the slot.
struct AdmissionSlot {
    adm: Arc<Admission>,
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.adm.used.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Poison-tolerant lock helpers: a panicked writer must not wedge the
/// server (the database has its own poison latch for logical corruption).
fn rlock(db: &RwLock<SecureXmlDb>) -> RwLockReadGuard<'_, SecureXmlDb> {
    db.read().unwrap_or_else(|e| e.into_inner())
}

fn wlock(db: &RwLock<SecureXmlDb>) -> RwLockWriteGuard<'_, SecureXmlDb> {
    db.write().unwrap_or_else(|e| e.into_inner())
}

fn mlock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    db: Arc<RwLock<SecureXmlDb>>,
    /// `Some` while serving; taken (and thereby flushed + joined) by the
    /// drain choreography.
    committer: Mutex<Option<Arc<GroupCommitter>>>,
    cfg: ServerConfig,
    draining: AtomicBool,
    admission: Arc<Admission>,
    metrics: Metrics,
    active_conns: AtomicUsize,
    /// Read-half handles of live connections, for the drain's half-close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
}

impl Shared {
    fn wire_error(&self, e: &DbError) -> (ErrorCode, String) {
        (proto::wire_code(e), format!("{e}"))
    }

    fn server_stats(&self) -> ServerStats {
        let commit = mlock(&self.committer).as_ref().map(|c| c.stats());
        let db = rlock(&self.db);
        ServerStats::snapshot(&db, commit)
    }
}

/// One unit of admitted work travelling from reader to worker.
struct Job {
    req: Request,
    deadline: Deadline,
    started: Instant,
    _slot: AdmissionSlot,
}

/// A running wire server. Dropping it drains and waits.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, wraps `db` behind a group committer, and starts
    /// serving. Returns once the listener is live.
    pub fn start(db: SecureXmlDb, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let db = Arc::new(RwLock::new(db));
        let committer = Arc::new(GroupCommitter::new(Arc::clone(&db), cfg.commit));
        let shared = Arc::new(Shared {
            db,
            committer: Mutex::new(Some(committer)),
            admission: Arc::new(Admission {
                cap: cfg.max_inflight.max(1),
                used: AtomicUsize::new(0),
            }),
            metrics: Metrics::new(cfg.slow_query_us),
            cfg,
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(shared, listener))
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (the ephemeral port when `addr` ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals a graceful drain (same effect as the `shutdown` method).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been signalled.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests currently admitted (for tests and monitoring).
    pub fn in_flight(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// The server's metric registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Blocks until a drain (wire `shutdown` or [`drain`](Self::drain))
    /// completes: in-flight requests finished, committer flushed and
    /// closed, database checkpointed.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connection_opened();
                let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    mlock(&shared.conns).insert(id, clone);
                }
                shared.active_conns.fetch_add(1, Ordering::AcqRel);
                let shared = Arc::clone(&shared);
                thread::spawn(move || handle_conn(shared, stream, id));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    // Drain choreography. 1: stop accepting.
    drop(listener);
    // 2: half-close every connection's read side — readers see a clean EOF
    // at the next frame boundary and stop feeding their workers; responses
    // already in flight still go out on the intact write side.
    for (_, s) in mlock(&shared.conns).iter() {
        let _ = s.shutdown(Shutdown::Read);
    }
    // 3: wait for every connection (reader + worker) to finish.
    while shared.active_conns.load(Ordering::Acquire) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
    // 4: flush and close the committer (its Drop drains the queue, joins
    // the commit worker, and delivers every pending durability receipt).
    let committer = mlock(&shared.committer).take();
    drop(committer);
    // 5: checkpoint so a subsequent open replays nothing (best-effort: an
    // in-memory or poisoned database has nothing to checkpoint).
    let _ = rlock(&shared.db).checkpoint();
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    serve_conn(&shared, &mut stream, conn_id);
    mlock(&shared.conns).remove(&conn_id);
    shared.metrics.connection_closed();
    shared.active_conns.fetch_sub(1, Ordering::AcqRel);
}

fn serve_conn(shared: &Arc<Shared>, stream: &mut TcpStream, conn_id: u64) {
    // Protocol sniff: the first four bytes distinguish an HTTP scrape
    // (`GET `) from a frame header. They are spliced back into the frame
    // decoder otherwise, so no byte is lost.
    let mut sniff = [0u8; 4];
    let mut got = 0;
    while got < sniff.len() {
        match stream.read(&mut sniff[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if got > 0 {
                    shared.metrics.frame_rejected();
                }
                return;
            }
        }
    }
    if got < sniff.len() {
        if got > 0 {
            shared.metrics.frame_rejected(); // torn inside the first header
        }
        return; // clean close before any byte
    }
    if &sniff == b"GET " {
        serve_http_metrics(shared, stream);
        return;
    }

    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let inflight: Arc<Mutex<HashMap<u64, secure_xml::CancelToken>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let (tx, rx) = mpsc::channel::<Job>();
    let worker = {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(&writer);
        let inflight = Arc::clone(&inflight);
        thread::spawn(move || worker_loop(shared, writer, inflight, rx, conn_id))
    };

    let mut first = true;
    loop {
        let preread: &[u8] = if first { &sniff } else { &[] };
        first = false;
        let payload = match frame::read_frame(stream, preread, shared.cfg.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean close on a frame boundary
            Err(_) => {
                shared.metrics.frame_rejected();
                break;
            }
        };
        match proto::decode_request(&payload) {
            Err(DecodeError::Malformed) => {
                // The stream cannot be trusted past an undecodable record.
                shared.metrics.frame_rejected();
                break;
            }
            Err(DecodeError::Invalid { id, reason }) => {
                shared.metrics.record_refusal(ErrorCode::InvalidRequest);
                write_response(
                    &writer,
                    &proto::err_response(id, ErrorCode::InvalidRequest, &reason),
                );
            }
            Ok(req) => {
                if shared.draining.load(Ordering::SeqCst)
                    && !matches!(req.method, Method::Shutdown | Method::Ping)
                {
                    shared.metrics.record_refusal(ErrorCode::Draining);
                    write_response(
                        &writer,
                        &proto::err_response(
                            req.id,
                            ErrorCode::Draining,
                            "server is draining; no new requests admitted",
                        ),
                    );
                    continue;
                }
                let slot = match shared.admission.try_acquire() {
                    Some(s) => s,
                    None => {
                        shared.metrics.record_refusal(ErrorCode::Overloaded);
                        write_response(
                            &writer,
                            &proto::err_response(
                                req.id,
                                ErrorCode::Overloaded,
                                "server at its in-flight request cap",
                            ),
                        );
                        continue;
                    }
                };
                // The budget starts now: queue wait counts against it.
                let deadline = match req.deadline_ms {
                    Some(ms) => Deadline::after(Duration::from_millis(ms)),
                    None => Deadline::never(),
                };
                mlock(&inflight).insert(req.id, deadline.token());
                let job = Job {
                    req,
                    deadline,
                    started: Instant::now(),
                    _slot: slot,
                };
                if tx.send(job).is_err() {
                    break; // worker gone (should not happen before close)
                }
            }
        }
    }
    // Reader exit. A *client*-initiated close cancels whatever is still in
    // flight (the answer has no recipient; holding the admission slot for
    // it only hurts other clients). A *drain*-initiated half-close does
    // not: those requests must finish and be answered.
    if !shared.draining.load(Ordering::SeqCst) {
        let cancelled: Vec<_> = mlock(&inflight).drain().collect();
        for (_, token) in cancelled {
            token.cancel();
            shared.metrics.disconnect_cancelled();
        }
    }
    drop(tx);
    let _ = worker.join();
    let _ = stream.shutdown(Shutdown::Both);
}

fn write_response(writer: &Arc<Mutex<TcpStream>>, payload: &[u8]) -> bool {
    let mut w = mlock(writer);
    frame::write_frame(&mut *w, payload).is_ok()
}

fn worker_loop(
    shared: Arc<Shared>,
    writer: Arc<Mutex<TcpStream>>,
    inflight: Arc<Mutex<HashMap<u64, secure_xml::CancelToken>>>,
    rx: mpsc::Receiver<Job>,
    conn_id: u64,
) {
    while let Ok(job) = rx.recv() {
        let id = job.req.id;
        let name = job.req.method.name();
        let is_shutdown = matches!(job.req.method, Method::Shutdown);
        let outcome = execute(&shared, &job, conn_id);
        mlock(&inflight).remove(&id);
        let latency_us = job.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        match outcome {
            Ok(result) => {
                shared.metrics.record(name, latency_us, Ok(()));
                write_response(&writer, &proto::ok_response(id, result));
                if is_shutdown {
                    shared.draining.store(true, Ordering::SeqCst);
                }
            }
            Err((code, message)) => {
                shared.metrics.record(name, latency_us, Err(code));
                write_response(&writer, &proto::err_response(id, code, &message));
            }
        }
    }
}

fn execute(shared: &Arc<Shared>, job: &Job, conn_id: u64) -> Result<Json, (ErrorCode, String)> {
    let deadline = &job.deadline;
    // Uniform dispatch gate: a budget spent in the queue (or cancelled by a
    // vanished client) is a bounded refusal *before* any work — even work a
    // warm cache would make free — so the wire's availability accounting
    // matches the in-process bounded-refusal column.
    let expired = || {
        (
            ErrorCode::DeadlineExceeded,
            "deadline expired before dispatch".to_string(),
        )
    };
    match &job.req.method {
        Method::Ping => Ok(Json::obj(vec![("pong", Json::Bool(true))])),
        Method::Query {
            query,
            subject,
            semantics,
        } => {
            if deadline.is_expired() {
                return Err(expired());
            }
            let security = match semantics {
                WireSemantics::None => Security::None,
                WireSemantics::Binding => Security::BindingLevel(SubjectId(*subject)),
                WireSemantics::Subtree => Security::SubtreeVisibility(SubjectId(*subject)),
            };
            let mut reader = rlock(&shared.db).reader();
            let opts = ExecOptions {
                deadline: deadline.clone(),
                ..ExecOptions::default()
            };
            let db = Arc::clone(&shared.db);
            let res = reader.query_with_retry_opts(
                query,
                security,
                opts,
                shared.cfg.query_retries,
                // Distinct jitter stream per connection: a burst of shed
                // clients re-arrives decorrelated.
                shared.cfg.seed.wrapping_add(conn_id),
                move || rlock(&db).reader(),
            );
            match res {
                Ok(r) => Ok(Json::obj(vec![
                    (
                        "matches",
                        Json::Arr(r.matches.iter().map(|&p| Json::Int(p as i64)).collect()),
                    ),
                    ("epoch", Json::Int(reader.epoch() as i64)),
                ])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::Update(op) => {
            if deadline.is_expired() {
                return Err(expired());
            }
            match op {
                UpdateOp::FailAfterDirty { pos } => {
                    if !shared.cfg.testing {
                        return Err((
                            ErrorCode::Forbidden,
                            "fail_after_dirty requires a server started with testing enabled"
                                .into(),
                        ));
                    }
                    let pos = *pos;
                    let mut db = wlock(&shared.db);
                    match db.run_update(|_| {
                        Err(DbError::Integrity(format!(
                            "injected fault before committing page of node {pos}"
                        )))
                    }) {
                        // The injection "succeeding" means the transaction
                        // failed and the handle is now poisoned.
                        Err(DbError::Integrity(_)) => {
                            Ok(Json::obj(vec![("poisoned", Json::Bool(db.is_poisoned()))]))
                        }
                        Err(e) => Err(shared.wire_error(&e)),
                        Ok(()) => Ok(Json::obj(vec![("poisoned", Json::Bool(false))])),
                    }
                }
                UpdateOp::SetNodeAccess { .. } | UpdateOp::SetSubtreeAccess { .. } => {
                    let committer = match mlock(&shared.committer).as_ref() {
                        Some(c) => Arc::clone(c),
                        None => {
                            return Err((
                                ErrorCode::Draining,
                                "committer already closed by drain".into(),
                            ))
                        }
                    };
                    let op = op.clone();
                    let res = committer.submit_fn(move |db| match op {
                        UpdateOp::SetNodeAccess {
                            pos,
                            subject,
                            allow,
                        } => db.set_node_access(pos, SubjectId(subject), allow),
                        UpdateOp::SetSubtreeAccess {
                            pos,
                            subject,
                            allow,
                        } => db.set_subtree_access(pos, SubjectId(subject), allow),
                        UpdateOp::FailAfterDirty { .. } => unreachable!("handled above"),
                    });
                    match res {
                        Ok(()) => Ok(Json::obj(vec![("committed", Json::Bool(true))])),
                        Err(e) => Err(shared.wire_error(&e)),
                    }
                }
            }
        }
        Method::RegisterSubject { copy_from, groups } => {
            if deadline.is_expired() {
                return Err(expired());
            }
            let mut db = wlock(&shared.db);
            let res = if groups.is_empty() {
                db.add_subject(copy_from.map(SubjectId))
            } else {
                let parents: Vec<SubjectId> = groups.iter().map(|&g| SubjectId(g)).collect();
                db.add_grouped_subject(&parents)
            };
            match res {
                Ok(sid) => Ok(Json::obj(vec![("subject", Json::Int(i64::from(sid.0)))])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::SetMembership {
            subject,
            group,
            member,
        } => {
            if deadline.is_expired() {
                return Err(expired());
            }
            let mut db = wlock(&shared.db);
            match db.set_group_membership(SubjectId(*subject), SubjectId(*group), *member) {
                Ok(changed) => Ok(Json::obj(vec![("changed", Json::Bool(changed))])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::Stats => Ok(stats_json(&shared.server_stats())),
        Method::Metrics => {
            let text = shared.metrics.render(&shared.server_stats());
            Ok(Json::obj(vec![("text", Json::Str(text))]))
        }
        Method::Recover => {
            let mut db = wlock(&shared.db);
            match db.recover() {
                Ok(report) => Ok(Json::obj(vec![
                    ("recovered", Json::Bool(report.is_some())),
                    ("poisoned", Json::Bool(db.is_poisoned())),
                ])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::Shutdown => Ok(Json::obj(vec![("draining", Json::Bool(true))])),
    }
}

/// Renders the aggregate snapshot as the `stats` method's JSON body.
fn stats_json(s: &ServerStats) -> Json {
    let int = |v: u64| Json::Int(v.min(i64::MAX as u64) as i64);
    Json::obj(vec![
        (
            "io",
            Json::obj(vec![
                ("logical_reads", int(s.io.logical_reads)),
                ("physical_reads", int(s.io.physical_reads)),
                ("physical_writes", int(s.io.physical_writes)),
                ("evictions", int(s.io.evictions)),
                ("read_shared", int(s.io.read_shared)),
                ("read_exclusive_fallback", int(s.io.read_exclusive_fallback)),
                ("pages_skipped", int(s.io.pages_skipped)),
                ("backoffs", int(s.io.backoffs)),
                ("breaker_trips", int(s.io.breaker_trips)),
                ("breaker_fast_fails", int(s.io.breaker_fast_fails)),
                ("breaker_probes", int(s.io.breaker_probes)),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("plan_hits", int(s.cache.plan_hits)),
                ("plan_misses", int(s.cache.plan_misses)),
                ("result_hits", int(s.cache.result_hits)),
                ("result_misses", int(s.cache.result_misses)),
                ("deadline_aborts", int(s.cache.deadline_aborts)),
            ]),
        ),
        (
            "commit",
            Json::obj(vec![
                ("submitted", int(s.commit.submitted)),
                ("committed", int(s.commit.committed)),
                ("rejected", int(s.commit.rejected)),
                ("batches", int(s.commit.batches)),
                ("solo_fallbacks", int(s.commit.solo_fallbacks)),
                ("overloads", int(s.commit.overloads)),
                ("max_batch_seen", int(s.commit.max_batch_seen)),
            ]),
        ),
        ("epoch", int(s.epoch)),
        ("nodes", int(s.nodes)),
        ("poisoned", Json::Bool(s.poisoned)),
        ("breaker_open", Json::Bool(s.breaker_open)),
    ])
}

/// Answers an HTTP `GET` (any path) with the Prometheus text and closes.
fn serve_http_metrics(shared: &Arc<Shared>, stream: &mut TcpStream) {
    // Consume the rest of the request head, bounded: stop at the blank
    // line, 4 KiB, or the read timeout — whichever first.
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 256];
    while head.len() < 4096 && !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let body = shared.metrics.render(&shared.server_stats());
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.flush();
}
