//! Snapshot readers: cheap, concurrently usable query handles over a
//! [`SecureXmlDb`], with plan and secure-result caching.
//!
//! A [`DbReader`] is a clone of the database's `Arc`-shared read-side state
//! (master document, block-store mirror, value store, embedded DOL, tag and
//! value indexes) stamped with the **update epoch** at creation time.
//! Readers execute queries without taking the database handle at all, so any
//! number of them can run on separate threads while the owner keeps the
//! `&mut self` update API to itself.
//!
//! Every query pins its page reads to the reader's stamped epoch
//! ([`dol_storage::with_read_epoch`]), and the buffer pool's version ring
//! keeps the pre-images of the last [`crate::DbConfig::epoch_retain`]
//! committed epochs. A reader anywhere inside that retention window keeps
//! answering whole-epoch results — a concurrent commit never turns it
//! stale. A reader that outlives the window fails with the typed
//! [`DbError::RetentionExceeded`] carrying the refresh path; it is never
//! served a wrong or torn answer. With `epoch_retain: 0` the window is the
//! current epoch alone, and the next commit retires it.
//!
//! The window is torn-*set*, never torn-*page*: individual pages only
//! change under the buffer pool's exclusive latch, so a racing reader sees
//! each page whole. The end-of-query servability check exists because a
//! query spans many pages and two epochs' worth of them do not form a
//! snapshot: it fires when the ring's floor advanced past the pin
//! mid-query.
//!
//! Two caches ride along, shared by the database handle and every reader:
//!
//! * the **plan cache** interns `fnv1a(query) → parsed plan + compiled
//!   automaton` (epoch-independent: plans mention tags and axes, never
//!   data; the automaton is additionally fenced on the tag space it was
//!   lowered against);
//! * the **secure result cache** maps `(fnv1a(query), security mode, epoch,
//!   codebook version) → result`. A warm hit returns the cached matches
//!   with **zero page I/O** — the key's epoch and codebook-version stamps
//!   prove the cached answer is still the answer, so not even a §3.3
//!   header probe is needed. An old-epoch entry stays *valid* as long as
//!   the ring can serve its epoch — commits and recovery evict exactly the
//!   keys whose epoch fell below the retention floor
//!   (`QueryCaches::evict_dead_epochs`). Codebook-only changes such as
//!   [`SecureXmlDb::add_subject`] are additionally fenced by the codebook
//!   version stamp.
//!
//! [`SecureXmlDb::query`] deliberately bypasses the result cache (the
//! fail-closed fault tests re-run identical queries expecting *different*
//! answers as disk faults arm and disarm); only readers serve cached
//! results.

use crate::{DbError, MirrorSnapshot, SecureXmlDb};
use dol_core::EmbeddedDol;
use dol_nok::{
    fnv1a, ExecOptions, LruCache, PlanCache, QueryEngine, QueryError, QueryResult, Security,
};
use dol_storage::{with_read_epoch, BPlusTree, IoStats, StructStore, ValueStore};
use dol_xml::{Document, TagId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What makes a cached secure result reusable: the query text (as its FNV-1a
/// hash — the full string is kept in the cached entry and verified on every
/// hit, so collisions are harmless and lookups never clone a `String`), the
/// security mode (subject and semantics), the update epoch, and the codebook
/// version. If all four match, the database cannot have changed in any way
/// the query could observe.
type ResultKey = (u64, Security, u64, u64);

/// A cached secure result together with the exact query string it answers —
/// the collision guard for the hashed [`ResultKey`].
struct CachedResult {
    query: Box<str>,
    result: QueryResult,
}

/// Plan- and result-cache capacities. The serve mix has a handful of hot
/// queries per subject; these bounds are generous for that shape while
/// keeping the O(n) LRU victim scans trivial.
const PLAN_CACHE_CAPACITY: usize = 64;
const RESULT_CACHE_CAPACITY: usize = 1024;

/// The caches shared between a [`SecureXmlDb`] and all its readers.
pub(crate) struct QueryCaches {
    plans: PlanCache,
    results: LruCache<ResultKey, Arc<CachedResult>>,
    /// Queries aborted by an expired [`dol_storage::Deadline`] or a fired
    /// [`dol_storage::CancelToken`], across the handle and all readers.
    deadline_aborts: AtomicU64,
}

impl Default for QueryCaches {
    fn default() -> Self {
        Self {
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            results: LruCache::new(RESULT_CACHE_CAPACITY),
            deadline_aborts: AtomicU64::new(0),
        }
    }
}

impl QueryCaches {
    pub(crate) fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Cache hygiene: drops exactly the results keyed on epochs the
    /// version ring can no longer serve (`epoch < floor`). Entries at or
    /// above the floor stay — an old-epoch answer remains *the* answer for
    /// readers pinned to that epoch. Called on every commit and after the
    /// recovery barrier, so no dead-epoch entry outlives the event that
    /// killed its epoch.
    pub(crate) fn evict_dead_epochs(&self, floor: u64) {
        self.results.retain(|k| k.2 >= floor);
    }

    pub(crate) fn note_deadline_abort(&self) {
        self.deadline_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            plan_compiles: self.plans.compiles(),
            result_hits: self.results.hits(),
            result_misses: self.results.misses(),
            deadline_aborts: self.deadline_aborts.load(Ordering::Relaxed),
        }
    }
}

/// Hit/miss counters of the shared plan and secure-result caches, plus the
/// deadline-abort count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries whose parsed plan was already cached.
    pub plan_hits: u64,
    /// Queries that had to be parsed and planned.
    pub plan_misses: u64,
    /// Query→automaton lowerings performed (first compilations plus
    /// tag-space recompilations); warm queries reuse the cached lowering.
    pub plan_compiles: u64,
    /// Reader queries answered from the result cache (zero page I/O).
    pub result_hits: u64,
    /// Reader queries that executed against the pages.
    pub result_misses: u64,
    /// Queries aborted with [`DbError::DeadlineExceeded`] (expired deadline
    /// or fired cancel token), across the handle and all readers.
    pub deadline_aborts: u64,
}

/// A snapshot read handle created by [`SecureXmlDb::reader`].
///
/// Cloning the handle is cheap (seven `Arc` bumps) and stamps nothing new:
/// clones share the original's epoch stamp. Readers are `Send`, so the
/// usual serving shape is one reader per client thread. A reader keeps
/// answering across concurrent updates for as long as the version ring
/// retains its epoch, and is re-created only on
/// [`DbError::RetentionExceeded`].
pub struct DbReader {
    doc: Arc<Document>,
    store: Arc<StructStore>,
    values: Arc<ValueStore>,
    dol: Arc<EmbeddedDol>,
    tag_index: Arc<BPlusTree<TagId, Vec<u64>>>,
    value_index: Arc<BPlusTree<(TagId, u64), Vec<u64>>>,
    epoch: Arc<AtomicU64>,
    caches: Arc<QueryCaches>,
    /// The update epoch this snapshot was taken at.
    seen: u64,
    /// The codebook version at snapshot time (part of every result key).
    codebook_version: u64,
}

impl Clone for DbReader {
    fn clone(&self) -> Self {
        Self {
            doc: Arc::clone(&self.doc),
            store: Arc::clone(&self.store),
            values: Arc::clone(&self.values),
            dol: Arc::clone(&self.dol),
            tag_index: Arc::clone(&self.tag_index),
            value_index: Arc::clone(&self.value_index),
            epoch: Arc::clone(&self.epoch),
            caches: Arc::clone(&self.caches),
            seen: self.seen,
            codebook_version: self.codebook_version,
        }
    }
}

impl DbReader {
    pub(crate) fn new(db: &SecureXmlDb) -> Self {
        Self {
            doc: Arc::clone(&db.doc),
            store: Arc::clone(&db.store),
            values: Arc::clone(&db.values),
            dol: Arc::clone(&db.dol),
            tag_index: Arc::clone(&db.tag_index),
            value_index: Arc::clone(&db.value_index),
            epoch: Arc::clone(&db.epoch),
            caches: Arc::clone(&db.caches),
            seen: db.epoch.load(Ordering::SeqCst),
            codebook_version: db.dol.codebook().version(),
        }
    }

    /// A degraded-mode reader over a poisoned database's stashed
    /// pre-transaction mirrors (the state matching the rolled-back pages).
    /// Stamped with the *current* epoch: no further update can commit while
    /// the handle is poisoned, so the snapshot stays fresh until
    /// [`SecureXmlDb::recover`] bumps the epoch — and raises the version
    /// ring's barrier — at which point it fails
    /// [`DbError::RetentionExceeded`] like any outlived reader.
    pub(crate) fn degraded(db: &SecureXmlDb, snap: &MirrorSnapshot) -> Self {
        Self {
            doc: Arc::clone(&snap.doc),
            store: Arc::clone(&snap.store),
            values: Arc::clone(&snap.values),
            dol: Arc::clone(&snap.dol),
            tag_index: Arc::clone(&snap.tag_index),
            value_index: Arc::clone(&snap.value_index),
            epoch: Arc::clone(&db.epoch),
            caches: Arc::clone(&db.caches),
            seen: db.epoch.load(Ordering::SeqCst),
            codebook_version: snap.dol.codebook().version(),
        }
    }

    /// The update epoch this snapshot was stamped with.
    pub fn epoch(&self) -> u64 {
        self.seen
    }

    /// Whether an update has overtaken this snapshot. A stale reader keeps
    /// answering as of its pinned epoch for as long as the version ring
    /// retains it — staleness only means "a newer epoch exists", not
    /// "unservable".
    pub fn is_stale(&self) -> bool {
        self.epoch.load(Ordering::SeqCst) != self.seen
    }

    /// The gate every read path runs before and after touching pages: an
    /// epoch at or above the version ring's floor is served whole
    /// ([`with_read_epoch`] pins the pool reads); one below it gets the
    /// typed [`DbError::RetentionExceeded`] with the refresh path. The floor
    /// decides even when no newer epoch is published yet: a commit's seal
    /// raises it before the epoch bump, and from then on reads pinned below
    /// it may be served post-commit pages. Lock-free.
    fn check_servable(&self) -> Result<(), DbError> {
        let pool = self.store.pool();
        if pool.epoch_servable(self.seen) {
            return Ok(());
        }
        Err(DbError::RetentionExceeded {
            seen: self.seen,
            oldest: pool.ring_floor(),
            now: self.epoch.load(Ordering::SeqCst),
        })
    }

    /// Evaluates a twig query under the given [`Security`] mode against this
    /// snapshot.
    ///
    /// A warm result-cache hit performs **zero page I/O** (the returned
    /// statistics report an all-zero [`IoStats`] and zero elapsed time for
    /// the call). On a miss the query executes normally and the result is
    /// cached — but only after a second servability check proves the whole
    /// execution was answerable as of this snapshot's epoch. The execution
    /// is pinned to that epoch (concurrent commits never tear or stale it);
    /// a result whose epoch fell out of the retention window mid-flight is
    /// discarded and reported as [`DbError::RetentionExceeded`].
    pub fn query(&self, query: &str, security: Security) -> Result<QueryResult, DbError> {
        self.query_opts(query, security, ExecOptions::default())
    }

    /// [`query`](Self::query) with explicit [`ExecOptions`] — notably a
    /// [`dol_storage::Deadline`] or [`dol_storage::CancelToken`] for
    /// cooperative cancellation. A warm result-cache hit is served
    /// regardless of the deadline (it costs no I/O); a miss that runs past
    /// the deadline aborts with [`DbError::DeadlineExceeded`] carrying the
    /// partial-work statistics, is counted in
    /// [`CacheStats::deadline_aborts`], and caches nothing.
    pub fn query_opts(
        &self,
        query: &str,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, DbError> {
        self.check_servable()?;
        let key: ResultKey = (fnv1a(query), security, self.seen, self.codebook_version);
        if let Some(hit) = self.caches.results.get(&key) {
            if &*hit.query == query {
                let mut result = hit.result.clone();
                result.stats.io = IoStats::default();
                result.stats.elapsed = Duration::ZERO;
                return Ok(result);
            }
            // Hash collision: fall through, execute, and overwrite.
        }
        // The compiled lowering is fenced on the snapshot's tag space:
        // `get_or_compile` re-lowers if tags grew since it was cached, and
        // `execute_compiled_opts` falls back to an ephemeral recompile if
        // this snapshot's interner is older than the cached lowering.
        let (plan, compiled) = self
            .caches
            .plans
            .get_or_compile(query, self.doc.tags())
            .map_err(QueryError::Parse)?;
        let mut engine = QueryEngine::with_index(
            &self.store,
            &self.values,
            self.doc.tags(),
            Some(&self.dol),
            &self.tag_index,
        );
        engine.set_value_index(&self.value_index);
        // Pin every page read to this snapshot's epoch: the pool serves
        // each page as of `seen` even while commits land concurrently.
        let exec = with_read_epoch(self.seen, || {
            engine.execute_compiled_opts(&plan, &compiled, security, opts)
        });
        let result = match exec {
            Ok(r) => r,
            Err(e @ QueryError::DeadlineExceeded(_)) => {
                self.caches.note_deadline_abort();
                return Err(e.into());
            }
            Err(e) => return Err(e.into()),
        };
        // Cache (and return) only results that were servable end-to-end:
        // the retention floor never advanced past the pin mid-query (a
        // pinned read past the floor may have been served a live frame, so
        // the result is discarded unseen). This is the only place the
        // query string is cloned.
        self.check_servable()?;
        self.caches.results.insert(
            key,
            Arc::new(CachedResult {
                query: query.into(),
                result: result.clone(),
            }),
        );
        Ok(result)
    }

    /// [`query`](Self::query) with bounded automatic re-snapshotting: when
    /// the query fails [`DbError::RetentionExceeded`] (the snapshot
    /// outlived the version ring's retention window), `refresh` is called
    /// for a fresh reader — typically `|| db.reader()`
    /// through whatever latch guards the handle — which replaces `self`,
    /// and the query is retried, at most `max_retries` times.
    /// [`DbError::Overloaded`] (admission control shed the request) is
    /// retried on the same ladder after an exponential backoff pause (the
    /// [`RetryPolicy`](crate::RetryPolicy) default schedule) — shedding is
    /// transient by design, so hammering an overloaded queue with immediate
    /// retries would defeat it. Every other outcome (including the final
    /// staleness or overload failure) is returned as-is.
    ///
    /// The staleness arm is a *fallback*, not the common path: inside the
    /// retention window plain
    /// [`query`](Self::query) never fails for snapshot-age reasons, so the
    /// refresh closure only runs for readers held across more committed
    /// epochs than the ring retains.
    pub fn query_with_retry<F>(
        &mut self,
        query: &str,
        security: Security,
        max_retries: u32,
        refresh: F,
    ) -> Result<QueryResult, DbError>
    where
        F: FnMut() -> DbReader,
    {
        self.query_with_retry_opts(
            query,
            security,
            ExecOptions::default(),
            max_retries,
            0,
            refresh,
        )
    }

    /// [`query_with_retry`](Self::query_with_retry) with explicit
    /// [`ExecOptions`] and a jitter seed.
    ///
    /// The backoff pauses on the [`DbError::Overloaded`] arm are
    /// **jittered**: attempt `n` sleeps a deterministic point in
    /// `[backoff_for(n)/2, backoff_for(n)]` chosen by mixing `(seed, n)`
    /// (see [`jittered_backoff`]), so a fleet of clients shed in the same
    /// burst — each holding a distinct seed — re-arrives spread out instead
    /// of as a synchronized thundering herd, while any single `(seed,
    /// attempt)` pair replays the exact same schedule run after run.
    ///
    /// `opts.deadline` bounds the whole ladder: once it expires, the loop
    /// stops retrying (and never sleeps past it) and returns the last
    /// outcome as-is.
    pub fn query_with_retry_opts<F>(
        &mut self,
        query: &str,
        security: Security,
        opts: ExecOptions,
        max_retries: u32,
        seed: u64,
        mut refresh: F,
    ) -> Result<QueryResult, DbError>
    where
        F: FnMut() -> DbReader,
    {
        let policy = crate::RetryPolicy::default();
        let mut retries = 0;
        loop {
            let outcome = self.query_opts(query, security, opts.clone());
            match retry_action(&outcome) {
                Some(action) if retries < max_retries && !opts.deadline.is_expired() => {
                    retries += 1;
                    match action {
                        RetryAction::Refresh => *self = refresh(),
                        RetryAction::Backoff => {
                            // The snapshot is fine — the system shed load.
                            // Wait out the burst instead of re-snapshotting.
                            let pause = jittered_backoff(&policy, seed, retries);
                            if !pause.is_zero() {
                                std::thread::sleep(pause);
                            }
                        }
                    }
                }
                _ => return outcome,
            }
        }
    }

    /// Whether `subject` may access the node at `pos` in this snapshot.
    pub fn accessible(&self, pos: u64, subject: dol_acl::SubjectId) -> Result<bool, DbError> {
        self.check_servable()?;
        let ok = with_read_epoch(self.seen, || self.dol.accessible(&self.store, pos, subject))?;
        self.check_servable()?;
        Ok(ok)
    }

    /// Fetches the value of the node at `pos` in this snapshot.
    pub fn value(&self, pos: u64) -> Result<Option<String>, DbError> {
        self.check_servable()?;
        let v = with_read_epoch(self.seen, || self.values.get(pos))?;
        self.check_servable()?;
        Ok(v)
    }

    /// The snapshot's master document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.store.total_nodes() as usize
    }

    /// A snapshot is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Hit/miss counters of the shared caches (same counters as
    /// [`SecureXmlDb::cache_stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }
}

/// How [`DbReader::query_with_retry`] reacts to a retryable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryAction {
    /// Snapshot-age failure: replace the reader and retry immediately.
    Refresh,
    /// Load-shedding failure: keep the reader, retry after a backoff pause.
    Backoff,
}

/// The backoff pause for retry `attempt` (1-based) under `policy`, with
/// deterministic seeded jitter: a SplitMix64-style mix of `(seed, attempt)`
/// picks a point in `[backoff_for(attempt) / 2, backoff_for(attempt)]`.
///
/// Determinism is the point: the same `(seed, attempt)` always sleeps the
/// same pause, so a pinned-seed benchmark or test replays its exact retry
/// schedule, while distinct seeds (one per client) decorrelate the fleet's
/// re-arrival times after a shared shedding burst.
pub fn jittered_backoff(policy: &crate::RetryPolicy, seed: u64, attempt: u32) -> Duration {
    let base = policy.backoff_for(attempt);
    if base.is_zero() {
        return base;
    }
    // SplitMix64 finalizer over the (seed, attempt) pair.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let base_ns = base.as_nanos() as u64;
    let half = base_ns / 2;
    // Integer arithmetic end to end: bit-identical on every platform.
    Duration::from_nanos(half + z % (base_ns - half + 1))
}

/// Classifies a query outcome for the retry loop: `None` is terminal.
fn retry_action(outcome: &Result<QueryResult, DbError>) -> Option<RetryAction> {
    match outcome {
        Err(DbError::RetentionExceeded { .. }) => Some(RetryAction::Refresh),
        Err(DbError::Overloaded) => Some(RetryAction::Backoff),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::{AccessibilityMap, SubjectId};
    use dol_xml::NodeId;

    fn two_subject_db() -> SecureXmlDb {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        SecureXmlDb::from_document(doc, &map).unwrap()
    }

    #[test]
    fn retry_loop_classifies_overload_as_backoff() {
        // Snapshot-age failures re-snapshot; shed load backs off in place;
        // everything else (including success) is terminal.
        assert_eq!(
            retry_action(&Err(DbError::RetentionExceeded {
                seen: 0,
                oldest: 1,
                now: 2
            })),
            Some(RetryAction::Refresh)
        );
        assert_eq!(
            retry_action(&Err(DbError::Overloaded)),
            Some(RetryAction::Backoff)
        );
        assert_eq!(retry_action(&Err(DbError::Poisoned)), None);
        assert_eq!(
            retry_action(&Ok(QueryResult {
                matches: vec![],
                stats: Default::default()
            })),
            None
        );
        // The backoff ladder is exponential and bounded — the pause for a
        // later retry never shrinks and never exceeds the cap.
        let policy = crate::RetryPolicy::default();
        let mut last = std::time::Duration::ZERO;
        for attempt in 1..=8 {
            let pause = policy.backoff_for(attempt);
            assert!(pause >= last, "backoff must not shrink");
            assert!(pause <= policy.backoff_cap);
            last = pause;
        }
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        let policy = crate::RetryPolicy::default();
        // Bound: every (seed, attempt) lands in [base/2, base].
        for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            for attempt in 1..=10 {
                let base = policy.backoff_for(attempt);
                let pause = jittered_backoff(&policy, seed, attempt);
                assert!(
                    pause >= base / 2 && pause <= base,
                    "seed {seed} attempt {attempt}: {pause:?} outside [{:?}, {base:?}]",
                    base / 2
                );
            }
        }
        // Determinism under a pinned seed: the schedule replays exactly.
        let schedule = |seed: u64| -> Vec<std::time::Duration> {
            (1..=10)
                .map(|a| jittered_backoff(&policy, seed, a))
                .collect()
        };
        assert_eq!(schedule(42), schedule(42));
        // Decorrelation: distinct seeds disagree somewhere on the ladder.
        assert_ne!(schedule(42), schedule(43));
        // Zero-backoff policies stay zero (no sleeping sneaks in).
        let quiet = crate::RetryPolicy {
            backoff_start: std::time::Duration::ZERO,
            ..policy
        };
        assert_eq!(jittered_backoff(&quiet, 9, 3), std::time::Duration::ZERO);
    }

    #[test]
    fn warm_result_hit_does_zero_page_io() {
        let db = two_subject_db();
        let r = db.reader();
        let sec = Security::BindingLevel(SubjectId(0));
        let cold = r.query("//d/e", sec).unwrap();
        assert_eq!(cold.matches, vec![4]);
        assert!(
            cold.stats.io.logical_reads > 0,
            "cold query must touch pages"
        );

        let before = db.io_stats();
        let warm = r.query("//d/e", sec).unwrap();
        let delta = db.io_stats().since(&before);
        assert_eq!(warm.matches, cold.matches);
        assert_eq!(delta.logical_reads, 0, "warm hit must not read pages");
        assert_eq!(delta.physical_reads, 0);
        assert_eq!(warm.stats.io, IoStats::default());
        assert_eq!(r.cache_stats().result_hits, 1);
    }

    #[test]
    fn result_cache_is_keyed_by_security_mode() {
        let db = two_subject_db();
        let r = db.reader();
        // Same query, different subjects: subject 1 cannot see //b/c.
        let open = r
            .query("//b/c", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        let shut = r
            .query("//b/c", Security::BindingLevel(SubjectId(1)))
            .unwrap();
        assert_eq!(open.matches, vec![2]);
        assert_eq!(shut.matches, Vec::<u64>::new());
        // Warm re-reads stay per-subject.
        assert_eq!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
    }

    #[test]
    fn overtaken_reader_keeps_serving_its_pinned_epoch() {
        // MVCC (the default config): an update does NOT evict the reader —
        // it keeps answering as of epoch 0 while a fresh reader sees the
        // new epoch.
        let mut db = two_subject_db();
        let r = db.reader();
        assert_eq!(r.epoch(), 0);
        assert!(!r.is_stale());
        // Subject 1 cannot see //b/c at epoch 0.
        assert_eq!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert!(r.is_stale(), "a newer epoch exists");
        // ... but the pinned reader still serves the epoch-0 answer.
        assert_eq!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        assert!(r.accessible(2, SubjectId(0)).unwrap());
        assert!(!r.accessible(2, SubjectId(1)).unwrap());
        // A fresh reader sees the update.
        let r2 = db.reader();
        assert_eq!(r2.epoch(), 1);
        assert_eq!(
            r2.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![2]
        );
        // And the epoch-0 reader is *still* right afterwards.
        assert_eq!(
            r.query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![4]
        );
    }

    #[test]
    fn retain_zero_overtaken_reader_gets_retention_exceeded() {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        let cfg = crate::DbConfig {
            epoch_retain: 0,
            ..crate::DbConfig::default()
        };
        let mut db = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        let r = db.reader();
        assert_eq!(r.epoch(), 0);
        // A commit's seal-to-bump window, held open: the pool seals (an
        // empty transaction is enough) but the epoch stays 0. The floor
        // alone decides, so the pin on 0 is refused already.
        db.pool
            .atomic_update(|| Ok::<(), dol_storage::StorageError>(()))
            .unwrap();
        assert!(!r.is_stale(), "no newer epoch is published yet");
        assert!(matches!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1))),
            Err(DbError::RetentionExceeded {
                seen: 0,
                oldest: 1,
                now: 0,
            })
        ));
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert!(r.is_stale());
        match r.query("//b/c", Security::BindingLevel(SubjectId(1))) {
            Err(DbError::RetentionExceeded {
                seen: 0,
                oldest: 1,
                now: 1,
            }) => {}
            other => panic!("expected RetentionExceeded, got {other:?}"),
        }
        let r2 = db.reader();
        assert_eq!(
            r2.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![2]
        );
    }

    #[test]
    fn reader_past_the_retention_window_gets_retention_exceeded() {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let cfg = crate::DbConfig {
            epoch_retain: 1,
            ..crate::DbConfig::default()
        };
        let mut db = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        let mut r = db.reader();
        // One commit behind: still inside the window (retain 1 keeps the
        // last two epochs servable).
        db.set_node_access(5, SubjectId(1), true).unwrap();
        assert!(r
            .query("//d/e", Security::BindingLevel(SubjectId(0)))
            .is_ok());
        // Two commits behind: epoch 0 fell below the floor.
        db.set_node_access(5, SubjectId(1), false).unwrap();
        match r.query("//d/e", Security::BindingLevel(SubjectId(0))) {
            Err(DbError::RetentionExceeded {
                seen: 0,
                oldest: 1,
                now: 2,
            }) => {}
            other => panic!("expected RetentionExceeded, got {other:?}"),
        }
        // accessible()/value() refuse identically — never a torn answer.
        assert!(matches!(
            r.accessible(2, SubjectId(0)),
            Err(DbError::RetentionExceeded { .. })
        ));
        assert!(matches!(r.value(2), Err(DbError::RetentionExceeded { .. })));
        // The refresh path: query_with_retry re-snapshots and succeeds.
        let got = r
            .query_with_retry("//d/e", Security::BindingLevel(SubjectId(0)), 1, || {
                db.reader()
            })
            .unwrap();
        assert_eq!(got.matches, vec![4]);
        assert_eq!(r.epoch(), 2);
    }

    #[test]
    fn commits_evict_exactly_the_dead_epoch_cache_entries() {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let cfg = crate::DbConfig {
            epoch_retain: 2,
            ..crate::DbConfig::default()
        };
        let mut db = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        let sec = Security::BindingLevel(SubjectId(0));
        // Populate a cached result at each of epochs 0, 1, 2.
        let r0 = db.reader();
        let _ = r0.query("//d/e", sec).unwrap();
        db.set_node_access(5, SubjectId(1), true).unwrap();
        let r1 = db.reader();
        let _ = r1.query("//d/e", sec).unwrap();
        db.set_node_access(5, SubjectId(1), false).unwrap();
        let r2 = db.reader();
        let _ = r2.query("//d/e", sec).unwrap();
        let caches = Arc::clone(&db.caches);
        let alive = move |epoch: u64| {
            let mut found = false;
            caches.results.retain(|k| {
                if k.2 == epoch {
                    found = true;
                }
                true
            });
            found
        };
        assert!(alive(0) && alive(1) && alive(2), "window is 3 epochs wide");
        // The next commit advances the floor to 1: the epoch-0 entry must
        // not survive it, while 1..=3 remain valid.
        db.set_node_access(5, SubjectId(1), true).unwrap();
        assert_eq!(db.retention_floor(), 1);
        assert!(!alive(0), "no dead-epoch entry survives a ring advance");
        assert!(alive(1) && alive(2));
        // Old-but-retained entries still serve warm hits for pinned readers.
        let warm = r1.query("//d/e", sec).unwrap();
        assert_eq!(warm.matches, vec![4]);
        assert_eq!(warm.stats.io, IoStats::default());
    }

    #[test]
    fn epoch_bump_invalidates_cached_results() {
        let mut db = two_subject_db();
        let sec = Security::BindingLevel(SubjectId(1));
        let r = db.reader();
        assert_eq!(r.query("//d/e", sec).unwrap().matches, vec![4]);
        // Revoke access to e; the old reader is stale, and a new reader
        // must re-execute (not serve the epoch-0 cached answer).
        db.set_node_access(4, SubjectId(1), false).unwrap();
        let r2 = db.reader();
        assert_eq!(r2.query("//d/e", sec).unwrap().matches, Vec::<u64>::new());
    }

    #[test]
    fn codebook_only_updates_also_fence_the_cache() {
        let mut db = two_subject_db();
        let r = db.reader();
        let _ = r
            .query("//d/e", Security::BindingLevel(SubjectId(1)))
            .unwrap();
        // add_subject is codebook-only but still bumps the epoch.
        let s2 = db.add_subject(Some(SubjectId(0))).unwrap();
        assert!(r.is_stale());
        let r2 = db.reader();
        assert_eq!(
            r2.query("//b/c", Security::BindingLevel(s2))
                .unwrap()
                .matches,
            vec![2]
        );
    }

    #[test]
    fn readers_share_the_plan_cache_with_the_handle() {
        let db = two_subject_db();
        let _ = db.query("//d/e", Security::None).unwrap();
        let r = db.reader();
        let _ = r.query("//d/e", Security::None).unwrap();
        let stats = db.cache_stats();
        assert_eq!(stats.plan_misses, 1, "one parse for both paths");
        assert_eq!(stats.plan_hits, 1);
    }

    #[test]
    fn cloned_readers_share_the_snapshot() {
        let db = two_subject_db();
        let r = db.reader();
        let r2 = r.clone();
        assert_eq!(r2.epoch(), r.epoch());
        assert_eq!(r2.len(), 6);
        assert_eq!(r2.value(2).unwrap().as_deref(), Some("v1"));
        assert!(r2.accessible(4, SubjectId(1)).unwrap());
    }
}
