#![warn(missing_docs)]

//! # secure-xml — Secure XML query evaluation with Document Ordered Labeling
//!
//! A full reproduction of *Compact Access Control Labeling for Efficient
//! Secure XML Query Evaluation* (Zhang, Zhang, Salem, Zhuo — ICDE 2005):
//! fine-grained (per-node) XML access control stored as a **DOL** — a
//! document-ordered list of transition nodes with dictionary-compressed,
//! multi-subject access-control lists — physically embedded into a
//! block-oriented NoK document store so that secure twig-query evaluation
//! costs no extra I/O over unsecured evaluation.
//!
//! ## Quick start
//!
//! ```
//! use secure_xml::{SecureXmlDb, Security};
//! use secure_xml::acl::{AccessibilityMap, SubjectId};
//! use secure_xml::xml::NodeId;
//!
//! let xml = "<clinic><patient><name>Ada</name><diagnosis>flu</diagnosis></patient></clinic>";
//! // Two subjects: subject 0 (doctor) sees everything, subject 1 (billing)
//! // sees everything except diagnoses.
//! let doc = secure_xml::xml::parse(xml).unwrap();
//! let mut map = AccessibilityMap::new(2, doc.len());
//! for p in 0..doc.len() as u32 {
//!     map.set(SubjectId(0), NodeId(p), true);
//!     map.set(SubjectId(1), NodeId(p), true);
//! }
//! map.set(SubjectId(1), NodeId(3), false); // the diagnosis node
//!
//! let mut db = SecureXmlDb::from_document(doc, &map).unwrap();
//! let doctor = db
//!     .query("//patient[diagnosis]", Security::BindingLevel(SubjectId(0)))
//!     .unwrap();
//! assert_eq!(doctor.matches.len(), 1);
//! let billing = db
//!     .query("//patient[diagnosis]", Security::BindingLevel(SubjectId(1)))
//!     .unwrap();
//! assert_eq!(billing.matches.len(), 0); // the predicate node is invisible
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`xml`] | `dol-xml` | document model, parser, serializer |
//! | [`storage`] | `dol-storage` | pages, buffer pool, NoK block store, B+-tree |
//! | [`acl`] | `dol-acl` | subjects, modes, policies, accessibility maps |
//! | [`dol`] | `dol-core` | the DOL: codebook, transitions, embedding |
//! | [`cam`] | `dol-cam` | the CAM baseline |
//! | [`query`] | `dol-nok` | twig queries, ε-NoK, structural joins |
//! | [`workloads`] | `dol-workloads` | XMark, synthetic ACLs, LiveLink, UnixFS |

mod commit;
mod modal;
mod persist;
mod reader;
mod shard;
mod stats;

pub use dol_acl as acl;
pub use dol_cam as cam;
pub use dol_core as dol;
pub use dol_nok as query;
pub use dol_storage as storage;
pub use dol_workloads as workloads;
pub use dol_xml as xml;

pub use dol_nok::{ExecOptions, ExecStats, QueryResult, Security};
pub use dol_storage::{CancelToken, Deadline, RecoveryReport, RetryPolicy};

pub use commit::{CommitObserver, GroupCommitConfig, GroupCommitStats, GroupCommitter};
pub use modal::{ModalDb, ModalSecurity};
pub use reader::{jittered_backoff, CacheStats, DbReader};
pub use shard::{DiskPair, ShardHealth, ShardStatus, ShardedDb, ShardedStats};
pub use stats::ServerStats;

use dol_acl::{AccessOracle, BitVec, SubjectId};
use dol_core::{CompactionProgress, DolStats, EmbeddedDol};

/// Per-transaction block budget [`SecureXmlDb::compact_subjects`] drains
/// its incremental plan with — the bound on any single compaction
/// transaction's page writes.
pub const COMPACT_TICK_BLOCKS: usize = 64;
use dol_nok::{build_tag_index, build_value_index, QueryEngine, QueryError};
use dol_storage::disk::StorageError;
use dol_storage::{
    BPlusTree, BufferPool, BulkItem, IoStats, MemDisk, StoreConfig, StructStore, ValueStore,
};
use dol_xml::{Document, NodeId, TagId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors from the high-level database API.
#[derive(Debug)]
pub enum DbError {
    /// XML parsing failed.
    Xml(dol_xml::ParseError),
    /// The storage layer failed.
    Storage(StorageError),
    /// Query parsing or evaluation failed.
    Query(QueryError),
    /// A node id was out of range or structurally invalid for the operation.
    InvalidNode(u64),
    /// A previous update failed and rolled back its pages, or the on-disk
    /// image was compacted underneath this handle: the in-memory mirrors can
    /// no longer be trusted against the pages, so every further update is
    /// refused until the database is reopened.
    Poisoned,
    /// A [`DbReader`] pinned to epoch `seen` outlived the MVCC version
    /// ring's retention window: the oldest epoch still servable is `oldest`
    /// and the database has advanced to `now`. Any in-flight result was
    /// discarded — never a wrong or torn answer. Take a fresh reader and
    /// retry ([`DbReader::query_with_retry`] does so automatically); within
    /// the window this error cannot happen.
    RetentionExceeded {
        /// The update epoch the reader was created at.
        seen: u64,
        /// The oldest epoch the version ring still retains.
        oldest: u64,
        /// The database's current update epoch.
        now: u64,
    },
    /// The group-commit queue is full: the update was refused without
    /// queueing (admission control, not failure — nothing was applied).
    /// Back off and resubmit.
    Overloaded,
    /// A query ran past its [`Deadline`] or its [`CancelToken`] fired. The
    /// boxed statistics describe the partial work done before the abort —
    /// a partial *answer* is never returned.
    DeadlineExceeded(Box<ExecStats>),
    /// [`SecureXmlDb::verify_integrity`] found the embedded DOL or the
    /// block store inconsistent; the message names the first violation.
    Integrity(String),
    /// A [`ShardedDb`] query needed shard `shard`, which is quarantined
    /// (poisoned handle or open circuit breaker — `cause` is the typed
    /// reason). Queries provably confined to healthy shards still answer
    /// exactly; a query that *touches* a quarantined shard is refused whole
    /// rather than returning a silently-partial answer. Remedy:
    /// [`ShardedDb::recover_shard`] heals the shard in process while the
    /// healthy shards keep serving.
    ShardUnavailable {
        /// The quarantined shard's index.
        shard: usize,
        /// Why the shard is unavailable.
        cause: Box<DbError>,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Xml(e) => write!(f, "{e}"),
            DbError::Storage(e) => write!(f, "{e}"),
            DbError::Query(e) => write!(f, "{e}"),
            DbError::InvalidNode(p) => write!(f, "invalid node position {p}"),
            DbError::Poisoned => write!(
                f,
                "database handle poisoned by a failed or superseding update; reopen to continue"
            ),
            DbError::RetentionExceeded { seen, oldest, now } => write!(
                f,
                "snapshot reader at epoch {seen} fell out of the retention window (oldest \
                 retained epoch {oldest}, database at epoch {now}); refresh the reader and retry"
            ),
            DbError::Overloaded => write!(
                f,
                "group-commit queue full; the update was refused before queueing — back off and \
                 resubmit"
            ),
            DbError::DeadlineExceeded(stats) => write!(
                f,
                "query deadline exceeded after visiting {} node(s); no partial answer returned",
                stats.nodes_visited
            ),
            DbError::Integrity(msg) => write!(f, "integrity check failed: {msg}"),
            DbError::ShardUnavailable { shard, cause } => write!(
                f,
                "shard {shard} unavailable ({cause}); the query touches it and was refused whole \
                 — recover the shard and retry"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<dol_xml::ParseError> for DbError {
    fn from(e: dol_xml::ParseError) -> Self {
        DbError::Xml(e)
    }
}
impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}
impl From<QueryError> for DbError {
    fn from(e: QueryError) -> Self {
        match e {
            // Keep the typed deadline signal (and its partial-work stats)
            // first-class instead of burying it inside a query error.
            QueryError::DeadlineExceeded(stats) => DbError::DeadlineExceeded(stats),
            e => DbError::Query(e),
        }
    }
}

/// Configuration of a [`SecureXmlDb`].
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer-pool frames (4 KiB each).
    pub buffer_pool_pages: usize,
    /// Node records per structure block (see [`StoreConfig`]).
    pub max_records_per_block: usize,
    /// MVCC retention: how many committed epochs the version ring keeps
    /// alive behind the current one. A [`DbReader`] pinned to any of the
    /// last `N + 1` epochs keeps answering whole-epoch results, and a
    /// reader beyond them gets [`DbError::RetentionExceeded`] with a
    /// refresh path. `0` retains no past epoch: a reader overtaken by one
    /// commit is refused with `RetentionExceeded { seen: E, oldest: E + 1,
    /// now: E + 1 }`.
    pub epoch_retain: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            buffer_pool_pages: 1024,
            max_records_per_block: StoreConfig::default().max_records_per_block,
            epoch_retain: 8,
        }
    }
}

/// A secured XML database: a NoK block store with an embedded DOL, a value
/// store, a tag index and a query engine — the full system of the paper for
/// one action mode. (For multiple action modes, treat `(subject, mode)`
/// pairs as subjects, as the paper suggests in §2; the experiment harness
/// does exactly that for the LiveLink workload.)
pub struct SecureXmlDb {
    // The read-side state is `Arc`-shared so [`SecureXmlDb::reader`] can
    // hand out cheap snapshot handles; updates go through `Arc::make_mut`,
    // which clones a mirror only while a reader still holds it (copy on
    // write). Page *contents* are shared through the pool regardless — the
    // pool's version ring is what keeps overtaken readers honest.
    doc: Arc<Document>,
    store: Arc<StructStore>,
    values: Arc<ValueStore>,
    dol: Arc<EmbeddedDol>,
    tag_index: Arc<BPlusTree<TagId, Vec<u64>>>,
    value_index: Arc<BPlusTree<(TagId, u64), Vec<u64>>>,
    pool: Arc<BufferPool>,
    /// Update epoch: bumped after every committed update transaction and
    /// by recovery. [`DbReader`]s stamp it at creation and pin their page
    /// reads to it; the version ring stamps its deltas with it. Also part
    /// of every result-cache key.
    epoch: Arc<AtomicU64>,
    /// Compiled-plan and secure-result caches, shared with every reader.
    caches: Arc<reader::QueryCaches>,
    /// Opened from a saved image with an attached write-ahead log: updates
    /// must also rewrite the on-disk catalog and meta blob.
    persistent: bool,
    /// The file this persistent handle was opened from (`None` for
    /// in-memory databases and explicit-disk opens). [`SecureXmlDb::save_to`]
    /// compares against it to tell same-path compaction from a save to a
    /// fresh destination.
    image_path: Option<PathBuf>,
    /// Set when a failed update rolled back its pages (the in-memory
    /// mirrors may have advanced past them) or when [`SecureXmlDb::save_to`]
    /// compacted the image underneath this handle; every further update
    /// fails with [`DbError::Poisoned`] until the database is
    /// [recovered](SecureXmlDb::recover) or reopened.
    poisoned: AtomicBool,
    /// Set by a same-path [`SecureXmlDb::save_to`] compaction: the on-disk
    /// image no longer matches this pool's page layout, so in-process
    /// [`SecureXmlDb::recover`] is impossible — only a reopen from the path
    /// can continue.
    detached: AtomicBool,
    /// The pre-transaction mirror snapshot stashed when an update poisons
    /// the handle. The failed transaction's pages rolled back to their
    /// pre-images, so these mirrors — not the possibly-advanced live ones —
    /// are what matches the pages: degraded [readers](SecureXmlDb::reader)
    /// serve from them, and in-memory [`SecureXmlDb::recover`] restores
    /// them.
    rollback_mirrors: Mutex<Option<MirrorSnapshot>>,
    /// Set while [`run_batch`](SecureXmlDb::run_batch) is driving member
    /// closures: their internal `run_txn` calls short-circuit into the
    /// already-open batch transaction instead of opening their own.
    in_batch: bool,
    /// The in-flight distributed transaction, if any: its global id and the
    /// pre-transaction mirror snapshot captured by
    /// [`run_prepared`](SecureXmlDb::run_prepared), consumed by
    /// [`finish_prepared`](SecureXmlDb::finish_prepared) (restored on
    /// abort, dropped on commit).
    prepared: Option<(u64, MirrorSnapshot)>,
    /// When non-zero, every successful update transaction is followed by
    /// one incremental-compaction step rewriting at most this many blocks
    /// (in its own transaction). `0` (the default) leaves compaction fully
    /// manual — see [`set_auto_compaction`](SecureXmlDb::set_auto_compaction).
    auto_compact_blocks: usize,
    /// Re-entrancy guard: set while the post-commit maintenance hook is
    /// driving a compaction step, whose own commit must not re-trigger the
    /// hook.
    in_maintenance: bool,
}

/// One group-commit batch member: an update closure the batch committer can
/// run (and, if the batch as a whole must be abandoned, re-run solo — hence
/// `Fn`, not `FnOnce`) against the database.
pub type UpdateFn = Box<dyn Fn(&mut SecureXmlDb) -> Result<(), DbError> + Send>;

/// The `Arc`-shared read-side state of a [`SecureXmlDb`] at one instant.
/// Capturing it is six reference bumps; holding it makes the next update's
/// `Arc::make_mut` copy-on-write instead of mutating in place (the price of
/// having a known-good state to fall back to).
pub(crate) struct MirrorSnapshot {
    pub(crate) doc: Arc<Document>,
    pub(crate) store: Arc<StructStore>,
    pub(crate) values: Arc<ValueStore>,
    pub(crate) dol: Arc<EmbeddedDol>,
    pub(crate) tag_index: Arc<BPlusTree<TagId, Vec<u64>>>,
    pub(crate) value_index: Arc<BPlusTree<(TagId, u64), Vec<u64>>>,
}

impl MirrorSnapshot {
    fn capture(db: &SecureXmlDb) -> Self {
        Self {
            doc: Arc::clone(&db.doc),
            store: Arc::clone(&db.store),
            values: Arc::clone(&db.values),
            dol: Arc::clone(&db.dol),
            tag_index: Arc::clone(&db.tag_index),
            value_index: Arc::clone(&db.value_index),
        }
    }
}

impl SecureXmlDb {
    /// Builds a database from XML text and an access oracle.
    pub fn from_xml(xml: &str, oracle: &impl AccessOracle) -> Result<Self, DbError> {
        Self::from_document(dol_xml::parse(xml)?, oracle)
    }

    /// Builds a database from a parsed document and an access oracle.
    pub fn from_document(doc: Document, oracle: &impl AccessOracle) -> Result<Self, DbError> {
        Self::with_config(doc, oracle, DbConfig::default())
    }

    /// Builds a database with explicit storage configuration.
    pub fn with_config(
        doc: Document,
        oracle: &impl AccessOracle,
        cfg: DbConfig,
    ) -> Result<Self, DbError> {
        Self::with_config_on(Arc::new(MemDisk::new()), doc, oracle, cfg)
    }

    /// Builds a database on an explicit disk — e.g. a
    /// [`dol_storage::FaultDisk`] for fault-injection testing.
    pub fn with_config_on(
        disk: Arc<dyn dol_storage::Disk>,
        doc: Document,
        oracle: &impl AccessOracle,
        cfg: DbConfig,
    ) -> Result<Self, DbError> {
        let pool = Arc::new(BufferPool::new(disk, cfg.buffer_pool_pages));
        let store_cfg = StoreConfig {
            max_records_per_block: cfg.max_records_per_block,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), store_cfg, &doc, oracle)?;
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v)?;
            }
        }
        let tag_index = build_tag_index(&store)?;
        let value_index = build_value_index(&store, &values)?;
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), cfg.epoch_retain);
        Ok(Self {
            doc: Arc::new(doc),
            store: Arc::new(store),
            values: Arc::new(values),
            dol: Arc::new(dol),
            tag_index: Arc::new(tag_index),
            value_index: Arc::new(value_index),
            pool,
            epoch,
            caches: Arc::new(reader::QueryCaches::default()),
            persistent: false,
            image_path: None,
            poisoned: AtomicBool::new(false),
            detached: AtomicBool::new(false),
            rollback_mirrors: Mutex::new(None),
            in_batch: false,
            prepared: None,
            auto_compact_blocks: 0,
            in_maintenance: false,
        })
    }

    /// Builds a **group-factored** database: `oracle` labels the document
    /// over the *physical* columns (groups plus directly-granted subjects),
    /// and `space` maps logical subjects onto those columns through the
    /// membership hierarchy. Per-subject rights are then derived — the OR of
    /// the subject's transitive group closure — so registering a millionth
    /// user is a membership-table edit, not a codebook rewrite.
    pub fn from_document_factored(
        doc: Document,
        oracle: &impl AccessOracle,
        space: dol_acl::GroupSpace,
    ) -> Result<Self, DbError> {
        let mut db = Self::from_document(doc, oracle)?;
        db.run_txn(move |db| {
            Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .attach_group_space(space);
            Ok(())
        })?;
        Ok(db)
    }

    /// Runs `f` as one crash-consistent transaction: every page it dirties
    /// is captured, and on commit the after-images reach the write-ahead log
    /// (when one is attached) before any data page. On a persistent database
    /// the catalog and meta blob are rewritten inside the same transaction,
    /// so a crash anywhere leaves the image in exactly the before- or
    /// after-state. If `f` fails, the pages roll back to their pre-images —
    /// but in-memory mirrors (master document, value index, codebook, tag
    /// and value B+-trees) may have advanced past them, so the handle is
    /// **poisoned**: every further update fails with [`DbError::Poisoned`]
    /// until the database is reopened (queries keep working against the
    /// in-memory state).
    fn run_txn<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        // Inside a batch the enclosing run_batch owns the transaction, the
        // epoch bump, and the mirror snapshots; the member's update
        // methods just run their bodies in the open transaction.
        if self.in_batch {
            return f(self);
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DbError::Poisoned);
        }
        // Capture the pre-transaction mirrors. Holding these Arcs forces the
        // transaction body's `Arc::make_mut`s to copy-on-write, so on failure
        // a known-good mirror set (matching the rolled-back pages) survives
        // for degraded readers and in-process recovery.
        let before = MirrorSnapshot::capture(self);
        let pool = self.pool.clone();
        let res = pool.atomic_update(|| {
            let r = f(self)?;
            if self.persistent {
                self.rewrite_meta()?;
            }
            Ok(r)
        });
        match &res {
            Ok(_) => self.advance_epoch(),
            Err(_) => {
                // No epoch bump: the rollback restored the pages, so the
                // current epoch still describes them.
                *self
                    .rollback_mirrors
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()) = Some(before);
                self.poisoned.store(true, Ordering::Release);
            }
        }
        // Post-commit maintenance: piggy-back one bounded compaction step on
        // this commit when auto-compaction is enabled and a plan is armed.
        // The step runs as its own transaction (its failure poisons the
        // handle through the normal path but does not undo the user's
        // already-committed transaction); the `in_maintenance` guard stops
        // the step's own commit from re-entering this hook.
        if res.is_ok()
            && self.auto_compact_blocks > 0
            && !self.in_maintenance
            && self.dol.codebook().compaction().is_some()
        {
            self.in_maintenance = true;
            let budget = self.auto_compact_blocks;
            let _ = self.compaction_tick(budget);
            self.in_maintenance = false;
        }
        res
    }

    /// Runs one update closure as its own crash-consistent transaction —
    /// the public solo-commit path, used by the group committer to replay
    /// members of a batch that could not be committed together.
    pub fn run_update(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        self.run_txn(f)
    }

    /// Publishes a commit: bumps the epoch and evicts the result-cache
    /// entries keyed on epochs the ring no longer retains (entries inside
    /// the window stay valid: their epoch's pages are reconstructible for
    /// as long as the window holds them). The commit's seal has already
    /// raised the ring floor, so readers pinned below it are refused even
    /// before this bump lands.
    fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.caches.evict_dead_epochs(self.pool.ring_floor());
    }

    /// Restores a captured mirror snapshot over the live mirrors.
    fn restore_mirrors(&mut self, snap: MirrorSnapshot) {
        self.doc = snap.doc;
        self.store = snap.store;
        self.values = snap.values;
        self.dol = snap.dol;
        self.tag_index = snap.tag_index;
        self.value_index = snap.value_index;
    }

    /// Runs `members` as one **group commit**: every member executes inside
    /// a single pool transaction, so the whole batch reaches the write-ahead
    /// log as one WAL transaction and one sync — K updates, one fsync, and a
    /// power cut anywhere commits all of them or none.
    ///
    /// Members are isolated from each other by savepoints: a member whose
    /// closure fails is rolled back to its savepoint (pages *and* mirrors)
    /// and reported `Err` in its result slot without poisoning its batch
    /// peers, which commit normally. Only when the batch *mechanism* itself
    /// fails — a savepoint operation errors, or the final commit fails —
    /// does the whole call return `Err`: a cleanly-aborted batch (inner
    /// savepoint failure) leaves the database unchanged and un-poisoned, so
    /// the caller may replay the members solo via
    /// [`run_update`](Self::run_update); a failed *commit* poisons the
    /// handle exactly like a failed solo update.
    ///
    /// The epoch advances once per batch: all members land in the same new
    /// epoch, and readers pinned to older retained epochs keep answering.
    pub fn run_batch(&mut self, members: &[UpdateFn]) -> Result<Vec<Result<(), DbError>>, DbError> {
        if self.in_batch || self.pool.in_transaction() {
            return Err(DbError::Storage(StorageError::Io(std::io::Error::other(
                "run_batch inside an open transaction",
            ))));
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DbError::Poisoned);
        }
        if members.is_empty() {
            return Ok(Vec::new());
        }
        let batch_before = MirrorSnapshot::capture(self);
        let pool = self.pool.clone();
        pool.txn_begin();
        self.in_batch = true;
        let mut results: Vec<Result<(), DbError>> = Vec::with_capacity(members.len());
        let mut abort: Option<DbError> = None;
        for member in members {
            // Per-member isolation: mirrors snapshot + page savepoint.
            let member_before = MirrorSnapshot::capture(self);
            if let Err(e) = pool.txn_savepoint() {
                abort = Some(e.into());
                break;
            }
            match member(self) {
                Ok(()) => match pool.txn_release_savepoint() {
                    Ok(()) => results.push(Ok(())),
                    Err(e) => {
                        abort = Some(e.into());
                        break;
                    }
                },
                Err(e) => {
                    // The member failed: reject it without harming its
                    // peers — pages back to the savepoint, mirrors back to
                    // the member snapshot.
                    self.restore_mirrors(member_before);
                    match pool.txn_rollback_to_savepoint() {
                        Ok(()) => results.push(Err(e)),
                        Err(sp_err) => {
                            abort = Some(sp_err.into());
                            break;
                        }
                    }
                }
            }
        }
        self.in_batch = false;
        if let Some(e) = abort {
            // The batch mechanism failed: abandon the whole transaction
            // cleanly. The rollback restores every page pre-image, the
            // snapshot restores the matching mirrors — the database is
            // exactly as before the call, so the caller may replay solo.
            pool.txn_rollback();
            self.restore_mirrors(batch_before);
            return Err(e);
        }
        let commit = (|| -> Result<(), DbError> {
            if self.persistent {
                self.rewrite_meta()?;
            }
            Ok(pool.txn_commit()?)
        })();
        match commit {
            Ok(()) => {
                self.advance_epoch();
                Ok(results)
            }
            Err(e) => {
                // rewrite_meta may have failed before the commit was
                // attempted — the transaction is then still open.
                if pool.in_transaction() {
                    pool.txn_rollback();
                }
                *self
                    .rollback_mirrors
                    .lock()
                    .unwrap_or_else(|er| er.into_inner()) = Some(batch_before);
                self.poisoned.store(true, Ordering::Release);
                Err(e)
            }
        }
    }

    /// First half of a distributed (cross-shard) commit: runs `f` inside a
    /// pool transaction and **prepares** it under the global transaction id
    /// `gtid` — the after-images reach the write-ahead log (synced) under a
    /// `Prepare` record, but the transaction stays open and *invisible*:
    /// no dirty byte can reach the data disk, recovery presumes abort, the
    /// epoch does not advance, and readers keep answering the pre-prepare
    /// state. The transaction is resolved by
    /// [`finish_prepared`](Self::finish_prepared).
    ///
    /// An `Err` from `f` (or from the WAL append) is a clean **abort
    /// vote**: pages and mirrors are rolled back and the handle stays
    /// healthy — unlike [`run_update`](Self::run_update), nothing poisons,
    /// because no cover story is needed for a transaction that was never
    /// visible.
    pub fn run_prepared(
        &mut self,
        gtid: u64,
        f: impl FnOnce(&mut Self) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        if self.in_batch || self.prepared.is_some() || self.pool.in_transaction() {
            return Err(DbError::Storage(StorageError::Io(std::io::Error::other(
                "run_prepared inside an open transaction",
            ))));
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DbError::Poisoned);
        }
        let before = MirrorSnapshot::capture(self);
        let pool = self.pool.clone();
        pool.txn_begin();
        self.in_batch = true; // member update methods join this transaction
        let body = (|| -> Result<(), DbError> {
            f(self)?;
            if self.persistent {
                self.rewrite_meta()?;
            }
            Ok(())
        })();
        self.in_batch = false;
        match body {
            Ok(()) => match pool.txn_prepare(gtid) {
                Ok(()) => {
                    self.prepared = Some((gtid, before));
                    Ok(())
                }
                Err(e) => {
                    // txn_prepare rolled the pages back on failure; restore
                    // the matching mirrors. Clean abort: no poison.
                    self.restore_mirrors(before);
                    Err(e.into())
                }
            },
            Err(e) => {
                pool.txn_rollback();
                self.restore_mirrors(before);
                Err(e)
            }
        }
    }

    /// Second half of a distributed commit: resolves the transaction left
    /// open by [`run_prepared`](Self::run_prepared). With `commit == true`
    /// (the catalog's commit record for `gtid` is durable) the prepared
    /// images become the committed state and the epoch advances exactly as
    /// for a solo commit; with `commit == false` everything rolls back to
    /// the pre-prepare state and the handle stays healthy.
    ///
    /// A failure while *committing* (e.g. a spilled-page write-back error)
    /// poisons the handle — the decision is already durable, so recovery
    /// ([`recover_with_decisions`](Self::recover_with_decisions) with
    /// `gtid` decided) replays the prepared images from the log.
    pub fn finish_prepared(&mut self, gtid: u64, commit: bool) -> Result<(), DbError> {
        let (g, before) = self
            .prepared
            .take()
            .ok_or(DbError::Storage(StorageError::Io(std::io::Error::other(
                "finish_prepared without a prepared transaction",
            ))))?;
        if g != gtid {
            self.prepared = Some((g, before));
            return Err(DbError::Storage(StorageError::Io(std::io::Error::other(
                "finish_prepared gtid mismatch",
            ))));
        }
        if !commit {
            self.pool.txn_finish_prepared(false)?;
            self.restore_mirrors(before);
            return Ok(());
        }
        match self.pool.txn_finish_prepared(true) {
            Ok(()) => {
                self.advance_epoch();
                Ok(())
            }
            Err(e) => {
                // The decision is commit and the prepared images are durable
                // in the log; only the local write-back failed. The live
                // (after) mirrors describe the committed state, so no
                // before-snapshot is stashed: degraded readers serve the
                // committed image, and recovery with this gtid decided
                // replays the pages underneath it.
                self.poisoned.store(true, Ordering::Release);
                Err(e.into())
            }
        }
    }

    /// The global transaction id of the in-flight prepared transaction, if
    /// any (between [`run_prepared`](Self::run_prepared) and
    /// [`finish_prepared`](Self::finish_prepared)).
    pub fn prepared_gtid(&self) -> Option<u64> {
        self.prepared.as_ref().map(|(g, _)| *g)
    }

    /// The oldest epoch the MVCC version ring still retains. A
    /// [`DbReader`] pinned below this floor gets
    /// [`DbError::RetentionExceeded`].
    pub fn retention_floor(&self) -> u64 {
        self.pool.ring_floor()
    }

    /// Whether a failed update (or a same-path [`save_to`](Self::save_to)
    /// compaction) has poisoned this handle; see [`DbError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Repairs a poisoned handle **in process**, equivalent to dropping it
    /// and reopening the image — without losing the process, the pool, or
    /// the attached write-ahead log.
    ///
    /// * On a **persistent** database, every cached frame and any half-open
    ///   transaction state is discarded, the write-ahead log's committed
    ///   transactions are replayed onto the data disk (exactly what
    ///   [`open_on`](Self::open_on) does first), and all in-memory mirrors
    ///   — master document, block store, value store, DOL, tag and value
    ///   indexes — are rebuilt from the recovered pages.
    /// * On an **in-memory** database, the failed transaction already
    ///   rolled its pages back to their pre-images; the pre-transaction
    ///   mirror snapshot is restored to match them.
    ///
    /// Either way the rebuilt state must pass
    /// [`verify_integrity`](Self::verify_integrity) before the poison latch
    /// is cleared; on failure the handle stays poisoned and the error is
    /// returned. Success bumps the update epoch and raises the version
    /// ring's floor to it (outstanding readers fail
    /// [`DbError::RetentionExceeded`] and re-snapshot), drops all cached
    /// results, and resets the I/O circuit breaker.
    ///
    /// A handle *detached* by a same-path [`save_to`](Self::save_to)
    /// compaction cannot recover — the on-disk image no longer matches this
    /// pool's layout — and fails with [`DbError::Poisoned`]; reopen from
    /// the path instead. An un-poisoned handle recovers trivially: the call
    /// just resets the breaker and returns `Ok(None)`.
    pub fn recover(&mut self) -> Result<Option<RecoveryReport>, DbError> {
        self.recover_with_decisions(&[])
    }

    /// [`recover`](Self::recover) for a shard of a [`ShardedDb`]: prepared
    /// transactions in the write-ahead log whose global id appears in
    /// `decided` (the shard catalog's committed records) are replayed like
    /// committed ones; undecided prepares are rolled back wholesale
    /// (presumed abort). An in-flight [`run_prepared`](Self::run_prepared)
    /// transaction still open in this process is resolved first, by the
    /// same rule. With an empty `decided` this *is* `recover`.
    pub fn recover_with_decisions(
        &mut self,
        decided: &[u64],
    ) -> Result<Option<RecoveryReport>, DbError> {
        if self.detached.load(Ordering::Acquire) {
            return Err(DbError::Poisoned);
        }
        // Resolve a still-open prepared transaction by the catalog's
        // verdict before anything else: `recover` must never leave an open
        // transaction behind, and the decision already exists (or is
        // forever absent) in the catalog.
        if let Some(gtid) = self.prepared_gtid() {
            let commit = decided.contains(&gtid);
            if let Err(e) = self.finish_prepared(gtid, commit) {
                // A failed finish poisons; fall through into full recovery
                // below, which rebuilds from the log + decisions.
                let _ = e;
            }
        }
        if !self.is_poisoned() {
            self.pool.reset_breaker();
            return Ok(None);
        }
        let report = if self.persistent {
            // The cache may hold rolled-back frames or bytes that never
            // became durable (e.g. after a power cut): drop them all, then
            // redo the log's committed transactions onto the data disk and
            // reload the image exactly as a fresh open would.
            self.pool.discard_cache_and_txn();
            let wal = self.pool.wal().ok_or(DbError::Poisoned)?;
            let report = wal.recover_onto_with_decisions(self.pool.disk().as_ref(), decided)?;
            let img = persist::load_image(&self.pool)?;
            self.doc = Arc::new(img.doc);
            self.store = Arc::new(img.store);
            self.values = Arc::new(img.values);
            self.dol = Arc::new(EmbeddedDol::from_codebook(img.codebook));
            self.tag_index = Arc::new(img.tag_index);
            self.value_index = Arc::new(img.value_index);
            *self
                .rollback_mirrors
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = None;
            Some(report)
        } else {
            // In-memory: the rollback already restored the page pre-images;
            // restore the matching pre-transaction mirrors. If the snapshot
            // is gone (already consumed by a failed recovery), reopening is
            // the only way out.
            let snap = self
                .rollback_mirrors
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .ok_or(DbError::Poisoned)?;
            self.doc = snap.doc;
            self.store = snap.store;
            self.values = snap.values;
            self.dol = snap.dol;
            self.tag_index = snap.tag_index;
            self.value_index = snap.value_index;
            None
        };
        // Never declare health unverified: the poison latch stays set if the
        // rebuilt state is inconsistent (e.g. torn pages with no log to redo
        // from).
        self.verify_integrity()?;
        self.poisoned.store(false, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Recovery rewrote page provenance: collapse the version ring so
        // readers pinned to pre-recovery epochs are refused
        // (RetentionExceeded) instead of served reconstructed bytes, and
        // drop every cached result (their epochs are all below the floor).
        self.pool.ring_barrier();
        self.caches.evict_dead_epochs(self.pool.ring_floor());
        self.pool.reset_breaker();
        Ok(report)
    }

    /// Verifies the full embedded-DOL and block-store invariants:
    ///
    /// * the block store's structural integrity (directory vs. on-page
    ///   headers, transition tables, sizes and depths walked as a tree);
    /// * the logical DOL transition list is strictly document-ordered and
    ///   deduplicated — a node is flagged as a transition *iff* its code
    ///   differs from its document-order predecessor, and the first node is
    ///   always a transition;
    /// * every transition code is within the codebook's bounds;
    /// * each block header's first-code and change bit agree with the
    ///   records actually in the block.
    ///
    /// Returns [`DbError::Integrity`] naming the first violation. The chaos
    /// soak runs this after every in-process recovery.
    pub fn verify_integrity(&self) -> Result<(), DbError> {
        self.store.check_integrity().map_err(DbError::Integrity)?;
        let items = self.store.read_block_range(0..self.store.block_count())?;
        let codebook_len = self.dol.codebook().len() as u32;
        let mut prev: Option<u32> = None;
        for (pos, item) in items.iter().enumerate() {
            if item.code >= codebook_len {
                return Err(DbError::Integrity(format!(
                    "node {pos}: access code {} out of codebook bounds ({codebook_len} entries)",
                    item.code
                )));
            }
            let expect_transition = prev != Some(item.code);
            if item.is_transition != expect_transition {
                return Err(DbError::Integrity(if item.is_transition {
                    format!(
                        "node {pos}: transition flagged but code {} unchanged",
                        item.code
                    )
                } else {
                    format!(
                        "node {pos}: code changed {:?} -> {} without a transition flag",
                        prev, item.code
                    )
                }));
            }
            prev = Some(item.code);
        }
        // Block headers against the records in each block.
        let mut pos = 0usize;
        for b in 0..self.store.block_count() {
            let info = self.store.block_info(b);
            let count = info.count as usize;
            let Some(first) = items.get(pos) else {
                return Err(DbError::Integrity(format!(
                    "block {b} starts past the item list"
                )));
            };
            if first.code != info.first_code {
                return Err(DbError::Integrity(format!(
                    "block {b}: header first_code {} but first record has code {}",
                    info.first_code, first.code
                )));
            }
            let change = items[pos + 1..pos + count].iter().any(|i| i.is_transition);
            if change != info.change {
                return Err(DbError::Integrity(format!(
                    "block {b}: change bit {} but in-block transitions {}",
                    info.change, change
                )));
            }
            pos += count;
        }
        Ok(())
    }

    /// Flushes all dirty pages and truncates the write-ahead log. A no-op
    /// fast path when no log is attached (in-memory databases).
    pub fn checkpoint(&self) -> Result<(), DbError> {
        Ok(self.pool.checkpoint()?)
    }

    /// Evaluates a twig query (see [`dol_nok::xpath`] for the syntax) under
    /// the given [`Security`] mode.
    ///
    /// Compiled plans are reused across calls, but *every* call executes
    /// against the pages — this path is deliberately not result-cached, so
    /// repeated queries observe storage-fault state changes exactly (the
    /// fail-closed tests and the experiment harness depend on that). The
    /// serving path with result caching is [`SecureXmlDb::reader`].
    pub fn query(&self, query: &str, security: Security) -> Result<QueryResult, DbError> {
        self.query_opts(query, security, ExecOptions::default())
    }

    /// [`query`](Self::query) with explicit [`ExecOptions`] — notably a
    /// [`Deadline`] (or [`CancelToken`]) for cooperative cancellation.
    /// An expired deadline aborts the query with
    /// [`DbError::DeadlineExceeded`] carrying the partial-work statistics;
    /// a partial answer is never returned, and the abort is counted in
    /// [`CacheStats::deadline_aborts`].
    pub fn query_opts(
        &self,
        query: &str,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, DbError> {
        let (plan, compiled) = self
            .caches
            .plans()
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
        match engine.execute_compiled_opts(&plan, &compiled, security, opts) {
            Err(e @ QueryError::DeadlineExceeded(_)) => {
                self.caches.note_deadline_abort();
                Err(e.into())
            }
            other => Ok(other?),
        }
    }

    /// A cheap snapshot handle for concurrent read-only serving: shares the
    /// store, indexes, and DOL by `Arc`, is stamped with the current update
    /// epoch, and serves queries through the plan and secure-result caches
    /// (a warm result hit does zero page I/O). A reader keeps answering as
    /// of its epoch while [`DbConfig::epoch_retain`] later commits land;
    /// past that it fails with [`DbError::RetentionExceeded`] rather than
    /// return a mixed-epoch answer — take a fresh reader and retry.
    ///
    /// **Degraded mode:** a poisoned handle keeps serving readers. If the
    /// poison came from a failed (rolled-back) update, the reader snapshots
    /// the stashed *pre-transaction* mirrors — the state that matches the
    /// rolled-back pages — so reads stay consistent while updates are
    /// refused, until [`recover`](Self::recover) or a reopen.
    pub fn reader(&self) -> DbReader {
        if self.poisoned.load(Ordering::Acquire) {
            let snap = self
                .rollback_mirrors
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(snap) = snap.as_ref() {
                return DbReader::degraded(self, snap);
            }
        }
        DbReader::new(self)
    }

    /// Whether `subject` may access the node at `pos`.
    pub fn accessible(&self, pos: u64, subject: SubjectId) -> Result<bool, DbError> {
        Ok(self.dol.accessible(&self.store, pos, subject)?)
    }

    /// Grants or revokes one subject's access to a single node (§3.4).
    pub fn set_node_access(
        &mut self,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), DbError> {
        if pos >= self.store.total_nodes() {
            return Err(DbError::InvalidNode(pos));
        }
        self.run_txn(|db| {
            let dol = Arc::make_mut(&mut db.dol);
            let store = Arc::make_mut(&mut db.store);
            dol.set_node(store, pos, subject, allow)?;
            // A code rewrite can split blocks, shifting directory indices
            // under an in-flight compaction cursor.
            dol.codebook_mut().mark_compaction_dirty();
            Ok(())
        })
    }

    /// Grants or revokes one subject's access to the whole subtree of the
    /// node at `pos` (§3.4 subtree update).
    pub fn set_subtree_access(
        &mut self,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), DbError> {
        if pos >= self.store.total_nodes() {
            return Err(DbError::InvalidNode(pos));
        }
        let size = self.store.node(pos)?.size as u64;
        self.run_txn(|db| {
            let dol = Arc::make_mut(&mut db.dol);
            let store = Arc::make_mut(&mut db.store);
            dol.set_subtree(store, pos, pos + size, subject, allow)?;
            dol.codebook_mut().mark_compaction_dirty();
            Ok(())
        })
    }

    /// Adds a subject, optionally copying an existing subject's rights — a
    /// pure codebook operation (§3.4).
    pub fn add_subject(&mut self, copy_from: Option<SubjectId>) -> Result<SubjectId, DbError> {
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .add_subject(copy_from))
        })
    }

    /// Removes a subject lazily (codebook-only; §3.4).
    pub fn remove_subject(&mut self, subject: SubjectId) -> Result<(), DbError> {
        self.run_txn(|db| {
            Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .remove_subject(subject);
            Ok(())
        })
    }

    /// Performs the §3.4 lazy cleanup after subject removals: compacts the
    /// codebook and rewrites the embedded codes. Subject ids shift in a
    /// flat codebook (removed columns disappear), so callers must re-derive
    /// ids; factored logical ids are stable.
    ///
    /// Internally this arms an incremental plan and drains it in bounded
    /// steps, **each its own transaction** — no single transaction ever
    /// rewrites more than [`COMPACT_TICK_BLOCKS`] blocks, and readers
    /// between steps see a consistent half-migrated image (every
    /// intermediate code resolves to the right ACL). A crash mid-drain
    /// recovers onto a step boundary; re-calling finishes the job.
    pub fn compact_subjects(&mut self) -> Result<(), DbError> {
        let armed = self.begin_compaction()?;
        if !armed && self.dol.codebook().compaction().is_none() {
            return Ok(()); // nothing to merge, nothing to retire
        }
        loop {
            if self.compaction_tick(COMPACT_TICK_BLOCKS)?.finished {
                return Ok(());
            }
        }
    }

    /// Arms an incremental compaction plan (no block is rewritten yet).
    /// Returns `false` when the codebook has nothing to compact or a plan
    /// is already active.
    pub fn begin_compaction(&mut self) -> Result<bool, DbError> {
        self.run_txn(|db| Ok(Arc::make_mut(&mut db.dol).begin_compaction()))
    }

    /// Runs one bounded compaction step as its own transaction, rewriting
    /// at most `max_blocks` blocks. Drive this from a maintenance loop —
    /// or let [`set_auto_compaction`](SecureXmlDb::set_auto_compaction)
    /// piggy-back a step on every update commit.
    pub fn compaction_tick(&mut self, max_blocks: usize) -> Result<CompactionProgress, DbError> {
        self.run_txn(|db| {
            let dol = Arc::make_mut(&mut db.dol);
            let store = Arc::make_mut(&mut db.store);
            Ok(dol.compaction_tick(store, max_blocks)?)
        })
    }

    /// Remaining compaction work in blocks (0 = no active plan) — the
    /// backlog gauge for maintenance schedulers.
    pub fn compaction_backlog(&self) -> u64 {
        self.dol.compaction_backlog(&self.store)
    }

    /// Sets the auto-compaction budget: when `blocks_per_txn > 0`, every
    /// successful update commit is followed by one compaction step of at
    /// most that many blocks (in its own transaction) while a plan is
    /// active. `0` pauses the background drain; the armed plan is kept and
    /// resumes when re-enabled or driven manually.
    pub fn set_auto_compaction(&mut self, blocks_per_txn: usize) {
        self.auto_compact_blocks = blocks_per_txn;
    }

    /// Adds a logical subject with the given direct parent groups — a
    /// membership-table edit touching no codebook entry, O(1) regardless of
    /// codebook size. Requires a group-factored database
    /// (see [`from_document_factored`](SecureXmlDb::from_document_factored)).
    pub fn add_grouped_subject(&mut self, parents: &[SubjectId]) -> Result<SubjectId, DbError> {
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .add_grouped_subject(parents))
        })
    }

    /// Bulk [`add_grouped_subject`](SecureXmlDb::add_grouped_subject): adds
    /// `count` subjects with identical parent sets in **one** transaction
    /// (one WAL sync), returning the first new id — the ids are contiguous.
    pub fn add_grouped_subjects(
        &mut self,
        count: usize,
        parents: &[SubjectId],
    ) -> Result<SubjectId, DbError> {
        assert!(count > 0, "empty bulk add");
        self.run_txn(|db| {
            let cb = Arc::make_mut(&mut db.dol).codebook_mut();
            let first = cb.add_grouped_subject(parents);
            for _ in 1..count {
                cb.add_grouped_subject(parents);
            }
            Ok(first)
        })
    }

    /// Adds or removes one direct membership edge of a group-factored
    /// subject; its derived rights change live. Returns whether the edge
    /// actually changed.
    pub fn set_group_membership(
        &mut self,
        subject: SubjectId,
        group: SubjectId,
        member: bool,
    ) -> Result<bool, DbError> {
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .set_membership(subject, group, member))
        })
    }

    /// Creates a virtual subject whose rights are the union of the given
    /// subjects' rights (paper §4: a user's rights are her own plus those of
    /// her groups). Queries then run under the returned id. Codebook-only.
    pub fn create_union_view(&mut self, subjects: &[SubjectId]) -> Result<SubjectId, DbError> {
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .add_subject_union(subjects))
        })
    }

    /// Creates a union view for `user` from a subject catalog: the user's
    /// own subject plus every group reachable through the membership
    /// hierarchy.
    pub fn create_user_view(
        &mut self,
        catalog: &dol_acl::SubjectCatalog,
        user: SubjectId,
    ) -> Result<SubjectId, DbError> {
        let eff = catalog.effective_subjects(user);
        self.create_union_view(&eff)
    }

    /// Deletes the subtree rooted at `pos` (structural update, §3.4).
    pub fn delete_subtree(&mut self, pos: u64) -> Result<(), DbError> {
        if pos == 0 || pos >= self.store.total_nodes() {
            return Err(DbError::InvalidNode(pos));
        }
        let size = self.store.node(pos)?.size as u64;
        self.run_txn(|db| {
            let store = Arc::make_mut(&mut db.store);
            let values = Arc::make_mut(&mut db.values);
            let doc = Arc::make_mut(&mut db.doc);
            store.delete_run(pos, pos + size)?;
            values.remove_range(pos, pos + size);
            values.shift_positions(pos + size, -(size as i64));
            doc.delete_subtree(NodeId(pos as u32))
                .map_err(|_| DbError::InvalidNode(pos))?;
            db.tag_index = Arc::new(build_tag_index(&db.store)?);
            db.value_index = Arc::new(build_value_index(&db.store, &db.values)?);
            // Blocks moved; an in-flight compaction cursor is stale.
            Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .mark_compaction_dirty();
            Ok(())
        })
    }

    /// Inserts `subtree` as the last child of the node at `parent_pos`.
    /// The new nodes inherit the access-control code in effect at the
    /// insertion point's document-order predecessor; callers wanting
    /// explicit rights can follow up with
    /// [`set_subtree_access`](SecureXmlDb::set_subtree_access).
    pub fn insert_subtree(&mut self, parent_pos: u64, subtree: &Document) -> Result<u64, DbError> {
        if parent_pos >= self.store.total_nodes() || subtree.is_empty() {
            return Err(DbError::InvalidNode(parent_pos));
        }
        self.run_txn(|db| {
            let store = Arc::make_mut(&mut db.store);
            let values = Arc::make_mut(&mut db.values);
            let doc = Arc::make_mut(&mut db.doc);
            let parent_rec = store.node(parent_pos)?;
            let at = parent_pos + parent_rec.size as u64;
            let code = store.code_at(at - 1)?;
            // Encode the subtree (tags interned into the master document).
            let mut items = Vec::with_capacity(subtree.len());
            for id in subtree.preorder() {
                let n = subtree.node(id);
                items.push(BulkItem {
                    tag: doc.tags_mut().intern(subtree.tags().name(n.tag)),
                    size: n.size,
                    depth: n.depth + parent_rec.depth + 1,
                    has_value: n.value.is_some(),
                    code,
                    is_transition: false,
                });
            }
            let mut ancestors = store.ancestors_of(parent_pos)?;
            ancestors.push(parent_pos);
            store.insert_run(at, &ancestors, &items)?;
            // Values: shift the tail, then add the new nodes' values.
            values.shift_positions(at, subtree.len() as i64);
            for id in subtree.preorder() {
                if let Some(v) = &subtree.node(id).value {
                    values.put(at + u64::from(id.0), v)?;
                }
            }
            doc.insert_subtree(NodeId(parent_pos as u32), None, subtree)
                .map_err(|_| DbError::InvalidNode(parent_pos))?;
            db.tag_index = Arc::new(build_tag_index(&db.store)?);
            db.value_index = Arc::new(build_value_index(&db.store, &db.values)?);
            Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .mark_compaction_dirty();
            Ok(at)
        })
    }

    /// Moves the subtree rooted at `pos` to become the last child of the
    /// node at `new_parent_pos` (§3.4 "moving a node or a subtree"). The
    /// subtree keeps its access controls: its per-run codes travel with it.
    /// Returns the subtree root's new document position.
    pub fn move_subtree(&mut self, pos: u64, new_parent_pos: u64) -> Result<u64, DbError> {
        let total = self.store.total_nodes();
        if pos == 0 || pos >= total || new_parent_pos >= total {
            return Err(DbError::InvalidNode(pos.max(new_parent_pos)));
        }
        let size = self.store.node(pos)?.size as u64;
        if new_parent_pos >= pos && new_parent_pos < pos + size {
            return Err(DbError::InvalidNode(new_parent_pos)); // own descendant
        }
        self.run_txn(|db| {
            let store = Arc::make_mut(&mut db.store);
            let vals = Arc::make_mut(&mut db.values);
            let doc = Arc::make_mut(&mut db.doc);
            // Capture the subtree: structure from the master document,
            // per-node codes from the embedded runs.
            let sub = doc.copy_subtree(NodeId(pos as u32));
            let runs = store.runs_in(pos, pos + size)?;
            let code_at = |p: u64| -> u32 {
                let i = runs.partition_point(|&(q, _)| q <= p) - 1;
                runs[i].1
            };
            let values: Vec<(u64, Option<String>)> = (pos..pos + size)
                .map(|p| Ok((p - pos, vals.get(p)?)))
                .collect::<Result<_, StorageError>>()?;

            // Remove at the old location.
            store.delete_run(pos, pos + size)?;
            vals.remove_range(pos, pos + size);
            vals.shift_positions(pos + size, -(size as i64));
            doc.delete_subtree(NodeId(pos as u32))
                .map_err(|_| DbError::InvalidNode(pos))?;

            // Re-anchor at the new parent (position shifts if it was after
            // the removed range).
            let parent = if new_parent_pos >= pos + size {
                new_parent_pos - size
            } else {
                new_parent_pos
            };
            let parent_rec = store.node(parent)?;
            let at = parent + parent_rec.size as u64;
            let mut prev_code: Option<u32> = None;
            let items: Vec<BulkItem> = sub
                .preorder()
                .map(|id| {
                    let n = sub.node(id);
                    let code = code_at(pos + u64::from(id.0));
                    let is_transition = prev_code != Some(code);
                    prev_code = Some(code);
                    BulkItem {
                        tag: doc.tags_mut().intern(sub.tags().name(n.tag)),
                        size: n.size,
                        depth: n.depth + parent_rec.depth + 1,
                        has_value: n.value.is_some(),
                        code,
                        is_transition,
                    }
                })
                .collect();
            let mut ancestors = store.ancestors_of(parent)?;
            ancestors.push(parent);
            store.insert_run(at, &ancestors, &items)?;
            vals.shift_positions(at, size as i64);
            for (off, v) in values {
                if let Some(v) = v {
                    vals.put(at + off, &v)?;
                }
            }
            doc.insert_subtree(NodeId(parent as u32), None, &sub)
                .map_err(|_| DbError::InvalidNode(parent))?;
            db.tag_index = Arc::new(build_tag_index(&db.store)?);
            db.value_index = Arc::new(build_value_index(&db.store, &db.values)?);
            Arc::make_mut(&mut db.dol)
                .codebook_mut()
                .mark_compaction_dirty();
            Ok(at)
        })
    }

    /// Exports the fragment of the document visible to `subject` as XML:
    /// subtrees rooted at inaccessible nodes are pruned entirely (the
    /// Gabillon–Bruno / dissemination semantics — a reader who cannot see an
    /// element cannot see its content). Returns `None` when the root itself
    /// is inaccessible. For filtering raw XML streams without a database,
    /// see [`dol_core::stream::secure_filter`].
    pub fn export_visible(&self, subject: SubjectId) -> Result<Option<String>, DbError> {
        if !self.accessible(0, subject)? {
            return Ok(None);
        }
        // Copy the document, delete inaccessible subtrees (shallowest first;
        // re-resolve positions after each deletion since ids shift).
        let mut pruned = (*self.doc).clone();
        // Collect inaccessible positions against the *original* numbering.
        let mut doomed: Vec<u64> = Vec::new();
        let mut pos = 0u64;
        let total = self.store.total_nodes();
        while pos < total {
            if !self.dol.accessible(&self.store, pos, subject)? {
                let size = self.store.node(pos)?.size as u64;
                doomed.push(pos);
                pos += size; // nested inaccessible nodes go with the subtree
            } else {
                pos += 1;
            }
        }
        // Delete back-to-front so earlier positions stay valid.
        for &p in doomed.iter().rev() {
            pruned
                .delete_subtree(NodeId(p as u32))
                .map_err(|_| DbError::InvalidNode(p))?;
        }
        Ok(Some(pruned.to_xml()))
    }

    /// DOL storage statistics.
    pub fn dol_stats(&self) -> Result<DolStats, DbError> {
        Ok(self.dol.stats(&self.store)?)
    }

    /// Buffer-pool I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Installs the buffer pool's fault [`RetryPolicy`] (attempt budget,
    /// exponential backoff, circuit breaker). Resets the breaker.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.pool.set_retry_policy(policy);
    }

    /// The buffer pool's current fault [`RetryPolicy`].
    pub fn retry_policy(&self) -> RetryPolicy {
        self.pool.retry_policy()
    }

    /// Whether the I/O circuit breaker is open (reads and writes fail fast
    /// with [`dol_storage::StorageError::BreakerOpen`], except half-open
    /// probes). A tripped database still serves warm cached results through
    /// its readers; [`recover`](Self::recover) or
    /// [`reset_breaker`](Self::reset_breaker) closes it.
    pub fn breaker_is_open(&self) -> bool {
        self.pool.breaker_is_open()
    }

    /// Force-closes the I/O circuit breaker (e.g. after replacing a faulty
    /// disk or disarming fault injection).
    pub fn reset_breaker(&self) {
        self.pool.reset_breaker();
    }

    /// The current update epoch (starts at 0, bumped by every update
    /// transaction — successful or not).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Hit/miss counters of the shared plan and secure-result caches.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// Resets the I/O counters (e.g. between measured queries).
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Drops every cached page from the buffer pool (flushing dirty ones)
    /// so subsequent reads are cold. Harnesses use this to measure or
    /// provoke physical I/O; dirty pages whose flush fails stay cached.
    pub fn drop_page_cache(&self) -> Result<(), DbError> {
        Ok(self.pool.clear_cache()?)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.store.total_nodes() as usize
    }

    /// A database is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The in-memory master document (tags, values, navigation).
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The underlying block store.
    pub fn store(&self) -> &StructStore {
        &self.store
    }

    /// The embedded DOL.
    pub fn dol(&self) -> &EmbeddedDol {
        &self.dol
    }

    /// The value store.
    pub fn values(&self) -> &ValueStore {
        &self.values
    }

    /// Fetches the value of the node at `pos`.
    pub fn value(&self, pos: u64) -> Result<Option<String>, DbError> {
        Ok(self.values.get(pos)?)
    }
}

/// Combines per-mode oracles into a single oracle over `(mode, subject)`
/// columns, the paper's §2 recipe for multiple action modes: the combined
/// subject index of `(subject s, mode m)` is `m * S + s`.
pub struct ModalOracle<'a, O> {
    modes: Vec<&'a O>,
    subjects_per_mode: usize,
}

impl<'a, O: AccessOracle> ModalOracle<'a, O> {
    /// Wraps one oracle per mode (all with equal subject counts).
    pub fn new(modes: Vec<&'a O>) -> Self {
        assert!(!modes.is_empty());
        let subjects_per_mode = modes[0].subject_count();
        assert!(modes.iter().all(|o| o.subject_count() == subjects_per_mode));
        Self {
            modes,
            subjects_per_mode,
        }
    }

    /// The combined column index of `(subject, mode)`.
    pub fn column(&self, subject: SubjectId, mode: usize) -> SubjectId {
        SubjectId((mode * self.subjects_per_mode + subject.index()) as u32)
    }
}

impl<O: AccessOracle> AccessOracle for ModalOracle<'_, O> {
    fn subject_count(&self) -> usize {
        self.modes.len() * self.subjects_per_mode
    }

    fn acl_row(&self, node: NodeId, out: &mut BitVec) {
        out.resize(self.subject_count());
        out.fill(false);
        let mut tmp = BitVec::zeros(0);
        for (m, o) in self.modes.iter().enumerate() {
            o.acl_row(node, &mut tmp);
            for s in tmp.iter_ones() {
                out.set(m * self.subjects_per_mode + s, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::AccessibilityMap;

    fn two_subject_db() -> (SecureXmlDb, AccessibilityMap) {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        (SecureXmlDb::from_document(doc, &map).unwrap(), map)
    }

    #[test]
    fn build_query_update_cycle() {
        let (mut db, _) = two_subject_db();
        assert_eq!(db.len(), 6);
        assert_eq!(
            db.query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![4]
        );
        assert_eq!(
            db.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        // Grant subject 1 the subtree of b, re-query.
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert_eq!(
            db.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![2]
        );
        assert_eq!(db.value(2).unwrap().as_deref(), Some("v1"));
    }

    #[test]
    fn structural_updates_keep_everything_aligned() {
        let (mut db, _) = two_subject_db();
        // Delete subtree of b ([1,3)).
        db.delete_subtree(1).unwrap();
        assert_eq!(db.len(), 4);
        db.store().check_integrity().unwrap();
        db.document().check_integrity().unwrap();
        // e moved from 4 to 2 and kept its value.
        assert_eq!(db.value(2).unwrap().as_deref(), Some("v2"));
        assert_eq!(db.query("//d/e", Security::None).unwrap().matches, vec![2]);
        // Insert a new subtree under d (now at position 1).
        let sub = dol_xml::parse("<g><h>v3</h></g>").unwrap();
        let at = db.insert_subtree(1, &sub).unwrap();
        assert_eq!(db.len(), 6);
        db.store().check_integrity().unwrap();
        assert_eq!(db.value(at + 1).unwrap().as_deref(), Some("v3"));
        assert_eq!(
            db.query("//d/g/h", Security::None).unwrap().matches,
            vec![at + 1]
        );
        // Inherited accessibility: subject 1 could see d's area, so it sees g.
        assert!(db.accessible(at, SubjectId(1)).unwrap());
    }

    #[test]
    fn subject_lifecycle() {
        let (mut db, _) = two_subject_db();
        let s2 = db.add_subject(Some(SubjectId(1))).unwrap();
        assert!(db.accessible(4, s2).unwrap());
        assert!(!db.accessible(1, s2).unwrap());
        db.remove_subject(SubjectId(1)).unwrap();
        assert!(!db.accessible(4, SubjectId(1)).unwrap());
        // The copy is unaffected by removing the original.
        assert!(db.accessible(4, s2).unwrap());
    }

    #[test]
    fn move_subtree_carries_access_controls() {
        let (mut db, _) = two_subject_db();
        // Structure: a(0) b(1) c(2) d(3) e(4) f(5); subject 1 sees {0,3,4,5}.
        // Move b's subtree (denied to subject 1) under d.
        let at = db.move_subtree(1, 3).unwrap();
        db.store().check_integrity().unwrap();
        db.document().check_integrity().unwrap();
        assert_eq!(db.len(), 6);
        assert_eq!(db.document().name_of(NodeId(at as u32)), "b");
        // Subject 0 still sees everything.
        for p in 0..db.len() as u64 {
            assert!(db.accessible(p, SubjectId(0)).unwrap());
        }
        // Subject 1 still cannot see b or c at their new home.
        assert!(!db.accessible(at, SubjectId(1)).unwrap());
        assert!(!db.accessible(at + 1, SubjectId(1)).unwrap());
        // Values moved along, and queries see the new shape.
        assert_eq!(db.value(at + 1).unwrap().as_deref(), Some("v1"));
        assert_eq!(
            db.query("//d/b/c", Security::None).unwrap().matches,
            vec![at + 1]
        );
        // Moving a node under its own descendant is rejected.
        let d_pos = db.query("//d", Security::None).unwrap().matches[0];
        let b_pos = db.query("//b", Security::None).unwrap().matches[0];
        assert!(db.move_subtree(d_pos, b_pos).is_err());
    }

    #[test]
    fn export_visible_prunes_subtrees() {
        let (db, _) = two_subject_db();
        // Subject 0 sees everything.
        assert_eq!(
            db.export_visible(SubjectId(0)).unwrap().unwrap(),
            db.document().to_xml()
        );
        // Subject 1 sees {0, 3, 4, 5}: b's subtree is pruned.
        let out = db.export_visible(SubjectId(1)).unwrap().unwrap();
        assert_eq!(out, "<a><d><e>v2</e><f/></d></a>");
        // A subject with no rights sees nothing.
        let mut db2 = db;
        let blind = db2.add_subject(None).unwrap();
        assert_eq!(db2.export_visible(blind).unwrap(), None);
    }

    #[test]
    fn union_views_combine_rights() {
        let (mut db, _) = two_subject_db();
        // Subject 0 sees everything, subject 1 sees {0,3,4,5}: the union
        // view behaves like subject 0.
        let view = db.create_union_view(&[SubjectId(0), SubjectId(1)]).unwrap();
        for p in 0..db.len() as u64 {
            assert!(db.accessible(p, view).unwrap());
        }
        let narrow = db.create_union_view(&[SubjectId(1)]).unwrap();
        assert!(!db.accessible(1, narrow).unwrap());
        assert!(db.accessible(4, narrow).unwrap());
        // Queries run under the view.
        let res = db.query("//d/e", Security::BindingLevel(narrow)).unwrap();
        assert_eq!(res.matches, vec![4]);
    }

    #[test]
    fn user_view_follows_group_hierarchy() {
        let (mut db, _) = two_subject_db();
        let mut catalog = dol_acl::SubjectCatalog::new();
        let user = catalog.add_user("u"); // SubjectId(0)
        let team = catalog.add_group("team"); // SubjectId(1)
        catalog.add_membership(user, team);
        // The db's subject 0 = the user's own rights, subject 1 = the team.
        let view = db.create_user_view(&catalog, user).unwrap();
        for p in 0..db.len() as u64 {
            let expect =
                db.accessible(p, SubjectId(0)).unwrap() || db.accessible(p, SubjectId(1)).unwrap();
            assert_eq!(db.accessible(p, view).unwrap(), expect);
        }
    }

    #[test]
    fn modal_oracle_combines_modes() {
        let doc = dol_xml::parse("<a><b/></a>").unwrap();
        let mut read = AccessibilityMap::new(2, doc.len());
        let mut write = AccessibilityMap::new(2, doc.len());
        read.set(SubjectId(0), NodeId(1), true);
        write.set(SubjectId(1), NodeId(1), true);
        let modal = ModalOracle::new(vec![&read, &write]);
        assert_eq!(modal.subject_count(), 4);
        let db = SecureXmlDb::from_document(doc, &modal).unwrap();
        // subject 0 can read b but not write it.
        assert!(db.accessible(1, modal.column(SubjectId(0), 0)).unwrap());
        assert!(!db.accessible(1, modal.column(SubjectId(0), 1)).unwrap());
        assert!(db.accessible(1, modal.column(SubjectId(1), 1)).unwrap());
    }

    #[test]
    fn dol_stats_exposed() {
        let (db, _) = two_subject_db();
        let s = db.dol_stats().unwrap();
        assert_eq!(s.total_nodes, 6);
        assert_eq!(s.subjects, 2);
        assert!(s.transitions >= 2);
    }

    #[test]
    fn verify_integrity_accepts_healthy_databases() {
        let (mut db, _) = two_subject_db();
        db.verify_integrity().unwrap();
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        db.delete_subtree(3).unwrap();
        let s2 = db.add_subject(Some(SubjectId(1))).unwrap();
        db.remove_subject(s2).unwrap();
        db.compact_subjects().unwrap();
        db.verify_integrity().unwrap();
    }

    fn faulty_two_subject_db() -> (SecureXmlDb, Arc<dol_storage::FaultDisk>) {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        let disk = Arc::new(dol_storage::FaultDisk::new(
            Arc::new(MemDisk::new()),
            dol_storage::FaultConfig {
                seed: 7,
                permanent_read_failure: 1.0,
                ..Default::default()
            },
        ));
        disk.set_armed(false);
        let db = SecureXmlDb::with_config_on(disk.clone(), doc, &map, DbConfig::default()).unwrap();
        (db, disk)
    }

    #[test]
    fn failed_update_poisons_then_degraded_reads_then_recover_heals() {
        let (mut db, disk) = faulty_two_subject_db();
        let sec = Security::BindingLevel(SubjectId(1));
        assert_eq!(db.query("//d/e", sec).unwrap().matches, vec![4]);

        // Arm: every cache-miss read fails permanently; the update fails
        // inside its transaction and poisons the handle.
        db.pool.clear_cache().unwrap();
        disk.set_armed(true);
        assert!(db.set_node_access(4, SubjectId(1), false).is_err());
        assert!(db.is_poisoned());
        assert!(matches!(
            db.set_node_access(4, SubjectId(1), true),
            Err(DbError::Poisoned)
        ));
        disk.set_armed(false);

        // Degraded mode: readers keep serving the pre-transaction state.
        let degraded = db.reader();
        assert_eq!(degraded.query("//d/e", sec).unwrap().matches, vec![4]);

        // In-process recovery restores the pre-transaction state, verified.
        let report = db.recover().unwrap();
        assert!(report.is_none(), "in-memory recovery has no log to replay");
        assert!(!db.is_poisoned());
        db.verify_integrity().unwrap();
        assert_eq!(db.query("//d/e", sec).unwrap().matches, vec![4]);
        // The recovery epoch bump fences the degraded snapshot.
        assert!(degraded.is_stale());

        // The healed handle accepts updates again.
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert_eq!(db.query("//b/c", sec).unwrap().matches, vec![2]);
    }

    #[test]
    fn recover_on_a_healthy_handle_is_a_cheap_noop() {
        let (mut db, _) = two_subject_db();
        assert!(db.recover().unwrap().is_none());
        assert_eq!(db.epoch(), 0, "no-op recovery must not bump the epoch");
        db.set_node_access(4, SubjectId(1), false).unwrap();
        assert!(!db.accessible(4, SubjectId(1)).unwrap());
    }

    #[test]
    fn expired_deadline_surfaces_typed_error_and_is_counted() {
        let (db, _) = two_subject_db();
        let opts = ExecOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ExecOptions::default()
        };
        match db.query_opts("//d/e", Security::BindingLevel(SubjectId(1)), opts) {
            Err(DbError::DeadlineExceeded(stats)) => {
                assert_eq!(stats.blocks_failed_closed, 0, "not masked as inaccessible");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(db.cache_stats().deadline_aborts, 1);

        // A cancel token fired mid-flight behaves identically.
        let deadline = Deadline::never();
        deadline.token().cancel();
        let opts = ExecOptions {
            deadline,
            ..ExecOptions::default()
        };
        assert!(matches!(
            db.query_opts("//d/e", Security::None, opts),
            Err(DbError::DeadlineExceeded(_))
        ));
        assert_eq!(db.cache_stats().deadline_aborts, 2);

        // Without a deadline the same queries still answer.
        assert_eq!(
            db.query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![4]
        );
    }
}
