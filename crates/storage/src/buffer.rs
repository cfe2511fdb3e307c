//! A sharded, scan-resistant LRU buffer pool with exact I/O accounting.
//!
//! Every page access in the engine goes through [`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`]. The pool tracks logical reads (accesses),
//! physical reads (disk fetches on miss), physical writes, evictions, and
//! pages skipped by the §3.3 page-skip test in [`IoStats`]. The experiment
//! harness resets and samples these counters to reproduce the paper's I/O
//! claims: ε-NoK's accessibility checks cause *zero* additional physical
//! reads because codes live on the same page as the node records, and the
//! page-skip optimization reduces reads when most of a document is
//! inaccessible.
//!
//! # Sharding
//!
//! [`BufferPool::new`] builds a **single-shard** pool whose replacement
//! decisions and counter totals are a deterministic function of the access
//! sequence — the experiment harness depends on replaying identical I/O
//! counts. [`BufferPool::with_shards`] splits the frames across `shards`
//! (rounded up to a power of two) independent shards, each with its own
//! lock, recency order and counters; a page's shard is a multiply-shift hash
//! of its [`PageId`], so concurrent workers touching disjoint pages rarely
//! contend.
//! [`BufferPool::stats`] aggregates across shards and
//! [`BufferPool::shard_stats`] exposes the per-shard breakdown.
//!
//! # Replacement
//!
//! The victim is always the resident frame with the oldest access stamp
//! (LRU), and every hit restamps its frame. Where a *missed* page enters
//! the recency order depends on the access: a [`BufferPool::with_page`]
//! read miss that evicts uses bimodal insertion — it takes the victim's
//! stamp (the LRU end), except every [`BIP_PROMOTE_EVERY`]-th such eviction
//! per shard, which takes the fresh tick (the MRU end). A query that scans
//! more pages than the pool holds then churns through a few frames instead
//! of evicting every page just before the next query needs it. Misses into
//! free frames, reloads from a transaction's shadow and every
//! [`BufferPool::with_page_mut`] miss enter at the MRU end, so cold fills,
//! update transactions and the spill path behave as under plain LRU.
//!
//! Within one shard the pool is **not re-entrant**: accessing a page from
//! within an access to a page of the same shard panics instead of
//! deadlocking (with a single shard, that is any nested access — the legacy
//! semantics).
//!
//! # Shared-lock read path
//!
//! Each shard is guarded by an `RwLock`, not a mutex. [`BufferPool::with_page`]
//! on a **cached** page runs the closure under the *shared* lock: the LRU
//! tick, the frame's `last_used` stamp, and every counter are atomics, so a
//! hit mutates no lock-protected state and any number of readers proceed in
//! parallel. Only a cache miss (and everything that reshapes the frame table:
//! `with_page_mut`, eviction, flush, transaction traffic) falls back to the
//! exclusive lock. The split is observable on any core count through two
//! counters: [`IoStats::read_shared`] (hits served under the shared lock) and
//! [`IoStats::read_exclusive_fallback`] (`with_page` calls that had to take
//! the exclusive path). Counters are relaxed atomics; [`BufferPool::stats`]
//! never takes a shard lock.
//!
//! # Integrity
//!
//! The pool is the integrity boundary of the engine. Every dirty page is
//! [sealed](Page::seal) (payload CRC written to the trailer) before it
//! reaches the disk, and every physical read verifies the trailer before
//! the page enters the cache. Transient disk errors and checksum mismatches
//! are retried up to [`MAX_IO_ATTEMPTS`] times; a page that still fails
//! surfaces as [`StorageError::Corrupt`] and is **never** cached, so no
//! reader can observe corrupt payload bytes. Verification can be switched
//! off ([`BufferPool::set_verify_checksums`]) for overhead ablations; the
//! switch also skips sealing, so it must be chosen for the lifetime of a
//! disk image, not toggled mid-run.
//!
//! # Transactions
//!
//! [`BufferPool::atomic_update`] runs a closure as one atomic multi-page
//! mutation. While the transaction is open, the first `with_page_mut` on
//! each page snapshots a **pre-image** (for rollback), and no uncommitted
//! byte can reach the data disk: evicting a transaction-dirtied page moves
//! its bytes into the transaction's in-memory **shadow** instead of writing
//! them (a later fetch reloads from the shadow), so transactions can dirty
//! far more pages than the pool holds frames. If the closure fails, the
//! pre-images are restored and the cache and disk are exactly as before. If
//! it succeeds and a [`Wal`] is
//! [attached](BufferPool::attach_wal), the after-images of every dirtied
//! page are committed to the log — synced *before* any of them may be
//! lazily flushed (WAL-before-data) — so a crash at any later point redoes
//! the whole transaction or none of it. Nested `atomic_update` calls join
//! the outermost transaction (a subtree move is a delete + insert in one
//! atom); inner failures must be propagated outward. Transactions serialize
//! updates: they are for the single-writer update path, not for concurrent
//! writers. With no transaction open, every code path — and every I/O
//! counter — is bit-identical to the pre-WAL pool, so experiment replays
//! are unaffected.

use crate::disk::{Disk, StorageError};
use crate::page::{Page, PageId};
use crate::retry::{current_io_deadline, RetryPolicy};
use crate::wal::Wal;
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Default attempts per physical page I/O before a transient error or
/// checksum mismatch is treated as permanent (the
/// [`RetryPolicy::max_attempts`] default; tune per pool with
/// [`BufferPool::set_retry_policy`]).
pub const MAX_IO_ATTEMPTS: u32 = 4;

/// Bimodal insertion period (Qureshi et al., ISCA 2007): every
/// `BIP_PROMOTE_EVERY`-th read miss that evicts in a shard enters at the MRU
/// end instead of the LRU end (see the module docs, "Replacement").
///
/// Migration bound: every run of `BIP_PROMOTE_EVERY` read-miss evictions
/// pins one more missed page at the MRU end, where hits keep it, so a new
/// working set of `w` pages that fits the shard becomes fully resident
/// within about `BIP_PROMOTE_EVERY × w` read misses; the unit tests check
/// `(BIP_PROMOTE_EVERY + 1) × w`.
pub const BIP_PROMOTE_EVERY: u64 = 32;

/// Default auto-checkpoint threshold: a commit that leaves more than this
/// many bytes in the attached WAL triggers a checkpoint (flush + sync +
/// epoch bump). Tune with [`BufferPool::set_checkpoint_threshold`].
pub const DEFAULT_CHECKPOINT_THRESHOLD: u64 = 4 << 20;

/// Cumulative I/O counters of a [`BufferPool`] (or one of its shards).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Page accesses served (hit or miss).
    pub logical_reads: u64,
    /// Pages fetched from the disk on a miss.
    pub physical_reads: u64,
    /// Pages written back to the disk (eviction or flush).
    pub physical_writes: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Page reads avoided by the §3.3 page-skip test (whole block known
    /// inaccessible from memory). Counted pool-wide, not per shard.
    pub pages_skipped: u64,
    /// Physical reads repeated after a transient error or a checksum
    /// mismatch (each extra attempt counts once).
    pub read_retries: u64,
    /// Physical writes repeated after a transient error.
    pub write_retries: u64,
    /// Checksum verifications that found a payload/trailer mismatch
    /// (including mismatches later cleared by a successful retry).
    pub checksum_failures: u64,
    /// [`with_page`](BufferPool::with_page) hits served entirely under the
    /// shard's *shared* lock (no exclusive lock taken).
    pub read_shared: u64,
    /// [`with_page`](BufferPool::with_page) calls that fell back to the
    /// exclusive lock (cache miss, or the page appeared between the shared
    /// probe and the exclusive acquisition).
    pub read_exclusive_fallback: u64,
    /// Exponential-backoff pauses slept between I/O attempts (one per
    /// non-zero pause; see [`RetryPolicy::backoff_for`]).
    pub backoffs: u64,
    /// Times the circuit breaker tripped open (a run of
    /// [`RetryPolicy::breaker_threshold`] consecutive surfaced I/O
    /// failures). Counted pool-wide, not per shard.
    pub breaker_trips: u64,
    /// Operations refused with [`StorageError::BreakerOpen`] while the
    /// breaker was open. Counted pool-wide, not per shard.
    pub breaker_fast_fails: u64,
    /// Half-open probes admitted while the breaker was open (successful
    /// probes close it). Counted pool-wide, not per shard.
    pub breaker_probes: u64,
    /// [`with_page`](BufferPool::with_page) calls served from the version
    /// ring's retained pre-images instead of the current frame — a pinned
    /// reader time-traveling to its snapshot epoch (see
    /// [`BufferPool::enable_version_ring`]).
    pub versioned_reads: u64,
}

impl IoStats {
    /// Difference between two snapshots (`self - earlier`).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            evictions: self.evictions - earlier.evictions,
            pages_skipped: self.pages_skipped - earlier.pages_skipped,
            read_retries: self.read_retries - earlier.read_retries,
            write_retries: self.write_retries - earlier.write_retries,
            checksum_failures: self.checksum_failures - earlier.checksum_failures,
            read_shared: self.read_shared - earlier.read_shared,
            read_exclusive_fallback: self.read_exclusive_fallback - earlier.read_exclusive_fallback,
            backoffs: self.backoffs - earlier.backoffs,
            breaker_trips: self.breaker_trips - earlier.breaker_trips,
            breaker_fast_fails: self.breaker_fast_fails - earlier.breaker_fast_fails,
            breaker_probes: self.breaker_probes - earlier.breaker_probes,
            versioned_reads: self.versioned_reads - earlier.versioned_reads,
        }
    }

    fn add(&mut self, other: &IoStats) {
        self.logical_reads += other.logical_reads;
        self.physical_reads += other.physical_reads;
        self.physical_writes += other.physical_writes;
        self.evictions += other.evictions;
        self.pages_skipped += other.pages_skipped;
        self.read_retries += other.read_retries;
        self.write_retries += other.write_retries;
        self.checksum_failures += other.checksum_failures;
        self.read_shared += other.read_shared;
        self.read_exclusive_fallback += other.read_exclusive_fallback;
        self.backoffs += other.backoffs;
        self.breaker_trips += other.breaker_trips;
        self.breaker_fast_fails += other.breaker_fast_fails;
        self.breaker_probes += other.breaker_probes;
        self.versioned_reads += other.versioned_reads;
    }
}

/// Per-shard counters as relaxed atomics: the shared-lock read path and
/// [`BufferPool::stats`] touch them without any lock. Counters only ever
/// increase between resets, so `IoStats::since` on two snapshots never
/// underflows even while other threads are counting.
#[derive(Default)]
struct AtomicIoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    evictions: AtomicU64,
    read_retries: AtomicU64,
    write_retries: AtomicU64,
    checksum_failures: AtomicU64,
    read_shared: AtomicU64,
    read_exclusive_fallback: AtomicU64,
    backoffs: AtomicU64,
    versioned_reads: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_skipped: 0, // pool-wide, not per shard
            read_retries: self.read_retries.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            read_shared: self.read_shared.load(Ordering::Relaxed),
            read_exclusive_fallback: self.read_exclusive_fallback.load(Ordering::Relaxed),
            backoffs: self.backoffs.load(Ordering::Relaxed),
            // Breaker counters are pool-wide, not per shard.
            breaker_trips: 0,
            breaker_fast_fails: 0,
            breaker_probes: 0,
            versioned_reads: self.versioned_reads.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.write_retries.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
        self.read_shared.store(0, Ordering::Relaxed);
        self.read_exclusive_fallback.store(0, Ordering::Relaxed);
        self.backoffs.store(0, Ordering::Relaxed);
        self.versioned_reads.store(0, Ordering::Relaxed);
    }
}

struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    /// Atomic so a shared-lock hit can refresh the LRU stamp without
    /// upgrading to the exclusive lock.
    last_used: AtomicU64,
}

struct Inner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Bimodal insertions so far: every [`BIP_PROMOTE_EVERY`]-th is
    /// promoted to the MRU end. Not an I/O counter —
    /// [`BufferPool::reset_stats`] leaves it alone, so the schedule depends
    /// only on the shard's access history.
    read_miss_evictions: u64,
}

/// Where a missed page enters the recency order of a full shard.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Insertion {
    /// At the MRU end (classic LRU): fresh tick.
    Mru,
    /// At the LRU end, with every [`BIP_PROMOTE_EVERY`]-th eviction promoted
    /// to the MRU end (bimodal insertion).
    Bimodal,
}

/// The LRU victim: the resident frame with the oldest access tick.
fn victim_slot(frames: &[Frame]) -> usize {
    frames
        .iter()
        .enumerate()
        .min_by_key(|(_, fr)| fr.last_used.load(Ordering::Relaxed))
        .map(|(i, _)| i)
        .expect("victim_slot on an empty frame list")
}

/// State of the open [`BufferPool::atomic_update`] transaction.
struct TxnState {
    /// Nesting depth: inner `atomic_update` calls join the outermost
    /// transaction and only bump this counter.
    depth: usize,
    /// First-touch pre-images (page bytes + prior dirty flag) for rollback.
    /// Pages with a pre-image must not reach the data disk mid-transaction.
    pre: HashMap<PageId, (Page, bool)>,
    /// Page ids in first-dirtied order: the deterministic order their
    /// after-images are logged (and spilled images written) in.
    order: Vec<PageId>,
    /// After-images of transaction pages evicted from the cache: eviction
    /// must not write uncommitted bytes to the data disk, so they live here
    /// until re-fetched or committed.
    shadow: HashMap<PageId, Page>,
    /// The active savepoint, if any: batch-member isolation for the group
    /// committer (see [`BufferPool::txn_savepoint`]).
    savepoint: Option<SavepointState>,
    /// Savepoints released so far — one per committed batch member. The
    /// outermost commit records `releases.max(1)` as the WAL batch record's
    /// member count.
    releases: u32,
    /// Set by [`BufferPool::txn_prepare`]: the after-images are durable in
    /// the WAL under a `Prepare` record and the transaction awaits its
    /// distributed decision. While set, the transaction stays open (its
    /// pages keep spilling to the shadow, never the data disk) and only
    /// [`BufferPool::txn_finish_prepared`] may close it.
    prepared: bool,
}

/// Undo log of one savepoint: for every page first-touched since the
/// savepoint was set, how to put it back. `None` — the page was *not* part
/// of the transaction before the savepoint, so rolling back removes it from
/// the transaction entirely and restores its pre-transaction image.
/// `Some((page, dirty))` — the page was already transaction-dirty before the
/// savepoint: restore these bytes and that flag, keeping it in the
/// transaction.
struct SavepointState {
    undo: HashMap<PageId, Option<(Page, bool)>>,
}

/// One sealed commit's worth of pre-images: the state of every page the
/// commit dirtied, *as of* epoch `as_of` — the epoch that was current while
/// the transaction ran (the facade bumps the epoch only after a successful
/// commit). A reader pinned to epoch `e ≤ as_of` whose page was
/// untouched between `e` and `as_of` finds its epoch-`e` bytes here.
struct VersionDelta {
    as_of: u64,
    pages: HashMap<PageId, Page>,
}

/// Bounded MVCC retention (the epoch ring): the last `retain` sealed commit
/// deltas, oldest first, plus the open transaction's pre-images. A reader
/// pinned to any epoch ≥ the pool's floor can reconstruct every page as of
/// its epoch; older pins are refused upstairs as `RetentionExceeded`.
struct VersionRing {
    /// The database epoch counter, shared with the facade; read at seal
    /// time (pre-bump) to stamp each delta.
    epoch: Arc<AtomicU64>,
    /// How many sealed deltas to retain. `0` keeps none: the seal drops
    /// the delta at once and raises the floor past the pre-commit epoch.
    retain: usize,
    /// Sealed deltas, oldest first; `as_of` is non-decreasing.
    committed: VecDeque<VersionDelta>,
    /// Pre-images captured by the open transaction: promoted to a sealed
    /// delta at the outermost commit, discarded on rollback.
    open: HashMap<PageId, Page>,
}

struct Shard {
    inner: RwLock<Inner>,
    /// Monotonic access clock; atomic so shared-lock hits can advance it.
    tick: AtomicU64,
    /// Per-shard I/O counters; atomic so neither the shared-lock hit path
    /// nor a stats read ever touches the shard lock.
    stats: AtomicIoStats,
    capacity: usize,
}

thread_local! {
    /// Addresses of the shards this thread currently holds (shared *or*
    /// exclusive). Lets the pool distinguish same-thread re-entry (a bug:
    /// panic, as the classic pool did) from cross-thread contention
    /// (legitimate: block) — an owner token cannot express this once shared
    /// locks admit many simultaneous holders.
    static HELD_SHARDS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };

    /// The epoch this thread's page reads are pinned to, if any (see
    /// [`with_read_epoch`]). `None`: reads see the live frames.
    static READ_EPOCH: RefCell<Option<u64>> = const { RefCell::new(None) };
}

/// Runs `f` with every [`BufferPool::with_page`] call on this thread pinned
/// to `epoch`: pages the version ring retains pre-images for are served as
/// of that epoch instead of from the live frame (see
/// [`BufferPool::enable_version_ring`]). The previous pin is restored on
/// exit — including on panic — so pinned scopes nest.
pub fn with_read_epoch<R>(epoch: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            READ_EPOCH.with(|e| *e.borrow_mut() = self.0);
        }
    }
    let _restore = Restore(READ_EPOCH.with(|e| e.borrow_mut().replace(epoch)));
    f()
}

/// The epoch the current thread's page reads are pinned to, if any.
pub fn current_read_epoch() -> Option<u64> {
    READ_EPOCH.with(|e| *e.borrow())
}

/// RAII marker that a thread is inside an access to `shard`. Constructed
/// *before* the lock is acquired so same-thread re-entry panics instead of
/// deadlocking (a read→write upgrade or a recursive read while a writer
/// waits would both self-deadlock on an `RwLock`).
struct HeldShard {
    addr: usize,
}

impl HeldShard {
    fn enter(shard: &Shard) -> HeldShard {
        let addr = shard as *const Shard as usize;
        HELD_SHARDS.with(|held| {
            let mut held = held.borrow_mut();
            if held.contains(&addr) {
                panic!("buffer pool re-entered from within a page access");
            }
            held.push(addr);
        });
        HeldShard { addr }
    }
}

impl Drop for HeldShard {
    fn drop(&mut self) {
        HELD_SHARDS.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&a| a == self.addr) {
                held.remove(i);
            }
        });
    }
}

/// A fixed-capacity sharded page cache over a [`Disk`]: LRU victims,
/// bimodal insertion of read misses (see the module docs).
///
/// Access is closure-scoped ([`with_page`](BufferPool::with_page)); pages are
/// never pinned across calls, so eviction can always make progress. Shards
/// are internally synchronized but **not re-entrant**: accessing a page from
/// within an access to a page of the same shard panics instead of
/// deadlocking.
pub struct BufferPool {
    disk: Arc<dyn Disk>,
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: u64,
    capacity: usize,
    /// Pool-wide §3.3 skip counter; atomic because skips are decided from
    /// memory without taking any shard lock.
    pages_skipped: AtomicU64,
    /// Whether physical reads verify (and writes seal) the CRC trailer.
    verify_checksums: AtomicBool,
    /// The write-ahead log, if one is attached.
    wal: Mutex<Option<Arc<Wal>>>,
    /// The open transaction, if any. Lock order: a shard lock may be held
    /// while taking this lock, never the reverse.
    txn: Mutex<Option<TxnState>>,
    /// Fast gate mirroring `txn.is_some()`: with no transaction open, hot
    /// paths pay one relaxed load and nothing else.
    txn_active: AtomicBool,
    /// Monotonic transaction ids for WAL records.
    next_txn_id: AtomicU64,
    /// Auto-checkpoint when the log exceeds this many bytes (0 = never).
    checkpoint_threshold: AtomicU64,
    /// How physical I/O faults are retried (attempts, backoff, breaker).
    retry_policy: Mutex<RetryPolicy>,
    /// Circuit breaker: open after `breaker_threshold` consecutive surfaced
    /// I/O failures; half-open probes may close it again.
    breaker_open: AtomicBool,
    /// Consecutive surfaced I/O failures (reset by any success).
    breaker_consecutive: AtomicU32,
    /// Admission ticket while open: every `breaker_probe_every`-th ticket
    /// runs as a probe, the rest fail fast.
    breaker_ticket: AtomicU64,
    /// Pool-wide breaker counters (see [`IoStats`]).
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
    breaker_probes: AtomicU64,
    /// The MVCC version ring, if enabled. Lock order: a shard lock and/or
    /// the txn lock may be held while taking this lock, never the reverse.
    ring: Mutex<Option<VersionRing>>,
    /// Fast gate mirroring `ring.is_some()`.
    ring_active: AtomicBool,
    /// Oldest epoch the ring still serves (0 without a ring). Written only
    /// while holding the `ring` lock, so a pinned read that was handed a
    /// live frame because its pin fell below the floor has already
    /// synchronized with the write; read lock-free by
    /// [`epoch_servable`](Self::epoch_servable).
    floor: AtomicU64,
}

impl BufferPool {
    /// Creates a single-shard pool caching at most `capacity` pages of
    /// `disk`. Replacement (LRU victims, bimodal insertion of read misses)
    /// and I/O counters are deterministic for a given access sequence.
    pub fn new(disk: Arc<dyn Disk>, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, 1)
    }

    /// Creates a pool of `shards` independent shards (rounded up to a power
    /// of two) sharing `capacity` frames as evenly as possible, each shard
    /// getting at least one frame. Use for concurrent workloads where
    /// single-lock contention matters; counter *totals* remain exact, but
    /// eviction decisions differ from the single-shard pool because each
    /// shard keeps its own recency order and [`BIP_PROMOTE_EVERY`] schedule
    /// over only its own pages.
    pub fn with_shards(disk: Arc<dyn Disk>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let n = shards.next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        let shards: Vec<Shard> = (0..n)
            .map(|_| Shard {
                inner: RwLock::new(Inner {
                    frames: Vec::with_capacity(per_shard),
                    map: HashMap::new(),
                    read_miss_evictions: 0,
                }),
                tick: AtomicU64::new(0),
                stats: AtomicIoStats::default(),
                capacity: per_shard,
            })
            .collect();
        Self {
            disk,
            shard_mask: (n - 1) as u64,
            capacity: per_shard * n,
            shards,
            pages_skipped: AtomicU64::new(0),
            verify_checksums: AtomicBool::new(true),
            wal: Mutex::new(None),
            txn: Mutex::new(None),
            txn_active: AtomicBool::new(false),
            next_txn_id: AtomicU64::new(1),
            checkpoint_threshold: AtomicU64::new(DEFAULT_CHECKPOINT_THRESHOLD),
            retry_policy: Mutex::new(RetryPolicy::default()),
            breaker_open: AtomicBool::new(false),
            breaker_consecutive: AtomicU32::new(0),
            breaker_ticket: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_fast_fails: AtomicU64::new(0),
            breaker_probes: AtomicU64::new(0),
            ring: Mutex::new(None),
            ring_active: AtomicBool::new(false),
            floor: AtomicU64::new(0),
        }
    }

    /// Enables MVCC retention: from now on the pool keeps the pre-images of
    /// the last `retain` committed transactions (one sealed delta per
    /// outermost commit, empty commits included), each stamped with the
    /// value of `epoch` — the database epoch counter — at seal time, read
    /// *before* the facade bumps it. A reader pinned with
    /// [`with_read_epoch`] to any epoch ≥ [`ring_floor`](Self::ring_floor)
    /// is served every page as of its pinned epoch; an older pin must be
    /// refused by the caller (the pool reports servability, the facade
    /// types the error).
    ///
    /// With `retain == 0` only the open transaction's pre-images are kept:
    /// readers pinned to the current epoch keep answering while a
    /// transaction runs, and each commit's seal retires that epoch.
    pub fn enable_version_ring(&self, epoch: Arc<AtomicU64>, retain: usize) {
        let mut ring = self.ring.lock();
        self.floor
            .store(epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        *ring = Some(VersionRing {
            epoch,
            retain,
            committed: VecDeque::new(),
            open: HashMap::new(),
        });
        self.ring_active.store(true, Ordering::Release);
    }

    /// Oldest epoch the version ring can still serve (0 when the ring is
    /// disabled).
    pub fn ring_floor(&self) -> u64 {
        self.floor.load(Ordering::SeqCst)
    }

    /// Whether a reader pinned to `epoch` can still be served whole-epoch
    /// answers: `epoch ≥` [`ring_floor`](Self::ring_floor). This holds
    /// even for the epoch the facade has not yet moved past: the commit
    /// seal raises the floor *before* the facade bumps its epoch counter,
    /// and from that moment a pin on the pre-commit epoch may be served
    /// post-commit frames. Lock-free.
    pub fn epoch_servable(&self, epoch: u64) -> bool {
        epoch >= self.floor.load(Ordering::SeqCst)
    }

    /// Number of sealed deltas currently retained (diagnostic hook).
    pub fn ring_depth(&self) -> usize {
        self.ring
            .lock()
            .as_ref()
            .map(|r| r.committed.len())
            .unwrap_or(0)
    }

    /// Collapses the ring after recovery: drops every retained delta and
    /// raises the floor to the current epoch, so a reader pinned before the
    /// recovery is refused (`RetentionExceeded` upstairs) instead of being
    /// served bytes whose provenance recovery just rewrote.
    pub fn ring_barrier(&self) {
        if let Some(r) = self.ring.lock().as_mut() {
            r.committed.clear();
            r.open.clear();
            self.floor
                .store(r.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        }
    }

    /// The page image a reader pinned to `pin` should see for `id`, if the
    /// ring retains one: the oldest sealed delta with `as_of ≥ pin` that
    /// contains the page holds the page's state at `pin` (the page was
    /// unmodified between `pin` and that commit, whose first touch preserved
    /// the pre-image), with the open transaction's pre-images as the newest
    /// layer. `None`: the live frame is the right answer — or the pin has
    /// fallen below the floor, which the caller's end-of-query servability
    /// check surfaces (a transiently wrong page is never exposed).
    fn ring_image(&self, id: PageId, pin: u64) -> Option<Page> {
        let ring = self.ring.lock();
        let r = ring.as_ref()?;
        if pin < self.floor.load(Ordering::SeqCst) {
            return None;
        }
        for delta in &r.committed {
            if delta.as_of >= pin {
                if let Some(p) = delta.pages.get(&id) {
                    return Some(p.clone());
                }
            }
        }
        r.open.get(&id).cloned()
    }

    /// Replaces the I/O fault policy (attempt budget, backoff ladder,
    /// circuit-breaker knobs). Takes effect for subsequent physical I/O;
    /// also resets the breaker state so a newly enabled breaker starts
    /// closed.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry_policy.lock() = policy;
        self.reset_breaker();
    }

    /// The current I/O fault policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry_policy.lock()
    }

    /// Whether the circuit breaker is currently open (new I/O fails fast
    /// except for half-open probes).
    pub fn breaker_is_open(&self) -> bool {
        self.breaker_open.load(Ordering::Acquire)
    }

    /// Force-closes the circuit breaker and zeroes its consecutive-failure
    /// run. In-process recovery calls this so a repaired database does not
    /// keep refusing I/O.
    pub fn reset_breaker(&self) {
        self.breaker_open.store(false, Ordering::Release);
        self.breaker_consecutive.store(0, Ordering::Relaxed);
        self.breaker_ticket.store(0, Ordering::Relaxed);
    }

    /// Gate at the top of every physical I/O. `Ok(false)`: breaker closed
    /// (or disabled), run the full retry ladder. `Ok(true)`: breaker open
    /// but this operation is admitted as a half-open probe (single
    /// attempt). `Err(BreakerOpen)`: refused without touching the disk.
    fn breaker_admit(&self, policy: &RetryPolicy) -> Result<bool, StorageError> {
        if policy.breaker_threshold == 0 || !self.breaker_open.load(Ordering::Acquire) {
            return Ok(false);
        }
        let ticket = self.breaker_ticket.fetch_add(1, Ordering::Relaxed);
        if (ticket + 1).is_multiple_of(u64::from(policy.breaker_probe_every.max(1))) {
            self.breaker_probes.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        } else {
            self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
            Err(StorageError::BreakerOpen)
        }
    }

    /// Records the outcome of an admitted physical I/O for the breaker:
    /// success (`None`) closes it and zeroes the failure run; a surfaced
    /// failure extends the run and trips the breaker at the threshold.
    /// Deadline aborts are neither — they say nothing about the device.
    fn breaker_record(&self, policy: &RetryPolicy, error: Option<&StorageError>) {
        if policy.breaker_threshold == 0 {
            return;
        }
        match error {
            None => {
                self.breaker_consecutive.store(0, Ordering::Relaxed);
                self.breaker_open.store(false, Ordering::Release);
            }
            Some(StorageError::DeadlineExceeded) => {}
            Some(_) => {
                let run = self.breaker_consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= policy.breaker_threshold
                    && !self.breaker_open.swap(true, Ordering::AcqRel)
                {
                    self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Turns checksum verification (and sealing of dirty pages) on or off.
    /// Off is for overhead ablations only; choose it for the lifetime of a
    /// disk image — pages written unsealed will fail verification later.
    pub fn set_verify_checksums(&self, on: bool) {
        self.verify_checksums.store(on, Ordering::SeqCst);
    }

    /// Whether physical reads verify the CRC trailer.
    pub fn verify_checksums(&self) -> bool {
        self.verify_checksums.load(Ordering::SeqCst)
    }

    /// Total frame capacity of this pool (all shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// The shard caching `id` (Fibonacci multiply-shift over the page
    /// number; with one shard this is always shard 0).
    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Runs `f` with shared access to page `id`.
    ///
    /// A cached page is served under the shard's *shared* lock (the fast
    /// path: any number of concurrent readers, no exclusive-lock traffic);
    /// only a miss falls back to the exclusive lock to fetch the page.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError> {
        let shard = self.shard_of(id);
        let _held = HeldShard::enter(shard);
        // MVCC pin: consult the version ring *under the shard lock* (shared
        // suffices — writers capture pre-images under the exclusive lock),
        // so the retained image and the live frame cannot both be wrong.
        let pin = if self.ring_active.load(Ordering::Acquire) {
            current_read_epoch()
        } else {
            None
        };
        {
            let inner = shard.inner.read();
            if let Some(pin) = pin {
                if let Some(page) = self.ring_image(id, pin) {
                    shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                    shard.stats.versioned_reads.fetch_add(1, Ordering::Relaxed);
                    shard.stats.read_shared.fetch_add(1, Ordering::Relaxed);
                    return Ok(f(&page));
                }
            }
            if let Some(&slot) = inner.map.get(&id) {
                let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
                let frame = &inner.frames[slot];
                frame.last_used.store(tick, Ordering::Relaxed);
                shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                shard.stats.read_shared.fetch_add(1, Ordering::Relaxed);
                return Ok(f(&frame.page));
            }
        }
        let mut inner = shard.inner.write();
        // Re-check the overlay: between the shared probe and this exclusive
        // acquisition a commit may have sealed a delta covering `id`, in
        // which case the live frame is now too new for the pin.
        if let Some(pin) = pin {
            if let Some(page) = self.ring_image(id, pin) {
                shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                shard.stats.versioned_reads.fetch_add(1, Ordering::Relaxed);
                shard
                    .stats
                    .read_exclusive_fallback
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(f(&page));
            }
        }
        shard
            .stats
            .read_exclusive_fallback
            .fetch_add(1, Ordering::Relaxed);
        let slot = self.fetch(shard, &mut inner, id, Insertion::Bimodal)?;
        shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        Ok(f(&inner.frames[slot].page))
    }

    /// Runs `f` with exclusive access to page `id`, marking it dirty.
    /// Inside an open transaction the first mutation of each page snapshots
    /// its pre-image (see [`atomic_update`](Self::atomic_update)).
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        let shard = self.shard_of(id);
        let _held = HeldShard::enter(shard);
        let mut inner = shard.inner.write();
        let slot = self.fetch(shard, &mut inner, id, Insertion::Mru)?;
        shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        if self.txn_active.load(Ordering::Acquire) {
            let mut txn = self.txn.lock();
            if let Some(t) = txn.as_mut() {
                let was_in_pre = t.pre.contains_key(&id);
                if let std::collections::hash_map::Entry::Vacant(e) = t.pre.entry(id) {
                    let frame = &inner.frames[slot];
                    e.insert((frame.page.clone(), frame.dirty));
                    t.order.push(id);
                    // MVCC: the pre-image is also this page's state at the
                    // current epoch — retain it for pinned readers (shard →
                    // txn → ring is the documented lock order).
                    if self.ring_active.load(Ordering::Acquire) {
                        if let Some(r) = self.ring.lock().as_mut() {
                            r.open
                                .entry(id)
                                .or_insert_with(|| inner.frames[slot].page.clone());
                        }
                    }
                }
                if let Some(sp) = t.savepoint.as_mut() {
                    if let std::collections::hash_map::Entry::Vacant(e) = sp.undo.entry(id) {
                        e.insert(if was_in_pre {
                            let frame = &inner.frames[slot];
                            Some((frame.page.clone(), frame.dirty))
                        } else {
                            None
                        });
                    }
                }
            }
        }
        inner.frames[slot].dirty = true;
        Ok(f(&mut inner.frames[slot].page))
    }

    /// Allocates a fresh zeroed page on the disk and returns its id.
    pub fn allocate_page(&self) -> Result<PageId, StorageError> {
        self.disk.allocate_page()
    }

    /// Records that the §3.3 page-skip test avoided reading one page.
    pub fn note_page_skipped(&self) {
        self.pages_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes all dirty cached pages back to the disk. Pages pinned by an
    /// open transaction are skipped (their bytes are uncommitted). Every
    /// shard and page is attempted even after a failure; the failures are
    /// aggregated into one [`StorageError::FlushFailed`], so one bad page
    /// cannot block durability of the rest.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        let pinned = self.pinned_pages();
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        for shard in &self.shards {
            let _held = HeldShard::enter(shard);
            let mut inner = shard.inner.write();
            for frame in inner.frames.iter_mut() {
                if frame.dirty && !pinned.contains(&frame.id) {
                    match self.write_back(frame.id, &mut frame.page, &shard.stats) {
                        Ok(()) => {
                            frame.dirty = false;
                            shard.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => failures.push((frame.id, e)),
                    }
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushFailed(failures))
        }
    }

    /// Drops every cached page (flushing dirty ones), so the next accesses
    /// are cold. Experiments call this between runs. Pages pinned by an open
    /// transaction stay cached; dirty pages whose write fails also stay
    /// cached (nothing is lost), with the failures aggregated into one
    /// [`StorageError::FlushFailed`].
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        let pinned = self.pinned_pages();
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        for shard in &self.shards {
            let _held = HeldShard::enter(shard);
            let mut inner = shard.inner.write();
            let frames = std::mem::take(&mut inner.frames);
            let mut kept: Vec<Frame> = Vec::new();
            for mut frame in frames {
                if pinned.contains(&frame.id) {
                    kept.push(frame);
                    continue;
                }
                if frame.dirty {
                    match self.write_back(frame.id, &mut frame.page, &shard.stats) {
                        Ok(()) => {
                            shard.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            failures.push((frame.id, e));
                            kept.push(frame);
                        }
                    }
                }
            }
            inner.map.clear();
            for (slot, frame) in kept.iter().enumerate() {
                inner.map.insert(frame.id, slot);
            }
            inner.frames = kept;
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushFailed(failures))
        }
    }

    /// A snapshot of the I/O counters, aggregated over all shards. Entirely
    /// lock-free: safe to sample from any thread at any time, including
    /// while other threads hold page accesses open.
    pub fn stats(&self) -> IoStats {
        let mut total = IoStats {
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            ..IoStats::default()
        };
        for shard in &self.shards {
            total.add(&shard.stats.snapshot());
        }
        total
    }

    /// Per-shard counter snapshots (`pages_skipped` is pool-wide and
    /// reported only by [`stats`](BufferPool::stats)). Lock-free.
    pub fn shard_stats(&self) -> Vec<IoStats> {
        self.shards
            .iter()
            .map(|shard| shard.stats.snapshot())
            .collect()
    }

    /// Zeroes the I/O counters of every shard. Lock-free.
    pub fn reset_stats(&self) {
        self.pages_skipped.store(0, Ordering::Relaxed);
        self.breaker_trips.store(0, Ordering::Relaxed);
        self.breaker_fast_fails.store(0, Ordering::Relaxed);
        self.breaker_probes.store(0, Ordering::Relaxed);
        for shard in &self.shards {
            shard.stats.reset();
        }
    }

    /// Attaches a write-ahead log: from now on every
    /// [`atomic_update`](Self::atomic_update) commits its page after-images
    /// to `wal` (synced) before any of them can reach the data disk.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.lock() = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.wal.lock().clone()
    }

    /// Sets the auto-checkpoint threshold in WAL bytes (0 disables
    /// auto-checkpointing; see [`DEFAULT_CHECKPOINT_THRESHOLD`]).
    pub fn set_checkpoint_threshold(&self, bytes: u64) {
        self.checkpoint_threshold.store(bytes, Ordering::Relaxed);
    }

    /// Whether an [`atomic_update`](Self::atomic_update) is currently open.
    pub fn in_transaction(&self) -> bool {
        self.txn_active.load(Ordering::Acquire)
    }

    /// Runs `f` as one atomic multi-page mutation.
    ///
    /// On success, the after-images of every page `f` dirtied are committed
    /// to the attached WAL (one synced log append) before returning; a crash
    /// at any later moment recovers the whole mutation. On failure the
    /// dirtied pages are rolled back to their pre-images and the error is
    /// returned — the cache and disk are exactly as before `f` ran. Nested
    /// calls join the outermost transaction; inner errors must be propagated
    /// (an inner `Err` that the outer closure swallows leaves the inner
    /// mutations in the joined transaction).
    ///
    /// Without an attached WAL this still gives all-or-nothing semantics in
    /// the cache (rollback on error), just no crash durability.
    pub fn atomic_update<R, E: From<StorageError>>(
        &self,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Result<R, E> {
        self.txn_begin();
        match f() {
            Ok(r) => match self.txn_commit() {
                Ok(()) => Ok(r),
                Err(e) => Err(E::from(e)),
            },
            Err(e) => {
                self.txn_rollback();
                Err(e)
            }
        }
    }

    /// Flushes all dirty pages, syncs the data disk, then truncates the WAL
    /// (header epoch bump). After a checkpoint the log is empty and recovery
    /// has nothing to redo. Returns an error (and does nothing) inside an
    /// open transaction: uncommitted pages cannot be flushed, and bumping
    /// the epoch would orphan committed-but-unflushed images.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        if self.in_transaction() {
            return Err(StorageError::Io(std::io::Error::other(
                "checkpoint inside an open transaction",
            )));
        }
        let Some(wal) = self.wal() else {
            return self.flush_all();
        };
        self.flush_all()?;
        self.disk.sync()?;
        wal.checkpoint()
    }

    /// Opens (or nests into) the pool transaction. Prefer
    /// [`atomic_update`](Self::atomic_update); this is public for the group
    /// committer, which interleaves [savepoints](Self::txn_savepoint) with
    /// member closures and cannot express a batch as one closure. Every
    /// `txn_begin` must be paired with [`txn_commit`](Self::txn_commit) or
    /// [`txn_rollback`](Self::txn_rollback).
    pub fn txn_begin(&self) {
        let mut txn = self.txn.lock();
        match txn.as_mut() {
            Some(t) => t.depth += 1,
            None => {
                *txn = Some(TxnState {
                    depth: 1,
                    pre: HashMap::new(),
                    order: Vec::new(),
                    shadow: HashMap::new(),
                    savepoint: None,
                    releases: 0,
                    prepared: false,
                });
                self.txn_active.store(true, Ordering::Release);
            }
        }
    }

    /// Establishes a savepoint inside the open transaction: a later
    /// [`txn_rollback_to_savepoint`](Self::txn_rollback_to_savepoint) undoes
    /// exactly the mutations made since this call, leaving earlier
    /// transaction work intact — the isolation boundary between group-commit
    /// batch members. One savepoint may be active at a time (members run
    /// strictly in sequence); an unreleased savepoint is folded into the
    /// outermost commit.
    pub fn txn_savepoint(&self) -> Result<(), StorageError> {
        let mut txn = self.txn.lock();
        let t = txn.as_mut().ok_or_else(|| {
            StorageError::Io(std::io::Error::other("savepoint outside a transaction"))
        })?;
        if t.savepoint.is_some() {
            return Err(StorageError::Io(std::io::Error::other(
                "a savepoint is already active",
            )));
        }
        t.savepoint = Some(SavepointState {
            undo: HashMap::new(),
        });
        Ok(())
    }

    /// Releases the active savepoint, folding its mutations into the
    /// transaction (the batch member committed).
    pub fn txn_release_savepoint(&self) -> Result<(), StorageError> {
        let mut txn = self.txn.lock();
        let t = txn.as_mut().ok_or_else(|| {
            StorageError::Io(std::io::Error::other(
                "savepoint release outside a transaction",
            ))
        })?;
        if t.savepoint.take().is_none() {
            return Err(StorageError::Io(std::io::Error::other(
                "no savepoint to release",
            )));
        }
        t.releases += 1;
        Ok(())
    }

    /// Rolls back to (and consumes) the active savepoint: every page
    /// first-touched since it was set is restored — reverted to its
    /// pre-savepoint bytes if it was already transaction-dirty, removed from
    /// the transaction entirely (and restored to its pre-transaction image)
    /// if it joined after. Earlier transaction work is untouched. Each page
    /// is fully restored *before* its transaction bookkeeping is dropped, so
    /// even an interrupted rollback followed by a full
    /// [`txn_rollback`](Self::txn_rollback) lands on the clean pre-
    /// transaction state.
    pub fn txn_rollback_to_savepoint(&self) -> Result<(), StorageError> {
        // Extract the undo log under the txn lock alone; shard locks are
        // taken below and shard → txn is the documented order.
        let undo = {
            let mut txn = self.txn.lock();
            let t = txn.as_mut().ok_or_else(|| {
                StorageError::Io(std::io::Error::other(
                    "savepoint rollback outside a transaction",
                ))
            })?;
            match t.savepoint.take() {
                Some(sp) => sp.undo,
                None => {
                    return Err(StorageError::Io(std::io::Error::other(
                        "no savepoint to roll back to",
                    )))
                }
            }
        };
        for (id, entry) in undo {
            match entry {
                Some((image, was_dirty)) => {
                    // Transaction-dirty before the savepoint: restore the
                    // pre-savepoint bytes and flag, wherever the page lives.
                    let shard = self.shard_of(id);
                    let _held = HeldShard::enter(shard);
                    let mut inner = shard.inner.write();
                    if let Some(&slot) = inner.map.get(&id) {
                        let frame = &mut inner.frames[slot];
                        frame.page.bytes_mut().copy_from_slice(image.bytes());
                        frame.dirty = was_dirty;
                    } else if let Some(t) = self.txn.lock().as_mut() {
                        // Evicted meanwhile: the latest bytes live in the
                        // transaction shadow — replace them there.
                        t.shadow.insert(id, image);
                    }
                }
                None => {
                    // Joined the transaction after the savepoint: restore
                    // the pre-transaction image, then erase every trace.
                    let pre = self
                        .txn
                        .lock()
                        .as_ref()
                        .and_then(|t| t.pre.get(&id).cloned());
                    let Some((image, was_dirty)) = pre else {
                        continue;
                    };
                    {
                        let shard = self.shard_of(id);
                        let _held = HeldShard::enter(shard);
                        let mut inner = shard.inner.write();
                        if let Some(&slot) = inner.map.get(&id) {
                            let frame = &mut inner.frames[slot];
                            frame.page.bytes_mut().copy_from_slice(image.bytes());
                            frame.dirty = was_dirty;
                        } else if was_dirty {
                            // Spilled and its pre-image was never durable:
                            // restore it straight to the disk, as the full
                            // rollback does.
                            let mut page = image.clone();
                            if self.write_back(id, &mut page, &shard.stats).is_ok() {
                                shard.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if let Some(t) = self.txn.lock().as_mut() {
                        t.pre.remove(&id);
                        t.order.retain(|&p| p != id);
                        t.shadow.remove(&id);
                    }
                    if self.ring_active.load(Ordering::Acquire) {
                        if let Some(r) = self.ring.lock().as_mut() {
                            r.open.remove(&id);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Commits the innermost scope; the outermost commit writes the WAL.
    /// Public for the group committer (see [`txn_begin`](Self::txn_begin)).
    pub fn txn_commit(&self) -> Result<(), StorageError> {
        {
            let mut txn = self.txn.lock();
            let t = txn.as_mut().expect("commit without an open transaction");
            if t.prepared {
                return Err(StorageError::Io(std::io::Error::other(
                    "commit of a prepared transaction (use txn_finish_prepared)",
                )));
            }
            if t.depth > 1 {
                t.depth -= 1;
                return Ok(());
            }
        }
        // Outermost commit. Snapshot the dirtied-page order; the transaction
        // stays open while their images are read, and no shard lock is
        // taken while the txn lock is held. An unreleased savepoint (a batch
        // member that succeeded without an explicit release) folds into the
        // commit; `members` sizes the WAL batch record.
        let (order, members) = self.fold_savepoint_and_order();
        let wal = self.wal();
        if let Some(wal) = &wal {
            if !order.is_empty() {
                let mut images = Vec::with_capacity(order.len());
                for &id in &order {
                    match self.page_image(id) {
                        Ok(img) => images.push((id, img)),
                        Err(e) => {
                            self.txn_rollback();
                            return Err(e);
                        }
                    }
                }
                let txn_id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = wal.commit_batch(txn_id, &images, members) {
                    self.txn_rollback();
                    return Err(e);
                }
            }
        }
        self.txn_close_durable(&order, wal)
    }

    /// First half of a distributed commit: appends the open transaction's
    /// after-images to the WAL under a `Prepare` record keyed by `gtid`
    /// (durable, synced), then leaves the transaction **open and marked
    /// prepared** — its pages keep spilling to the transaction shadow, so no
    /// post-prepare byte can reach the data disk before the decision, and
    /// the pool refuses checkpoints exactly as for any open transaction.
    /// Must be the outermost scope. On a WAL append failure the transaction
    /// is rolled back and the error returned (a clean abort vote).
    ///
    /// Without an attached WAL this only marks the transaction prepared —
    /// all-or-nothing in the cache, no crash durability, mirroring
    /// [`atomic_update`](Self::atomic_update)'s contract.
    pub fn txn_prepare(&self, gtid: u64) -> Result<(), StorageError> {
        {
            let mut txn = self.txn.lock();
            let t = txn.as_mut().expect("prepare without an open transaction");
            if t.prepared {
                return Err(StorageError::Io(std::io::Error::other(
                    "transaction already prepared",
                )));
            }
            if t.depth > 1 {
                return Err(StorageError::Io(std::io::Error::other(
                    "prepare inside a nested transaction scope",
                )));
            }
        }
        let (order, members) = self.fold_savepoint_and_order();
        if let Some(wal) = self.wal() {
            if !order.is_empty() {
                let mut images = Vec::with_capacity(order.len());
                for &id in &order {
                    match self.page_image(id) {
                        Ok(img) => images.push((id, img)),
                        Err(e) => {
                            self.txn_rollback();
                            return Err(e);
                        }
                    }
                }
                let txn_id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = wal.prepare(txn_id, &images, gtid, members) {
                    self.txn_rollback();
                    return Err(e);
                }
            }
        }
        let mut txn = self.txn.lock();
        if let Some(t) = txn.as_mut() {
            t.prepared = true;
        }
        Ok(())
    }

    /// Second half of a distributed commit: closes the transaction left
    /// open by [`txn_prepare`](Self::txn_prepare). With `commit == true`
    /// the decision record (the shard catalog entry) is durable elsewhere,
    /// so the prepared images become the committed state: spilled shadows
    /// are written back, the MVCC delta is sealed, and the log is bounded —
    /// exactly the post-WAL half of [`txn_commit`](Self::txn_commit). With
    /// `commit == false` every page is rolled back to its pre-image (the
    /// prepared WAL frames are orphaned by the next checkpoint and ignored
    /// by presumed-abort recovery).
    pub fn txn_finish_prepared(&self, commit: bool) -> Result<(), StorageError> {
        let order = {
            let mut txn = self.txn.lock();
            let t = txn
                .as_mut()
                .expect("finish_prepared without an open transaction");
            if !t.prepared {
                return Err(StorageError::Io(std::io::Error::other(
                    "finish_prepared on an unprepared transaction",
                )));
            }
            // Re-arm so txn_rollback and txn_close_durable run unguarded.
            t.prepared = false;
            t.order.clone()
        };
        if !commit {
            self.txn_rollback();
            return Ok(());
        }
        self.txn_close_durable(&order, self.wal())
    }

    /// Shared pre-WAL step of commit and prepare: folds an unreleased
    /// savepoint into the transaction and snapshots the dirtied-page order
    /// plus the batch member count.
    fn fold_savepoint_and_order(&self) -> (Vec<PageId>, u32) {
        let mut txn = self.txn.lock();
        let t = txn.as_mut().expect("no open transaction");
        if t.savepoint.take().is_some() {
            t.releases += 1;
        }
        (t.order.clone(), t.releases.max(1))
    }

    /// The post-WAL half of a commit: write back spilled shadows, close the
    /// transaction, seal the MVCC delta, report flush failures, bound the
    /// log. Shared by [`txn_commit`](Self::txn_commit) and the commit arm of
    /// [`txn_finish_prepared`](Self::txn_finish_prepared).
    fn txn_close_durable(
        &self,
        order: &[PageId],
        wal: Option<Arc<Wal>>,
    ) -> Result<(), StorageError> {
        // The transaction is now durable (or no WAL is attached). Pages
        // spilled out of the cache exist nowhere else once the transaction
        // closes: write them to the data disk, in first-dirtied order for
        // determinism. A failure here is reported but NOT rolled back — the
        // commit already happened; on a logged database, reopening redoes
        // the missing pages from the WAL.
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        for &id in order {
            let spilled = {
                let mut txn = self.txn.lock();
                txn.as_mut()
                    .expect("commit without an open transaction")
                    .shadow
                    .remove(&id)
            };
            if let Some(mut page) = spilled {
                let shard = self.shard_of(id);
                let _held = HeldShard::enter(shard);
                // Exclusive lock: a concurrent reader must not fetch the
                // page from the data disk while its committed image lands.
                let _inner = shard.inner.write();
                match self.write_back(id, &mut page, &shard.stats) {
                    Ok(()) => {
                        shard.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => failures.push((id, e)),
                }
            }
        }
        {
            let mut txn = self.txn.lock();
            *txn = None;
            self.txn_active.store(false, Ordering::Release);
        }
        // MVCC seal: promote the open pre-images to a sealed delta stamped
        // with the pre-commit epoch (the facade bumps it only after this
        // returns), evicting the oldest delta past the retention bound —
        // with `retain == 0` the new delta itself, retiring the pre-commit
        // epoch before the bump.
        // Sealing happens even if spilled-page write-back failed below: the
        // commit is durable, so readers pinned to the pre-commit epoch need
        // the delta to keep answering coherently.
        if self.ring_active.load(Ordering::Acquire) {
            if let Some(r) = self.ring.lock().as_mut() {
                let as_of = r.epoch.load(Ordering::SeqCst);
                let pages = std::mem::take(&mut r.open);
                r.committed.push_back(VersionDelta { as_of, pages });
                while r.committed.len() > r.retain {
                    if let Some(d) = r.committed.pop_front() {
                        self.floor.store(d.as_of + 1, Ordering::SeqCst);
                    }
                }
            }
        }
        if !failures.is_empty() {
            return Err(StorageError::FlushFailed(failures));
        }
        // The transaction is durable; opportunistically bound the log.
        if let Some(wal) = &wal {
            let threshold = self.checkpoint_threshold.load(Ordering::Relaxed);
            if threshold > 0 && wal.log_bytes() >= threshold {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Rolls back the innermost scope; the outermost rollback restores every
    /// pre-image (bytes and dirty flag) into the cache. Public for the group
    /// committer (see [`txn_begin`](Self::txn_begin)).
    pub fn txn_rollback(&self) {
        let state = {
            let mut txn = self.txn.lock();
            let t = txn.as_mut().expect("rollback without an open transaction");
            if t.depth > 1 {
                t.depth -= 1;
                return;
            }
            txn.take().expect("checked above")
        };
        for id in &state.order {
            let (image, was_dirty) = state.pre.get(id).expect("order tracks pre");
            let shard = self.shard_of(*id);
            let _held = HeldShard::enter(shard);
            let mut inner = shard.inner.write();
            if let Some(&slot) = inner.map.get(id) {
                let frame = &mut inner.frames[slot];
                frame.page.bytes_mut().copy_from_slice(image.bytes());
                frame.dirty = *was_dirty;
            } else if *was_dirty {
                // The page was spilled out of the cache and its pre-image
                // was dirty (never durable): restore it straight to the
                // disk, best-effort — on a logged database the WAL still
                // holds the committed image a failure would lose.
                let mut page = image.clone();
                if self.write_back(*id, &mut page, &shard.stats).is_ok() {
                    shard.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.txn_active.store(false, Ordering::Release);
        // MVCC: the aborted transaction's pre-images are now the live frame
        // bytes again — nothing to retain. (Pinned readers racing the
        // restore above read the same bytes from `open`, so clearing last
        // keeps them torn-free.)
        if self.ring_active.load(Ordering::Acquire) {
            if let Some(r) = self.ring.lock().as_mut() {
                r.open.clear();
            }
        }
    }

    /// Pages captured by the open transaction (empty set when none is
    /// open). Their cached bytes are uncommitted: flushes must skip them.
    fn pinned_pages(&self) -> HashSet<PageId> {
        if !self.txn_active.load(Ordering::Acquire) {
            return HashSet::new();
        }
        self.txn
            .lock()
            .as_ref()
            .map(|t| t.pre.keys().copied().collect())
            .unwrap_or_default()
    }

    /// If `victim` belongs to the open transaction, moves its uncommitted
    /// bytes into the transaction shadow and reports `true` — the caller
    /// then evicts the frame *without* writing it (WAL-before-data: no
    /// uncommitted byte may reach the data disk).
    fn spill_to_shadow(&self, victim: &Frame) -> bool {
        if !self.txn_active.load(Ordering::Acquire) {
            return false;
        }
        let mut txn = self.txn.lock();
        match txn.as_mut() {
            Some(t) if t.pre.contains_key(&victim.id) => {
                t.shadow.insert(victim.id, victim.page.clone());
                true
            }
            _ => false,
        }
    }

    /// A sealed copy of a transaction page's current bytes (the WAL
    /// after-image): from its frame if resident, from the transaction
    /// shadow if it was spilled. The shard lock is held across both lookups
    /// (shard → txn is the documented lock order): pages move between the
    /// cache and the shadow only under the shard lock, so a concurrent
    /// reader faulting the page cannot make both lookups miss.
    fn page_image(&self, id: PageId) -> Result<Page, StorageError> {
        let shard = self.shard_of(id);
        let mut image = {
            let _held = HeldShard::enter(shard);
            // Pages move between the cache and the shadow only under the
            // exclusive lock, so holding the shared lock across both lookups
            // suffices to keep them from both missing.
            let inner = shard.inner.read();
            match inner.map.get(&id) {
                Some(&slot) => inner.frames[slot].page.clone(),
                None => self
                    .txn
                    .lock()
                    .as_ref()
                    .and_then(|t| t.shadow.get(&id).cloned())
                    .ok_or(StorageError::PageOutOfRange(id))?,
            }
        };
        if self.verify_checksums() {
            image.seal();
        }
        Ok(image)
    }

    /// Ensures `id` is resident in `shard`; returns its frame slot. Caller
    /// holds the shard's exclusive lock (`inner`).
    ///
    /// A miss into a free frame, a reload from the transaction shadow and
    /// every [`Insertion::Mru`] miss stamp the fresh tick. A
    /// [`Insertion::Bimodal`] miss that evicts and reads the disk takes the
    /// victim's stamp instead — it becomes the next victim unless a hit
    /// promotes it — except every [`BIP_PROMOTE_EVERY`]-th such eviction in
    /// the shard, which stamps the fresh tick.
    fn fetch(
        &self,
        shard: &Shard,
        inner: &mut Inner,
        id: PageId,
        insertion: Insertion,
    ) -> Result<usize, StorageError> {
        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(&slot) = inner.map.get(&id) {
            inner.frames[slot].last_used.store(tick, Ordering::Relaxed);
            return Ok(slot);
        }
        // The open transaction's shadow may hold the page's latest bytes
        // (spilled by an earlier eviction): reload from there, not the disk.
        // Peek only — the entry is removed after a frame slot is secured, so
        // a failed victim write-back below cannot cost the transaction its
        // latest image of this page.
        let shadow_page = if self.txn_active.load(Ordering::Acquire) {
            self.txn
                .lock()
                .as_ref()
                .and_then(|t| t.shadow.get(&id).cloned())
        } else {
            None
        };
        if shadow_page.is_none() {
            shard.stats.physical_reads.fetch_add(1, Ordering::Relaxed);
        }
        let slot = if inner.frames.len() < shard.capacity {
            inner.frames.push(Frame {
                id,
                page: Page::zeroed(),
                dirty: false,
                last_used: AtomicU64::new(tick),
            });
            inner.frames.len() - 1
        } else {
            let slot = victim_slot(&inner.frames);
            {
                let victim = &mut inner.frames[slot];
                if victim.dirty && !self.spill_to_shadow(victim) {
                    self.write_back(victim.id, &mut victim.page, &shard.stats)?;
                    shard.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            let old_id = inner.frames[slot].id;
            inner.map.remove(&old_id);
            shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
            inner.frames[slot].id = id;
            inner.frames[slot].dirty = false;
            let mru = if insertion == Insertion::Bimodal && shadow_page.is_none() {
                inner.read_miss_evictions += 1;
                inner.read_miss_evictions.is_multiple_of(BIP_PROMOTE_EVERY)
            } else {
                true
            };
            // Otherwise the frame keeps the victim's stamp: the LRU end.
            if mru {
                inner.frames[slot].last_used.store(tick, Ordering::Relaxed);
            }
            slot
        };
        if let Some(page) = shadow_page {
            if let Some(t) = self.txn.lock().as_mut() {
                t.shadow.remove(&id);
            }
            inner.frames[slot].page = page;
            inner.frames[slot].dirty = true;
            inner.map.insert(id, slot);
            return Ok(slot);
        }
        if let Err(e) = self.read_verified(id, &mut inner.frames[slot].page, &shard.stats) {
            // The frame holds a partial or unverified read: mark it vacant
            // so no later victim write or map hit can expose its bytes.
            inner.frames[slot].id = PageId::INVALID;
            inner.frames[slot].dirty = false;
            inner.frames[slot].last_used.store(0, Ordering::Relaxed);
            return Err(e);
        }
        inner.map.insert(id, slot);
        Ok(slot)
    }

    /// Sleeps the policy's backoff for `attempt`, bounded by the thread's
    /// I/O deadline. Returns `Err(DeadlineExceeded)` instead of sleeping (or
    /// after waking) once the deadline is spent.
    fn backoff_pause(
        &self,
        policy: &RetryPolicy,
        attempt: u32,
        stats: &AtomicIoStats,
    ) -> Result<(), StorageError> {
        let deadline = current_io_deadline();
        if let Some(d) = &deadline {
            d.check()?;
        }
        let pause = policy.backoff_for(attempt);
        if !pause.is_zero() {
            stats.backoffs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(pause);
            if let Some(d) = &deadline {
                d.check()?;
            }
        }
        Ok(())
    }

    /// One verified physical read: retries transient errors and checksum
    /// mismatches per the pool's [`RetryPolicy`] (exponential backoff
    /// between attempts, deadline-checked), surfacing persistent mismatches
    /// as [`StorageError::Corrupt`]. Runs through the circuit breaker: while
    /// open, non-probe reads fail fast with [`StorageError::BreakerOpen`].
    fn read_verified(
        &self,
        id: PageId,
        page: &mut Page,
        stats: &AtomicIoStats,
    ) -> Result<(), StorageError> {
        let policy = self.retry_policy();
        let probe = self.breaker_admit(&policy)?;
        let result = self.read_attempts(id, page, stats, &policy, probe);
        self.breaker_record(&policy, result.as_ref().err());
        result
    }

    /// The retry ladder of [`read_verified`](Self::read_verified).
    fn read_attempts(
        &self,
        id: PageId,
        page: &mut Page,
        stats: &AtomicIoStats,
        policy: &RetryPolicy,
        probe: bool,
    ) -> Result<(), StorageError> {
        let max_attempts = if probe { 1 } else { policy.max_attempts.max(1) };
        let verify = self.verify_checksums();
        let mut mismatch: Option<(u32, u32)> = None;
        for attempt in 1..=max_attempts {
            match self.disk.read_page(id, page) {
                Ok(()) => {
                    if !verify {
                        return Ok(());
                    }
                    match page.verify_checksum() {
                        Ok(()) => return Ok(()),
                        Err(m) => {
                            // Could be a transient bus glitch: re-read.
                            stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
                            mismatch = Some(m);
                        }
                    }
                }
                Err(e) if !e.is_transient() => return Err(e),
                Err(_) => {} // transient: retry
            }
            if attempt < max_attempts {
                stats.read_retries.fetch_add(1, Ordering::Relaxed);
                self.backoff_pause(policy, attempt, stats)?;
            }
        }
        Err(match mismatch {
            Some((expected, found)) => StorageError::Corrupt {
                page: id,
                expected,
                found,
            },
            None => StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("page {id}: transient read error persisted after {max_attempts} attempts"),
            )),
        })
    }

    /// One durable physical write: seals the trailer (unless verification
    /// is off) and retries transient errors per the pool's [`RetryPolicy`],
    /// with backoff and breaker admission as for reads.
    fn write_back(
        &self,
        id: PageId,
        page: &mut Page,
        stats: &AtomicIoStats,
    ) -> Result<(), StorageError> {
        let policy = self.retry_policy();
        let probe = self.breaker_admit(&policy)?;
        let result = self.write_attempts(id, page, stats, &policy, probe);
        self.breaker_record(&policy, result.as_ref().err());
        result
    }

    /// The retry ladder of [`write_back`](Self::write_back).
    fn write_attempts(
        &self,
        id: PageId,
        page: &mut Page,
        stats: &AtomicIoStats,
        policy: &RetryPolicy,
        probe: bool,
    ) -> Result<(), StorageError> {
        if self.verify_checksums() {
            page.seal();
        }
        let max_attempts = if probe { 1 } else { policy.max_attempts.max(1) };
        let mut attempt = 1;
        loop {
            match self.disk.write_page(id, page) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < max_attempts => {
                    stats.write_retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff_pause(policy, attempt, stats)?;
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drops every cached frame **without writing anything back** and
    /// abandons any open transaction (pre-images and shadow included), then
    /// force-closes the circuit breaker.
    ///
    /// For in-process recovery only: the caller is about to redo the
    /// committed WAL state onto the data disk and rebuild its in-memory
    /// structures from those bytes, so whatever the cache holds — possibly
    /// pages of a failed or half-rolled-back update — must not survive.
    /// Not a durability operation: any dirty byte not covered by the WAL is
    /// deliberately discarded.
    pub fn discard_cache_and_txn(&self) {
        {
            let mut txn = self.txn.lock();
            *txn = None;
            self.txn_active.store(false, Ordering::Release);
        }
        for shard in &self.shards {
            let _held = HeldShard::enter(shard);
            let mut inner = shard.inner.write();
            inner.frames.clear();
            inner.map.clear();
        }
        self.reset_breaker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(capacity: usize) -> (BufferPool, Vec<PageId>) {
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..8).map(|_| disk.allocate_page().unwrap()).collect();
        (BufferPool::new(disk, capacity), ids)
    }

    fn sharded(capacity: usize, shards: usize) -> (BufferPool, Vec<PageId>) {
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..32).map(|_| disk.allocate_page().unwrap()).collect();
        (BufferPool::with_shards(disk, capacity, shards), ids)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn lru_eviction_writes_dirty_pages() {
        let (pool, ids) = pool(2);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 7)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0], dirty
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.physical_writes, 1);
        // Value survived the eviction round-trip.
        let v = pool.with_page(ids[0], |p| p.get_u32(0)).unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn flush_and_clear() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[3], |p| p.put_u64(8, 99)).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().physical_writes, 1);
        pool.clear_cache().unwrap();
        let before = pool.stats();
        let v = pool.with_page(ids[3], |p| p.get_u64(8)).unwrap();
        assert_eq!(v, 99);
        assert_eq!(pool.stats().physical_reads, before.physical_reads + 1);
    }

    #[test]
    fn stats_since() {
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| ()).unwrap();
        let snap = pool.stats();
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        let d = pool.stats().since(&snap);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.physical_reads, 1);
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn reentrancy_panics() {
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| {
            let _ = pool.with_page(ids[1], |_| ());
        })
        .unwrap();
    }

    #[test]
    fn victim_slot_picks_least_recently_used() {
        let mk = |id: u32, last_used: u64| Frame {
            id: PageId(id),
            page: Page::zeroed(),
            dirty: false,
            last_used: AtomicU64::new(last_used),
        };
        assert_eq!(victim_slot(&[mk(0, 5), mk(1, 2), mk(2, 9)]), 1);
        assert_eq!(victim_slot(&[mk(0, 1)]), 0);
        // Ties break toward the lowest slot (stable min).
        assert_eq!(victim_slot(&[mk(0, 3), mk(1, 3)]), 0);
    }

    #[test]
    fn shared_and_exclusive_read_counters() {
        let (pool, ids) = pool(4);
        // Cold: both accesses miss and take the exclusive path.
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.read_shared, 0);
        assert_eq!(s.read_exclusive_fallback, 2);
        // Warm: hits stay entirely on the shared path.
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.read_shared, 3);
        assert_eq!(s.read_exclusive_fallback, 2);
        // Mutation does not count toward either read-path counter.
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        let s = pool.stats();
        assert_eq!(s.read_shared, 3);
        assert_eq!(s.read_exclusive_fallback, 2);
        assert_eq!(s.logical_reads, 6);
    }

    #[test]
    fn shared_hits_keep_lru_order() {
        // A shared-lock hit must still refresh the LRU stamp: touch ids[0]
        // read-only, then fault a new page — the victim must be ids[1].
        let (pool, ids) = pool(2);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap(); // shared hit
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[1]
        let before = pool.stats();
        pool.with_page(ids[0], |_| ()).unwrap();
        let d = pool.stats().since(&before);
        assert_eq!(d.physical_reads, 0, "ids[0] must have survived");
    }

    #[test]
    fn stats_read_is_lock_free_during_a_page_access() {
        // stats() from inside a with_page closure would deadlock if it took
        // the shard lock; with atomic counters it must just work.
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[0], |_| {
            let s = pool.stats();
            assert_eq!(s.logical_reads, 2);
            assert_eq!(s.read_shared, 1);
            let _ = pool.shard_stats();
        })
        .unwrap();
    }

    #[test]
    fn concurrent_shared_readers_make_progress() {
        // Several threads hammering the same cached pages read-only must all
        // complete, and (almost) every access after warmup stays shared.
        // Per-shard capacity 32: even a maximally skewed hash cannot evict.
        let (pool, ids) = sharded(64, 2);
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        let warm = pool.stats();
        let pool = Arc::new(pool);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let ids = ids.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        for &id in &ids {
                            pool.with_page(id, |_| ()).unwrap();
                        }
                    }
                });
            }
        });
        let d = pool.stats().since(&warm);
        assert_eq!(d.logical_reads, 4 * 50 * 32);
        assert_eq!(d.read_shared, d.logical_reads, "warm mix is all-shared");
        assert_eq!(d.physical_reads, 0);
    }

    #[test]
    fn new_pool_reserves_full_capacity() {
        // The frame vector must never reallocate mid-run: the pool reserves
        // its full per-shard capacity up front (frames are ~40 bytes; pages
        // themselves are boxed).
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..2000).map(|_| disk.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(disk, 2000);
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.physical_reads, 2000);
        assert_eq!(s.evictions, 0, "capacity 2000 must hold 2000 pages");
    }

    #[test]
    fn sharded_pool_spreads_pages_and_preserves_totals() {
        let (pool, ids) = sharded(16, 4);
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.capacity(), 16);
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        let total = pool.stats();
        assert_eq!(total.logical_reads, 64);
        let per_shard = pool.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(
            per_shard.iter().map(|s| s.logical_reads).sum::<u64>(),
            total.logical_reads
        );
        assert_eq!(
            per_shard.iter().map(|s| s.physical_reads).sum::<u64>(),
            total.physical_reads
        );
        // More than one shard saw traffic.
        assert!(per_shard.iter().filter(|s| s.logical_reads > 0).count() > 1);
    }

    #[test]
    fn sharded_pool_roundtrips_writes() {
        let (pool, ids) = sharded(8, 4);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u32(0, i as u32)).unwrap();
        }
        // 32 dirty pages through 8 frames forces evictions in every shard.
        for (i, &id) in ids.iter().enumerate() {
            let v = pool.with_page(id, |p| p.get_u32(0)).unwrap();
            assert_eq!(v, i as u32);
        }
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::with_shards(disk, 64, 3);
        assert_eq!(pool.shard_count(), 4);
        // Every shard holds at least one frame even when shards > capacity.
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::with_shards(disk, 2, 8);
        assert_eq!(pool.shard_count(), 8);
        assert!(pool.capacity() >= 8);
    }

    #[test]
    fn transient_read_errors_are_retried() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..16).map(|_| mem.allocate_page().unwrap()).collect();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 5,
                // Low enough that this seed never fails 4 times in a row
                // (exhaustion has its own test below).
                transient_read_error: 0.15,
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty.clone(), 4);
        // Transient errors fire on ~15% of raw reads, but every logical
        // access must still succeed within the retry budget.
        for round in 0..4 {
            for &id in &ids {
                pool.with_page(id, |_| ()).unwrap();
            }
            if round < 3 {
                pool.clear_cache().unwrap();
            }
        }
        let s = pool.stats();
        let injected = faulty
            .stats()
            .transient_read_errors
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(injected > 0, "p=0.4 over 64 cold reads must fire");
        assert_eq!(
            s.read_retries, injected,
            "every injected error costs one retry"
        );
        assert_eq!(s.checksum_failures, 0);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 1,
                transient_read_error: 1.0, // every attempt fails
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty.clone(), 4);
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(err.is_transient());
        let s = pool.stats();
        assert_eq!(s.read_retries, u64::from(MAX_IO_ATTEMPTS - 1));
        assert_eq!(
            faulty
                .stats()
                .transient_read_errors
                .load(std::sync::atomic::Ordering::Relaxed),
            u64::from(MAX_IO_ATTEMPTS)
        );
    }

    #[test]
    fn corrupt_page_surfaces_typed_error_and_is_not_cached() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..64).map(|_| mem.allocate_page().unwrap()).collect();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 9,
                sticky_bit_flip: 0.15,
                ..Default::default()
            },
        ));
        // Seal real content onto every page first, with faults off.
        faulty.set_armed(false);
        let pool = BufferPool::new(faulty.clone(), 8);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u64(0, i as u64)).unwrap();
        }
        pool.clear_cache().unwrap();
        faulty.set_armed(true);

        let bad = faulty.sticky_corrupt_pages();
        assert!(!bad.is_empty());
        for &id in &ids {
            let res = pool.with_page(id, |p| p.get_u64(0));
            if bad.contains(&id) {
                match res {
                    Err(StorageError::Corrupt {
                        page,
                        expected,
                        found,
                    }) => {
                        assert_eq!(page, id);
                        assert_ne!(expected, found);
                    }
                    other => panic!("expected Corrupt for {id}, got {other:?}"),
                }
                // Still corrupt on the next access: the page was not cached.
                assert!(matches!(
                    pool.with_page(id, |_| ()),
                    Err(StorageError::Corrupt { .. })
                ));
            } else {
                res.unwrap();
            }
        }
        assert!(pool.stats().checksum_failures >= bad.len() as u64);
    }

    #[test]
    fn verification_off_skips_checks() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 2,
                sticky_bit_flip: 1.0, // every page corrupt on read
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty, 4);
        pool.set_verify_checksums(false);
        assert!(!pool.verify_checksums());
        // The flipped bit sails through unverified (the ablation mode).
        pool.with_page(id, |_| ()).unwrap();
        assert_eq!(pool.stats().checksum_failures, 0);
    }

    #[test]
    fn evicted_dirty_pages_are_sealed() {
        let (pool, ids) = pool(2);
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 1234)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0]
                                                 // Read the raw page straight off the disk: the trailer must hold
                                                 // the payload CRC, not zeros.
        let mut raw = Page::zeroed();
        pool.disk().read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.verify_checksum(), Ok(()));
        assert_ne!(raw.stored_checksum(), 0);
    }

    #[test]
    fn atomic_update_rolls_back_on_error() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        pool.flush_all().unwrap();
        let err: Result<(), StorageError> = pool.atomic_update(|| {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 99))?;
            pool.with_page_mut(ids[1], |p| p.put_u32(0, 50))?;
            Err(StorageError::PageOutOfRange(PageId(77)))
        });
        assert!(err.is_err());
        assert!(!pool.in_transaction());
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u32(0)).unwrap(), 0);
        // ids[0] was clean pre-txn (flushed): rollback restored that too.
        pool.clear_cache().unwrap();
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
    }

    #[test]
    fn atomic_update_commits_to_wal_before_data() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data.clone(), 8);
        pool.attach_wal(Arc::new(Wal::open(log.clone()).unwrap()));
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 7))?;
            pool.with_page_mut(ids[2], |p| p.put_u32(0, 8))
        })
        .unwrap();
        // The data disk has NOT been written (pages are lazily flushed)...
        let mut raw = Page::zeroed();
        data.read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 0);
        // ...but the WAL has the whole transaction: redo recovers it.
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&*data).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.pages_redone, 2);
        data.read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 7);
        assert_eq!(raw.verify_checksum(), Ok(()), "WAL images are sealed");
        data.read_page(ids[2], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 8);
    }

    #[test]
    fn prepared_txn_is_invisible_until_finished() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..2).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data.clone(), 8);
        pool.attach_wal(Arc::new(Wal::open(log.clone()).unwrap()));
        pool.txn_begin();
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 41)).unwrap();
        pool.txn_prepare(900).unwrap();
        // Prepared but undecided: the transaction is still open, a plain
        // commit is refused, checkpoints are refused, and recovery from the
        // on-disk bytes presumes abort.
        assert!(pool.in_transaction());
        assert!(pool.txn_commit().is_err());
        assert!(pool.checkpoint().is_err());
        {
            let wal2 = Wal::open(Arc::new(log.fork())).unwrap();
            let scratch = MemDisk::new();
            let report = wal2.recover_onto(&scratch).unwrap();
            assert_eq!(report.committed_txns, 0);
            assert_eq!(report.prepared_aborted, 1);
        }
        // ...but with the decision, the same bytes redo the transaction.
        {
            let wal2 = Wal::open(Arc::new(log.fork())).unwrap();
            let scratch = MemDisk::new();
            let report = wal2.recover_onto_with_decisions(&scratch, &[900]).unwrap();
            assert_eq!(report.prepared_decided, 1);
            let mut raw = Page::zeroed();
            scratch.read_page(ids[0], &mut raw).unwrap();
            assert_eq!(raw.get_u32(0), 41);
        }
        pool.txn_finish_prepared(true).unwrap();
        assert!(!pool.in_transaction());
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 41);
        pool.checkpoint().unwrap();
    }

    #[test]
    fn finish_prepared_abort_restores_pre_images() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..2).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data.clone(), 8);
        pool.attach_wal(Arc::new(Wal::open(log.clone()).unwrap()));
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 5)).unwrap();
        pool.flush_all().unwrap();
        pool.txn_begin();
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 99)).unwrap();
        pool.txn_prepare(901).unwrap();
        pool.txn_finish_prepared(false).unwrap();
        assert!(!pool.in_transaction());
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 5);
        // The orphaned prepare frames never resurrect: recovery presumes
        // abort, and the next checkpoint retires them entirely.
        let wal2 = Wal::open(Arc::new(log.fork())).unwrap();
        let scratch = MemDisk::new();
        let report = wal2.recover_onto(&scratch).unwrap();
        assert_eq!(report.prepared_aborted, 1);
        assert_eq!(report.pages_redone, 0);
    }

    #[test]
    fn nested_atomic_updates_join_one_transaction() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| data.allocate_page().unwrap()).collect();
        let wal = Arc::new(Wal::open(log).unwrap());
        let pool = BufferPool::new(data, 8);
        pool.attach_wal(wal.clone());
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 1))?;
            pool.atomic_update(|| pool.with_page_mut(ids[1], |p| p.put_u32(0, 2)))?;
            assert!(pool.in_transaction());
            pool.with_page_mut(ids[3], |p| p.put_u32(0, 3))
        })
        .unwrap();
        assert!(!pool.in_transaction());
        assert_eq!(wal.stats().commits, 1, "nested scopes commit once");
    }

    #[test]
    fn transaction_larger_than_the_pool_spills_and_commits() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..12).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data.clone(), 2); // two frames only
        pool.attach_wal(Arc::new(Wal::open(log).unwrap()));
        pool.atomic_update(|| -> Result<(), StorageError> {
            for (i, &id) in ids.iter().enumerate() {
                pool.with_page_mut(id, |p| p.put_u32(0, i as u32 + 1))?;
            }
            // Mid-transaction, no uncommitted byte has reached the disk:
            // evicted transaction pages went to the shadow, not the disk.
            let mut raw = Page::zeroed();
            data.read_page(ids[0], &mut raw).unwrap();
            assert_eq!(raw.get_u32(0), 0);
            // Revisiting a spilled page serves its bytes from the shadow.
            pool.with_page(ids[0], |p| assert_eq!(p.get_u32(0), 1))?;
            Ok(())
        })
        .unwrap();
        // Commit pushed the spilled after-images to the data disk; every
        // page reads back, through the pool and raw.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |p| p.get_u32(0)).unwrap(), i as u32 + 1);
        }
    }

    #[test]
    fn transaction_larger_than_the_pool_rolls_back() {
        let (pool, ids) = pool(2);
        for &id in &ids {
            pool.with_page_mut(id, |p| p.put_u32(0, 7)).unwrap();
        }
        pool.flush_all().unwrap();
        let res: Result<(), StorageError> = pool.atomic_update(|| {
            for &id in &ids {
                pool.with_page_mut(id, |p| p.put_u32(0, 99))?;
            }
            Err(StorageError::PageOutOfRange(PageId(1234)))
        });
        assert!(res.is_err());
        assert!(!pool.in_transaction());
        // Spilled and resident pages alike are back at their pre-images.
        pool.clear_cache().unwrap();
        for &id in &ids {
            assert_eq!(pool.with_page(id, |p| p.get_u32(0)).unwrap(), 7);
        }
    }

    #[test]
    fn failed_victim_write_back_preserves_spilled_shadow() {
        // Refetching a spilled transaction page must not drop its shadow
        // image when the eviction making room for it fails partway.
        struct ArmedFailDisk {
            inner: MemDisk,
            armed: AtomicBool,
        }
        impl Disk for ArmedFailDisk {
            fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
                self.inner.read_page(id, buf)
            }
            fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
                if self.armed.load(Ordering::SeqCst) {
                    return Err(StorageError::Io(std::io::Error::other(
                        "injected write failure",
                    )));
                }
                self.inner.write_page(id, buf)
            }
            fn allocate_page(&self) -> Result<PageId, StorageError> {
                self.inner.allocate_page()
            }
            fn num_pages(&self) -> u32 {
                self.inner.num_pages()
            }
        }
        let disk = Arc::new(ArmedFailDisk {
            inner: MemDisk::new(),
            armed: AtomicBool::new(false),
        });
        let ids: Vec<PageId> = (0..4)
            .map(|_| disk.inner.allocate_page().unwrap())
            .collect();
        let (d, p1, p2, p3) = (ids[0], ids[1], ids[2], ids[3]);
        let pool = BufferPool::new(disk.clone(), 3);
        // A page dirtied before the transaction: the victim whose write-back
        // is made to fail.
        pool.with_page_mut(d, |p| p.put_u32(0, 2)).unwrap();
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(p1, |p| p.put_u32(0, 11))?;
            pool.with_page(d, |_| ())?; // keep `d` more recent than p1
            pool.with_page_mut(p2, |p| p.put_u32(0, 22))?;
            // Capacity 3: faulting p3 evicts LRU p1 into the shadow.
            pool.with_page_mut(p3, |p| p.put_u32(0, 33))?;
            // Refetching p1 picks dirty non-transaction `d` as the victim;
            // its write-back fails, so the fetch fails...
            disk.armed.store(true, Ordering::SeqCst);
            assert!(pool.with_page(p1, |p| p.get_u32(0)).is_err());
            disk.armed.store(false, Ordering::SeqCst);
            // ...but the shadow still holds p1's transaction bytes.
            let v = pool.with_page(p1, |p| p.get_u32(0))?;
            assert_eq!(v, 11, "spilled image must survive the failed eviction");
            Ok(())
        })
        .unwrap();
        pool.flush_all().unwrap();
        let mut raw = Page::zeroed();
        disk.inner.read_page(p1, &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 11);
    }

    #[test]
    fn flush_all_attempts_every_page_and_aggregates() {
        use crate::fault::{CrashDisk, CrashState};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..6).map(|_| mem.allocate_page().unwrap()).collect();
        // Allow exactly 2 writes, no tear: the remaining dirty pages fail.
        let state = CrashState::new(2, false, 0);
        let pool = BufferPool::new(Arc::new(CrashDisk::new(mem, state)), 8);
        for &id in &ids {
            pool.with_page_mut(id, |p| p.put_u32(0, 5)).unwrap();
        }
        match pool.flush_all() {
            Err(StorageError::FlushFailed(failures)) => {
                assert_eq!(failures.len(), 4, "2 of 6 writes succeeded");
            }
            other => panic!("expected FlushFailed, got {other:?}"),
        }
        assert_eq!(pool.stats().physical_writes, 2);
    }

    #[test]
    fn clear_cache_keeps_unflushed_dirty_pages() {
        use crate::fault::{CrashDisk, CrashState};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| mem.allocate_page().unwrap()).collect();
        let state = CrashState::new(1, false, 0);
        let pool = BufferPool::new(Arc::new(CrashDisk::new(mem.clone(), state)), 8);
        for &id in &ids {
            pool.with_page_mut(id, |p| p.put_u32(0, 9)).unwrap();
        }
        assert!(matches!(
            pool.clear_cache(),
            Err(StorageError::FlushFailed(f)) if f.len() == 3
        ));
        // The one flushed page reached the substrate; the three unflushed
        // pages are still cached with their dirty bytes (nothing was lost).
        let mut raw = Page::zeroed();
        mem.read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 9);
        for &id in &ids[1..] {
            assert_eq!(pool.with_page(id, |p| p.get_u32(0)).unwrap(), 9);
        }
    }

    #[test]
    fn page_skip_counter() {
        let (pool, ids) = pool(4);
        pool.note_page_skipped();
        pool.note_page_skipped();
        assert_eq!(pool.stats().pages_skipped, 2);
        let snap = pool.stats();
        pool.note_page_skipped();
        assert_eq!(pool.stats().since(&snap).pages_skipped, 1);
        pool.reset_stats();
        assert_eq!(pool.stats(), IoStats::default());
        let _ = ids;
    }

    #[test]
    fn backoff_pauses_are_counted() {
        use crate::fault::{FaultConfig, FaultDisk};
        use std::time::Duration;
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 3,
                transient_read_error: 1.0,
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty, 4);
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff_start: Duration::from_micros(1),
            ..RetryPolicy::default()
        });
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(err.is_transient());
        let s = pool.stats();
        assert_eq!(s.read_retries, 1, "2 attempts = 1 retry");
        assert_eq!(s.backoffs, 1, "one pause between the two attempts");
    }

    #[test]
    fn breaker_trips_fast_fails_probes_and_recloses() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 11,
                permanent_read_failure: 1.0, // every armed read fails hard
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty.clone(), 4);
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_probe_every: 4,
            ..RetryPolicy::default()
        });

        // Two consecutive permanent failures trip the breaker.
        assert!(pool.with_page(id, |_| ()).is_err());
        assert!(!pool.breaker_is_open());
        assert!(pool.with_page(id, |_| ()).is_err());
        assert!(pool.breaker_is_open());
        assert_eq!(pool.stats().breaker_trips, 1);

        // While open: tickets 1–3 fail fast, ticket 4 probes (still faulty).
        for _ in 0..3 {
            assert!(matches!(
                pool.with_page(id, |_| ()),
                Err(StorageError::BreakerOpen)
            ));
        }
        assert!(matches!(
            pool.with_page(id, |_| ()),
            Err(StorageError::Io(_))
        ));
        assert!(pool.breaker_is_open(), "failed probe keeps it open");

        // Device heals: the next admitted probe closes the breaker.
        faulty.set_armed(false);
        let mut probe_closed = false;
        for _ in 0..4 {
            match pool.with_page(id, |p| p.get_u32(0)) {
                Ok(_) => {
                    probe_closed = true;
                    break;
                }
                Err(StorageError::BreakerOpen) => {}
                Err(e) => panic!("unexpected error while healing: {e}"),
            }
        }
        assert!(probe_closed, "a successful probe must close the breaker");
        assert!(!pool.breaker_is_open());
        pool.clear_cache().unwrap();
        pool.with_page(id, |_| ()).unwrap();

        let s = pool.stats();
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_probes, 2, "one failed + one successful probe");
        assert_eq!(s.breaker_fast_fails, 6);
    }

    #[test]
    fn deadline_aborts_the_retry_ladder_without_tripping_the_breaker() {
        use crate::fault::{FaultConfig, FaultDisk};
        use crate::retry::{with_io_deadline, Deadline};
        use std::time::Duration;
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 4,
                transient_read_error: 1.0,
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty, 4);
        pool.set_retry_policy(RetryPolicy {
            breaker_threshold: 1,
            ..RetryPolicy::default()
        });
        let spent = Deadline::after(Duration::ZERO);
        let err = with_io_deadline(&spent, || pool.with_page(id, |_| ())).unwrap_err();
        assert!(matches!(err, StorageError::DeadlineExceeded));
        assert!(
            !pool.breaker_is_open(),
            "a deadline abort says nothing about the device"
        );
        // Without the deadline, the same ladder runs to exhaustion.
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(err.is_transient());
        assert!(pool.breaker_is_open(), "a real exhaustion does trip it");
    }

    #[test]
    fn discard_cache_and_txn_forgets_uncommitted_bytes() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        pool.flush_all().unwrap();
        // Dirty bytes never flushed: discard must lose them, not write them.
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 99)).unwrap();
        let before = pool.stats();
        pool.discard_cache_and_txn();
        assert!(!pool.in_transaction());
        assert_eq!(
            pool.stats().since(&before).physical_writes,
            0,
            "discard writes nothing back"
        );
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
    }

    /// The facade's commit shape in miniature: one atomic update (which
    /// seals the ring delta at the pre-bump epoch) followed by the epoch
    /// bump.
    fn commit_and_bump<E>(
        pool: &BufferPool,
        epoch: &Arc<AtomicU64>,
        f: impl FnOnce() -> Result<(), E>,
    ) where
        E: From<StorageError> + std::fmt::Debug,
    {
        pool.atomic_update(f).unwrap();
        epoch.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn ring_serves_every_retained_epoch_its_own_pre_image() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        // Epoch 0 state: ids[0] untouched (zero). Commit 1 writes 11,
        // commit 2 writes 22; ids[1] changes only in commit 2.
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 11))
        });
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 22))?;
            pool.with_page_mut(ids[1], |p| p.put_u32(0, 7))
        });
        let read = |pin: u64, id: PageId| {
            with_read_epoch(pin, || pool.with_page(id, |p| p.get_u32(0)).unwrap())
        };
        // Every retained epoch answers with its own state of ids[0].
        assert_eq!(read(0, ids[0]), 0, "epoch 0 pre-dates both commits");
        assert_eq!(read(1, ids[0]), 11);
        assert_eq!(read(2, ids[0]), 22, "current epoch reads the live frame");
        // A page untouched between the pin and now is served live.
        assert_eq!(read(0, ids[1]), 0);
        assert_eq!(read(1, ids[1]), 0);
        assert_eq!(read(2, ids[1]), 7);
        // Unpinned reads never consult the ring.
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 22);
        assert!(pool.stats().versioned_reads > 0);
        assert_eq!(pool.ring_depth(), 2);
        assert!(pool.epoch_servable(0));
    }

    #[test]
    fn ring_evicts_beyond_retain_and_raises_the_floor() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 1);
        for v in 1..=3u32 {
            commit_and_bump::<StorageError>(&pool, &epoch, || {
                pool.with_page_mut(ids[0], |p| p.put_u32(0, v))
            });
        }
        // Retain 1 keeps the last two epochs (2 and 3) servable.
        assert_eq!(pool.ring_floor(), 2);
        assert!(!pool.epoch_servable(0));
        assert!(!pool.epoch_servable(1));
        assert!(pool.epoch_servable(2));
        assert!(pool.epoch_servable(3));
        assert_eq!(
            with_read_epoch(2, || pool.with_page(ids[0], |p| p.get_u32(0)).unwrap()),
            2
        );
    }

    #[test]
    fn retain_zero_retires_the_pre_commit_epoch_before_the_bump() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 0);
        let read0 = || with_read_epoch(0, || pool.with_page(ids[0], |p| p.get_u32(0)).unwrap());
        // While the transaction runs, a pin on epoch 0 reads the pre-image.
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 5))?;
            assert_eq!(read0(), 0);
            assert!(pool.epoch_servable(0));
            Ok(())
        })
        .unwrap();
        // Sealed, not yet bumped: the pin now reads the post-commit frame,
        // so epoch 0 must already be unservable although it is still the
        // counter's value.
        assert_eq!(epoch.load(Ordering::SeqCst), 0);
        assert_eq!(read0(), 5);
        assert!(!pool.epoch_servable(0), "epoch 0 served a post-commit page");
        assert_eq!(pool.ring_floor(), 1);
        assert_eq!(pool.ring_depth(), 0);
        epoch.fetch_add(1, Ordering::SeqCst);
        assert!(pool.epoch_servable(1));
    }

    #[test]
    fn empty_commits_also_seal_and_advance_the_floor() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 1);
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 1))
        });
        // A commit that dirties nothing still seals an (empty) delta, so
        // the floor advances uniformly.
        commit_and_bump::<StorageError>(&pool, &epoch, || Ok(()));
        assert_eq!(pool.ring_floor(), 1);
        assert!(!pool.epoch_servable(0));
    }

    #[test]
    fn ring_barrier_collapses_the_window_to_now() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        for v in 1..=2u32 {
            commit_and_bump::<StorageError>(&pool, &epoch, || {
                pool.with_page_mut(ids[0], |p| p.put_u32(0, v))
            });
        }
        assert!(pool.epoch_servable(0));
        pool.ring_barrier();
        assert_eq!(pool.ring_depth(), 0);
        assert_eq!(pool.ring_floor(), 2);
        assert!(!pool.epoch_servable(1));
        assert!(pool.epoch_servable(2));
    }

    #[test]
    fn rolled_back_txn_leaves_no_ring_residue() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        let err: Result<(), StorageError> = pool.atomic_update(|| {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 99))?;
            Err(StorageError::Io(std::io::Error::other("abort")))
        });
        assert!(err.is_err());
        // No delta sealed, no open capture left behind; the next commit
        // starts from a clean slate and epoch 0 still reads the original.
        assert_eq!(pool.ring_depth(), 0);
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 1))
        });
        assert_eq!(
            with_read_epoch(0, || pool.with_page(ids[0], |p| p.get_u32(0)).unwrap()),
            0
        );
    }

    #[test]
    fn savepoint_rollback_unwinds_exactly_the_member_suffix() {
        let (pool, ids) = pool(8);
        pool.txn_begin();
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        pool.txn_savepoint().unwrap();
        // The member touches a page the txn already owns (ids[0]) and one
        // it first dirties itself (ids[1]).
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 9)).unwrap();
        pool.with_page_mut(ids[1], |p| p.put_u32(0, 9)).unwrap();
        pool.txn_rollback_to_savepoint().unwrap();
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u32(0)).unwrap(), 0);
        pool.txn_commit().unwrap();
        // The pre-member work survives the commit; the unwound suffix is
        // gone for good.
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u32(0)).unwrap(), 0);
    }

    #[test]
    fn released_savepoints_count_batch_members_in_the_wal() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log: Arc<MemDisk> = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data, 8);
        let wal = Arc::new(Wal::open(log).unwrap());
        pool.attach_wal(wal.clone());
        pool.txn_begin();
        for (i, id) in ids.iter().take(3).enumerate() {
            pool.txn_savepoint().unwrap();
            pool.with_page_mut(*id, |p| p.put_u32(0, i as u32 + 1))
                .unwrap();
            pool.txn_release_savepoint().unwrap();
        }
        pool.txn_commit().unwrap();
        let s = wal.stats();
        assert_eq!(s.batch_commits, 1);
        assert_eq!(s.batched_members, 3);
    }

    #[test]
    fn savepoint_rollback_after_member_eviction_restores_the_disk_image() {
        // Capacity 2 forces the member's dirty page out to disk before the
        // rollback; the savepoint must restore the pre-member image anyway.
        let (pool, ids) = pool(2);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 5)).unwrap();
        pool.flush_all().unwrap();
        pool.txn_begin();
        pool.txn_savepoint().unwrap();
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 77)).unwrap();
        // Touch two other pages so ids[0] is evicted while dirty.
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap();
        pool.txn_rollback_to_savepoint().unwrap();
        pool.txn_commit().unwrap();
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 5);
    }

    /// A single-shard pool of `capacity` frames over `pages` fresh pages.
    fn scan_pool(capacity: usize, pages: usize) -> (BufferPool, Vec<PageId>) {
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..pages).map(|_| disk.allocate_page().unwrap()).collect();
        (BufferPool::new(disk, capacity), ids)
    }

    /// Reads `ids` in order `passes` times; the physical reads of each pass.
    fn cyclic_pass_misses(pool: &BufferPool, ids: &[PageId], passes: usize) -> Vec<u64> {
        (0..passes)
            .map(|_| {
                let before = pool.stats().physical_reads;
                for &id in ids {
                    pool.with_page(id, |_| ()).unwrap();
                }
                pool.stats().physical_reads - before
            })
            .collect()
    }

    #[test]
    fn cyclic_scan_larger_than_the_pool_keeps_most_pages_resident() {
        // 96 pages cycled through 64 frames: exact LRU would evict every
        // page just before its next use and miss all 96 on every pass.
        let run = || {
            let (pool, ids) = scan_pool(64, 96);
            cyclic_pass_misses(&pool, &ids, 10)
        };
        let misses = run();
        assert_eq!(misses[0], 96, "the first pass is cold");
        assert!(
            misses[1..].iter().all(|&m| m <= 40),
            "bimodal insertion must keep most of the scan resident: {misses:?}"
        );
        assert_eq!(misses, vec![96, 34, 34, 34, 34, 34, 34, 34, 34, 34]);
        assert_eq!(run(), misses, "the promotion schedule is deterministic");
    }

    #[test]
    fn new_working_set_migrates_in_within_the_bound() {
        let (pool, ids) = scan_pool(64, 136);
        let (scan, fresh) = ids.split_at(96);
        cyclic_pass_misses(&pool, scan, 10);
        // A disjoint 40-page set read cyclically must become fully resident
        // (a pass with zero misses) within (BIP_PROMOTE_EVERY + 1) × 40
        // read misses.
        let mut total = 0;
        loop {
            let m = cyclic_pass_misses(&pool, fresh, 1)[0];
            if m == 0 {
                break;
            }
            total += m;
            assert!(
                total <= (BIP_PROMOTE_EVERY + 1) * fresh.len() as u64,
                "migration exceeded its bound after {total} misses"
            );
        }
        assert_eq!(total, 1231);
    }

    #[test]
    fn write_misses_enter_at_the_mru_end() {
        // Two frames hold a (older) and b; a miss on c evicts a. A read miss
        // keeps a's LRU-end stamp, so the next miss (d) evicts c again; a
        // write miss takes the fresh tick, so d evicts b and c survives.
        for write in [false, true] {
            let (pool, ids) = scan_pool(2, 4);
            let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
            pool.with_page(a, |_| ()).unwrap();
            pool.with_page(b, |_| ()).unwrap();
            if write {
                pool.with_page_mut(c, |p| p.put_u32(0, 3)).unwrap();
            } else {
                pool.with_page(c, |_| ()).unwrap();
            }
            pool.with_page(d, |_| ()).unwrap();
            let survivor = if write { c } else { b };
            let before = pool.stats().physical_reads;
            pool.with_page(survivor, |_| ()).unwrap();
            assert_eq!(pool.stats().physical_reads, before, "write miss: {write}");
        }
    }
}
