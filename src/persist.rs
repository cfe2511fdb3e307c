//! Database persistence: save/load a [`SecureXmlDb`] to a page file, with
//! crash-consistent updates through the write-ahead log.
//!
//! The on-disk layout (version 2, "journaled image") is self-describing:
//!
//! ```text
//! page 0      catalog: magic, version, struct chain head, meta chain head
//! other pages NoK structure blocks (chained), value-log pages, and
//!             meta-blob pages (chained), wherever allocation placed them
//! ```
//!
//! Unlike the version-1 layout (contiguous sections, index rebuilt by
//! scanning the value log), nothing here assumes fixed page ranges: the
//! catalog stores the *chain heads*, and a chained **meta blob** carries the
//! codebook bytes, the tag-name table, and an explicit serialized value
//! index. That makes the whole image updatable in place: every update
//! transaction on a persistent database rewrites the meta blob and the
//! catalog inside the same [`BufferPool::atomic_update`] as the structural
//! pages, so the write-ahead log recovers catalog, meta and data together —
//! the reopened database is in exactly the before- or after-state of each
//! update. (Superseded meta pages are not reclaimed in place;
//! [`SecureXmlDb::save_to`] compacts the image.)
//!
//! A database at `path` pairs with its log at `path + ".wal"`.
//! [`SecureXmlDb::open_from`] replays the log *before* reading any page, so
//! a crash between page flushes is invisible to the reader.

use crate::{DbConfig, DbError, SecureXmlDb};
use dol_core::{Codebook, EmbeddedDol};
use dol_nok::{build_tag_index, build_value_index};
use dol_storage::disk::StorageError;
use dol_storage::{
    BPlusTree, BufferPool, Disk, FileDisk, PageId, StoreConfig, StructStore, ValueStore, Wal,
    PAYLOAD_SIZE,
};
use dol_xml::{Document, NodeId, TagId, TagInterner};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u32 = 0x444F_4C58; // "DOLX"
/// Current image version. v3 extends the codebook blob with the group
/// table and in-flight compaction-plan state (both self-describing inside
/// the blob — see `Codebook::to_bytes`); the catalog layout is unchanged,
/// so v2 images load as-is.
const VERSION: u32 = 3;
/// Versions this build can open.
const SUPPORTED: [u32; 2] = [2, 3];

/// Payload bytes per meta-blob page after the `[next u32][len u32]` header.
const BLOB_CAP: usize = PAYLOAD_SIZE - 8;

struct Catalog {
    struct_first: PageId,
    max_records: u32,
    meta_head: PageId,
    meta_bytes: u64,
    total_nodes: u64,
}

fn invalid_data(msg: impl Into<String>) -> DbError {
    DbError::Storage(StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        msg.into(),
    )))
}

/// The log file that pairs with a database file: `<path>.wal`.
fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    os.into()
}

/// Writes `bytes` as a fresh chained blob; returns the head page.
fn write_blob(pool: &BufferPool, bytes: &[u8]) -> Result<PageId, StorageError> {
    let mut chunks = bytes.chunks(BLOB_CAP).peekable();
    let head = pool.allocate_page()?;
    let mut page = head;
    loop {
        let chunk = chunks.next().unwrap_or(&[]);
        let next = if chunks.peek().is_some() {
            pool.allocate_page()?
        } else {
            PageId::INVALID
        };
        pool.with_page_mut(page, |p| {
            p.put_u32(0, next.0);
            p.put_u32(4, chunk.len() as u32);
            p.put_bytes(8, chunk);
        })?;
        if !next.is_valid() {
            return Ok(head);
        }
        page = next;
    }
}

/// Reads a chained blob of `total` bytes starting at `head`.
fn read_blob(pool: &BufferPool, head: PageId, total: u64) -> Result<Vec<u8>, DbError> {
    // Page budget: the chain cannot be longer than the image, so a catalog
    // claiming more bytes than that is refused before anything is allocated.
    let budget = u64::from(pool.disk().num_pages()) * BLOB_CAP as u64;
    if total > budget {
        return Err(invalid_data(format!(
            "catalog claims a {total}-byte meta blob, the image holds at most {budget}"
        )));
    }
    let mut out = Vec::with_capacity(total as usize);
    let mut page = head;
    // Chain-length bound: a cycle or a lying catalog terminates the walk.
    let max_pages = (total as usize).div_ceil(BLOB_CAP) + 1;
    for _ in 0..max_pages {
        if !page.is_valid() {
            break;
        }
        let next = pool.with_page(page, |p| {
            let next = PageId(p.get_u32(0));
            let len = p.get_u32(4) as usize;
            if len > BLOB_CAP {
                return Err(format!("meta page {page} claims {len} bytes"));
            }
            out.extend_from_slice(p.get_bytes(8, len));
            Ok(next)
        })?;
        page = next.map_err(invalid_data)?;
    }
    if out.len() as u64 != total {
        return Err(invalid_data(format!(
            "meta blob is {} bytes, catalog says {total}",
            out.len()
        )));
    }
    Ok(out)
}

/// The deserialized meta blob.
struct MetaParts {
    codebook: Codebook,
    tag_blob: Vec<u8>,
    value_pages: Vec<PageId>,
    value_tail: u64,
    value_index: Vec<(u64, u64, u32)>,
}

fn encode_meta(codebook: &Codebook, tag_blob: &[u8], values: &ValueStore) -> Vec<u8> {
    let cb = codebook.to_bytes();
    let mut out = Vec::with_capacity(cb.len() + tag_blob.len() + 64);
    out.extend_from_slice(&(cb.len() as u64).to_le_bytes());
    out.extend_from_slice(&cb);
    out.extend_from_slice(&(tag_blob.len() as u64).to_le_bytes());
    out.extend_from_slice(tag_blob);
    out.extend_from_slice(&values.log_tail().to_le_bytes());
    let pages = values.log_pages();
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for p in pages {
        out.extend_from_slice(&p.0.to_le_bytes());
    }
    let n = values.len() as u64;
    out.extend_from_slice(&n.to_le_bytes());
    for (pos, off, len) in values.index_entries() {
        out.extend_from_slice(&pos.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out
}

/// Decodes the meta blob of an image whose block chain holds `total_nodes`
/// nodes: every value-index position must name one of them.
fn decode_meta(bytes: &[u8], total_nodes: u64) -> Result<MetaParts, DbError> {
    struct Reader<'a>(&'a [u8]);
    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
            if self.0.len() < n {
                return Err(invalid_data("meta blob truncated"));
            }
            let (head, rest) = self.0.split_at(n);
            self.0 = rest;
            Ok(head)
        }
        fn u32(&mut self) -> Result<u32, DbError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
        }
        fn u64(&mut self) -> Result<u64, DbError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
        }
        /// A count of `record`-byte records that must fit in the rest of
        /// the blob: bounds the preallocation by the bytes actually there.
        fn count(&self, n: u64, record: usize) -> Result<usize, DbError> {
            if n > (self.0.len() / record) as u64 {
                return Err(invalid_data(format!(
                    "meta blob claims {n} records of {record} bytes in {} bytes",
                    self.0.len()
                )));
            }
            Ok(n as usize)
        }
    }
    let mut r = Reader(bytes);
    let cb_len = r.u64()? as usize;
    let codebook = Codebook::from_bytes(r.take(cb_len)?).map_err(invalid_data)?;
    let tag_len = r.u64()? as usize;
    let tag_blob = r.take(tag_len)?.to_vec();
    let value_tail = r.u64()?;
    let n_pages = r.u32()?;
    let n_pages = r.count(n_pages.into(), 4)?;
    let mut value_pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        value_pages.push(PageId(r.u32()?));
    }
    let n_index = r.u64()?;
    let n_index = r.count(n_index, 20)?;
    let mut value_index = Vec::with_capacity(n_index);
    for _ in 0..n_index {
        let pos = r.u64()?;
        if pos >= total_nodes {
            return Err(invalid_data(format!(
                "value index names node {pos} of {total_nodes}"
            )));
        }
        let off = r.u64()?;
        let len = r.u32()?;
        value_index.push((pos, off, len));
    }
    Ok(MetaParts {
        codebook,
        tag_blob,
        value_pages,
        value_tail,
        value_index,
    })
}

/// The complete read-side state decoded from an image: everything
/// [`SecureXmlDb`] mirrors in memory. Produced by [`load_image`], consumed
/// by [`SecureXmlDb::open_on`] (fresh handle) and [`SecureXmlDb::recover`]
/// (rebuilding a poisoned handle's mirrors in place).
pub(crate) struct LoadedImage {
    pub(crate) doc: Document,
    pub(crate) store: StructStore,
    pub(crate) values: ValueStore,
    pub(crate) codebook: Codebook,
    pub(crate) tag_index: BPlusTree<TagId, Vec<u64>>,
    pub(crate) value_index: BPlusTree<(TagId, u64), Vec<u64>>,
}

/// Loads a version-2 image through `pool`: catalog, structure chain, meta
/// blob, value store, master document, and both B+-tree indexes. The pool's
/// cache must reflect the durable page state (fresh pool, or one whose cache
/// was discarded after write-ahead-log recovery).
pub(crate) fn load_image(pool: &Arc<BufferPool>) -> Result<LoadedImage, DbError> {
    let cat = pool
        .with_page(PageId(0), |p| {
            if p.get_u32(0) != MAGIC {
                return Err("not a secure-xml database file".to_string());
            }
            if !SUPPORTED.contains(&p.get_u32(4)) {
                return Err(format!("unsupported version {}", p.get_u32(4)));
            }
            Ok(Catalog {
                struct_first: PageId(p.get_u32(8)),
                max_records: p.get_u32(12),
                meta_head: PageId(p.get_u32(16)),
                meta_bytes: p.get_u64(20),
                total_nodes: p.get_u64(28),
            })
        })?
        .map_err(invalid_data)?;

    let store = StructStore::open_chain(
        pool.clone(),
        StoreConfig {
            max_records_per_block: cat.max_records as usize,
        },
        cat.struct_first,
    )?;
    if store.total_nodes() != cat.total_nodes {
        return Err(invalid_data(format!(
            "block chain holds {} nodes, catalog says {}",
            store.total_nodes(),
            cat.total_nodes
        )));
    }
    let meta = decode_meta(
        &read_blob(pool, cat.meta_head, cat.meta_bytes)?,
        cat.total_nodes,
    )?;
    let values = ValueStore::from_snapshot(
        pool.clone(),
        meta.value_pages,
        meta.value_tail,
        meta.value_index,
    )?;
    let mut tags = TagInterner::new();
    for name in String::from_utf8_lossy(&meta.tag_blob).split('\n') {
        tags.intern(name);
    }

    // Reconstruct the in-memory master document (tags + values).
    let mut doc = store.to_document(&tags)?;
    for (pos, _) in values.iter_lens() {
        doc.set_value(NodeId(pos as u32), values.get(pos)?.as_deref());
    }
    let tag_index = build_tag_index(&store)?;
    let value_index = build_value_index(&store, &values)?;
    Ok(LoadedImage {
        doc,
        store,
        values,
        codebook: meta.codebook,
        tag_index,
        value_index,
    })
}

fn write_catalog(pool: &BufferPool, cat: &Catalog) -> Result<(), StorageError> {
    pool.with_page_mut(PageId(0), |p| {
        p.put_u32(0, MAGIC);
        p.put_u32(4, VERSION);
        p.put_u32(8, cat.struct_first.0);
        p.put_u32(12, cat.max_records);
        p.put_u32(16, cat.meta_head.0);
        p.put_u64(20, cat.meta_bytes);
        p.put_u64(28, cat.total_nodes);
    })
}

impl SecureXmlDb {
    /// Serialized tag-name table ('\n'-joined interner contents).
    fn tag_blob(&self) -> Vec<u8> {
        let names: Vec<&str> = self.document().tags().iter().map(|(_, n)| n).collect();
        names.join("\n").into_bytes()
    }

    /// Rewrites the meta blob and the catalog on the *current* pool. Called
    /// inside every update transaction of a persistent database, so the
    /// catalog and meta recover atomically with the data pages. Superseded
    /// meta pages leak until the next [`save_to`](SecureXmlDb::save_to).
    pub(crate) fn rewrite_meta(&mut self) -> Result<(), DbError> {
        let meta = encode_meta(self.dol.codebook(), &self.tag_blob(), &self.values);
        let meta_head = write_blob(&self.pool, &meta)?;
        write_catalog(
            &self.pool,
            &Catalog {
                struct_first: self.store.block_info(0).page,
                max_records: self.store.config().max_records_per_block as u32,
                meta_head,
                meta_bytes: meta.len() as u64,
                total_nodes: self.store.total_nodes(),
            },
        )?;
        Ok(())
    }

    /// Writes a compact canonical image of the database onto `disk` (which
    /// must be empty): catalog on page 0, structure re-packed from page 1,
    /// then the value log and the meta blob.
    pub fn save_to_disk(&self, disk: Arc<dyn Disk>) -> Result<(), DbError> {
        let pool = Arc::new(BufferPool::new(disk, 256));
        let catalog_page = pool.allocate_page()?;
        debug_assert_eq!(catalog_page, PageId(0));

        // 1. Structure blocks, re-packed deterministically from page 1.
        let items = self
            .store()
            .read_block_range(0..self.store().block_count())?;
        let cfg = self.store().config();
        let new_store = StructStore::build(pool.clone(), cfg, items)?;

        // 2. Value log, re-packed in position order.
        let mut new_values = ValueStore::new(pool.clone());
        for (pos, _) in self.values().iter_lens() {
            let v = self.values().get(pos)?.expect("indexed value exists");
            new_values.put(pos, &v)?;
        }

        // 3. Meta blob (codebook + tags + value index) and catalog.
        let meta = encode_meta(self.dol().codebook(), &self.tag_blob(), &new_values);
        let meta_head = write_blob(&pool, &meta)?;
        write_catalog(
            &pool,
            &Catalog {
                struct_first: new_store.block_info(0).page,
                max_records: cfg.max_records_per_block as u32,
                meta_head,
                meta_bytes: meta.len() as u64,
                total_nodes: new_store.total_nodes(),
            },
        )?;
        pool.flush_all()?;
        pool.disk().sync()?;
        Ok(())
    }

    /// Writes the database to `path` atomically: the paired log at
    /// `path + ".wal"` is first drained to a logically empty state, then the
    /// image is built in `path + ".tmp"`, synced, renamed over `path`, and
    /// the parent directory is fsynced. The log is neutralized *before* the
    /// rename, so there is no window in which a stale log could replay over
    /// the fresh image, and never by truncating the file out-of-band:
    ///
    /// * on a live persistent handle saving to its own path, the pool is
    ///   [checkpointed](SecureXmlDb::checkpoint) *through the attached log*
    ///   (flush + sync + epoch bump, keeping the handle's cached log state
    ///   coherent), and the handle is then **poisoned** — the compacted
    ///   image has a different page layout, so further updates through this
    ///   handle must fail until it is reopened;
    /// * an orphan log at any other destination (left by a previously
    ///   opened database there) has its committed transactions recovered
    ///   onto the old image before the epoch bump, so a crash mid-save
    ///   still leaves the previous database exactly as it was.
    pub fn save_to(&self, path: &Path) -> Result<(), DbError> {
        let same_image = self.image_path.as_deref().is_some_and(|ip| {
            match (std::fs::canonicalize(ip), std::fs::canonicalize(path)) {
                (Ok(a), Ok(b)) => a == b,
                _ => ip == path,
            }
        });
        if same_image {
            // Flush + sync the data, epoch-bump the attached log.
            self.checkpoint()?;
        } else {
            let wal_file = wal_path(path);
            if wal_file.exists() {
                match Wal::open(Arc::new(FileDisk::open(&wal_file)?)) {
                    Ok(wal) if path.exists() => {
                        // Fold committed transactions into the old image and
                        // bump the epoch: the old database stays whole until
                        // the rename below, and nothing can replay after it.
                        wal.recover_onto(&FileDisk::open(path)?)
                            .map_err(DbError::Storage)?;
                    }
                    Ok(wal) => wal.checkpoint().map_err(DbError::Storage)?,
                    // An unreadable orphan log recovers nothing: reset it.
                    Err(_) => {
                        FileDisk::create(&wal_file)?;
                    }
                }
            }
        }
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        self.save_to_disk(Arc::new(FileDisk::create(&tmp)?))?;
        std::fs::rename(&tmp, path).map_err(StorageError::Io)?;
        // The rename must itself be durable before the save is reported
        // done: fsync the directory holding the entry.
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(StorageError::Io)?,
            _ => {}
        }
        if same_image {
            // The live handle's pool still addresses the superseded layout:
            // updates through it would log pages that mean nothing in the
            // compacted image. Queries stay valid (the old file handle
            // survives the rename); updates require a reopen. This poison is
            // *detached* — the image on disk no longer matches this pool, so
            // [`SecureXmlDb::recover`] refuses it too: only a reopen from
            // the path can continue.
            self.detached
                .store(true, std::sync::atomic::Ordering::Release);
            self.poisoned
                .store(true, std::sync::atomic::Ordering::Release);
        }
        Ok(())
    }

    /// Opens a database previously written by
    /// [`save_to`](SecureXmlDb::save_to), running write-ahead-log recovery
    /// from the paired `path + ".wal"` first. The returned database is
    /// *persistent*: every update transactionally rewrites the image.
    pub fn open_from(path: &Path) -> Result<SecureXmlDb, DbError> {
        let data: Arc<dyn Disk> = Arc::new(FileDisk::open(path)?);
        let wal = wal_path(path);
        let wal: Arc<dyn Disk> = if wal.exists() {
            Arc::new(FileDisk::open(&wal)?)
        } else {
            Arc::new(FileDisk::create(&wal)?)
        };
        let mut db = Self::open_on(data, wal, DbConfig::default())?;
        db.image_path = Some(path.to_path_buf());
        Ok(db)
    }

    /// Opens a database image on explicit data and log disks: replays the
    /// log onto `data` (redoing committed transactions, discarding torn
    /// tails), then loads the image and attaches the log so further updates
    /// are crash-consistent. The crash-recovery torture harness drives this
    /// with [`dol_storage::CrashDisk`]-wrapped [`dol_storage::MemDisk`]s.
    pub fn open_on(
        data: Arc<dyn Disk>,
        wal_disk: Arc<dyn Disk>,
        cfg: DbConfig,
    ) -> Result<SecureXmlDb, DbError> {
        Self::open_on_with_decisions(data, wal_disk, cfg, &[])
    }

    /// [`open_on`](Self::open_on) for a shard of a [`crate::ShardedDb`]:
    /// prepared transactions in the log whose global id appears in
    /// `decided` (the shard catalog's committed records) are redone like
    /// committed ones; undecided prepares are discarded (presumed abort).
    /// With an empty `decided` this *is* `open_on`.
    pub fn open_on_with_decisions(
        data: Arc<dyn Disk>,
        wal_disk: Arc<dyn Disk>,
        cfg: DbConfig,
        decided: &[u64],
    ) -> Result<SecureXmlDb, DbError> {
        let wal = Arc::new(Wal::open(wal_disk)?);
        wal.recover_onto_with_decisions(data.as_ref(), decided)?;

        let pool = Arc::new(BufferPool::new(data, cfg.buffer_pool_pages));
        let img = load_image(&pool)?;
        pool.attach_wal(wal);
        let epoch = Arc::new(std::sync::atomic::AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), cfg.epoch_retain);
        Ok(SecureXmlDb {
            doc: Arc::new(img.doc),
            store: Arc::new(img.store),
            values: Arc::new(img.values),
            dol: Arc::new(EmbeddedDol::from_codebook(img.codebook)),
            tag_index: Arc::new(img.tag_index),
            value_index: Arc::new(img.value_index),
            pool,
            epoch,
            caches: Arc::new(crate::reader::QueryCaches::default()),
            persistent: true,
            image_path: None,
            poisoned: std::sync::atomic::AtomicBool::new(false),
            detached: std::sync::atomic::AtomicBool::new(false),
            rollback_mirrors: std::sync::Mutex::new(None),
            in_batch: false,
            prepared: None,
            auto_compact_blocks: 0,
            in_maintenance: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Security;
    use dol_acl::{AccessibilityMap, SubjectId};
    use dol_xml::NodeId;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("secure-xml-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_open_roundtrip() {
        let xml = "<a><b att=\"7\"><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 4, 5, 6] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        let db = SecureXmlDb::from_document(doc, &map).unwrap();
        let path = tmp("roundtrip.dolx");
        db.save_to(&path).unwrap();

        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.document().to_xml(), db.document().to_xml());
        for p in 0..db.len() as u64 {
            for s in [SubjectId(0), SubjectId(1)] {
                assert_eq!(
                    back.accessible(p, s).unwrap(),
                    db.accessible(p, s).unwrap(),
                    "pos {p} subject {s}"
                );
            }
        }
        // Queries behave identically.
        for q in ["//c", "//d/e", "//b[@att=\"7\"]"] {
            for s in [Security::None, Security::BindingLevel(SubjectId(1))] {
                assert_eq!(
                    back.query(q, s).unwrap().matches,
                    db.query(q, s).unwrap().matches,
                    "{q}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_after_updates_preserves_state() {
        let xml = "<r><x>alpha</x><y><z>beta</z></y></r>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let mut db = SecureXmlDb::from_document(doc, &map).unwrap();
        db.set_subtree_access(2, SubjectId(0), false).unwrap();
        let extra = db.add_subject(Some(SubjectId(0))).unwrap();
        let path = tmp("updated.dolx");
        db.save_to(&path).unwrap();

        let back = SecureXmlDb::open_from(&path).unwrap();
        assert!(!back.accessible(2, SubjectId(0)).unwrap());
        assert!(back.accessible(1, extra).unwrap());
        assert_eq!(back.value(1).unwrap().as_deref(), Some("alpha"));
        assert_eq!(
            back.query("//z", Security::BindingLevel(SubjectId(0)))
                .unwrap()
                .matches
                .len(),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage.dolx");
        std::fs::write(&path, vec![0u8; 8192]).unwrap();
        assert!(SecureXmlDb::open_from(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn is_invalid_data(e: &DbError) -> bool {
        matches!(e, DbError::Storage(StorageError::Io(io))
            if io.kind() == std::io::ErrorKind::InvalidData)
    }

    /// Saves a small database to `name`; returns its path and a pool over
    /// the image file.
    fn saved_image(name: &str) -> (std::path::PathBuf, BufferPool) {
        let db = all_access_db("<a><b><c>v1</c></b><d>v2</d></a>");
        let path = tmp(name);
        db.save_to(&path).unwrap();
        let pool = BufferPool::new(Arc::new(FileDisk::open(&path).unwrap()), 16);
        (path, pool)
    }

    #[test]
    fn crafted_catalog_blob_length_is_refused_without_allocating() {
        for (i, meta_bytes) in [1u64 << 40, u64::MAX].into_iter().enumerate() {
            let (path, pool) = saved_image(&format!("crafted-catalog-{i}.dolx"));
            // Rewritten through the pool, so page 0's checksum stays valid.
            pool.with_page_mut(PageId(0), |p| p.put_u64(20, meta_bytes))
                .unwrap();
            pool.flush_all().unwrap();
            drop(pool);
            let err = SecureXmlDb::open_from(&path).err().expect("must refuse");
            assert!(is_invalid_data(&err), "meta_bytes {meta_bytes}: {err}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn crafted_meta_counts_are_refused_without_allocating() {
        let (path, pool) = saved_image("crafted-meta.dolx");
        let (head, total, nodes) = pool
            .with_page(PageId(0), |p| {
                (PageId(p.get_u32(16)), p.get_u64(20), p.get_u64(28))
            })
            .unwrap();
        let blob = read_blob(&pool, head, total).unwrap();
        assert!(decode_meta(&blob, nodes).is_ok());
        // Walk the layout to the two counts: codebook, tag table, tail.
        let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        let mut at = 8 + u64_at(0) as usize;
        at += 8 + u64_at(at) as usize + 8;
        let n_pages_at = at;
        let n_pages = u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
        let n_index_at = at + 4 + 4 * n_pages as usize;
        assert_eq!(
            blob.len(),
            n_index_at + 8 + 20 * u64_at(n_index_at) as usize
        );

        let mut crafted = blob.clone();
        crafted[n_pages_at..n_pages_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_invalid_data(
            &decode_meta(&crafted, nodes).err().unwrap()
        ));
        let mut crafted = blob;
        crafted[n_index_at..n_index_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(is_invalid_data(
            &decode_meta(&crafted, nodes).err().unwrap()
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crafted_value_index_position_is_refused() {
        let (path, pool) = saved_image("crafted-value-pos.dolx");
        let (head, total, nodes) = pool
            .with_page(PageId(0), |p| {
                (PageId(p.get_u32(16)), p.get_u64(20), p.get_u64(28))
            })
            .unwrap();
        let mut blob = read_blob(&pool, head, total).unwrap();
        // The index entries are the blob's tail, 20 bytes each, position
        // first: point the last one one past the last node.
        let last = blob.len() - 20;
        blob[last..last + 8].copy_from_slice(&nodes.to_le_bytes());
        // Written through the pool as a fresh chain, so every checksum
        // stays valid and only the position is hostile.
        let crafted = write_blob(&pool, &blob).unwrap();
        pool.with_page_mut(PageId(0), |p| p.put_u32(16, crafted.0))
            .unwrap();
        pool.flush_all().unwrap();
        drop(pool);
        let err = SecureXmlDb::open_from(&path).err().expect("must refuse");
        assert!(is_invalid_data(&err), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn updates_on_reopened_database_persist_without_save() {
        // The point of the journaled layout: a persistent database's updates
        // survive a plain drop + reopen, with no explicit save_to.
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(1), NodeId(0), true);
        let db = SecureXmlDb::from_document(doc, &map).unwrap();
        let path = tmp("journaled.dolx");
        db.save_to(&path).unwrap();
        drop(db);

        {
            let mut live = SecureXmlDb::open_from(&path).unwrap();
            live.set_subtree_access(3, SubjectId(1), true).unwrap();
            live.delete_subtree(1).unwrap();
            let s2 = live.add_subject(Some(SubjectId(1))).unwrap();
            assert!(live.accessible(1, s2).unwrap());
            live.checkpoint().unwrap();
        }
        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.len(), 4);
        assert!(
            back.accessible(1, SubjectId(1)).unwrap(),
            "d subtree granted"
        );
        assert!(back.accessible(1, SubjectId(2)).unwrap(), "copied subject");
        assert_eq!(back.value(2).unwrap().as_deref(), Some("v2"));
        std::fs::remove_file(&path).ok();
    }

    fn all_access_db(xml: &str) -> SecureXmlDb {
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        SecureXmlDb::from_document(doc, &map).unwrap()
    }

    #[test]
    fn stale_wal_never_replays_over_a_fresh_save() {
        // A handle dropped without a checkpoint leaves committed
        // transactions in the paired log; saving a *different* database to
        // the same path must not let them replay over the fresh image.
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let path = tmp("stale-wal.dolx");
        db.save_to(&path).unwrap();
        {
            let mut live = SecureXmlDb::open_from(&path).unwrap();
            live.delete_subtree(1).unwrap();
            // No checkpoint: the delete lives only in the log.
        }
        let db2 = all_access_db("<r><x>other</x></r>");
        db2.save_to(&path).unwrap();

        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.document().to_xml(), db2.document().to_xml());
        assert_eq!(back.value(1).unwrap().as_deref(), Some("other"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::wal_path(&path)).ok();
    }

    #[test]
    fn persistent_recover_matches_a_fresh_reopen() {
        use crate::DbConfig;
        use dol_storage::{FaultConfig, FaultDisk, MemDisk};
        use std::sync::Arc;
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        let fault = Arc::new(FaultDisk::new(
            data.clone(),
            FaultConfig {
                seed: 11,
                permanent_read_failure: 1.0,
                ..Default::default()
            },
        ));
        fault.set_armed(false);
        let wal = Arc::new(MemDisk::new());
        let mut live =
            SecureXmlDb::open_on(fault.clone(), wal.clone(), DbConfig::default()).unwrap();
        // A committed update that lives in the log.
        live.set_subtree_access(3, SubjectId(0), false).unwrap();
        let expect_xml = live.document().to_xml();

        // Poison: with the cache cold and reads failing permanently, the
        // next transaction dies inside its body.
        live.pool.clear_cache().unwrap();
        fault.set_armed(true);
        assert!(live.set_node_access(1, SubjectId(0), false).is_err());
        assert!(live.is_poisoned());
        fault.set_armed(false);

        // In-process recovery replays the log and rebuilds the mirrors.
        let report = live.recover().unwrap();
        assert!(report.is_some(), "persistent recovery replays the log");
        assert!(!live.is_poisoned());
        live.verify_integrity().unwrap();
        assert_eq!(live.document().to_xml(), expect_xml);
        assert!(!live.accessible(3, SubjectId(0)).unwrap());

        // Equivalent to dropping the handle and reopening the same disks.
        let back = SecureXmlDb::open_on(
            Arc::new(data.fork()),
            Arc::new(wal.fork()),
            DbConfig::default(),
        )
        .unwrap();
        assert_eq!(back.document().to_xml(), expect_xml);
        for p in 0..back.len() as u64 {
            assert_eq!(
                back.accessible(p, SubjectId(0)).unwrap(),
                live.accessible(p, SubjectId(0)).unwrap(),
                "pos {p}"
            );
        }

        // The healed handle accepts and persists updates again.
        live.set_node_access(1, SubjectId(0), false).unwrap();
        assert!(!live.accessible(1, SubjectId(0)).unwrap());
    }

    #[test]
    fn detached_handle_refuses_in_process_recovery() {
        use crate::DbError;
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let path = tmp("detached.dolx");
        db.save_to(&path).unwrap();
        let mut live = SecureXmlDb::open_from(&path).unwrap();
        live.delete_subtree(4).unwrap();
        // Same-path compaction detaches the handle from the on-disk layout:
        // recovery is impossible in process, only a reopen can continue.
        live.save_to(&path).unwrap();
        assert!(live.is_poisoned());
        assert!(matches!(live.recover(), Err(DbError::Poisoned)));
        assert!(live.is_poisoned());
        // Queries still serve (degraded mode on the old layout).
        assert_eq!(live.query("//c", Security::None).unwrap().matches.len(), 1);
        drop(live);
        let back = SecureXmlDb::open_from(&path).unwrap();
        back.verify_integrity().unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::wal_path(&path)).ok();
    }

    #[test]
    fn save_to_own_path_compacts_and_poisons() {
        use crate::DbError;
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let path = tmp("compact.dolx");
        db.save_to(&path).unwrap();

        let mut live = SecureXmlDb::open_from(&path).unwrap();
        live.delete_subtree(4).unwrap(); // a structural update in the log
        let expect = live.document().to_xml();
        // Compacting onto its own path checkpoints through the attached
        // log, then poisons the handle: its pool and cached log state
        // address the superseded layout.
        live.save_to(&path).unwrap();
        assert!(live.is_poisoned());
        assert!(matches!(
            live.set_node_access(1, SubjectId(0), false),
            Err(DbError::Poisoned)
        ));
        // Queries on the live handle keep working: the renamed-over inode
        // stays open underneath its pool.
        assert_eq!(live.query("//c", Security::None).unwrap().matches.len(), 1);
        drop(live);

        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.document().to_xml(), expect);
        assert_eq!(back.value(2).unwrap().as_deref(), Some("v1"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::wal_path(&path)).ok();
    }
}
