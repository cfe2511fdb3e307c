//! Set-up shared by every workload: parse the workload's XML text, build the
//! secured database, save an image, and reopen it from disk until it can
//! serve. `setup_s` is the median of several such rounds.

use crate::report::{median, Outcome};
use secure_xml::xml::Document;
use secure_xml::{DbError, SecureXmlDb};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Buffer-pool bytes of the default configuration (1024 frames of 4 KiB).
pub const POOL_BYTES: u64 = 1024 * 4096;

/// Read phases per pass; the closed-loop workloads run an edit burst after
/// each, so edits and reads are both sampled across the whole run.
pub const PHASES: usize = 5;

/// SplitMix64: derives independent generator seeds from the run's seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A working directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_out").join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// Where the traced run writes its spans (kept after the run).
    pub fn trace_path(&self, args: &crate::Args) -> PathBuf {
        Path::new(".bench_out").join(format!("trace-{}-{}.csv", args.workload, args.seed))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Size of a file in bytes (0 when absent).
pub fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// The write-ahead log paired with an image.
pub fn wal_of(image: &Path) -> PathBuf {
    let mut s = image.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

/// The opened database and what its set-up cost.
pub struct Ready {
    pub db: SecureXmlDb,
    pub image: PathBuf,
    pub nodes: u64,
}

/// Runs `rounds` set-up rounds of `text` through `build` and keeps the last
/// reopened database. Records `setup_s`, `xml.parse_ms`, `core.build_ms`
/// and the DOL's size as it stands after set-up.
pub fn prepare(
    text: &str,
    expect_nodes: usize,
    rounds: usize,
    dir: &Path,
    out: &mut Outcome,
    build: impl Fn(Document) -> Result<SecureXmlDb, DbError>,
) -> Result<Ready, DbError> {
    let (mut total, mut parse, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready = None;
    for r in 0..rounds {
        let image = dir.join(format!("setup{r}.img"));
        let t0 = Instant::now();
        let doc = secure_xml::xml::parse(text)?;
        let t1 = Instant::now();
        if doc.len() != expect_nodes {
            out.mismatch(format!(
                "parsed {} nodes, generator made {expect_nodes}",
                doc.len()
            ));
        }
        let built = build(doc)?;
        let t2 = Instant::now();
        built.save_to(&image)?;
        let db = SecureXmlDb::open_from(&image)?;
        let t3 = Instant::now();
        drop(built);
        total.push((t3 - t0).as_secs_f64());
        parse.push((t1 - t0).as_secs_f64() * 1e3);
        build_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if let Some(Ready { db, image, .. }) = ready.replace(Ready {
            nodes: db.len() as u64,
            db,
            image: image.clone(),
        }) {
            drop(db);
            let _ = std::fs::remove_file(wal_of(&image));
            let _ = std::fs::remove_file(&image);
        }
    }
    let ready = ready.expect("at least one set-up round");
    let dol = ready.db.dol_stats()?;
    out.set("setup_s", median(&total));
    out.set("xml.parse_ms", median(&parse));
    out.set("core.build_ms", median(&build_ms));
    out.set("core.transitions", dol.transitions as f64);
    out.set("core.codebook_entries", dol.codebook_entries as f64);
    out.set("core.dol_bytes", dol.total_bytes() as f64);
    out.fact("setup_rounds", rounds);
    out.fact("nodes", ready.nodes);
    out.fact("image_bytes", file_len(&ready.image));
    out.fact("pool_bytes", POOL_BYTES);
    Ok(ready)
}
