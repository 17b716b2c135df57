//! Shared immutable CSR datasets with a content-addressed build cache.
//!
//! Sweep runners burn most of their setup time rebuilding deterministic
//! generator outputs — the same grid, path, or tree compiled once per
//! process (or worse, once per cell). This module compiles a generator's
//! output **once** into a compact binary CSR artifact on disk and
//! thereafter bulk-reads it into an immutable [`Arc<Graph>`] that the whole
//! worker pool shares by refcount:
//!
//! * [`DatasetKey`] — the identity of a compiled dataset: `{family, params,
//!   n, layout-version}`. Its FNV-1a [`DatasetKey::content_hash`] is baked
//!   into both the artifact file name and the header, so a stale or
//!   foreign artifact can never be read as the wrong graph.
//! * [`write_artifact`] / [`read_artifact`] — the versioned binary format:
//!   a fixed header (magic, format version, key hash, realized `n`, edge
//!   count), `u32` offsets and neighbor ids, and a trailing payload
//!   checksum. Writes go through [`write_atomic`] (a uniquely named temp
//!   file + rename), so readers never observe a half-written artifact and
//!   concurrent writers of one key never collide.
//! * [`DatasetCache`] — `load_or_build` over a cache directory (the runner
//!   uses `target/datasets/`): a valid artifact is a **hit** (bulk read, no
//!   generator run); a missing or corrupt one is a **miss** (rebuild, then
//!   best-effort re-store). Hit/miss counters let smoke tests assert the
//!   second run of a sweep compiles nothing.
//! * [`hilbert`] — the opt-in space-filling-curve vertex order for grids
//!   (COST-style cache-aware layout). Relabeling changes neighbor
//!   iteration order, which feeds RNG-ordered delivery draws, so the
//!   layout is only used by scenarios that opted in; see the module docs.
//!
//! The artifact is an *exact* round-trip: `read_artifact` returns a graph
//! whose [`Graph::csr_parts`] equal the generator output's, revalidated
//! through [`Graph::from_csr_parts`] on every load.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::graph::Graph;

/// Version of the on-disk artifact format; bumped whenever the header or
/// payload encoding changes, so readers never misparse old files.
pub const FORMAT_VERSION: u32 = 1;

/// Version of the vertex/edge *layout* conventions (row-major grids,
/// curve-rank Hilbert relabeling). Part of every [`DatasetKey`] hash: a
/// layout change re-keys every artifact instead of silently reusing graphs
/// built under the old conventions.
pub const LAYOUT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"RGDS";
/// magic + format version + key hash + n + num_edges + neighbors len.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;

/// 64-bit FNV-1a over `bytes` — the (non-cryptographic) content hash used
/// for dataset keys and payload checksums. Stable across platforms and
/// independent of `std`'s randomized hashers.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Identity of a compiled dataset: the deterministic generator inputs
/// `{family, params, n}` plus the crate's [`LAYOUT_VERSION`]. `n` is the
/// *target* size handed to the generator; the realized node count lives in
/// the artifact header (families like grids round down).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DatasetKey {
    /// Family label, e.g. `grid`, `path`, `tree3`.
    pub family: String,
    /// Canonical parameter string of the family (empty when the target size
    /// is the only parameter).
    pub params: String,
    /// Target node count fed to the generator.
    pub n: usize,
}

impl DatasetKey {
    /// A key for `family` with `params` at target size `n`.
    pub fn new(family: impl Into<String>, params: impl Into<String>, n: usize) -> Self {
        DatasetKey {
            family: family.into(),
            params: params.into(),
            n,
        }
    }

    /// The content hash over `{family, params, n, layout-version}` — the
    /// artifact's identity on disk. Field boundaries are delimited with NUL
    /// bytes so `("ab", "c")` and `("a", "bc")` cannot collide.
    pub fn content_hash(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.family.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, self.params.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &(self.n as u64).to_le_bytes());
        h = fnv1a(h, &[0]);
        fnv1a(h, &LAYOUT_VERSION.to_le_bytes())
    }

    /// The artifact file name, `<family>-n<target>-<hash>.csr`, with the
    /// family label sanitized to filesystem-safe characters. The hash makes
    /// the name unique even when labels collide after sanitization.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .family
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}-n{}-{:016x}.csr", self.n, self.content_hash())
    }
}

/// Why a dataset artifact could not be read (or written).
#[derive(Debug)]
pub enum DatasetError {
    /// The underlying filesystem operation failed (missing file, permission
    /// denied, disk full, ...).
    Io(std::io::Error),
    /// The file exists but is not a valid artifact for the requested key:
    /// wrong magic or format version, truncated or oversized payload,
    /// checksum mismatch, a foreign key hash, or CSR arrays violating the
    /// [`Graph`] invariants.
    Format(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset io error: {e}"),
            DatasetError::Format(msg) => write!(f, "malformed dataset artifact: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, DatasetError> {
    Err(DatasetError::Format(msg.into()))
}

/// Serializes `graph` into the artifact byte format for `key`.
fn encode(key: &DatasetKey, graph: &Graph) -> Result<Vec<u8>, DatasetError> {
    let (offsets, neighbors, num_edges) = graph.csr_parts();
    if neighbors.len() > u32::MAX as usize {
        return format_err(format!(
            "graph has {} neighbor entries; the u32 artifact format caps at {}",
            neighbors.len(),
            u32::MAX
        ));
    }
    let n = graph.num_nodes();
    let mut out = Vec::with_capacity(HEADER_LEN + 4 * (offsets.len() + neighbors.len()) + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.content_hash().to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(num_edges as u64).to_le_bytes());
    out.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
    for &o in offsets {
        out.extend_from_slice(&(o as u32).to_le_bytes());
    }
    for &v in neighbors {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    let checksum = fnv1a(FNV_OFFSET, &out[HEADER_LEN..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Writes `bytes` to `path` atomically: they go to a sibling temp file
/// first and are renamed into place, so a concurrent reader sees either the
/// old file or the complete new one, never a prefix. The temp name carries
/// the process id and a process-wide counter, so concurrent writers of the
/// same `path` — threads or processes — never share a temp file; the last
/// rename wins. Both artifact stores (datasets here, scenario results in
/// the bench crate) write through this.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes the artifact for `(key, graph)` to `path` atomically through
/// [`write_atomic`].
pub fn write_artifact(path: &Path, key: &DatasetKey, graph: &Graph) -> Result<(), DatasetError> {
    Ok(write_atomic(path, &encode(key, graph)?)?)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Bulk-reads and validates the artifact at `path` for `key`.
///
/// Every failure mode is a typed [`DatasetError`] rather than a panic:
/// wrong magic/version, a key-hash mismatch (an artifact compiled for a
/// different dataset or layout version), truncation, trailing garbage, a
/// payload checksum mismatch, and CSR invariant violations (the decoded
/// arrays pass through [`Graph::from_csr_parts`]).
pub fn read_artifact(path: &Path, key: &DatasetKey) -> Result<Graph, DatasetError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN + 8 {
        return format_err(format!(
            "{} bytes is shorter than the {}-byte header",
            bytes.len(),
            HEADER_LEN + 8
        ));
    }
    if bytes[..4] != MAGIC {
        return format_err("bad magic (not a dataset artifact)");
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return format_err(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let key_hash = read_u64(&bytes, 8);
    if key_hash != key.content_hash() {
        return format_err(format!(
            "key hash {key_hash:016x} does not match requested key {:016x}",
            key.content_hash()
        ));
    }
    let n = read_u64(&bytes, 16) as usize;
    let num_edges = read_u64(&bytes, 24) as usize;
    let neighbors_len = read_u64(&bytes, 32) as usize;
    let payload = 4usize
        .checked_mul(n + 1)
        .and_then(|o| o.checked_add(4 * neighbors_len))
        .ok_or_else(|| DatasetError::Format("payload size overflows".into()))?;
    let expected = HEADER_LEN + payload + 8;
    if bytes.len() < expected {
        return format_err(format!(
            "truncated: {} bytes, header promises {expected}",
            bytes.len()
        ));
    }
    if bytes.len() > expected {
        return format_err(format!(
            "trailing garbage: {} bytes, header promises {expected}",
            bytes.len()
        ));
    }
    let checksum = read_u64(&bytes, expected - 8);
    let actual = fnv1a(FNV_OFFSET, &bytes[HEADER_LEN..expected - 8]);
    if checksum != actual {
        return format_err(format!(
            "payload checksum {actual:016x} does not match recorded {checksum:016x}"
        ));
    }
    let decode = |range: std::ops::Range<usize>| -> Vec<usize> {
        bytes[range]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
            .collect()
    };
    let offsets_end = HEADER_LEN + 4 * (n + 1);
    let offsets = decode(HEADER_LEN..offsets_end);
    let neighbors = decode(offsets_end..expected - 8);
    Graph::from_csr_parts(offsets, neighbors, num_edges).or_else(format_err)
}

/// A content-addressed build cache over one directory of artifacts.
///
/// `load_or_build` is the only call sites need: a valid artifact for the
/// key is bulk-read (**hit**); anything else — missing file, corrupt
/// header, stale layout version — falls back to the deterministic builder
/// and best-effort re-stores the result (**miss**). The returned
/// [`Arc<Graph>`] is what makes datasets *shared*: the runner hands clones
/// of the refcount to every worker instead of cloning CSR arrays.
///
/// Hit/miss counters are atomic so a sweep can report cache effectiveness
/// after running cells on many threads.
#[derive(Debug)]
pub struct DatasetCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DatasetCache {
    /// A cache over `dir` (created lazily on the first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DatasetCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s artifact lives (whether or not it exists yet).
    pub fn path_for(&self, key: &DatasetKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Reads `key`'s artifact, if present and valid.
    pub fn load(&self, key: &DatasetKey) -> Result<Graph, DatasetError> {
        read_artifact(&self.path_for(key), key)
    }

    /// Compiles and stores `graph` as `key`'s artifact, returning its path.
    pub fn store(&self, key: &DatasetKey, graph: &Graph) -> Result<PathBuf, DatasetError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(key);
        write_artifact(&path, key, graph)?;
        Ok(path)
    }

    /// The shared-dataset entry point: a valid artifact is a hit; otherwise
    /// `build` runs (a miss) and the result is re-stored best-effort — an
    /// unwritable cache directory degrades to building per process, never
    /// to an error on the sweep path.
    pub fn load_or_build<F: FnOnce() -> Graph>(&self, key: &DatasetKey, build: F) -> Arc<Graph> {
        if let Ok(g) = self.load(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::new(g);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let g = build();
        let _ = self.store(key, &g);
        Arc::new(g)
    }

    /// Artifacts served from disk so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Generator rebuilds (missing or invalid artifacts) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

pub mod hilbert {
    //! Hilbert space-filling-curve vertex order for grid graphs.
    //!
    //! A row-major grid interleaves vertices that are far apart on the
    //! curve of memory: row `r` and row `r+1` neighbors sit `cols` apart in
    //! the CSR arrays, so a BFS wavefront streams the whole structure once
    //! per row. Relabeling vertices by their rank along a Hilbert curve
    //! keeps 2-D-adjacent vertices close in vertex id, which keeps the
    //! frame kernels' bitset words and the CSR rows they touch hot in
    //! cache (the COST-style layout argument).
    //!
    //! **When is the relabeled graph safe to substitute?** The relabeled
    //! grid is isomorphic to the row-major one with vertex 0 fixed (cell
    //! `(0, 0)` has curve index 0), so any *relabel-invariant* observable —
    //! distance multisets from vertex 0, per-node participation-count
    //! multisets, round counts, outcome totals — is identical. What is
    //! **not** preserved is the identity of the RNG draw each vertex
    //! consumes (draws map to vertices in ascending-id order), so
    //! protocols whose *per-vertex* randomness feeds their observable
    //! (e.g. clustering) produce per-seed-different, same-distribution
    //! results. The default sweep therefore never uses this layout; only
    //! scenarios that opted in (the `xl-grid-hilbert` family) do.

    use crate::graph::Graph;

    fn rotate(n: u64, x: &mut u64, y: &mut u64, rx: u64, ry: u64) {
        if ry == 0 {
            if rx == 1 {
                *x = n - 1 - *x;
                *y = n - 1 - *y;
            }
            std::mem::swap(x, y);
        }
    }

    /// Index of cell `(x, y)` along the Hilbert curve over a `side × side`
    /// square; `side` must be a power of two. Cell `(0, 0)` has index 0.
    pub fn xy_to_d(side: u64, mut x: u64, mut y: u64) -> u64 {
        debug_assert!(side.is_power_of_two());
        let mut d = 0u64;
        let mut s = side / 2;
        while s > 0 {
            let rx = u64::from(x & s > 0);
            let ry = u64::from(y & s > 0);
            d += s * s * ((3 * rx) ^ ry);
            rotate(side, &mut x, &mut y, rx, ry);
            s /= 2;
        }
        d
    }

    /// Cell `(x, y)` of curve index `d` over a `side × side` square — the
    /// inverse of [`xy_to_d`].
    pub fn d_to_xy(side: u64, d: u64) -> (u64, u64) {
        debug_assert!(side.is_power_of_two());
        let (mut x, mut y) = (0u64, 0u64);
        let mut t = d;
        let mut s = 1u64;
        while s < side {
            let rx = 1 & (t / 2);
            let ry = 1 & (t ^ rx);
            rotate(s, &mut x, &mut y, rx, ry);
            x += s * rx;
            y += s * ry;
            t /= 4;
            s *= 2;
        }
        (x, y)
    }

    /// The permutation `perm[old] = new` relabeling a `rows × cols`
    /// row-major grid by Hilbert-curve rank. The curve runs over the
    /// smallest power-of-two square covering the grid; out-of-bounds cells
    /// are skipped, so ranks are dense in `0..rows*cols`. Cell `(0, 0)` —
    /// vertex 0, every scenario's BFS source — always maps to rank 0.
    pub fn grid_permutation(rows: usize, cols: usize) -> Vec<usize> {
        let side = rows.max(cols).max(1).next_power_of_two() as u64;
        let mut by_d: Vec<(u64, usize)> = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                by_d.push((xy_to_d(side, c as u64, r as u64), r * cols + c));
            }
        }
        by_d.sort_unstable();
        let mut perm = vec![0usize; rows * cols];
        for (rank, &(_, old)) in by_d.iter().enumerate() {
            perm[old] = rank;
        }
        perm
    }

    /// A `rows × cols` grid relabeled along the Hilbert curve — same graph
    /// as [`crate::generators::grid`] up to the isomorphism of
    /// [`grid_permutation`].
    pub fn relabeled_grid(rows: usize, cols: usize) -> Graph {
        crate::generators::grid(rows, cols).relabel(&grid_permutation(rows, cols))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn curve_indices_round_trip_and_cover_the_square() {
            for side in [1u64, 2, 4, 8, 32] {
                let mut seen = vec![false; (side * side) as usize];
                for x in 0..side {
                    for y in 0..side {
                        let d = xy_to_d(side, x, y);
                        assert!(d < side * side);
                        assert!(!seen[d as usize], "index {d} hit twice");
                        seen[d as usize] = true;
                        assert_eq!(d_to_xy(side, d), (x, y), "side {side} d {d}");
                    }
                }
            }
        }

        #[test]
        fn consecutive_curve_indices_are_grid_neighbors() {
            // The defining locality property of the Hilbert curve — and the
            // reason the relabeled CSR is cache-friendlier: consecutive
            // vertex ids are 2-D-adjacent cells.
            let side = 16u64;
            for d in 0..side * side - 1 {
                let (x0, y0) = d_to_xy(side, d);
                let (x1, y1) = d_to_xy(side, d + 1);
                assert_eq!(
                    x0.abs_diff(x1) + y0.abs_diff(y1),
                    1,
                    "d {d}: ({x0},{y0}) -> ({x1},{y1})"
                );
            }
        }

        #[test]
        fn grid_permutation_is_a_permutation_fixing_the_origin() {
            for (rows, cols) in [(1usize, 1usize), (2, 2), (5, 3), (7, 7), (8, 8), (6, 10)] {
                let perm = grid_permutation(rows, cols);
                assert_eq!(perm.len(), rows * cols);
                assert_eq!(perm[0], 0, "{rows}x{cols}: origin must keep id 0");
                let mut seen = vec![false; perm.len()];
                for &p in &perm {
                    assert!(p < perm.len() && !seen[p]);
                    seen[p] = true;
                }
            }
        }

        #[test]
        fn relabeled_grid_is_isomorphic_to_the_row_major_grid() {
            let (rows, cols) = (6usize, 9usize);
            let plain = crate::generators::grid(rows, cols);
            let curved = relabeled_grid(rows, cols);
            assert_eq!(plain.num_nodes(), curved.num_nodes());
            assert_eq!(plain.num_edges(), curved.num_edges());
            let perm = grid_permutation(rows, cols);
            for (u, v) in plain.edges() {
                assert!(curved.has_edge(perm[u], perm[v]));
            }
            // Degree multisets agree (a cheap isomorphism witness).
            let mut a: Vec<usize> = plain.nodes().map(|v| plain.degree(v)).collect();
            let mut b: Vec<usize> = curved.nodes().map(|v| curved.degree(v)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// A per-test scratch directory under the system temp dir, removed on
    /// drop. No tempfile crate in the offline vendor set, so uniqueness
    /// comes from the pid + a monotone counter.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::AtomicU64;
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "radio-graph-dataset-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn artifacts_round_trip_byte_identically() {
        let scratch = ScratchDir::new("roundtrip");
        for (tag, g) in [
            ("path", generators::path(65)),
            ("grid", generators::grid(9, 7)),
            ("star", generators::star(64)),
            ("empty-ish", Graph::from_edges(3, &[])),
        ] {
            let key = DatasetKey::new(tag, "", g.num_nodes());
            let path = scratch.0.join(key.file_name());
            write_artifact(&path, &key, &g).expect("write");
            let back = read_artifact(&path, &key).expect("read");
            assert_eq!(back.csr_parts(), g.csr_parts(), "{tag}");
        }
    }

    #[test]
    fn concurrent_same_key_writes_all_succeed_and_read_back() {
        // Threads writing one key must never share a temp file: every write
        // returns Ok, and afterwards the key's artifact is the only file.
        let scratch = ScratchDir::new("same-key");
        let g = generators::grid(5, 5);
        let key = DatasetKey::new("grid", "", g.num_nodes());
        let path = scratch.0.join(key.file_name());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..1000 {
                        write_artifact(&path, &key, &g).expect("concurrent same-key write");
                    }
                });
            }
        });
        let back = read_artifact(&path, &key).expect("artifact reads back");
        assert_eq!(back.csr_parts(), g.csr_parts());
        let files = std::fs::read_dir(&scratch.0).expect("scratch dir").count();
        assert_eq!(files, 1, "temp files left behind");
    }

    #[test]
    fn key_hash_separates_fields_and_keys_the_file_name() {
        let a = DatasetKey::new("grid", "", 64);
        let b = DatasetKey::new("grid", "", 65);
        let c = DatasetKey::new("gri", "d", 64);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        assert!(a
            .file_name()
            .contains(&format!("{:016x}", a.content_hash())));
    }

    #[test]
    fn foreign_key_artifacts_are_rejected() {
        let scratch = ScratchDir::new("foreign");
        let g = generators::path(16);
        let written = DatasetKey::new("path", "", 16);
        let path = scratch.0.join(written.file_name());
        write_artifact(&path, &written, &g).expect("write");
        let other = DatasetKey::new("cycle", "", 16);
        let err = read_artifact(&path, &other).expect_err("foreign key must fail");
        assert!(matches!(err, DatasetError::Format(_)), "{err}");
    }

    #[test]
    fn cache_hits_after_one_build_and_survives_corruption() {
        let scratch = ScratchDir::new("cache");
        let cache = DatasetCache::new(scratch.0.clone());
        let key = DatasetKey::new("grid", "", 49);
        let built = cache.load_or_build(&key, || generators::grid(7, 7));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let loaded = cache.load_or_build(&key, || panic!("must not rebuild"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(loaded.csr_parts(), built.csr_parts());
        // Corrupt the artifact: the next load is a miss that rebuilds and
        // re-stores a valid artifact.
        std::fs::write(cache.path_for(&key), b"RGDSgarbage").expect("corrupt");
        let rebuilt = cache.load_or_build(&key, || generators::grid(7, 7));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(rebuilt.csr_parts(), built.csr_parts());
        let healed = cache.load(&key).expect("re-stored artifact");
        assert_eq!(healed.csr_parts(), built.csr_parts());
    }
}
