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
//!   n}`. Its FNV-1a [`DatasetKey::content_hash`] is baked into both the
//!   artifact file name and the header, so a foreign artifact can never be
//!   read as the wrong graph.
//! * [`write_artifact`] / [`read_artifact`] — the dataset payload in the
//!   shared [`artifact`] frame, whose stamp is a fingerprint of
//!   [`LAYOUT_VERSION`]: the realized `n`, the edge count, then `u32`
//!   offsets and neighbor ids. Writes go through [`write_atomic`] (a
//!   uniquely named temp file + rename), so readers never observe a
//!   half-written artifact and concurrent writers of one key never
//!   collide.
//! * [`DatasetCache`] — `load_or_build` over a cache directory (the runner
//!   uses `target/datasets/`): a valid artifact is a **hit** (bulk read, no
//!   generator run); a missing, corrupt or stale one is a **miss**
//!   (rebuild, then best-effort re-store). Hit/miss counters let smoke
//!   tests assert the second run of a sweep compiles nothing.
//! * [`hilbert`] — the opt-in space-filling-curve vertex order for grids
//!   (COST-style cache-aware layout). Relabeling changes neighbor
//!   iteration order, which feeds RNG-ordered delivery draws, so the
//!   layout is only used by scenarios that opted in; see the module docs.
//!
//! The artifact is an *exact* round-trip: `read_artifact` returns a graph
//! whose [`Graph::csr_parts`] equal the generator output's, revalidated
//! through [`Graph::from_csr_parts`] on every load.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::artifact::{self, fnv1a, format_err, write_atomic, ArtifactError, Frame, FNV_OFFSET};
use crate::graph::Graph;

/// Version of the dataset payload encoding; bumped whenever it changes, so
/// readers never misparse old files. Version 2 moved the realized `n` and
/// the edge count from a dataset-only header into the payload of the
/// shared artifact frame.
pub const FORMAT_VERSION: u32 = 2;

/// Version of the vertex/edge *layout* conventions (row-major grids,
/// curve-rank Hilbert relabeling). Its fingerprint is the stamp of every
/// dataset artifact, and the result store folds it into its engine
/// fingerprint: a layout change refuses every artifact built under the old
/// conventions instead of silently reusing them.
pub const LAYOUT_VERSION: u32 = 1;

const FRAME: Frame = Frame {
    magic: *b"RGDS",
    version: FORMAT_VERSION,
    stamp: fnv1a(
        fnv1a(FNV_OFFSET, b"radio-graph-dataset"),
        &LAYOUT_VERSION.to_le_bytes(),
    ),
    stamp_name: "layout stamp",
};

/// Identity of a compiled dataset: the deterministic generator inputs
/// `{family, params, n}`. `n` is the *target* size handed to the generator;
/// the realized node count lives in the payload (families like grids round
/// down). The layout conventions are not part of the key but the stamp.
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

    /// The content hash over `{family, params, n}` — the artifact's
    /// identity on disk. Field boundaries are delimited with NUL bytes so
    /// `("ab", "c")` and `("a", "bc")` cannot collide.
    pub fn content_hash(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.family.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, self.params.as_bytes());
        h = fnv1a(h, &[0]);
        fnv1a(h, &(self.n as u64).to_le_bytes())
    }

    /// The artifact file name, `<family>-n<target>-<hash>.csr`.
    pub fn file_name(&self) -> String {
        artifact::file_name(
            &self.family,
            &format!("n{}", self.n),
            self.content_hash(),
            "csr",
        )
    }
}

/// Serializes `graph` into the dataset payload: realized `n` and edge count
/// as `u64`, then offsets and neighbor ids as `u32`.
fn encode(graph: &Graph) -> Result<Vec<u8>, ArtifactError> {
    let (offsets, neighbors, num_edges) = graph.csr_parts();
    if neighbors.len() > u32::MAX as usize {
        return format_err(format!(
            "graph has {} neighbor entries; the u32 artifact format caps at {}",
            neighbors.len(),
            u32::MAX
        ));
    }
    let mut out = Vec::with_capacity(16 + 4 * (offsets.len() + neighbors.len()));
    out.extend_from_slice(&(graph.num_nodes() as u64).to_le_bytes());
    out.extend_from_slice(&(num_edges as u64).to_le_bytes());
    for &o in offsets {
        out.extend_from_slice(&(o as u32).to_le_bytes());
    }
    for &v in neighbors {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    Ok(out)
}

/// Decodes a dataset payload; the arrays pass through
/// [`Graph::from_csr_parts`], so a payload that violates the CSR invariants
/// is an error, never a graph.
fn decode(payload: &[u8]) -> Result<Graph, ArtifactError> {
    let field = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    let array_words = payload.len().saturating_sub(16) / 4;
    if payload.len() < 16 || !payload.len().is_multiple_of(4) || field(0) >= array_words as u64 {
        return format_err(format!(
            "{}-byte payload does not hold a CSR graph",
            payload.len()
        ));
    }
    let (offsets, neighbors) = payload[16..].split_at(4 * (field(0) as usize + 1));
    let words = |bytes: &[u8]| -> Vec<usize> {
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
            .collect()
    };
    Graph::from_csr_parts(words(offsets), words(neighbors), field(8) as usize).or_else(format_err)
}

/// Writes the artifact for `(key, graph)` to `path` atomically through
/// [`write_atomic`].
pub fn write_artifact(path: &Path, key: &DatasetKey, graph: &Graph) -> Result<(), ArtifactError> {
    let bytes = FRAME.seal(key.content_hash(), &encode(graph)?);
    Ok(write_atomic(path, &bytes)?)
}

/// Bulk-reads and validates the artifact at `path` for `key`.
///
/// Every failure mode is a typed [`ArtifactError`] rather than a panic:
/// whatever the frame refuses ([`Frame::open`]: a wrong magic, version,
/// layout stamp or key hash, truncation, trailing garbage, a checksum
/// mismatch), a payload that does not hold the arrays it promises, and CSR
/// invariant violations.
pub fn read_artifact(path: &Path, key: &DatasetKey) -> Result<Graph, ArtifactError> {
    let bytes = std::fs::read(path)?;
    decode(FRAME.open(&bytes, key.content_hash())?)
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
    pub fn load(&self, key: &DatasetKey) -> Result<Graph, ArtifactError> {
        read_artifact(&self.path_for(key), key)
    }

    /// Compiles and stores `graph` as `key`'s artifact, returning its path.
    pub fn store(&self, key: &DatasetKey, graph: &Graph) -> Result<PathBuf, ArtifactError> {
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

    /// The artifact of `path(4)` under the key `("path", "", 4)`, byte for
    /// byte: a change that re-encodes the caches users already hold fails
    /// here.
    const PATH4_ARTIFACT: &str = concat!(
        "52474453",                                         // magic
        "02000000",                                         // format version
        "225b4f0a099bbbb0",                                 // key hash
        "cd1c1d2895051338",                                 // layout stamp
        "3c00000000000000",                                 // payload length
        "04000000000000000300000000000000",                 // n, edges
        "0000000001000000030000000500000006000000",         // offsets
        "010000000000000002000000010000000300000002000000", // neighbors
        "c0fa788c9a0998e9",                                 // payload checksum
    );

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
            .collect()
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
        // The pinned bytes decode to path(4) and re-encode to themselves.
        let key = DatasetKey::new("path", "", 4);
        let path = scratch.0.join(key.file_name());
        let pinned = hex(PATH4_ARTIFACT);
        std::fs::write(&path, &pinned).expect("write pinned bytes");
        let decoded = read_artifact(&path, &key).expect("pinned bytes decode");
        assert_eq!(decoded.csr_parts(), generators::path(4).csr_parts());
        write_artifact(&path, &key, &decoded).expect("re-encode");
        assert_eq!(std::fs::read(&path).expect("re-read"), pinned);
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
        assert!(matches!(err, ArtifactError::Format(_)), "{err}");
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
        // A payload the frame accepts but that claims more nodes than it
        // holds offsets for is refused by the codec, never indexed past.
        let lying = FRAME.seal(
            key.content_hash(),
            &[u64::MAX.to_le_bytes(), [0; 8]].concat(),
        );
        std::fs::write(cache.path_for(&key), lying).expect("forge payload");
        let err = cache.load(&key).expect_err("oversized n must fail");
        assert!(err.to_string().contains("CSR graph"), "{err}");
    }
}
