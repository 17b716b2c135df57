//! Content-addressed result store for scenario sweep records.
//!
//! A sweep cell is a pure function of its coordinates — `{scenario, family,
//! target size, seed, protocol spec, stack spec, active set}` plus the
//! engine that executes it — and PR 4's conformance harness proves the
//! output is byte-identical across runs and thread counts. That is exactly
//! the property that makes a cached [`ScenarioRecord`] trustable, so this
//! module gives every cell a versioned binary artifact on disk, in the
//! frame it shares with the dataset cache:
//!
//! * [`ResultKey`] — the identity of a cell. Its FNV-1a
//!   [`ResultKey::content_hash`] is baked into the artifact file name and
//!   header, so a foreign artifact can never be read as the wrong cell. The
//!   optional active set is part of the hash: a restricted-wavefront run
//!   can never alias the full-set run of the same cell.
//! * [`engine_stamp`] — the engine fingerprint, a hash of
//!   [`ENGINE_VERSION`] and the dataset layer's [`LAYOUT_VERSION`], is the
//!   stamp of every artifact, checked on read. Bump [`ENGINE_VERSION`]
//!   whenever record *semantics* change (a protocol's schedule, a stack's
//!   accounting, the record's field meanings): every existing artifact is
//!   then rejected as foreign-fingerprint and recomputed — stale results
//!   are never served silently. A layout bump does the same.
//! * [`write_artifact`] / [`read_artifact`] — the record payload codec in
//!   the shared [`radio_graph::artifact`] frame (magic `RRES`, format
//!   version, key hash, engine fingerprint, payload length, payload,
//!   payload checksum). Floats are stored as raw `f64` bits, so a cached
//!   record round-trips **bit-exactly** — warm-sweep JSON is
//!   byte-identical to cold, including the `{:.3}`-formatted mean. Writes
//!   go through [`radio_graph::artifact::write_atomic`] (a uniquely named
//!   temp file + rename), so a concurrent reader sees either nothing or a
//!   complete artifact, and concurrent writers of one key never collide.
//! * [`ResultStore`] — `get`/`put` over a cache directory (the runner uses
//!   `target/results/`): a valid artifact is a **hit**; a missing, corrupt,
//!   truncated, or foreign-fingerprint one is a **miss** that the caller
//!   heals by recomputing and re-storing. Atomic hit/miss counters feed the
//!   `[results]` stderr line the CI smoke asserts on.
//!
//! The store is what turns the scenario runner into an *incremental*
//! sweep: only absent cells are dispatched to the worker pool, so a warm
//! full sweep costs one directory of small file reads instead of the whole
//! computation — and the `serve` mode answers repeat queries without
//! recomputing anything.
//!
//! For serving, an optional **in-memory hot set**
//! ([`ResultStore::with_hot_set`]) sits in front of the artifacts: a
//! bounded LRU of decoded records keyed by [`ResultKey`], so the server's
//! warm hits skip the filesystem entirely. The hot set is a pure cache over
//! the decoded bytes: because a cell's record is deterministic, a hot
//! answer is bit-identical to a disk answer by construction, and tiny
//! capacities (heavy eviction) can never change a served byte — only which
//! tier answered. The store keeps no index: [`ResultStore::size`] (the
//! server's `stats`) walks the directory and checks each artifact header.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use radio_graph::artifact::{
    self, fnv1a, format_err, write_atomic, ArtifactError, Frame, FNV_OFFSET,
};
use radio_graph::dataset::LAYOUT_VERSION;

use crate::scenarios::ScenarioRecord;

/// Version of the on-disk artifact format; bumped whenever the header or
/// payload *encoding* changes, so readers never misparse old files.
/// Version 2 appended the diameter columns (`estimate`, `exact`, `agrees`)
/// after `target_n`; version-1 artifacts are rejected and recomputed.
pub const FORMAT_VERSION: u32 = 2;

/// Version of the execution engine's *record semantics*. Bump this whenever
/// a change makes previously computed records wrong — a protocol schedule
/// change, a stack accounting fix, a record field reinterpretation — and
/// every existing artifact becomes a foreign-fingerprint miss instead of a
/// silently stale hit. Pure refactors, new protocols, and new scenarios do
/// **not** need a bump: keys of unaffected cells still name the same
/// deterministic output.
pub const ENGINE_VERSION: u32 = 1;

/// The engine fingerprint for engine version `engine` over dataset layout
/// version `layout`: the stamp of every result artifact. Records depend on
/// the layout too (delivery draws map to vertices in id order), so a bump
/// of either version refuses every artifact of the old era. Not part of
/// the file name, so old artifacts are still *found* — and rejected with a
/// typed foreign-fingerprint error, which heals them as misses.
pub const fn engine_stamp(engine: u32, layout: u32) -> u64 {
    let h = fnv1a(FNV_OFFSET, b"radio-bench-results");
    fnv1a(fnv1a(h, &engine.to_le_bytes()), &layout.to_le_bytes())
}

const FRAME: Frame = Frame {
    magic: *b"RRES",
    version: FORMAT_VERSION,
    stamp: engine_stamp(ENGINE_VERSION, LAYOUT_VERSION),
    stamp_name: "engine fingerprint",
};

/// Identity of one sweep cell: everything its deterministic output depends
/// on, minus the engine (which lives in the artifact header as the
/// fingerprint). The *target* size is the coordinate — the realized `n`
/// is derived from it by the family and lives in the record.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Scenario name (part of the record payload, so part of the identity).
    pub scenario: String,
    /// Family label, e.g. `grid`, `tree3`.
    pub family: String,
    /// Target node count of the cell.
    pub target_n: usize,
    /// Seed of the cell.
    pub seed: u64,
    /// Registry protocol spec, e.g. `trivial_bfs:depth=64`.
    pub protocol_spec: String,
    /// Canonical stack label (`StackSpec::label`), e.g. `physical_cd:w1l4t`.
    pub stack: String,
    /// Optional restricted active set (`ProtocolInput::active`). `None` is
    /// the full vertex set; a `Some` set hashes element-wise, so restricted
    /// runs never alias full-set runs of the same cell.
    pub active: Option<Vec<usize>>,
}

impl ResultKey {
    /// The content hash over every key field. Field boundaries are
    /// NUL-delimited so adjacent strings cannot collide, and the active set
    /// is tagged by presence before its elements so `None` and `Some([])`
    /// differ.
    pub fn content_hash(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.scenario.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, self.family.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &(self.target_n as u64).to_le_bytes());
        h = fnv1a(h, &self.seed.to_le_bytes());
        h = fnv1a(h, self.protocol_spec.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, self.stack.as_bytes());
        h = fnv1a(h, &[0]);
        match &self.active {
            None => fnv1a(h, &[0]),
            Some(set) => {
                h = fnv1a(h, &[1]);
                h = fnv1a(h, &(set.len() as u64).to_le_bytes());
                for &v in set {
                    h = fnv1a(h, &(v as u64).to_le_bytes());
                }
                h
            }
        }
    }

    /// The artifact file name, `<scenario>-s<seed>-<hash>.rec`.
    pub fn file_name(&self) -> String {
        artifact::file_name(
            &self.scenario,
            &format!("s{}", self.seed),
            self.content_hash(),
            "rec",
        )
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// `Option<bool>` as one tag byte: 0 = `None`, 1 = `Some(false)`,
/// 2 = `Some(true)`.
fn push_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    out.push(match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

/// Encodes a record payload: length-prefixed strings, little-endian `u64`s,
/// the mean as raw `f64` bits (bit-exact round-trip — the warm-JSON
/// byte-identity rests on this), `Option` as a tag byte. Field order is
/// the record's declaration order.
fn encode_record(r: &ScenarioRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    push_str(&mut out, &r.scenario);
    push_str(&mut out, &r.family);
    out.extend_from_slice(&(r.n as u64).to_le_bytes());
    out.extend_from_slice(&r.seed.to_le_bytes());
    push_str(&mut out, &r.protocol);
    push_str(&mut out, &r.backend);
    push_str(&mut out, &r.energy_model);
    out.extend_from_slice(&r.lb_calls.to_le_bytes());
    out.extend_from_slice(&r.max_lb_energy.to_le_bytes());
    out.extend_from_slice(&r.mean_lb_energy.to_bits().to_le_bytes());
    push_opt_u64(&mut out, r.max_physical_energy);
    push_opt_u64(&mut out, r.physical_slots);
    out.extend_from_slice(&r.outcome.to_le_bytes());
    out.extend_from_slice(&(r.target_n as u64).to_le_bytes());
    push_opt_u64(&mut out, r.estimate);
    push_opt_u64(&mut out, r.exact);
    push_opt_bool(&mut out, r.agrees);
    out
}

/// A bounds-checked cursor over the payload bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ArtifactError> {
        if self.at + len > self.bytes.len() {
            return format_err(format!(
                "payload ends at byte {} but field needs {} more",
                self.bytes.len(),
                self.at + len - self.bytes.len()
            ));
        }
        let slice = &self.bytes[self.at..self.at + len];
        self.at += len;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).or_else(|e| format_err(format!("non-UTF-8 string: {e}")))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ArtifactError> {
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => format_err(format!("bad Option tag {t}")),
        }
    }

    fn opt_bool(&mut self) -> Result<Option<bool>, ArtifactError> {
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            t => format_err(format!("bad Option<bool> tag {t}")),
        }
    }
}

fn decode_record(payload: &[u8]) -> Result<ScenarioRecord, ArtifactError> {
    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let record = ScenarioRecord {
        scenario: r.string()?,
        family: r.string()?,
        n: r.u64()? as usize,
        seed: r.u64()?,
        protocol: r.string()?,
        backend: r.string()?,
        energy_model: r.string()?,
        lb_calls: r.u64()?,
        max_lb_energy: r.u64()?,
        mean_lb_energy: f64::from_bits(r.u64()?),
        max_physical_energy: r.opt_u64()?,
        physical_slots: r.opt_u64()?,
        outcome: r.u64()?,
        target_n: r.u64()? as usize,
        estimate: r.opt_u64()?,
        exact: r.opt_u64()?,
        agrees: r.opt_bool()?,
    };
    if r.at != payload.len() {
        return format_err(format!(
            "payload has {} trailing bytes after the record",
            payload.len() - r.at
        ));
    }
    Ok(record)
}

/// Writes the artifact for `(key, record)` to `path` atomically: bytes go
/// to a uniquely named sibling temp file first and are renamed into place,
/// so a concurrent reader sees either the old artifact or the complete new
/// one.
pub fn write_artifact(
    path: &Path,
    key: &ResultKey,
    record: &ScenarioRecord,
) -> Result<(), ArtifactError> {
    let bytes = FRAME.seal(key.content_hash(), &encode_record(record));
    Ok(write_atomic(path, &bytes)?)
}

/// Reads and validates the artifact at `path` for `key`.
///
/// Every failure mode is a typed [`ArtifactError`] rather than a panic:
/// whatever the frame refuses ([`Frame::open`]: a wrong magic or format
/// version, a **foreign engine fingerprint** — an artifact computed under
/// different record semantics, the [`ENGINE_VERSION`] staleness gate — a
/// key-hash mismatch, truncation, trailing garbage, a payload checksum
/// mismatch), a malformed payload, and a decoded record whose own
/// scenario/seed/target contradict the key (defense against hash
/// collisions and hand-edited files).
pub fn read_artifact(path: &Path, key: &ResultKey) -> Result<ScenarioRecord, ArtifactError> {
    let bytes = std::fs::read(path)?;
    let record = decode_record(FRAME.open(&bytes, key.content_hash())?)?;
    if record.scenario != key.scenario || record.seed != key.seed || record.target_n != key.target_n
    {
        return format_err(format!(
            "decoded record ({}, seed {}, target {}) contradicts the key ({}, seed {}, target {})",
            record.scenario, record.seed, record.target_n, key.scenario, key.seed, key.target_n
        ));
    }
    Ok(record)
}

/// Cumulative size of a store directory, for the server's `stats` answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSize {
    /// Number of `.rec` artifacts present.
    pub entries: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// A bounded LRU of decoded records. `cap == 0` disables the tier
/// entirely (every probe falls through to disk — the PR 8 behavior).
#[derive(Debug)]
struct HotSet {
    cap: usize,
    inner: Mutex<HotInner>,
}

#[derive(Debug)]
struct HotInner {
    map: HashMap<ResultKey, (ScenarioRecord, u64)>,
    /// Monotone access clock; the entry with the smallest tick is the
    /// least recently used and the first evicted.
    tick: u64,
}

impl HotSet {
    fn new(cap: usize) -> Self {
        HotSet {
            cap,
            inner: Mutex::new(HotInner {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    fn get(&self, key: &ResultKey) -> Option<ScenarioRecord> {
        if self.cap == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("hot set");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    fn insert(&self, key: &ResultKey, record: &ScenarioRecord) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("hot set");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key.clone(), (record.clone(), tick));
        // Evict by minimum tick. O(len) per eviction is fine at the
        // hundreds-of-entries capacities the server runs with.
        while inner.map.len() > self.cap {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// A content-addressed result cache over one directory of artifacts.
///
/// `get` answers a probe — a valid artifact is a **hit**, anything else
/// (missing, corrupt, foreign fingerprint) is a **miss** that the caller
/// heals by recomputing and `put`ting the fresh record back. `put` is
/// best-effort on the sweep path: an unwritable store degrades to
/// recomputing per process, never to an error. Counters are atomic so a
/// multi-threaded sweep — or the server's accept pool — can report
/// `[results] hits=… misses=…` afterwards, and the whole store is `Sync`:
/// one instance is shared by every connection handler.
///
/// Above the artifacts sits one serving tier, the **hot set** (opt-in via
/// [`ResultStore::with_hot_set`]): a bounded LRU of decoded records,
/// probed before disk. Hot answers count as hits *and* as
/// [`ResultStore::hot_hits`], so `hits == hot_hits + disk hits` always
/// holds.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    hot_hits: AtomicU64,
    hot: HotSet,
}

impl ResultStore {
    /// A store over `dir` (created lazily on the first `put`), with the
    /// hot set disabled — the sweep path's configuration, where every
    /// cell is probed at most once per run anyway.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hot_hits: AtomicU64::new(0),
            hot: HotSet::new(0),
        }
    }

    /// Enables an in-memory hot set holding up to `cap` decoded records
    /// (`0` disables it). The server turns this on so repeat queries skip
    /// disk entirely.
    pub fn with_hot_set(mut self, cap: usize) -> Self {
        self.hot = HotSet::new(cap);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s artifact lives (whether or not it exists yet).
    pub fn path_for(&self, key: &ResultKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Reads `key`'s artifact, if present and valid — no counter movement
    /// and no hot-set involvement; the counting entry point is
    /// [`ResultStore::get`].
    pub fn load(&self, key: &ResultKey) -> Result<ScenarioRecord, ArtifactError> {
        read_artifact(&self.path_for(key), key)
    }

    /// Probes the store: hot set first, then disk. A valid answer from
    /// either tier is a hit; anything else — missing file, corrupt bytes,
    /// foreign engine fingerprint — is a miss healed by the caller
    /// recomputing and [`ResultStore::put`]ting the record. Disk hits are
    /// promoted into the hot set.
    pub fn get(&self, key: &ResultKey) -> Option<ScenarioRecord> {
        if let Some(record) = self.hot.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
            return Some(record);
        }
        match self.load(key) {
            Ok(record) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.hot.insert(key, &record);
                Some(record)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `record` as `key`'s artifact, returning its path, and
    /// inserts it into the hot set.
    pub fn put(&self, key: &ResultKey, record: &ScenarioRecord) -> Result<PathBuf, ArtifactError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(key);
        write_artifact(&path, key, record)?;
        self.hot.insert(key, record);
        Ok(path)
    }

    /// Cells served from cache (hot set or disk) so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that found no valid artifact so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The subset of [`ResultStore::hits`] answered by the in-memory hot
    /// set without touching disk.
    pub fn hot_hits(&self) -> u64 {
        self.hot_hits.load(Ordering::Relaxed)
    }

    /// The hot set's capacity (0 = disabled).
    pub fn hot_capacity(&self) -> usize {
        self.hot.cap
    }

    /// Artifact count and total bytes, from a walk over the store
    /// directory: every `.rec` file whose header carries the right magic,
    /// format version, and the current engine fingerprint counts. Corrupt
    /// and foreign-era artifacts are skipped — the size is what this engine
    /// can serve — and a missing directory is an empty store.
    pub fn size(&self) -> StoreSize {
        let mut size = StoreSize::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return size;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("rec") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if FRAME.header_matches(&path) {
                size.entries += 1;
                size.bytes += meta.len();
            }
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Per-test scratch directory under the system temp dir, removed on
    /// drop (no tempfile crate in the offline vendor set).
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "radio-bench-results-{tag}-{}-{}",
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

    fn sample_key() -> ResultKey {
        ResultKey {
            scenario: "grid-small".into(),
            family: "grid".into(),
            target_n: 64,
            seed: 3,
            protocol_spec: "trivial_bfs".into(),
            stack: "abstract".into(),
            active: None,
        }
    }

    fn sample_record() -> ScenarioRecord {
        ScenarioRecord {
            scenario: "grid-small".into(),
            family: "grid".into(),
            n: 64,
            seed: 3,
            protocol: "trivial_bfs".into(),
            backend: "abstract".into(),
            energy_model: "uniform".into(),
            lb_calls: 17,
            max_lb_energy: 9,
            // A mean that does not round-trip through 3-decimal JSON — the
            // codec must preserve the exact bits anyway.
            mean_lb_energy: 1.0 / 3.0,
            max_physical_energy: Some(123),
            physical_slots: None,
            outcome: 64,
            target_n: 64,
            // Exercise all three diameter-column shapes through the codec:
            // present, present, and tri-state Some(false).
            estimate: Some(13),
            exact: Some(14),
            agrees: Some(false),
        }
    }

    /// The artifact of `sample_key()` and `sample_record()`, byte for byte:
    /// a change that re-encodes the stores users already hold fails here.
    const SAMPLE_ARTIFACT: &str = concat!(
        "52524553",                               // magic
        "02000000",                               // format version
        "c37e51dd4c2d4657",                       // key hash
        "348d1e43ffd21771",                       // engine fingerprint
        "9100000000000000",                       // payload length
        "0a000000677269642d736d616c6c",           // scenario
        "0400000067726964",                       // family
        "4000000000000000",                       // n
        "0300000000000000",                       // seed
        "0b0000007472697669616c5f626673",         // protocol
        "080000006162737472616374",               // backend
        "07000000756e69666f726d",                 // energy model
        "1100000000000000",                       // lb_calls
        "0900000000000000",                       // max_lb_energy
        "555555555555d53f",                       // mean_lb_energy bits
        "017b0000000000000000",                   // physical energy, slots
        "40000000000000004000000000000000",       // outcome, target_n
        "010d00000000000000010e0000000000000001", // estimate, exact, agrees
        "7db1f0da7927e87d",                       // payload checksum
    );

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    #[test]
    fn artifacts_round_trip_bit_exactly() {
        let scratch = ScratchDir::new("roundtrip");
        let key = sample_key();
        let record = sample_record();
        let path = scratch.0.join(key.file_name());
        write_artifact(&path, &key, &record).expect("write");
        let back = read_artifact(&path, &key).expect("read");
        assert_eq!(back, record);
        assert_eq!(
            back.mean_lb_energy.to_bits(),
            record.mean_lb_energy.to_bits(),
            "float bits must survive the codec exactly"
        );
        // The pinned bytes decode to the sample and re-encode to themselves.
        let pinned = hex(SAMPLE_ARTIFACT);
        std::fs::write(&path, &pinned).expect("write pinned bytes");
        let decoded = read_artifact(&path, &key).expect("pinned bytes decode");
        assert_eq!(decoded, record);
        write_artifact(&path, &key, &decoded).expect("re-encode");
        assert_eq!(std::fs::read(&path).expect("re-read"), pinned);
    }

    #[test]
    fn engine_stamp_changes_with_either_version() {
        let stamp = engine_stamp(ENGINE_VERSION, LAYOUT_VERSION);
        assert_eq!(FRAME.stamp, stamp);
        assert_ne!(stamp, engine_stamp(ENGINE_VERSION + 1, LAYOUT_VERSION));
        assert_ne!(stamp, engine_stamp(ENGINE_VERSION, LAYOUT_VERSION + 1));
    }

    #[test]
    fn key_hash_separates_every_field_including_the_active_set() {
        let base = sample_key();
        let mut other = base.clone();
        other.seed = 4;
        assert_ne!(base.content_hash(), other.content_hash());
        let mut spec = base.clone();
        spec.protocol_spec = "trivial_bfs:depth=5".into();
        assert_ne!(base.content_hash(), spec.content_hash());
        let mut stack = base.clone();
        stack.stack = "physical".into();
        assert_ne!(base.content_hash(), stack.content_hash());
        // The active-set satellite: None, Some([]) and two different sets
        // are four distinct identities.
        let mut empty = base.clone();
        empty.active = Some(vec![]);
        let mut lower = base.clone();
        lower.active = Some(vec![0, 1, 2]);
        let mut upper = base.clone();
        upper.active = Some(vec![3, 4, 5]);
        let hashes = [
            base.content_hash(),
            empty.content_hash(),
            lower.content_hash(),
            upper.content_hash(),
        ];
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "keys {i} and {j} collide");
            }
        }
        assert!(base
            .file_name()
            .contains(&format!("{:016x}", base.content_hash())));
    }

    #[test]
    fn corrupt_truncated_and_foreign_artifacts_are_typed_errors() {
        let scratch = ScratchDir::new("corrupt");
        let key = sample_key();
        let record = sample_record();
        let path = scratch.0.join(key.file_name());

        // Garbage bytes: bad magic.
        std::fs::write(&path, b"not an artifact at all").expect("write garbage");
        let err = read_artifact(&path, &key).expect_err("garbage must fail");
        assert!(matches!(err, ArtifactError::Format(_)), "{err}");

        // Truncation: a valid artifact cut short.
        write_artifact(&path, &key, &record).expect("write");
        let full = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &full[..full.len() - 5]).expect("truncate");
        let err = read_artifact(&path, &key).expect_err("truncated must fail");
        assert!(matches!(err, ArtifactError::Format(_)), "{err}");

        // Payload corruption under an intact header: checksum catches it.
        let mut flipped = full.clone();
        let mid = artifact::HEADER_LEN + 3;
        flipped[mid] ^= 0xff;
        std::fs::write(&path, &flipped).expect("flip payload byte");
        let err = read_artifact(&path, &key).expect_err("corrupt payload must fail");
        assert!(format!("{err}").contains("checksum"), "{err}");

        // A foreign key: the artifact belongs to a different cell.
        std::fs::write(&path, &full).expect("restore");
        let mut foreign = key.clone();
        foreign.seed = 99;
        let err = read_artifact(&path, &foreign).expect_err("foreign key must fail");
        assert!(format!("{err}").contains("key hash"), "{err}");

        // A foreign engine fingerprint: same key, different semantics era.
        let mut stale = full.clone();
        for b in &mut stale[16..24] {
            *b ^= 0xff;
        }
        // Recompute the checksum? No — the fingerprint lives in the header,
        // outside the checksummed payload, precisely so this check fires
        // first and names the real problem.
        std::fs::write(&path, &stale).expect("forge fingerprint");
        let err = read_artifact(&path, &key).expect_err("stale engine must fail");
        assert!(format!("{err}").contains("engine fingerprint"), "{err}");
    }

    #[test]
    fn store_counts_hits_and_misses_and_heals_corruption() {
        let scratch = ScratchDir::new("store");
        let store = ResultStore::new(scratch.0.clone());
        let key = sample_key();
        let record = sample_record();
        assert_eq!(store.get(&key), None);
        assert_eq!((store.hits(), store.misses()), (0, 1));
        store.put(&key, &record).expect("put");
        assert_eq!(store.get(&key).as_ref(), Some(&record));
        assert_eq!((store.hits(), store.misses()), (1, 1));
        let size = store.size();
        assert_eq!(size.entries, 1);
        assert!(size.bytes > 0);
        // Corrupt the artifact: the next get is a miss, and re-putting
        // heals the entry.
        std::fs::write(store.path_for(&key), b"RRESgarbage").expect("corrupt");
        assert_eq!(store.get(&key), None);
        assert_eq!((store.hits(), store.misses()), (1, 2));
        store.put(&key, &record).expect("re-put");
        assert_eq!(store.get(&key).as_ref(), Some(&record));
        assert_eq!((store.hits(), store.misses()), (2, 2));
    }

    #[test]
    fn empty_or_missing_store_directory_reports_zero_size() {
        let scratch = ScratchDir::new("size");
        let store = ResultStore::new(scratch.0.join("never-created"));
        assert_eq!(store.size(), StoreSize::default());
    }

    /// `count` distinct keys/records derived from the sample pair.
    fn keyed_records(count: u64) -> Vec<(ResultKey, ScenarioRecord)> {
        (0..count)
            .map(|seed| {
                let mut key = sample_key();
                key.seed = seed;
                let mut record = sample_record();
                record.seed = seed;
                record.lb_calls = 100 + seed;
                (key, record)
            })
            .collect()
    }

    #[test]
    fn hot_set_serves_warm_probes_without_disk_and_evicts_lru() {
        let scratch = ScratchDir::new("hot");
        let store = ResultStore::new(scratch.0.clone()).with_hot_set(2);
        assert_eq!(store.hot_capacity(), 2);
        let cells = keyed_records(3);
        for (key, record) in &cells {
            store.put(key, record).expect("put");
        }
        // Capacity 2 with 3 inserts: the oldest (seed 0) was evicted, so
        // its probe below reads disk.
        // Warm probe of a resident key answers from memory even after the
        // artifact is destroyed — the proof it never touched disk.
        std::fs::remove_file(store.path_for(&cells[2].0)).expect("remove artifact");
        assert_eq!(store.get(&cells[2].0).as_ref(), Some(&cells[2].1));
        assert_eq!(store.hot_hits(), 1);
        assert_eq!(store.hits(), 1);
        // The evicted key falls through to disk, is served, and is
        // promoted back into the hot set (evicting the LRU resident).
        assert_eq!(store.get(&cells[0].0).as_ref(), Some(&cells[0].1));
        assert_eq!((store.hits(), store.hot_hits()), (2, 1));
        assert_eq!(store.get(&cells[0].0).as_ref(), Some(&cells[0].1));
        assert_eq!((store.hits(), store.hot_hits()), (3, 2));
    }

    #[test]
    fn hot_set_answers_are_byte_identical_to_disk_answers() {
        let scratch = ScratchDir::new("hot-bytes");
        let cold = ResultStore::new(scratch.0.clone());
        let warm = ResultStore::new(scratch.0.clone()).with_hot_set(1);
        let cells = keyed_records(4);
        for (key, record) in &cells {
            cold.put(key, record).expect("put");
        }
        // Tiny capacity forces eviction churn on every probe; the records
        // must still match the hot-set-off store bit-for-bit.
        for _ in 0..3 {
            for (key, _) in &cells {
                let a = cold.get(key).expect("cold");
                let b = warm.get(key).expect("warm");
                assert_eq!(a, b);
                assert_eq!(a.mean_lb_energy.to_bits(), b.mean_lb_energy.to_bits());
            }
        }
    }

    #[test]
    fn concurrent_same_key_puts_all_succeed_and_read_back() {
        // Threads writing one key must never share a temp file: every put
        // returns Ok, and afterwards the key's artifact is the only file.
        let scratch = ScratchDir::new("same-key");
        let store = ResultStore::new(scratch.0.clone());
        let (key, record) = (sample_key(), sample_record());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..1000 {
                        store.put(&key, &record).expect("concurrent same-key put");
                    }
                });
            }
        });
        assert_eq!(store.load(&key).expect("artifact reads back"), record);
        let files = std::fs::read_dir(&scratch.0).expect("store dir").count();
        assert_eq!(files, 1, "temp files left behind");
    }

    #[test]
    fn size_walk_skips_foreign_and_corrupt_artifacts() {
        let scratch = ScratchDir::new("size-skip");
        let store = ResultStore::new(scratch.0.clone());
        let cells = keyed_records(2);
        for (key, record) in &cells {
            store.put(key, record).expect("put");
        }
        // Plant a garbage .rec and a stale-fingerprint .rec next to the
        // real ones; the size walk must not count either.
        std::fs::write(
            scratch.0.join("zz-garbage-s0-0000000000000000.rec"),
            b"junk",
        )
        .expect("garbage rec");
        let real = std::fs::read(store.path_for(&cells[0].0)).expect("read real");
        let mut foreign = real.clone();
        for b in &mut foreign[16..24] {
            *b ^= 0xff;
        }
        std::fs::write(
            scratch.0.join("zz-foreign-s0-ffffffffffffffff.rec"),
            &foreign,
        )
        .expect("foreign rec");
        let size = store.size();
        assert_eq!(size.entries, 2, "only servable artifacts count");
    }
}
