//! Integration tests for the dataset substrate: every scenario family, at
//! word-boundary universes and beyond, must round-trip through the compiled
//! CSR artifact *exactly* — identical offsets, neighbors, and edge count —
//! and corrupted or truncated artifacts must be rejected (and healed by the
//! cache), never silently decoded into a wrong graph.

use std::path::PathBuf;

use radio_bench::scenarios::Family;
use radio_graph::artifact::ArtifactError;
use radio_graph::dataset::{read_artifact, write_artifact, DatasetCache};

/// A scratch directory under the cargo-managed target tmpdir, unique per
/// test so parallel test binaries never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("datasets")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every family the sweep can ask for, with a representative parameter set.
fn all_families() -> Vec<Family> {
    vec![
        Family::Path,
        Family::Cycle,
        Family::Grid,
        Family::GridHilbert,
        Family::Tree { arity: 3 },
        Family::Star,
        Family::Lollipop,
        Family::Complete,
        Family::CompleteMinusEdge,
        Family::Disjointness {
            intersecting: false,
        },
        Family::Disjointness { intersecting: true },
    ]
}

#[test]
fn every_family_round_trips_byte_identically_at_word_boundaries() {
    // The word-boundary universes are where a bitset- or u32-packing bug
    // would bite: one under, at, and over the 64- and 128-bit marks.
    let dir = scratch("roundtrip");
    let cache = DatasetCache::new(&dir);
    for family in all_families() {
        for size in [63usize, 64, 65, 127, 128, 200] {
            let built = family.build(size);
            let key = family.dataset_key(size);
            let path = cache.path_for(&key);
            write_artifact(&path, &key, &built).expect("write artifact");
            let decoded = read_artifact(&path, &key).expect("read artifact");
            let (bo, bn, be) = built.csr_parts();
            let (co, cn, ce) = decoded.csr_parts();
            assert_eq!(bo, co, "{} n={size}: offsets drifted", key.family);
            assert_eq!(bn, cn, "{} n={size}: neighbors drifted", key.family);
            assert_eq!(be, ce, "{} n={size}: edge count drifted", key.family);
            // Writing the same graph again produces the same bytes — the
            // artifact itself is deterministic, not just its decoding.
            let first = std::fs::read(&path).expect("read bytes");
            write_artifact(&path, &key, &built).expect("rewrite artifact");
            let second = std::fs::read(&path).expect("reread bytes");
            assert_eq!(
                first, second,
                "{} n={size}: artifact bytes unstable",
                key.family
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_load_or_build_round_trips_through_the_runner_families() {
    // The exact call path the sweep runner uses: load_or_build compiles on
    // miss, bulk-reads on hit, and both return the generator's graph.
    let dir = scratch("cache-path");
    let cache = DatasetCache::new(&dir);
    for family in all_families() {
        let key = family.dataset_key(128);
        let cold = cache.load_or_build(&key, || family.build(128));
        let warm = cache.load_or_build(&key, || panic!("must not rebuild on hit"));
        assert_eq!(cold.csr_parts(), warm.csr_parts(), "{}", key.family);
    }
    assert_eq!(cache.misses() as usize, all_families().len());
    assert_eq!(cache.hits() as usize, all_families().len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_truncated_artifacts_are_rejected() {
    let dir = scratch("corrupt");
    let family = Family::Grid;
    let key = family.dataset_key(128);
    let graph = family.build(128);
    let path = dir.join(key.file_name());
    write_artifact(&path, &key, &graph).expect("write artifact");
    let good = std::fs::read(&path).expect("read bytes");

    // Corrupt header: flip a magic byte.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    assert!(
        matches!(read_artifact(&path, &key), Err(ArtifactError::Format(_))),
        "corrupt magic must be a format error"
    );

    // Corrupt payload: flip one neighbor byte (checksum must catch it).
    let mut bad = good.clone();
    let mid = good.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    assert!(
        read_artifact(&path, &key).is_err(),
        "flipped payload byte must not decode"
    );

    // Truncation at several cut points, including mid-header.
    for cut in [0usize, 10, 39, good.len() / 2, good.len() - 1] {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(
            matches!(read_artifact(&path, &key), Err(ArtifactError::Format(_))),
            "truncation at {cut} must be a format error"
        );
    }

    // Trailing garbage is rejected too — an artifact is exactly its format.
    let mut bad = good.clone();
    bad.push(0);
    std::fs::write(&path, &bad).unwrap();
    assert!(read_artifact(&path, &key).is_err(), "trailing garbage");

    // And the cache treats all of that as a miss and heals the entry.
    std::fs::write(&path, &good[..20]).unwrap();
    let cache = DatasetCache::new(&dir);
    let healed = cache.load_or_build(&key, || family.build(128));
    assert_eq!(healed.csr_parts(), graph.csr_parts());
    assert_eq!(cache.misses(), 1);
    let reread = read_artifact(&cache.path_for(&key), &key).expect("healed artifact");
    assert_eq!(reread.csr_parts(), graph.csr_parts());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_keys_never_decode_another_familys_artifact() {
    // Same realized graph, different key (path vs cycle at the same n have
    // different keys even if sizes collide): the key hash in the header
    // must refuse a lookup under any other key.
    let dir = scratch("foreign");
    let grid_key = Family::Grid.dataset_key(128);
    let hilbert_key = Family::GridHilbert.dataset_key(128);
    let path = dir.join("shared.csr");
    write_artifact(&path, &grid_key, &Family::Grid.build(128)).unwrap();
    assert!(read_artifact(&path, &grid_key).is_ok());
    assert!(
        matches!(
            read_artifact(&path, &hilbert_key),
            Err(ArtifactError::Format(_))
        ),
        "grid artifact must not decode under the hilbert key"
    );
    std::fs::remove_dir_all(&dir).ok();
}
