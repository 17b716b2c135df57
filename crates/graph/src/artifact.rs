//! The on-disk artifact frame shared by both content-addressed stores: the
//! compiled CSR datasets of [`crate::dataset`] and the per-cell result
//! records of the bench crate.
//!
//! An artifact is one file, all integers little-endian:
//!
//! | bytes | field |
//! |---|---|
//! | `0..4` | magic, naming the store |
//! | `4..8` | format version (`u32`) of the payload encoding |
//! | `8..16` | key hash (`u64`): the inputs the payload was computed from |
//! | `16..24` | stamp (`u64`): the code era the payload was computed under |
//! | `24..32` | payload length (`u64`) |
//! | `32..32+len` | payload |
//! | last 8 | FNV-1a checksum (`u64`) of the payload |
//!
//! The checksum covers the payload only. The key hash is part of the file
//! name, the stamp is not: after a version bump an old artifact is still
//! found under its name, refused by [`Frame::open`] with an error that
//! names the stamp, and healed in place by the store that asked.
//!
//! Each store declares one [`Frame`] and keeps only its key hash and its
//! payload codec; writing ([`Frame::seal`], [`write_atomic`]), validating
//! ([`Frame::open`]) and naming ([`file_name`]) happen here.

use std::fmt;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The FNV-1a 64-bit offset basis: the starting `hash` of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `hash` — the
/// (non-cryptographic) hash behind key hashes, stamps and payload
/// checksums. Stable across platforms and independent of `std`'s
/// randomized hashers; `const` so a store's [`Frame`] can be a constant.
pub const fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// Header length: magic, format version, key hash, stamp, payload length.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Why an artifact could not be read or written.
#[derive(Debug)]
pub enum ArtifactError {
    /// The filesystem operation failed (missing file, permission denied,
    /// disk full, ...).
    Io(std::io::Error),
    /// The file exists but is not a valid artifact for the requested key:
    /// a frame check failed, or the payload codec refused the payload.
    Format(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::Format(msg) => write!(f, "malformed artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// A [`ArtifactError::Format`] error with `msg`.
pub fn format_err<T>(msg: impl Into<String>) -> Result<T, ArtifactError> {
    Err(ArtifactError::Format(msg.into()))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One store's artifact frame: the header fields every artifact of the
/// store shares.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Four bytes naming the store.
    pub magic: [u8; 4],
    /// Version of the store's payload encoding.
    pub version: u32,
    /// Fingerprint of the code era whose artifacts this build serves.
    pub stamp: u64,
    /// What the stamp is called in errors, e.g. `engine fingerprint`.
    pub stamp_name: &'static str,
}

impl Frame {
    /// The artifact bytes for `payload` under `key_hash`: header, payload,
    /// payload checksum.
    pub fn seal(&self, key_hash: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&key_hash.to_le_bytes());
        out.extend_from_slice(&self.stamp.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a(FNV_OFFSET, payload).to_le_bytes());
        out
    }

    /// Validates `bytes` as this frame's artifact for `key_hash` and
    /// returns its payload. The checks run in order — length, magic,
    /// version, stamp, key hash, truncation, trailing bytes, checksum — and
    /// the first that fails is the error, so a stale artifact is reported
    /// by its stamp rather than by whatever else changed with it.
    pub fn open<'a>(&self, bytes: &'a [u8], key_hash: u64) -> Result<&'a [u8], ArtifactError> {
        if bytes.len() < HEADER_LEN + 8 {
            return format_err(format!(
                "{} bytes is shorter than the {}-byte header and checksum",
                bytes.len(),
                HEADER_LEN + 8
            ));
        }
        if bytes[..4] != self.magic {
            return format_err(format!(
                "bad magic (not a {} artifact)",
                String::from_utf8_lossy(&self.magic)
            ));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != self.version {
            return format_err(format!(
                "format version {version} (this build reads {})",
                self.version
            ));
        }
        let stamp = u64_at(bytes, 16);
        if stamp != self.stamp {
            return format_err(format!(
                "foreign {} {stamp:016x} (this build's is {:016x})",
                self.stamp_name, self.stamp
            ));
        }
        let found = u64_at(bytes, 8);
        if found != key_hash {
            return format_err(format!(
                "key hash {found:016x} does not match requested key {key_hash:016x}"
            ));
        }
        let expected = usize::try_from(u64_at(bytes, 24))
            .ok()
            .and_then(|len| len.checked_add(HEADER_LEN + 8))
            .ok_or_else(|| ArtifactError::Format("payload size overflows".into()))?;
        if bytes.len() != expected {
            let what = if bytes.len() < expected {
                "truncated"
            } else {
                "trailing garbage"
            };
            let len = bytes.len();
            return format_err(format!("{what}: {len} bytes, header promises {expected}"));
        }
        let payload = &bytes[HEADER_LEN..expected - 8];
        let recorded = u64_at(bytes, expected - 8);
        let actual = fnv1a(FNV_OFFSET, payload);
        if recorded != actual {
            return format_err(format!(
                "payload checksum {actual:016x} does not match recorded {recorded:016x}"
            ));
        }
        Ok(payload)
    }

    /// Whether the file at `path` starts with this frame's magic, version
    /// and stamp — the artifacts of this store that this build can serve,
    /// judged from the header alone.
    pub fn header_matches(&self, path: &Path) -> bool {
        let mut header = [0u8; HEADER_LEN];
        let read = std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut header));
        read.is_ok()
            && header[..4] == self.magic
            && header[4..8] == self.version.to_le_bytes()
            && u64_at(&header, 16) == self.stamp
    }
}

/// The artifact file name `<label>-<tag>-<hash>.<ext>`, with `label`
/// sanitized to ASCII alphanumerics, `-` and `_`. The key hash keeps names
/// unique even when sanitized labels collide.
pub fn file_name(label: &str, tag: &str, key_hash: u64, ext: &str) -> String {
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{tag}-{key_hash:016x}.{ext}")
}

/// Writes `bytes` to `path` atomically: they go to a sibling temp file
/// first and are renamed into place, so a concurrent reader sees either the
/// old file or the complete new one, never a prefix. The temp name carries
/// the process id and a process-wide counter, so concurrent writers of the
/// same `path` — threads or processes — never share a temp file; the last
/// rename wins.
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

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: Frame = Frame {
        magic: *b"TEST",
        version: 3,
        stamp: 0x5157,
        stamp_name: "test stamp",
    };

    #[test]
    fn open_returns_the_sealed_payload_and_names_each_failed_check() {
        let good = FRAME.seal(7, b"payload");
        assert_eq!(good.len(), HEADER_LEN + 7 + 8);
        assert_eq!(FRAME.open(&good, 7).expect("valid"), b"payload");
        let forged = |at: usize| {
            let mut bytes = good.clone();
            bytes[at] ^= 0xff;
            bytes
        };
        let mut trailing = good.clone();
        trailing.push(0);
        let cases = [
            (good[..HEADER_LEN].to_vec(), 7, "shorter than"),
            (forged(0), 7, "bad magic"),
            (forged(4), 7, "format version"),
            (forged(16), 7, "foreign test stamp"),
            (good.clone(), 8, "key hash"),
            (good[..good.len() - 1].to_vec(), 7, "truncated"),
            (trailing, 7, "trailing garbage"),
            (forged(HEADER_LEN), 7, "checksum"),
        ];
        for (bytes, key_hash, expected) in cases {
            let err = FRAME.open(&bytes, key_hash).expect_err(expected);
            assert!(matches!(err, ArtifactError::Format(_)), "{err}");
            assert!(err.to_string().contains(expected), "{expected}: {err}");
        }
    }
}
