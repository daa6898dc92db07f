//! The on-disk store: atomic puts, verified gets, status walks.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::hash::fnv1a_128;
use crate::key::CellKey;
use crate::manifest::{StoreManifest, STORE_SCHEMA_VERSION};

/// Monotonic discriminator for temp-file names, so concurrent workers in
/// one process never collide before their atomic renames.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Errors opening or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, with the path involved.
    Io {
        /// What the store was doing.
        action: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The store on disk was created for a different campaign (different
    /// schema version, base seed, superpage setting, or config fingerprint).
    /// Its entries are invalid for this campaign; wipe the store or point at
    /// a fresh directory.
    ManifestMismatch {
        /// The store's root directory.
        root: PathBuf,
        /// Canonical manifest the caller expected.
        expected: String,
        /// Canonical manifest found on disk.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                action,
                path,
                source,
            } => write!(f, "{action} {}: {source}", path.display()),
            StoreError::ManifestMismatch { root, .. } => write!(
                f,
                "store at {} belongs to a different campaign (schema, seed, or config \
                 changed); wipe it or use a fresh directory",
                root.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result of probing the store for a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellLookup<V> {
    /// The cell is cached: its body was hash-verified on read and decoded
    /// into the value that was stored.
    Hit(V),
    /// The cell has not been computed.
    Miss,
    /// A file exists for the cell but is truncated or corrupted (header
    /// unparseable, wrong key, length or content hash mismatch), or its
    /// verified body no longer decodes (it predates a schema change). The
    /// caller should recompute and overwrite.
    Corrupt,
}

/// How [`CellStore::get_or_compute`] satisfied a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoSource {
    /// Served from the store (hash-verified and decoded; byte-identical to
    /// a fresh computation).
    Cached,
    /// Computed by this invocation and written through.
    Computed,
    /// Computed because a store entry existed but failed verification or
    /// decoding.
    Recomputed,
}

/// Counts from a full verification walk of the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoreStatus {
    /// Valid, hash-verified cell entries.
    pub entries: usize,
    /// Files in the cell directory that fail verification.
    pub corrupt: usize,
}

/// Per-cell header line: the first line of every cell file, followed by the
/// body bytes it describes.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CellHeader {
    store_schema: u32,
    key: String,
    content_fnv: String,
    bytes: usize,
}

impl CellHeader {
    /// The header a valid file for `body` under `key` carries.
    fn describe(key: &CellKey, body: &str) -> Self {
        Self {
            store_schema: STORE_SCHEMA_VERSION,
            key: key.hex(),
            content_fnv: format!("{:032x}", fnv1a_128(body.as_bytes())),
            bytes: body.len(),
        }
    }
}

/// A content-addressed store of campaign cells under one root directory.
///
/// Layout:
///
/// ```text
/// <root>/manifest.json      # canonical StoreManifest, byte-compared on open
/// <root>/cells/<key>.json   # header line + canonical cell JSON body
/// <root>/tmp/               # staging for atomic write-then-rename
/// ```
#[derive(Debug)]
pub struct CellStore {
    root: PathBuf,
}

impl CellStore {
    /// Opens (creating if absent) the store at `root` for the campaign
    /// described by `manifest`.
    ///
    /// Stale staging files under `<root>/tmp` — left by invocations that
    /// were killed mid-write — are deleted on open, so kill/resume cycles
    /// never accumulate orphans. A store therefore supports **one writing
    /// invocation at a time** (the resume workflow is inherently
    /// sequential, and shards write disjoint stores); concurrent readers
    /// are always fine.
    ///
    /// # Errors
    ///
    /// [`StoreError::ManifestMismatch`] if `root` already holds a store for
    /// a different campaign; [`StoreError::Io`] on filesystem failure.
    pub fn open(root: impl Into<PathBuf>, manifest: &StoreManifest) -> Result<Self, StoreError> {
        let root = root.into();
        let expected = manifest.canonical_json();
        let manifest_path = root.join("manifest.json");
        for dir in [root.clone(), root.join("cells"), root.join("tmp")] {
            fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
                action: "create store directory",
                path: dir.clone(),
                source,
            })?;
        }
        let tmp_dir = root.join("tmp");
        if let Ok(entries) = fs::read_dir(&tmp_dir) {
            for entry in entries.flatten() {
                // Best-effort: a leftover temp file is garbage by
                // definition (a completed write renames it away).
                let _ = fs::remove_file(entry.path());
            }
        }
        match fs::read_to_string(&manifest_path) {
            Ok(found) => {
                if found != expected {
                    return Err(StoreError::ManifestMismatch {
                        root,
                        expected,
                        found,
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_atomic(&root, &manifest_path, expected.as_bytes())?;
            }
            Err(source) => {
                return Err(StoreError::Io {
                    action: "read store manifest",
                    path: manifest_path,
                    source,
                })
            }
        }
        Ok(Self { root })
    }

    /// Deletes the store directory and everything in it (no error if it does
    /// not exist). The recovery path after a [`StoreError::ManifestMismatch`]
    /// — e.g. after a seed-schema bump alongside a golden-snapshot refresh.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than the directory being absent.
    pub fn wipe(root: impl AsRef<Path>) -> io::Result<()> {
        match fs::remove_dir_all(root.as_ref()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn cell_path(&self, key: &CellKey) -> PathBuf {
        self.root.join("cells").join(format!("{}.json", key.hex()))
    }

    /// Reads the cell's body, verifying it against its header (schema,
    /// key, length and content hash).
    fn read(&self, key: &CellKey) -> CellLookup<String> {
        let text = match fs::read_to_string(self.cell_path(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CellLookup::Miss,
            Err(_) => return CellLookup::Corrupt,
        };
        let verified = text.split_once('\n').filter(|(header, body)| {
            serde_json::decode::<CellHeader>(header)
                .is_ok_and(|h| h == CellHeader::describe(key, body))
        });
        match verified {
            Some((_, body)) => CellLookup::Hit(body.to_string()),
            None => CellLookup::Corrupt,
        }
    }

    /// Looks the cell up, verifying the stored content hash, and decodes
    /// its body as a `V`.
    ///
    /// Never fails: unreadable, truncated, corrupted or undecodable entries
    /// come back as [`CellLookup::Corrupt`] so the caller recomputes instead
    /// of crashing or trusting bad bytes.
    pub fn get<V: Deserialize>(&self, key: &CellKey) -> CellLookup<V> {
        match self.read(key) {
            CellLookup::Hit(body) => {
                serde_json::decode(&body).map_or(CellLookup::Corrupt, CellLookup::Hit)
            }
            CellLookup::Miss => CellLookup::Miss,
            CellLookup::Corrupt => CellLookup::Corrupt,
        }
    }

    /// Stores `value`'s canonical compact JSON under `key`, atomically: the
    /// bytes land in a temp file first and are renamed into place, so
    /// concurrent readers and killed writers only ever see absent or
    /// complete entries. Overwrites any existing entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn put<V: Serialize + ?Sized>(&self, key: &CellKey, value: &V) -> Result<(), StoreError> {
        let body = serde_json::to_string(value).expect("value serializes");
        let mut file =
            serde_json::to_string(&CellHeader::describe(key, &body)).expect("header serializes");
        file.push('\n');
        file.push_str(&body);
        write_atomic(&self.root, &self.cell_path(key), file.as_bytes())
    }

    /// The content-addressed memo: a verified, decodable entry is returned
    /// as-is ([`MemoSource::Cached`]); otherwise `compute` runs and its
    /// result is written through. Because the store round-trips values
    /// exactly, a hit is byte-identical to a fresh computation of a
    /// deterministic `compute`.
    ///
    /// # Errors
    ///
    /// Store errors from the write-through; lookups never fail (corruption
    /// means recompute).
    pub fn get_or_compute<V: Serialize + Deserialize>(
        &self,
        key: &CellKey,
        compute: impl FnOnce() -> V,
    ) -> Result<(V, MemoSource), StoreError> {
        let source = match self.get(key) {
            CellLookup::Hit(value) => return Ok((value, MemoSource::Cached)),
            CellLookup::Miss => MemoSource::Computed,
            CellLookup::Corrupt => MemoSource::Recomputed,
        };
        let value = compute();
        self.put(key, &value)?;
        Ok((value, source))
    }

    /// Whether a *valid* (hash-verified) entry exists for `key`.
    pub fn contains(&self, key: &CellKey) -> bool {
        matches!(self.read(key), CellLookup::Hit(_))
    }

    /// Walks the cell directory, verifying every entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the cell directory cannot be listed.
    pub fn status(&self) -> Result<StoreStatus, StoreError> {
        let mut status = StoreStatus {
            entries: 0,
            corrupt: 0,
        };
        for key in self.walk()? {
            match key {
                Some(key) if self.contains(&key) => status.entries += 1,
                _ => status.corrupt += 1,
            }
        }
        Ok(status)
    }

    /// The keys of every valid entry, sorted (deterministic across hosts).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the cell directory cannot be listed.
    pub fn keys(&self) -> Result<Vec<CellKey>, StoreError> {
        let mut keys: Vec<CellKey> = self
            .walk()?
            .into_iter()
            .flatten()
            .filter(|k| self.contains(k))
            .collect();
        keys.sort();
        Ok(keys)
    }

    /// Lists the cell directory as parsed keys (`None` for files whose name
    /// is not a well-formed key).
    fn walk(&self) -> Result<Vec<Option<CellKey>>, StoreError> {
        let dir = self.root.join("cells");
        let entries = fs::read_dir(&dir).map_err(|source| StoreError::Io {
            action: "list store cells",
            path: dir.clone(),
            source,
        })?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|source| StoreError::Io {
                action: "list store cells",
                path: dir.clone(),
                source,
            })?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            keys.push(name.strip_suffix(".json").and_then(CellKey::from_hex));
        }
        Ok(keys)
    }
}

/// Writes `bytes` to `path` atomically: temp file in `<store root>/tmp` (or
/// the target's directory while the store is being created), then rename.
fn write_atomic(root: &Path, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp_dir = root.join("tmp");
    let tmp_dir = if tmp_dir.is_dir() {
        tmp_dir
    } else {
        path.parent().unwrap_or(root).to_path_buf()
    };
    let tmp = tmp_dir.join(format!(
        "{}.{}.{}.tmp",
        path.file_name()
            .map(|n| n.to_string_lossy())
            .unwrap_or_default(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes).map_err(|source| StoreError::Io {
        action: "write store temp file",
        path: tmp.clone(),
        source,
    })?;
    fs::rename(&tmp, path).map_err(|source| StoreError::Io {
        action: "publish store file",
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn manifest() -> StoreManifest {
        StoreManifest {
            store_schema: STORE_SCHEMA_VERSION,
            seed_schema: 1,
            base_seed: 7,
            superpages: false,
            config_fingerprint: "f00d".into(),
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "pthammer-store-test-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = CellStore::wipe(&root);
        root
    }

    /// A stand-in artifact with the field kinds real memoized values carry.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Artifact {
        label: String,
        rate: f64,
        rows: Vec<u32>,
    }

    fn artifact(seed: u32) -> Artifact {
        Artifact {
            label: format!("a\"b\n{seed}"),
            rate: 0.1 + f64::from(seed),
            rows: (0..seed).collect(),
        }
    }

    #[test]
    fn put_get_round_trips_exact_bytes() {
        let root = temp_root("roundtrip");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let key = CellKey::from_canonical("cell-a");
        assert_eq!(store.get::<Artifact>(&key), CellLookup::Miss);
        store.put(&key, &artifact(3)).unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit(artifact(3)));
        // The file is the header line plus the value's canonical JSON.
        let body = serde_json::to_string(&artifact(3)).unwrap();
        let text = fs::read_to_string(store.cell_path(&key)).unwrap();
        assert_eq!(text.split_once('\n').unwrap().1, body);
        assert!(store.contains(&key));
        let status = store.status().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                entries: 1,
                corrupt: 0
            }
        );
        assert_eq!(store.keys().unwrap(), vec![key]);
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn reopen_with_same_manifest_sees_entries() {
        let root = temp_root("reopen");
        let key = CellKey::from_canonical("cell-b");
        {
            let store = CellStore::open(&root, &manifest()).unwrap();
            store.put(&key, &1u64).unwrap();
        }
        let store = CellStore::open(&root, &manifest()).unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit(1u64));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn manifest_drift_invalidates_the_store() {
        let root = temp_root("drift");
        {
            let store = CellStore::open(&root, &manifest()).unwrap();
            store
                .put(&CellKey::from_canonical("cell-c"), &1u64)
                .unwrap();
        }
        // A seed-schema bump (or any campaign-shape change) must refuse the
        // old entries rather than serve them.
        let mut bumped = manifest();
        bumped.seed_schema = 2;
        match CellStore::open(&root, &bumped) {
            Err(StoreError::ManifestMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, bumped.canonical_json());
                assert_eq!(found, manifest().canonical_json());
            }
            other => panic!("expected ManifestMismatch, got {other:?}"),
        }
        // Wiping recovers: a fresh store under the new manifest is empty.
        CellStore::wipe(&root).unwrap();
        let store = CellStore::open(&root, &bumped).unwrap();
        assert_eq!(
            store.get::<u64>(&CellKey::from_canonical("cell-c")),
            CellLookup::Miss
        );
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let root = temp_root("corrupt");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let key = CellKey::from_canonical("cell-d");
        store.put(&key, &vec![3u32]).unwrap();
        let path = store.cell_path(&key);

        // Flipped body byte: content hash mismatch.
        let original = fs::read_to_string(&path).unwrap();
        fs::write(&path, original.replace("[3]", "[9]")).unwrap();
        assert_eq!(store.get::<Vec<u32>>(&key), CellLookup::Corrupt);

        // Truncated file: length mismatch (or unparseable header).
        fs::write(&path, &original[..original.len() - 2]).unwrap();
        assert_eq!(store.get::<Vec<u32>>(&key), CellLookup::Corrupt);

        // Garbage: no header line.
        fs::write(&path, "not a store file").unwrap();
        assert_eq!(store.get::<Vec<u32>>(&key), CellLookup::Corrupt);
        let status = store.status().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                entries: 0,
                corrupt: 1
            }
        );

        // Overwriting with a fresh put repairs the entry.
        store.put(&key, &vec![3u32]).unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit(vec![3u32]));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn verified_body_that_does_not_decode_is_corrupt() {
        let root = temp_root("schema");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let key = CellKey::from_canonical("cell-s");
        // Written under an older schema: hash-valid, but not an `Artifact`.
        store.put(&key, &vec![1u32, 2]).unwrap();
        assert!(store.contains(&key), "the bytes themselves verify");
        assert_eq!(store.get::<Artifact>(&key), CellLookup::Corrupt);
        assert_eq!(store.get(&key), CellLookup::Hit(vec![1u32, 2]));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn entry_filed_under_the_wrong_key_is_corrupt() {
        let root = temp_root("wrongkey");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let a = CellKey::from_canonical("cell-a");
        let b = CellKey::from_canonical("cell-b");
        store.put(&a, &1u64).unwrap();
        // Simulate a mis-filed entry (e.g. a bad manual copy between
        // stores): body verifies against its header, but the header's key is
        // not the one it is filed under.
        fs::rename(store.cell_path(&a), store.cell_path(&b)).unwrap();
        assert_eq!(store.get::<u64>(&b), CellLookup::Corrupt);
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn open_clears_stale_temp_files() {
        let root = temp_root("staletmp");
        let key = CellKey::from_canonical("cell-t");
        {
            let store = CellStore::open(&root, &manifest()).unwrap();
            store.put(&key, &1u64).unwrap();
        }
        // Simulate a writer killed mid-write: a half-written staging file.
        fs::write(root.join("tmp").join("orphan.9999.7.tmp"), "half-writ").unwrap();
        let store = CellStore::open(&root, &manifest()).unwrap();
        assert_eq!(
            fs::read_dir(root.join("tmp")).unwrap().count(),
            0,
            "stale temp files must be cleared on open"
        );
        // Published entries and fresh writes are unaffected.
        assert_eq!(store.get(&key), CellLookup::Hit(1u64));
        store.put(&key, &2u64).unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit(2u64));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn stray_files_count_as_corrupt_in_status() {
        let root = temp_root("stray");
        let store = CellStore::open(&root, &manifest()).unwrap();
        fs::write(root.join("cells").join("notakey.json"), "junk").unwrap();
        let status = store.status().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                entries: 0,
                corrupt: 1
            }
        );
        assert!(store.keys().unwrap().is_empty());
        CellStore::wipe(&root).unwrap();
    }

    /// The memo contract every artifact cache relies on: cold computes and
    /// writes through, warm serves the byte-identical value without
    /// computing, other keys miss, and a corrupted entry is recomputed
    /// rather than trusted.
    #[test]
    fn get_or_compute_is_cold_then_warm_then_recovers_from_corruption() {
        let root = temp_root("memo");
        let store = CellStore::open(&root, &StoreManifest::memo("test memo", 1)).unwrap();
        let key = CellKey::from_canonical("artifact|seed=11");
        let (cold, source) = store.get_or_compute(&key, || artifact(11)).unwrap();
        assert_eq!(source, MemoSource::Computed);
        let (warm, source) = store
            .get_or_compute(&key, || -> Artifact {
                panic!("a warm hit must not compute")
            })
            .unwrap();
        assert_eq!(source, MemoSource::Cached);
        assert_eq!(cold, warm);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "a memo hit must reproduce the fresh computation byte for byte"
        );
        assert_eq!(store.get(&key), CellLookup::Hit(cold.clone()));
        let other = CellKey::from_canonical("artifact|seed=12");
        assert_eq!(store.get::<Artifact>(&other), CellLookup::Miss);

        fs::write(store.cell_path(&key), "garbage").unwrap();
        let (recovered, source) = store.get_or_compute(&key, || artifact(11)).unwrap();
        assert_eq!(source, MemoSource::Recomputed);
        assert_eq!(recovered, cold);
        assert_eq!(store.get(&key), CellLookup::Hit(cold));
        CellStore::wipe(&root).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn cell_header_round_trips(
            canonical in prop::collection::vec(any::<u8>(), 0..40),
            body in prop::collection::vec(32u8..127, 0..200),
        ) {
            let key = CellKey::from_canonical(&String::from_utf8_lossy(&canonical));
            let body = String::from_utf8(body).unwrap();
            let header = CellHeader::describe(&key, &body);
            let json = serde_json::to_string(&header).unwrap();
            let decoded: CellHeader = serde_json::decode(&json).unwrap();
            prop_assert_eq!(&decoded, &header);
            prop_assert_eq!(serde_json::to_string(&decoded).unwrap(), json);
        }
    }
}
