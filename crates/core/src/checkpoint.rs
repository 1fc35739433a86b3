//! Crash-safe checkpoint files: the `DPCK` container and the
//! two-generation on-disk store.
//!
//! A checkpoint freezes a profiling run at a chunk barrier: the input
//! trace position, every worker's serialized extraction state
//! ([`AlgoState::save_state`](crate::AlgoState::save_state)), the
//! router's hot-address statistics and redistribution rules, and the
//! event-conservation ledger. `depprof replay --resume` rebuilds the engine
//! from the latest valid generation and replays the remaining trace
//! records, producing the same result an uninterrupted run would.
//!
//! ## File format (`DPCK` version 2)
//!
//! ```text
//! magic "DPCK" | version u8 | section*
//! section := tag u8 | len u32 | payload[len] | checksum u8
//! ```
//!
//! A section is a unit of [`dp_types::wire`], the codec a DPSV frame is
//! written with too ([`write_section`], [`read_section`]), checksummed
//! the same way, so a torn or bit-flipped file is detected on load; a
//! section, unlike a frame, has no length bound. Sections: META (tag
//! 1: generation, trace position, worker count), CONFIG (2: an opaque
//! engine/CLI configuration blob), ROUTER (3), LEDGER (4), WORKER (5,
//! one per worker in index order).
//!
//! Version 2 is version 1 with the serial and parallel engines' worker
//! blobs holding loop epochs where version 1 held timestamps (DESIGN.md
//! "Epoch clock"). Both load: the engine ranks either clock against the
//! blob's own loop stacks. A build that reads only version 1 refuses a
//! version-2 file rather than take its epochs for timestamps.
//!
//! ## Durability: two generations, atomic renames
//!
//! Generation `g` is written to `checkpoint-{g % 2}.dpck` via
//! [`dp_types::atomic_write`] (temp file + fsync + rename). A kill at
//! *any* instant therefore leaves at least one complete previous
//! generation on disk: the rename either happened (new generation
//! valid) or it didn't (old generation untouched). [`CheckpointStore::
//! load_latest`] validates both slots and picks the highest valid
//! generation, silently falling back past a torn or corrupt newer one —
//! loss is bounded by one checkpoint interval.

use dp_types::wire::write_unit;
use dp_types::{atomic_write, read_section, write_section, ByteReader, ByteWriter, WireError};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic of a checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DPCK";
/// Current container version; version 1 still loads.
pub const CHECKPOINT_VERSION: u8 = 2;

const TAG_META: u8 = 1;
const TAG_CONFIG: u8 = 2;
const TAG_ROUTER: u8 = 3;
const TAG_LEDGER: u8 = 4;
const TAG_WORKER: u8 = 5;

/// Everything a checkpoint persists, in engine-independent form. The
/// `config`, `router` and `ledger` blobs are opaque here: the engine
/// that wrote them interprets them on resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointData {
    /// Monotonic checkpoint number within the run (`depprof replay`
    /// numbers its first 0).
    pub generation: u64,
    /// Input-trace position at the barrier, in events fed
    /// (`TraceReader::records_read`): resume skips to here.
    pub records_read: u64,
    /// Opaque engine/CLI configuration blob (engine kind, worker count,
    /// slots, trace path, ... — whatever the writer needs to rebuild an
    /// identically-configured engine).
    pub config: Vec<u8>,
    /// Opaque router/coordinator state (hot-address counts,
    /// redistribution rules, chunk counters).
    pub router: Vec<u8>,
    /// Opaque conservation-ledger state (the PR 3 metrics counters).
    pub ledger: Vec<u8>,
    /// Per-worker extraction-state blobs, in worker-index order.
    pub workers: Vec<Vec<u8>>,
}

impl CheckpointData {
    /// Serializes into the `DPCK` container.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.bytes(&CHECKPOINT_MAGIC);
        out.u8(CHECKPOINT_VERSION);
        write_unit(&mut out, TAG_META, |meta| {
            meta.u64(self.generation);
            meta.u64(self.records_read);
            meta.u32(self.workers.len() as u32);
        });
        write_section(&mut out, TAG_CONFIG, &self.config);
        write_section(&mut out, TAG_ROUTER, &self.router);
        write_section(&mut out, TAG_LEDGER, &self.ledger);
        for (i, w) in self.workers.iter().enumerate() {
            write_unit(&mut out, TAG_WORKER, |p| {
                p.u32(i as u32);
                p.bytes(w);
            });
        }
        out.into_bytes()
    }

    /// Parses and validates a `DPCK` container (magic, version, every
    /// section checksum, worker-section ordering, META consistency).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != CHECKPOINT_MAGIC {
            return Err(WireError::Invalid("not a checkpoint file (bad magic)"));
        }
        if !(1..=CHECKPOINT_VERSION).contains(&r.u8()?) {
            return Err(WireError::Invalid("unsupported checkpoint version"));
        }
        let mut meta: Option<(u64, u64, u32)> = None;
        let mut data = CheckpointData::default();
        while !r.is_done() {
            let (tag, payload) = read_section(&mut r)?;
            match tag {
                TAG_META => {
                    let mut m = ByteReader::new(payload);
                    meta = Some((m.u64()?, m.u64()?, m.u32()?));
                    if !m.is_done() {
                        return Err(WireError::Invalid("oversized checkpoint META section"));
                    }
                }
                TAG_CONFIG => data.config = payload.to_vec(),
                TAG_ROUTER => data.router = payload.to_vec(),
                TAG_LEDGER => data.ledger = payload.to_vec(),
                TAG_WORKER => {
                    let mut p = ByteReader::new(payload);
                    let idx = p.u32()? as usize;
                    if idx != data.workers.len() {
                        return Err(WireError::Invalid("worker sections out of order"));
                    }
                    data.workers.push(payload[4..].to_vec());
                }
                _ => return Err(WireError::Invalid("unknown checkpoint section tag")),
            }
        }
        let Some((generation, records_read, nworkers)) = meta else {
            return Err(WireError::Invalid("checkpoint without META section"));
        };
        if nworkers as usize != data.workers.len() {
            return Err(WireError::Invalid("worker-section count disagrees with META"));
        }
        data.generation = generation;
        data.records_read = records_read;
        Ok(data)
    }
}

/// Per-checkpoint accounting, surfaced through `MetricsSnapshot` and
/// `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Generation number written.
    pub generation: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Wall time of encode + durable write.
    pub write_nanos: u64,
}

/// What went wrong writing or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed container or component blob.
    Wire(WireError),
    /// Neither generation slot holds a valid checkpoint.
    NoCheckpoint(PathBuf),
    /// A worker needed for the checkpoint is dead or never replied.
    WorkerUnavailable(usize),
    /// The engine or store configuration cannot be checkpointed.
    Unsupported(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Wire(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::NoCheckpoint(dir) => {
                write!(f, "no valid checkpoint found in {}", dir.display())
            }
            CheckpointError::WorkerUnavailable(w) => {
                write!(f, "worker {w} is unavailable; cannot quiesce for a checkpoint")
            }
            CheckpointError::Unsupported(why) => write!(f, "checkpointing unsupported: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

/// The two-generation on-disk checkpoint store.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// Names a checkpoint directory without creating it.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore { dir: dir.into() }
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The slot file generation `g` lands in: generations alternate
    /// between two files, so the write of generation `g` never touches
    /// the file holding `g − 1`.
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("checkpoint-{}.dpck", generation % 2))
    }

    /// Durably writes one checkpoint generation: encode, temp file,
    /// fsync, atomic rename over the generation's slot. A kill at any
    /// point leaves the other slot's prior generation intact.
    pub fn write(&self, data: &CheckpointData) -> std::io::Result<CheckpointStats> {
        let t = std::time::Instant::now();
        let bytes = data.encode();
        atomic_write(&self.generation_path(data.generation), |f| f.write_all(&bytes))?;
        Ok(CheckpointStats {
            generation: data.generation,
            bytes: bytes.len() as u64,
            write_nanos: t.elapsed().as_nanos() as u64,
        })
    }

    /// Loads the newest valid checkpoint, falling back to the other
    /// generation slot when the newer one is torn, truncated or
    /// corrupt. Errors with [`CheckpointError::NoCheckpoint`] when
    /// neither slot decodes.
    pub fn load_latest(&self) -> Result<CheckpointData, CheckpointError> {
        let mut best: Option<CheckpointData> = None;
        for parity in 0..2u64 {
            let path = self.dir.join(format!("checkpoint-{parity}.dpck"));
            let Ok(bytes) = std::fs::read(&path) else { continue };
            let Ok(data) = CheckpointData::decode(&bytes) else { continue };
            if best.as_ref().is_none_or(|b| data.generation > b.generation) {
                best = Some(data);
            }
        }
        best.ok_or_else(|| CheckpointError::NoCheckpoint(self.dir.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(generation: u64) -> CheckpointData {
        CheckpointData {
            generation,
            records_read: 12_345 * generation,
            config: vec![1, 2, 3],
            router: vec![4; 100],
            ledger: vec![5; 40],
            workers: vec![vec![10, 11], vec![], vec![12; 300]],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dpck-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn encode_decode_roundtrips() {
        let data = sample(7);
        let bytes = data.encode();
        assert_eq!(CheckpointData::decode(&bytes).unwrap(), data);
        // Deterministic encoding.
        assert_eq!(sample(7).encode(), bytes);
    }

    /// A version-1 container decodes as before; a version past this
    /// build's does not.
    #[test]
    fn decode_takes_version_1_and_refuses_later_versions() {
        let mut bytes = sample(3).encode();
        bytes[4] = 1;
        assert_eq!(CheckpointData::decode(&bytes).unwrap(), sample(3));
        bytes[4] = CHECKPOINT_VERSION + 1;
        assert!(CheckpointData::decode(&bytes).is_err());
    }

    #[test]
    fn decode_detects_corruption_everywhere() {
        let bytes = sample(1).encode();
        assert!(CheckpointData::decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(CheckpointData::decode(&b).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn store_alternates_generations_and_loads_latest() {
        let dir = tmpdir("alt");
        let store = CheckpointStore::create(&dir).unwrap();
        let s1 = store.write(&sample(1)).unwrap();
        assert_eq!(s1.generation, 1);
        assert!(s1.bytes > 0);
        assert_eq!(store.load_latest().unwrap().generation, 1);
        store.write(&sample(2)).unwrap();
        assert_eq!(store.load_latest().unwrap().generation, 2);
        assert_ne!(store.generation_path(1), store.generation_path(2));
        assert_eq!(store.generation_path(1), store.generation_path(3));
        // Generation 3 overwrites generation 1's slot only.
        store.write(&sample(3)).unwrap();
        assert_eq!(store.load_latest().unwrap().generation, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_newer_generation_falls_back_to_previous() {
        let dir = tmpdir("torn");
        let store = CheckpointStore::create(&dir).unwrap();
        store.write(&sample(1)).unwrap();
        store.write(&sample(2)).unwrap();
        // Tear generation 2: truncate its file mid-section.
        let p2 = store.generation_path(2);
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();
        let got = store.load_latest().unwrap();
        assert_eq!(got.generation, 1, "fallback to the intact prior generation");
        // Corrupt generation 1 too: now nothing is loadable.
        let p1 = store.generation_path(1);
        let mut b1 = std::fs::read(&p1).unwrap();
        let mid = b1.len() / 2;
        b1[mid] ^= 0xFF;
        std::fs::write(&p1, &b1).unwrap();
        assert!(matches!(store.load_latest(), Err(CheckpointError::NoCheckpoint(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::open(&dir);
        assert!(matches!(store.load_latest(), Err(CheckpointError::NoCheckpoint(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
