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
//! ## Durability: one store a run, two generations, atomic renames
//!
//! Generation `g` is written to `checkpoint-{g % 2}.dpck` via
//! [`dp_types::atomic_write`] (temp file + fsync + rename), so a kill at
//! *any* instant leaves a complete previous generation on disk, and
//! [`CheckpointStore::load_latest`] picks the highest valid generation,
//! falling back past a torn newer one: loss is bounded by one interval.
//! One rule, for `depprof replay` and a served session alike, lives in
//! [`CheckpointStore`]: a fresh run owns its directory (discards what an
//! earlier run left) and numbers its first generation 0; a resumed run
//! keeps the directory and continues at `g + 1`; periodic checkpoints
//! fall at multiples of the interval of the absolute stream position;
//! every generation written counts into the store's [`CheckpointMetrics`].

use crate::ProfileSession;
use dp_metrics::CheckpointMetrics;
use dp_types::wire::write_unit;
use dp_types::{atomic_write, read_section, write_section, ByteReader, ByteWriter, WireError};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

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
    /// Monotonic checkpoint number within the run: a fresh run's first
    /// is 0, in `depprof replay` and a served session alike.
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

/// The two-generation on-disk store of one run: the generations it owns,
/// their numbers, when the next periodic one falls due, what it wrote.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    every: u64,
    /// The number the next generation written gets.
    generation: u64,
    metrics: CheckpointMetrics,
}

impl CheckpointStore {
    /// The store of a run checkpointing into `dir` every `every` events
    /// (0: emergency checkpoints only). A run resumed from `resumed`
    /// (loaded from `dir`) keeps what is there and continues at the next
    /// generation; a fresh run discards what an earlier run left and
    /// starts at 0. The directory is made at the first write, not here.
    pub fn open(dir: PathBuf, every: u64, resumed: Option<&CheckpointData>) -> io::Result<Self> {
        for old in (0..2).map(|parity| slot(&dir, parity)).filter(|_| resumed.is_none()) {
            match std::fs::remove_file(old) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        let (generation, resumed_from) =
            resumed.map_or((0, 0), |d| (d.generation + 1, d.records_read));
        let metrics = CheckpointMetrics { resumed_from, ..CheckpointMetrics::default() };
        Ok(CheckpointStore { dir, every, generation, metrics })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What this run has written, and where it resumed from.
    pub fn metrics(&self) -> CheckpointMetrics {
        self.metrics
    }

    /// Events from stream position `position` to the next periodic
    /// checkpoint (`u64::MAX` without an interval).
    pub fn until_due(&self, position: u64) -> u64 {
        position.checked_rem(self.every).map_or(u64::MAX, |rem| self.every - rem)
    }

    /// Quiesces `session` and writes its state at stream position
    /// `records_read` as the run's next generation, returning its number.
    /// [`CheckpointError::Io`] is a failed write, any other a failed quiesce.
    pub fn save(
        &mut self,
        session: &mut ProfileSession,
        records_read: u64,
        config: Vec<u8>,
    ) -> Result<u64, CheckpointError> {
        let started = Instant::now();
        let data = session.checkpoint_data(self.generation, records_read, config)?;
        let bytes = data.encode();
        std::fs::create_dir_all(&self.dir)?;
        atomic_write(&slot(&self.dir, self.generation), |f| f.write_all(&bytes))?;
        self.metrics.generations += 1;
        self.metrics.last_bytes = bytes.len() as u64;
        self.metrics.write_nanos += started.elapsed().as_nanos() as u64;
        self.generation += 1;
        Ok(self.generation - 1)
    }

    /// Loads the newest valid checkpoint in `dir`, falling back to the
    /// other slot when the newer one is torn, truncated or corrupt;
    /// [`CheckpointError::NoCheckpoint`] when neither slot decodes.
    pub fn load_latest(dir: &Path) -> Result<CheckpointData, CheckpointError> {
        let mut best: Option<CheckpointData> = None;
        for parity in 0..2 {
            let Ok(bytes) = std::fs::read(slot(dir, parity)) else { continue };
            let Ok(data) = CheckpointData::decode(&bytes) else { continue };
            if best.as_ref().is_none_or(|b| data.generation > b.generation) {
                best = Some(data);
            }
        }
        best.ok_or_else(|| CheckpointError::NoCheckpoint(dir.to_path_buf()))
    }
}

/// The slot file of generation `g`: the write of `g` never touches the
/// file holding `g − 1`.
fn slot(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("checkpoint-{}.dpck", generation % 2))
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

    /// A fresh store over `dir` and the small serial session it saved
    /// `generations` generations of, numbered from 0, the `g`th at
    /// stream position `g`.
    fn written(dir: &Path, generations: u64) -> (CheckpointStore, ProfileSession) {
        let mut store = CheckpointStore::open(dir.to_path_buf(), 0, None).unwrap();
        let mut session = crate::SessionSpec { slots: 1 << 10, ..Default::default() }.build();
        for g in 0..generations {
            assert_eq!(store.save(&mut session, g, Vec::new()).unwrap(), g);
        }
        (store, session)
    }

    #[test]
    fn store_alternates_generations_and_loads_latest() {
        let dir = tmpdir("alt");
        let (mut store, mut session) = written(&dir, 1);
        assert!(store.metrics().last_bytes > 0);
        assert_eq!(CheckpointStore::load_latest(&dir).unwrap().generation, 0);
        store.save(&mut session, 1, Vec::new()).unwrap();
        assert_eq!(CheckpointStore::load_latest(&dir).unwrap().generation, 1);
        assert_ne!(slot(&dir, 1), slot(&dir, 2));
        assert_eq!(slot(&dir, 1), slot(&dir, 3));
        // Generation 2 overwrites generation 0's slot only.
        store.save(&mut session, 2, Vec::new()).unwrap();
        assert_eq!(CheckpointStore::load_latest(&dir).unwrap().generation, 2);
        assert_eq!(store.metrics().generations, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A resumed run's store continues the numbering and keeps the
    /// generations there; a fresh run's store over the same directory
    /// discards them, so a resume cannot pick up another run's state.
    #[test]
    fn a_fresh_store_owns_its_directory_and_a_resumed_one_continues_it() {
        let dir = tmpdir("own");
        let (_, mut session) = written(&dir, 2);
        let latest = CheckpointStore::load_latest(&dir).unwrap();
        let mut resumed = CheckpointStore::open(dir.clone(), 0, Some(&latest)).unwrap();
        assert_eq!(resumed.metrics().resumed_from, 1);
        assert_eq!(CheckpointStore::load_latest(&dir).unwrap(), latest, "kept");
        assert_eq!(resumed.save(&mut session, 2, Vec::new()).unwrap(), 2);
        CheckpointStore::open(dir.clone(), 0, None).unwrap();
        assert!(matches!(
            CheckpointStore::load_latest(&dir),
            Err(CheckpointError::NoCheckpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Periodic checkpoints fall due at multiples of the interval of the
    /// absolute stream position, wherever the run started.
    #[test]
    fn the_interval_counts_from_the_stream_start() {
        let store = CheckpointStore::open(tmpdir("due"), 5_000, None).unwrap();
        assert_eq!(store.until_due(0), 5_000);
        assert_eq!(store.until_due(12_345), 2_655);
        assert_eq!(store.until_due(15_000), 5_000);
        let never = CheckpointStore::open(tmpdir("due0"), 0, None).unwrap();
        assert_eq!(never.until_due(12_345), u64::MAX);
        assert_eq!(never.until_due(0), u64::MAX);
    }

    #[test]
    fn torn_newer_generation_falls_back_to_previous() {
        let dir = tmpdir("torn");
        written(&dir, 2);
        // Tear generation 1: truncate its file mid-section.
        let p1 = slot(&dir, 1);
        let bytes = std::fs::read(&p1).unwrap();
        std::fs::write(&p1, &bytes[..bytes.len() / 2]).unwrap();
        let got = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!(got.generation, 0, "fallback to the intact prior generation");
        // Corrupt generation 0 too: now nothing is loadable.
        let p0 = slot(&dir, 0);
        let mut b0 = std::fs::read(&p0).unwrap();
        let mid = b0.len() / 2;
        b0[mid] ^= 0xFF;
        std::fs::write(&p0, &b0).unwrap();
        assert!(matches!(
            CheckpointStore::load_latest(&dir),
            Err(CheckpointError::NoCheckpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            CheckpointStore::load_latest(&dir),
            Err(CheckpointError::NoCheckpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
