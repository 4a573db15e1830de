//! The write-ahead handoff log: crash durability for virtual counterparts.
//!
//! The relocation protocol of the paper keeps *virtual counterparts* —
//! buffered deliveries for disconnected clients — purely in broker memory,
//! so a broker failure silently loses every notification published during a
//! client's hand-over.  [`HandoffLog`] closes that gap: every durable event
//! of the relocation protocol is appended to a per-broker, append-only log
//! *before* the corresponding in-memory mutation takes effect, and a
//! restarted broker replays the log to reconstruct its counterparts exactly.
//!
//! # Record framing
//!
//! The log is a flat byte stream of length-prefixed, checksummed records:
//!
//! ```text
//! ┌─────────────┬──────────────┬────────────────────┐
//! │ len: u32 LE │ crc32: u32 LE│ payload (len bytes)│  … repeated
//! └─────────────┴──────────────┴────────────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload.  Recovery scans from the
//! front and stops at the first record whose length prefix overruns the
//! file or whose checksum does not match — a torn tail (partial append at
//! the instant of the crash) or flipped bytes therefore cost at most the
//! records *after* the corruption, never a panic.
//!
//! # Record vocabulary
//!
//! | tag | record              | logged by | meaning                              |
//! |-----|---------------------|-----------|--------------------------------------|
//! | 1   | `StreamOpen`        | old broker| counterpart activated at detach      |
//! | 2   | `Buffered`          | old broker| delivery appended to the counterpart |
//! | 3   | `RelocationBegin`   | new broker| holding buffer created               |
//! | 4   | `RelocationCommit`  | old broker| counterpart replayed + GC'd          |
//! | 5   | `ReplayAck`         | new broker| holding resolved (merge or timeout)  |
//! | 6   | `Checkpoint`        | either    | compaction snapshot of live state    |
//! | 7   | `Epoch`             | recovery  | restart-generation watermark         |
//! | 8   | `StreamExpired`     | old broker| counterpart lease expired, GC'd      |
//!
//! # Compaction
//!
//! Appending forever would make both the log and recovery unbounded, so
//! after every `checkpoint_every` appended records the machine rewrites the
//! log as a single [`WalRecord::Checkpoint`] carrying the full durable
//! state.  Recovery treats a checkpoint as a reset: records before it are
//! irrelevant, records after it replay on top of it.
//! [`FileBackend`] writes the checkpoint to a temporary file and renames it
//! over the log, so a crash during compaction loses nothing.
//!
//! # Backends
//!
//! Storage is pluggable through [`LogBackend`]: [`MemoryBackend`] keeps the
//! bytes in a shared in-process buffer (clones of a backend share storage,
//! modelling a disk that outlives the broker process — this is what the
//! deterministic simulator uses), [`FileBackend`] appends to a real file
//! for runs outside the simulator.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rebeca_broker::{ClientId, Delivery};
use rebeca_filter::Filter;
use rebeca_sim::NodeId;

use crate::codec::{
    crc32, put_delivery, put_filter, put_node, put_u32, put_u64, put_u8, ByteReader, DecodeError,
};

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// Pluggable storage for a [`HandoffLog`].
///
/// Implementations must behave like an append-only byte device: `append`
/// atomically adds bytes at the end, `read_all` returns everything written
/// so far, `reset` replaces the whole content (used by compaction).
pub trait LogBackend: fmt::Debug + Send {
    /// Appends raw bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Reads the entire log content.
    fn read_all(&self) -> io::Result<Vec<u8>>;
    /// Replaces the entire log content (compaction).  A crash during the
    /// call must leave either the old or the new content, never less.
    fn reset(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Clones the backend behind a box.  Clones of the same backend refer to
    /// the same underlying storage (the "disk"), so a handle kept outside a
    /// broker survives the broker being dropped and restarted.
    fn boxed_clone(&self) -> Box<dyn LogBackend>;
}

impl Clone for Box<dyn LogBackend> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// In-process backend: bytes live in an `Arc`-shared buffer, so clones of
/// the backend observe each other's writes.  This is the backend of the
/// deterministic simulator — the shared buffer plays the role of the disk
/// that survives a broker crash.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    shared: Arc<Mutex<Vec<u8>>>,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current size of the stored log in bytes.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("wal buffer poisoned").len()
    }

    /// `true` when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrites the raw stored bytes (test hook for corruption scenarios).
    pub fn corrupt_with(&self, bytes: Vec<u8>) {
        *self.shared.lock().expect("wal buffer poisoned") = bytes;
    }

    /// A copy of the raw stored bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.shared.lock().expect("wal buffer poisoned").clone()
    }
}

impl LogBackend for MemoryBackend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.shared
            .lock()
            .expect("wal buffer poisoned")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        Ok(self.bytes())
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        *self.shared.lock().expect("wal buffer poisoned") = bytes.to_vec();
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn LogBackend> {
        Box::new(self.clone())
    }
}

/// File-based backend for runs outside the simulator: records are appended
/// to one WAL file per broker under a persistence root.
#[derive(Debug, Clone)]
pub struct FileBackend {
    path: PathBuf,
}

impl FileBackend {
    /// Creates a backend appending to `path` (parent directories are created
    /// on first write).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The WAL file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn ensure_parent(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(())
    }
}

impl LogBackend for FileBackend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.ensure_parent()?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Writes `<path>.tmp`, syncs it, renames it over the log and syncs
    /// the directory, so a crash at any point leaves the old log or the new
    /// one.  That is 2 syncs per compaction.
    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.ensure_parent()?;
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        let dir = match self.path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    }

    fn boxed_clone(&self) -> Box<dyn LogBackend> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Durable snapshot of one virtual-counterpart stream (used by checkpoints
/// and returned by recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// The roaming client.
    pub client: ClientId,
    /// The simulation node the client was last reachable at (needed to
    /// reconstruct the client record and its routing entry on restart).
    pub client_node: NodeId,
    /// The subscription the counterpart buffers for.
    pub filter: Filter,
    /// The next per-`(client, filter)` sequence number at the time the
    /// counterpart was opened (the watermark; buffered deliveries may carry
    /// higher numbers).
    pub next_seq: u64,
    /// Lease start: the broker time (microseconds) the counterpart was
    /// activated at.  A client that never returns within the configured
    /// counterpart lease is garbage collected by the lease sweep.
    pub opened_at: u64,
    /// The buffered deliveries, in append order.
    pub buffered: Vec<Delivery>,
}

/// Durable snapshot of one unresolved relocation holding buffer at the new
/// border broker.  Held-back *fresh* envelopes are deliberately not
/// persisted (see the crate docs on scope); the snapshot is enough to
/// reconstruct the attached client, re-arm the relocation timeout and merge
/// a late replay after a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldingSnapshot {
    /// The roaming client.
    pub client: ClientId,
    /// The node the re-subscribed client is attached through.
    pub client_node: NodeId,
    /// The relocating subscription.
    pub filter: Filter,
    /// Last sequence number the client reported on re-subscription.
    pub last_seq: u64,
}

/// One durable event of the relocation protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A virtual counterpart was activated: the client detached at
    /// `client_node` while holding `filter`, with `next_seq` being the next
    /// sequence number of the stream.
    StreamOpen {
        /// The disconnecting client.
        client: ClientId,
        /// The node the client was attached through.
        client_node: NodeId,
        /// The subscription left behind.
        filter: Filter,
        /// Sequence-number watermark at detach time.
        next_seq: u64,
        /// Lease start: broker time (microseconds) at activation.
        opened_at: u64,
    },
    /// A delivery was appended to the counterpart buffer of its stream.
    Buffered {
        /// The buffered delivery.
        delivery: Delivery,
    },
    /// This (new border) broker started a relocation: a holding buffer was
    /// created for the re-subscribed stream of the client attached at
    /// `client_node`.
    RelocationBegin {
        /// The relocating client.
        client: ClientId,
        /// The node the re-subscribed client is attached through.
        client_node: NodeId,
        /// The relocating subscription.
        filter: Filter,
        /// Last sequence number the client echoed.
        last_seq: u64,
    },
    /// This (old border) broker replayed and garbage collected the
    /// counterpart.
    RelocationCommit {
        /// The relocated client.
        client: ClientId,
        /// The relocated subscription.
        filter: Filter,
    },
    /// This (new border) broker resolved its holding buffer (replay merged
    /// in, or flushed by the relocation timeout).
    ReplayAck {
        /// The relocated client.
        client: ClientId,
        /// The relocated subscription.
        filter: Filter,
    },
    /// Compaction checkpoint: the complete durable state at the time of
    /// writing.  Replay restarts from here.
    Checkpoint {
        /// All live counterpart streams.
        streams: Vec<StreamSnapshot>,
        /// All unresolved holdings.
        holdings: Vec<HoldingSnapshot>,
        /// Restart generation watermark (see [`WalRecord::Epoch`]).
        generation: u64,
    },
    /// This (old border) broker's lease sweep expired the counterpart of a
    /// client that never returned: the stream and its buffered deliveries
    /// were garbage collected without a replay.
    StreamExpired {
        /// The client whose lease ran out.
        client: ClientId,
        /// The subscription whose counterpart was dropped.
        filter: Filter,
    },
    /// Restart marker: appended once per recovery.  The restarted machine
    /// numbers its timeout tags from `generation << 32`, so timers armed by
    /// a previous incarnation (which survive a crash in the simulator's
    /// event queue and cannot be cancelled) can never alias a tag handed
    /// out after the restart.
    Epoch {
        /// Monotonically increasing restart count.
        generation: u64,
    },
}

/// State reconstructed by [`HandoffLog::recover`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Live counterpart streams at the time of the crash.
    pub streams: Vec<StreamSnapshot>,
    /// Unresolved relocation holdings at the time of the crash.
    pub holdings: Vec<HoldingSnapshot>,
    /// Highest restart generation observed in the log.
    pub generation: u64,
    /// Number of records successfully replayed.
    pub records_read: usize,
    /// `true` when recovery stopped before the end of the log (torn tail or
    /// corrupted record); everything up to the last valid record was kept.
    pub truncated: bool,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

const TAG_STREAM_OPEN: u8 = 1;
const TAG_BUFFERED: u8 = 2;
const TAG_RELOCATION_BEGIN: u8 = 3;
const TAG_RELOCATION_COMMIT: u8 = 4;
const TAG_REPLAY_ACK: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_EPOCH: u8 = 7;
const TAG_STREAM_EXPIRED: u8 = 8;

impl WalRecord {
    /// Encodes the record payload (without the frame header).
    fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            WalRecord::StreamOpen {
                client,
                client_node,
                filter,
                next_seq,
                opened_at,
            } => {
                put_u8(&mut buf, TAG_STREAM_OPEN);
                put_u32(&mut buf, client.raw());
                put_node(&mut buf, *client_node);
                put_filter(&mut buf, filter);
                put_u64(&mut buf, *next_seq);
                put_u64(&mut buf, *opened_at);
            }
            WalRecord::Buffered { delivery } => {
                put_u8(&mut buf, TAG_BUFFERED);
                put_delivery(&mut buf, delivery);
            }
            WalRecord::RelocationBegin {
                client,
                client_node,
                filter,
                last_seq,
            } => {
                put_u8(&mut buf, TAG_RELOCATION_BEGIN);
                put_u32(&mut buf, client.raw());
                put_node(&mut buf, *client_node);
                put_filter(&mut buf, filter);
                put_u64(&mut buf, *last_seq);
            }
            WalRecord::RelocationCommit { client, filter } => {
                put_u8(&mut buf, TAG_RELOCATION_COMMIT);
                put_u32(&mut buf, client.raw());
                put_filter(&mut buf, filter);
            }
            WalRecord::ReplayAck { client, filter } => {
                put_u8(&mut buf, TAG_REPLAY_ACK);
                put_u32(&mut buf, client.raw());
                put_filter(&mut buf, filter);
            }
            WalRecord::Checkpoint {
                streams,
                holdings,
                generation,
            } => {
                put_u8(&mut buf, TAG_CHECKPOINT);
                put_u32(&mut buf, streams.len() as u32);
                for s in streams {
                    put_u32(&mut buf, s.client.raw());
                    put_node(&mut buf, s.client_node);
                    put_filter(&mut buf, &s.filter);
                    put_u64(&mut buf, s.next_seq);
                    put_u64(&mut buf, s.opened_at);
                    put_u32(&mut buf, s.buffered.len() as u32);
                    for d in &s.buffered {
                        put_delivery(&mut buf, d);
                    }
                }
                put_u32(&mut buf, holdings.len() as u32);
                for h in holdings {
                    put_u32(&mut buf, h.client.raw());
                    put_node(&mut buf, h.client_node);
                    put_filter(&mut buf, &h.filter);
                    put_u64(&mut buf, h.last_seq);
                }
                put_u64(&mut buf, *generation);
            }
            WalRecord::Epoch { generation } => {
                put_u8(&mut buf, TAG_EPOCH);
                put_u64(&mut buf, *generation);
            }
            WalRecord::StreamExpired { client, filter } => {
                put_u8(&mut buf, TAG_STREAM_EXPIRED);
                put_u32(&mut buf, client.raw());
                put_filter(&mut buf, filter);
            }
        }
        buf
    }

    /// Encodes the record as one framed log entry (`len ‖ crc32 ‖ payload`).
    pub fn encode_framed(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            TAG_STREAM_OPEN => WalRecord::StreamOpen {
                client: ClientId::new(r.u32()?),
                client_node: r.node()?,
                filter: r.filter()?,
                next_seq: r.u64()?,
                opened_at: r.u64()?,
            },
            TAG_BUFFERED => WalRecord::Buffered {
                delivery: r.delivery()?,
            },
            TAG_RELOCATION_BEGIN => WalRecord::RelocationBegin {
                client: ClientId::new(r.u32()?),
                client_node: r.node()?,
                filter: r.filter()?,
                last_seq: r.u64()?,
            },
            TAG_RELOCATION_COMMIT => WalRecord::RelocationCommit {
                client: ClientId::new(r.u32()?),
                filter: r.filter()?,
            },
            TAG_REPLAY_ACK => WalRecord::ReplayAck {
                client: ClientId::new(r.u32()?),
                filter: r.filter()?,
            },
            TAG_CHECKPOINT => {
                let n_streams = r.u32()? as usize;
                let mut streams = Vec::with_capacity(n_streams.min(1024));
                for _ in 0..n_streams {
                    let client = ClientId::new(r.u32()?);
                    let client_node = r.node()?;
                    let filter = r.filter()?;
                    let next_seq = r.u64()?;
                    let opened_at = r.u64()?;
                    let n_buffered = r.u32()? as usize;
                    let mut buffered = Vec::with_capacity(n_buffered.min(1024));
                    for _ in 0..n_buffered {
                        buffered.push(r.delivery()?);
                    }
                    streams.push(StreamSnapshot {
                        client,
                        client_node,
                        filter,
                        next_seq,
                        opened_at,
                        buffered,
                    });
                }
                let n_holdings = r.u32()? as usize;
                let mut holdings = Vec::with_capacity(n_holdings.min(1024));
                for _ in 0..n_holdings {
                    holdings.push(HoldingSnapshot {
                        client: ClientId::new(r.u32()?),
                        client_node: r.node()?,
                        filter: r.filter()?,
                        last_seq: r.u64()?,
                    });
                }
                let generation = r.u64()?;
                WalRecord::Checkpoint {
                    streams,
                    holdings,
                    generation,
                }
            }
            TAG_EPOCH => WalRecord::Epoch {
                generation: r.u64()?,
            },
            TAG_STREAM_EXPIRED => WalRecord::StreamExpired {
                client: ClientId::new(r.u32()?),
                filter: r.filter()?,
            },
            _ => return Err(DecodeError),
        };
        if !r.done() {
            return Err(DecodeError);
        }
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// The per-broker write-ahead handoff log.
///
/// See the module docs for the record format and compaction policy.
#[derive(Debug)]
pub struct HandoffLog {
    backend: Box<dyn LogBackend>,
    appends_since_checkpoint: usize,
    checkpoint_every: usize,
    /// Live records in the log right now (appends since the last compaction
    /// plus the compaction's own checkpoint record) — the "WAL depth" the
    /// status plane reports.
    depth: u64,
    /// Monotonic count of appends over the log's lifetime (never reset by
    /// compaction) — the observability layer diffs this to journal
    /// `wal.append` events without touching the append hot path.
    appends_total: u64,
    /// Monotonic count of checkpoint compactions.
    checkpoints_total: u64,
}

impl Clone for HandoffLog {
    fn clone(&self) -> Self {
        Self {
            backend: self.backend.boxed_clone(),
            appends_since_checkpoint: self.appends_since_checkpoint,
            checkpoint_every: self.checkpoint_every,
            depth: self.depth,
            appends_total: self.appends_total,
            checkpoints_total: self.checkpoints_total,
        }
    }
}

/// Default number of appended records between compaction checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 256;

impl HandoffLog {
    /// Creates a log over a fresh (private) in-memory backend.
    pub fn in_memory() -> Self {
        Self::with_backend(Box::new(MemoryBackend::new()))
    }

    /// Creates a log over the given backend.
    pub fn with_backend(backend: Box<dyn LogBackend>) -> Self {
        Self {
            backend,
            appends_since_checkpoint: 0,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            depth: 0,
            appends_total: 0,
            checkpoints_total: 0,
        }
    }

    /// Sets the compaction interval (records between checkpoints; `0`
    /// disables automatic compaction).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Read access to the backend (e.g. to clone a durable handle).
    pub fn backend(&self) -> &dyn LogBackend {
        self.backend.as_ref()
    }

    /// Appends one record (write-ahead: call this *before* mutating the
    /// in-memory state it describes).
    ///
    /// # Panics
    ///
    /// Panics when the backend reports an I/O error — a broker that cannot
    /// persist its handoff state must not silently continue.
    pub fn append(&mut self, record: &WalRecord) {
        self.backend
            .append(&record.encode_framed())
            .expect("handoff WAL append failed");
        self.appends_since_checkpoint += 1;
        self.depth += 1;
        self.appends_total += 1;
    }

    /// Live records currently in the log (the status plane's "WAL depth").
    /// After a recovery, call [`HandoffLog::note_recovered`] to seed this
    /// with the record count the scan found.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Records appended since the last checkpoint compaction.
    pub fn since_checkpoint(&self) -> u64 {
        self.appends_since_checkpoint as u64
    }

    /// Monotonic count of appends over the log's lifetime.
    pub fn appends_total(&self) -> u64 {
        self.appends_total
    }

    /// Monotonic count of checkpoint compactions.
    pub fn checkpoints_total(&self) -> u64 {
        self.checkpoints_total
    }

    /// Seeds the depth counter with the record count a recovery scan found
    /// (the counters only observe operations performed through this
    /// handle, so a freshly recovered log must be told what it contains).
    pub fn note_recovered(&mut self, records_read: u64) {
        self.depth = records_read;
    }

    /// `true` when enough records accumulated since the last checkpoint for
    /// a compaction to be due.
    pub fn wants_checkpoint(&self) -> bool {
        self.checkpoint_every > 0 && self.appends_since_checkpoint >= self.checkpoint_every
    }

    /// Rewrites the log as a single checkpoint carrying the given state.
    ///
    /// # Panics
    ///
    /// Panics when the backend reports an I/O error.
    pub fn compact(
        &mut self,
        streams: Vec<StreamSnapshot>,
        holdings: Vec<HoldingSnapshot>,
        generation: u64,
    ) {
        let record = WalRecord::Checkpoint {
            streams,
            holdings,
            generation,
        };
        self.backend
            .reset(&record.encode_framed())
            .expect("handoff WAL compaction failed");
        self.appends_since_checkpoint = 0;
        self.depth = 1; // the log is now exactly one checkpoint record
        self.checkpoints_total += 1;
    }

    /// Scans the log and folds every valid record into a [`RecoveredState`].
    ///
    /// Recovery is total: a torn tail or corrupted record stops the scan at
    /// the last valid record instead of panicking (`truncated` is set).
    pub fn recover(&self) -> RecoveredState {
        let bytes = match self.backend.read_all() {
            Ok(bytes) => bytes,
            Err(_) => {
                return RecoveredState {
                    truncated: true,
                    ..RecoveredState::default()
                }
            }
        };
        let mut state = RecoveredState::default();
        let mut pos = 0usize;
        while pos < bytes.len() {
            // Frame header: len + crc.
            if pos + 8 > bytes.len() {
                state.truncated = true;
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let end = match start.checked_add(len) {
                Some(end) if end <= bytes.len() => end,
                _ => {
                    state.truncated = true;
                    break;
                }
            };
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                state.truncated = true;
                break;
            }
            let record = match WalRecord::decode_payload(payload) {
                Ok(record) => record,
                Err(DecodeError) => {
                    state.truncated = true;
                    break;
                }
            };
            Self::fold(&mut state, record);
            state.records_read += 1;
            pos = end;
        }
        state
    }

    fn fold(state: &mut RecoveredState, record: WalRecord) {
        match record {
            WalRecord::StreamOpen {
                client,
                client_node,
                filter,
                next_seq,
                opened_at,
            } => {
                let existing = state
                    .streams
                    .iter_mut()
                    .find(|s| s.client == client && s.filter == filter);
                match existing {
                    Some(s) => {
                        s.client_node = client_node;
                        s.next_seq = s.next_seq.max(next_seq);
                        s.opened_at = opened_at;
                    }
                    None => state.streams.push(StreamSnapshot {
                        client,
                        client_node,
                        filter,
                        next_seq,
                        opened_at,
                        buffered: Vec::new(),
                    }),
                }
            }
            WalRecord::Buffered { delivery } => {
                let client = delivery.subscriber;
                let filter = delivery.filter.clone();
                match state
                    .streams
                    .iter_mut()
                    .find(|s| s.client == client && s.filter == filter)
                {
                    Some(s) => s.buffered.push(delivery),
                    None => {
                        // An append without an open record (should not
                        // happen, but tolerated): synthesise the stream with
                        // an unknown client node.
                        state.streams.push(StreamSnapshot {
                            client,
                            client_node: NodeId(usize::MAX),
                            filter,
                            next_seq: delivery.seq,
                            opened_at: 0,
                            buffered: vec![delivery],
                        });
                    }
                }
            }
            WalRecord::RelocationBegin {
                client,
                client_node,
                filter,
                last_seq,
            } => {
                state
                    .holdings
                    .retain(|h| !(h.client == client && h.filter == filter));
                state.holdings.push(HoldingSnapshot {
                    client,
                    client_node,
                    filter,
                    last_seq,
                });
            }
            WalRecord::RelocationCommit { client, filter }
            | WalRecord::StreamExpired { client, filter } => {
                state
                    .streams
                    .retain(|s| !(s.client == client && s.filter == filter));
            }
            WalRecord::ReplayAck { client, filter } => {
                state
                    .holdings
                    .retain(|h| !(h.client == client && h.filter == filter));
            }
            WalRecord::Checkpoint {
                streams,
                holdings,
                generation,
            } => {
                state.streams = streams;
                state.holdings = holdings;
                state.generation = state.generation.max(generation);
            }
            WalRecord::Epoch { generation } => {
                state.generation = state.generation.max(generation);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_broker::Envelope;
    use rebeca_filter::{Constraint, Notification, Value};

    fn filter() -> Filter {
        Filter::new()
            .with("service", Constraint::Eq("parking".into()))
            .with("cost", Constraint::Lt(3.into()))
    }

    fn delivery(seq: u64) -> Delivery {
        Delivery {
            subscriber: ClientId::new(1),
            filter: filter(),
            seq,
            envelope: Envelope::new(
                ClientId::new(9),
                seq,
                Notification::builder()
                    .attr("service", "parking")
                    .attr("spot", seq as i64)
                    .attr("rate", 2.5)
                    .attr("open", true)
                    .attr("zone", Value::Location(4))
                    .build(),
            ),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::StreamOpen {
                client: ClientId::new(1),
                client_node: NodeId(100),
                filter: filter(),
                next_seq: 4,
                opened_at: 1_000,
            },
            WalRecord::Buffered {
                delivery: delivery(4),
            },
            WalRecord::Buffered {
                delivery: delivery(5),
            },
            WalRecord::RelocationBegin {
                client: ClientId::new(1),
                client_node: NodeId(101),
                filter: filter(),
                last_seq: 3,
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_frame_codec() {
        let records = [
            sample_records(),
            vec![
                WalRecord::RelocationCommit {
                    client: ClientId::new(1),
                    filter: filter(),
                },
                WalRecord::ReplayAck {
                    client: ClientId::new(1),
                    filter: filter(),
                },
                WalRecord::Checkpoint {
                    streams: vec![StreamSnapshot {
                        client: ClientId::new(2),
                        client_node: NodeId(3),
                        filter: Filter::new().with(
                            "tags",
                            Constraint::any_of([Value::from("a"), Value::from("b")]),
                        ),
                        next_seq: 10,
                        opened_at: 77,
                        buffered: vec![delivery(10), delivery(11)],
                    }],
                    holdings: vec![HoldingSnapshot {
                        client: ClientId::new(2),
                        client_node: NodeId(9),
                        filter: filter(),
                        last_seq: 9,
                    }],
                    generation: 3,
                },
                WalRecord::Epoch { generation: 2 },
                WalRecord::StreamExpired {
                    client: ClientId::new(1),
                    filter: filter(),
                },
            ],
        ]
        .concat();
        for record in records {
            let framed = record.encode_framed();
            let payload = &framed[8..];
            assert_eq!(
                u32::from_le_bytes(framed[0..4].try_into().unwrap()) as usize,
                payload.len()
            );
            let decoded = WalRecord::decode_payload(payload).expect("roundtrip");
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn recovery_folds_a_full_relocation_to_empty_state() {
        let mut log = HandoffLog::in_memory();
        for r in sample_records() {
            log.append(&r);
        }
        log.append(&WalRecord::RelocationCommit {
            client: ClientId::new(1),
            filter: filter(),
        });
        log.append(&WalRecord::ReplayAck {
            client: ClientId::new(1),
            filter: filter(),
        });
        let state = log.recover();
        assert!(!state.truncated);
        assert_eq!(state.records_read, 6);
        assert!(state.streams.is_empty());
        assert!(state.holdings.is_empty());
    }

    /// The layouts written while the log still carried routing state: a
    /// trailing `towards` node on `RelocationCommit`, and a re-point list
    /// between the holdings and the generation of `Checkpoint`.  Recovery
    /// refuses either as corrupt and keeps the valid prefix, instead of
    /// misreading it (which would drop the stream the commit names, or
    /// take re-point bytes for a generation).
    #[test]
    fn recovery_refuses_the_layouts_that_carried_routing_state() {
        let mut commit = Vec::new();
        put_u8(&mut commit, TAG_RELOCATION_COMMIT);
        put_u32(&mut commit, 1);
        put_filter(&mut commit, &filter());
        put_node(&mut commit, NodeId(7));
        let mut checkpoint = Vec::new();
        put_u8(&mut checkpoint, TAG_CHECKPOINT);
        put_u32(&mut checkpoint, 0); // streams
        put_u32(&mut checkpoint, 0); // holdings
        put_u32(&mut checkpoint, 1); // re-points
        put_filter(&mut checkpoint, &filter());
        put_node(&mut checkpoint, NodeId(4));
        put_u64(&mut checkpoint, 3); // generation
        for payload in [commit, checkpoint] {
            assert!(WalRecord::decode_payload(&payload).is_err());
            let backend = MemoryBackend::new();
            let mut log = HandoffLog::with_backend(Box::new(backend.clone()));
            log.append(&sample_records()[0]);
            let mut bytes = backend.bytes();
            put_u32(&mut bytes, payload.len() as u32);
            put_u32(&mut bytes, crc32(&payload));
            bytes.extend_from_slice(&payload);
            backend.corrupt_with(bytes);
            let state = log.recover();
            assert!(state.truncated);
            assert_eq!(state.records_read, 1);
            assert_eq!(state.streams.len(), 1, "the stream is not dropped");
            assert_eq!(state.generation, 0);
        }
    }

    #[test]
    fn recovery_reconstructs_counterparts_mid_relocation() {
        let mut log = HandoffLog::in_memory();
        for r in sample_records() {
            log.append(&r);
        }
        let state = log.recover();
        assert!(!state.truncated);
        assert_eq!(state.streams.len(), 1);
        let s = &state.streams[0];
        assert_eq!(s.client, ClientId::new(1));
        assert_eq!(s.client_node, NodeId(100));
        assert_eq!(s.next_seq, 4);
        assert_eq!(
            s.buffered.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(state.holdings.len(), 1);
        assert_eq!(state.holdings[0].last_seq, 3);
    }

    #[test]
    fn stream_expiry_folds_the_counterpart_away() {
        let mut log = HandoffLog::in_memory();
        for r in sample_records() {
            log.append(&r);
        }
        log.append(&WalRecord::StreamExpired {
            client: ClientId::new(1),
            filter: filter(),
        });
        let state = log.recover();
        assert!(!state.truncated);
        assert!(state.streams.is_empty(), "expired stream is gone");
        assert_eq!(state.holdings.len(), 1, "holdings are untouched");
    }

    #[test]
    fn compaction_replaces_history_with_one_checkpoint() {
        let backend = MemoryBackend::new();
        let mut log = HandoffLog::with_backend(Box::new(backend.clone())).checkpoint_every(3);
        for r in sample_records() {
            log.append(&r);
        }
        assert!(log.wants_checkpoint());
        let before = log.recover();
        log.compact(before.streams.clone(), before.holdings.clone(), 1);
        assert!(!log.wants_checkpoint());
        let after = log.recover();
        assert_eq!(after.streams, before.streams);
        assert_eq!(after.holdings, before.holdings);
        assert_eq!(after.records_read, 1, "one checkpoint record");
        // The log physically shrank below the sum of the original records.
        let original: usize = sample_records()
            .iter()
            .map(|r| r.encode_framed().len())
            .sum();
        assert!(backend.len() < original);
    }

    #[test]
    fn recovery_stops_at_a_torn_tail() {
        let backend = MemoryBackend::new();
        let mut log = HandoffLog::with_backend(Box::new(backend.clone()));
        for r in sample_records() {
            log.append(&r);
        }
        let full = backend.bytes();
        // Cut the last record in half (torn append at crash time).
        backend.corrupt_with(full[..full.len() - 5].to_vec());
        let state = log.recover();
        assert!(state.truncated);
        assert_eq!(state.records_read, 3, "only the complete records replay");
        assert_eq!(state.streams.len(), 1);
        assert!(
            state.holdings.is_empty(),
            "the torn RelocationBegin is lost"
        );
    }

    #[test]
    fn recovery_stops_at_a_flipped_payload_byte() {
        let backend = MemoryBackend::new();
        let mut log = HandoffLog::with_backend(Box::new(backend.clone()));
        for r in sample_records() {
            log.append(&r);
        }
        let mut bytes = backend.bytes();
        // Flip one byte inside the *second* record's payload.
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + 8;
        bytes[first_len + 12] ^= 0xFF;
        backend.corrupt_with(bytes);
        let state = log.recover();
        assert!(state.truncated);
        assert_eq!(state.records_read, 1, "scan stops at the corrupted record");
        assert_eq!(state.streams.len(), 1);
        assert!(state.streams[0].buffered.is_empty());
    }

    #[test]
    fn recovery_survives_an_absurd_length_prefix() {
        let backend = MemoryBackend::new();
        let mut log = HandoffLog::with_backend(Box::new(backend.clone()));
        log.append(&sample_records()[0]);
        let mut bytes = backend.bytes();
        // Append a frame whose length overruns the buffer by far.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        backend.corrupt_with(bytes);
        let state = log.recover();
        assert!(state.truncated);
        assert_eq!(state.records_read, 1);
    }

    #[test]
    fn memory_backend_clones_share_storage() {
        let a = MemoryBackend::new();
        let mut b = a.boxed_clone();
        b.append(b"hello").unwrap();
        assert_eq!(a.bytes(), b"hello");
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn file_backend_roundtrips_and_recovers() {
        let path = std::env::temp_dir().join(format!(
            "rebeca-wal-test-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut log = HandoffLog::with_backend(Box::new(FileBackend::new(&path)));
        for r in sample_records() {
            log.append(&r);
        }
        // A fresh log over the same path sees the same state (restart).
        let reopened = HandoffLog::with_backend(Box::new(FileBackend::new(&path)));
        let state = reopened.recover();
        assert!(!state.truncated);
        assert_eq!(state.streams.len(), 1);
        assert_eq!(state.streams[0].buffered.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// A fresh directory for one file-backend test; the WAL is `wal` in it.
    fn wal_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rebeca-wal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_reset_replaces_the_content_and_leaves_no_temp_file() {
        let dir = wal_dir("reset");
        let mut backend = FileBackend::new(dir.join("wal"));
        backend.append(b"old records").unwrap();
        backend.reset(b"checkpoint").unwrap();
        assert_eq!(backend.read_all().unwrap(), b"checkpoint");
        assert!(!dir.join("wal.tmp").exists());
        backend.append(b"+tail").unwrap();
        assert_eq!(backend.read_all().unwrap(), b"checkpoint+tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_reset_ignores_then_overwrites_a_stale_temp_file() {
        let dir = wal_dir("stale");
        let mut backend = FileBackend::new(dir.join("wal"));
        backend.append(b"live log").unwrap();
        // A compaction that crashed before its rename left this behind.
        std::fs::write(dir.join("wal.tmp"), b"half-written checkpoint, longer").unwrap();
        assert_eq!(backend.read_all().unwrap(), b"live log");
        backend.reset(b"checkpoint").unwrap();
        assert_eq!(backend.read_all().unwrap(), b"checkpoint");
        assert!(!dir.join("wal.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_reset_that_cannot_write_keeps_the_old_log() {
        let dir = wal_dir("blocked");
        let mut backend = FileBackend::new(dir.join("wal"));
        backend.append(b"records that must survive").unwrap();
        // A directory where the temp file should go makes its creation fail.
        std::fs::create_dir(dir.join("wal.tmp")).unwrap();
        assert!(backend.reset(b"checkpoint").is_err());
        assert_eq!(
            std::fs::read(dir.join("wal")).unwrap(),
            b"records that must survive"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_logs_recover_to_empty_state() {
        let log = HandoffLog::in_memory();
        let state = log.recover();
        assert_eq!(state, RecoveredState::default());
        let missing = HandoffLog::with_backend(Box::new(FileBackend::new(
            std::env::temp_dir().join("rebeca-wal-does-not-exist.wal"),
        )));
        assert_eq!(missing.recover(), RecoveredState::default());
    }
}
