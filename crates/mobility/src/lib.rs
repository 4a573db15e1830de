//! The durable, batch-aware mobility engine extracted from the mobility
//! broker of `rebeca-core`.
//!
//! The paper's relocation protocol (Section 4 of *"Supporting Mobility in
//! Content-Based Publish/Subscribe Middleware"*, Fiege et al., Middleware
//! 2003) lives here as two cooperating layers:
//!
//! * [`RelocationMachine`] — a transport-agnostic state machine with one
//!   map per role (virtual counterparts, holdings, replay routes), read as
//!   per-stream phases ([`RelocationPhase`]: Local, Holding,
//!   AwaitingReplay), with explicit transitions for ReSubscribe / Relocate /
//!   Fetch / Replay / Timeout.  The machine talks to the world through returned
//!   [`Effect`]s, so the mobility-aware broker of `rebeca-core` shrinks to a
//!   thin adapter that wires the machine to the static `BrokerCore` and the
//!   simulator's timers.
//! * [`HandoffLog`] — a per-broker, append-only, length-prefixed and
//!   checksummed write-ahead log behind a pluggable [`LogBackend`]
//!   ([`MemoryBackend`] for the deterministic simulator, [`FileBackend`]
//!   for real runs).  Counterpart buffer appends, relocation begin/commit
//!   and replay acks are logged before the in-memory mutation, periodic
//!   checkpoints compact the log, and [`RelocationMachine::recover`]
//!   reconstructs a restarted broker's virtual counterparts exactly.
//!
//! # Durability scope
//!
//! Recovery guarantees exact counterpart reconstruction at the *old* border
//! broker (the paper's buffering side): the disconnected client record, its
//! subscription, the routing entry towards the client link, the
//! per-stream sequence watermark and every buffered delivery.  The log
//! carries no other routing state: a restarted broker re-learns its routes
//! from what each neighbour holds as sent to it.  At the *new* border
//! broker a recovered holding reconstructs the attached client and re-arms
//! its relocation timeout, so a replay arriving after the restart still
//! merges; only fresh envelopes held back before the crash are not
//! persisted (see ROADMAP follow-ups for held-envelope journalling).  Each
//! recovery also stamps a fresh restart generation into the log: timeout
//! tags are namespaced per generation, so timers armed by a crashed
//! incarnation can never alias a guard of the restarted one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod log;
mod machine;
mod routes;

pub use log::{
    FileBackend, HandoffLog, HoldingSnapshot, LogBackend, MemoryBackend, RecoveredState,
    StreamSnapshot, WalRecord, DEFAULT_CHECKPOINT_EVERY,
};
pub use machine::{Effect, RelocationMachine, RelocationPhase, StreamKey};
pub use routes::ReplayRoutes;

/// Where a deployment persists its per-broker handoff logs.
#[derive(Debug, Clone, Default)]
pub enum PersistenceConfig {
    /// Shared in-process buffers: clones of a broker's backend observe each
    /// other's writes, so a handle kept by the deployment survives a broker
    /// crash.  The default, and what the deterministic simulator uses.
    #[default]
    InMemory,
    /// One WAL file per broker (`broker-<index>.wal`) under the given
    /// persistence root directory.
    Directory(std::path::PathBuf),
}

impl PersistenceConfig {
    /// Creates the backend for broker `index` under this policy.
    pub fn backend_for(&self, index: usize) -> Box<dyn LogBackend> {
        match self {
            PersistenceConfig::InMemory => Box::new(MemoryBackend::new()),
            PersistenceConfig::Directory(root) => {
                Box::new(FileBackend::new(root.join(format!("broker-{index}.wal"))))
            }
        }
    }
}
