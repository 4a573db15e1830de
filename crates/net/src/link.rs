//! The link layer: blocking sockets, one loop-owned outbound state machine
//! per peer process, self-healing across connection losses.
//!
//! Two processes talk over up to two *directed* connections, each owned by
//! the sending side, and every node pair `(from, to)` between them shares
//! the sender's one: its frames keep their `(from, to)` header.  A peer
//! process is known by the endpoint it is dialled at — a broker by its
//! configured endpoint (co-hosted brokers share one), a client by the
//! `listen` endpoint its `Hello` announced.  Thread inventory per directed
//! connection — one reader at the receiver; at the sender one cold dialer,
//! one cold ack pump and **no writer thread** — so the threads of a process
//! follow its peer processes, not its nodes:
//!
//! * the sender's **event loop** owns the [`Link`]: the node pairs it
//!   carries, one sequence counter, one resend window (one reusable buffer
//!   of encoded frames), the connected socket.  A send is sequenced and
//!   encoded straight into the window ([`Outbound::enqueue`]); the loop
//!   writes everything a turn produced with **one `write` per connection**
//!   ([`Link::flush`]) — coalescing under load, no hand-off when idle.
//!   Introductions stay per pair: a fresh connection writes the `Hello` of
//!   every pair it carries, and a pair first used mid-connection has its
//!   `Hello` written ahead of the flush that carries its first frame.
//!   Handshake, replay, idle [`Frame::Heartbeat`]s and [`FaultPlan`] drops
//!   act on the same single-owner state, so nothing can interleave with a
//!   data flush.
//! * one cold **dialer** thread ([`Link::spawn`]) dials the peer's listen
//!   endpoint (retrying until the peer process is up), hands the loop a
//!   connected socket ([`ConnSignal::Connected`]) and sleeps until the loop
//!   asks for the next one.  After a loss it *redials* with exponential
//!   backoff + jitter; the loop then writes `Hello` and replays the
//!   unacknowledged suffix — frames enqueued while the link was down wait
//!   in the window and leave exactly once, with that replay.
//! * one cold **ack pump** thread per connection reads the cumulative
//!   [`Frame::Ack`]s the peer writes back and publishes the high-water mark
//!   through an `AtomicU64` the link reads before every window check — it
//!   wakes nobody.  A window that overflows all the same (a peer that
//!   acknowledges nothing, or a burst that outruns the ack round trip)
//!   fails the link loudly ([`LinkEvent::Failed`]) rather than ever losing
//!   a frame silently.
//! * the receiver's **reader thread** ([`spawn_reader`]) serves one
//!   accepted connection: it decodes frames off the socket and forwards
//!   them as [`Inbound`] events into the driver's event loop channel,
//!   suppressing duplicate sequence numbers per node pair (replays of
//!   frames that did arrive before the crash).  It tracks every node
//!   introduced on the connection: heartbeats are attributed to all of
//!   them, and a `Message` from a node never introduced is dropped and
//!   counted.  Acknowledgements are cumulative and *delayed*: one `Ack`
//!   per [`ACK_EVERY`] sequenced frames, or when the stream pauses for
//!   [`ACK_DELAY`] with one owed.  A corrupt stream (checksum mismatch,
//!   unknown tag) closes the connection with a typed error — never a
//!   panic.
//!
//! Epoch fencing makes the `Hello` restart epoch load-bearing: the shared
//! [`LinkRegistry`] records the newest epoch seen per peer node, a reader
//! rejects a `Hello` that regresses it (answering [`Frame::Fenced`]), and
//! an established connection is torn down as soon as any node introduced
//! on it is superseded — a zombie pre-crash incarnation can never
//! interleave with its successor.
//!
//! TCP guarantees per-connection FIFO, and a new connection replays the
//! unacknowledged suffix in order before anything fresh, so one send order
//! per process pair holds across connection generations: driver send order
//! → connection window order → socket order (replayed prefix first) →
//! reader order (duplicates dropped) → event channel order.  Per-pair FIFO
//! — the link contract of the paper's Section 2.1 — is a subsequence of it.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebeca_broker::Message;
use rebeca_sim::{DelayModel, Metrics, NodeId, SimDuration};

use crate::endpoint::Endpoint;
use crate::wire::{Frame, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN};

/// How long a reader blocks on the socket before re-checking the shutdown
/// flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// A reader acknowledges once this many sequenced frames have arrived since
/// its last acknowledgement…
pub(crate) const ACK_EVERY: u32 = 32;

/// …or once the stream has paused this long with an acknowledgement owed
/// (the reader's socket read timeout while one is).
const ACK_DELAY: Duration = Duration::from_millis(2);

/// How long the acceptor sleeps between polls of its non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Whether a blocking socket call gave up at its timeout rather than failed.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Whether a socket read came back empty-handed on a healthy socket: it
/// timed out, or a signal interrupted it.  Linux fails a read under
/// `SO_RCVTIMEO` with `EINTR` once the process is stopped and continued
/// (SIGSTOP/SIGCONT), so that is no reason to drop the connection.
fn read_retryable(e: &std::io::Error) -> bool {
    timed_out(e) || e.kind() == std::io::ErrorKind::Interrupted
}

/// An event arriving over the network, forwarded into the driver loop.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// A peer introduced itself on a fresh connection.
    Hello {
        /// The dialing node.
        from: NodeId,
        /// The local node the connection feeds.
        to: NodeId,
        /// The dialer's restart epoch.
        epoch: u64,
        /// Where the dialer's process can be dialled back.
        listen: Endpoint,
        /// The link's delay model.
        delay: DelayModel,
    },
    /// A protocol message for a local node.
    Message {
        /// The sending node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The sender-sampled link delay to apply on top of the transfer.
        delay: SimDuration,
        /// The message.
        message: Message,
    },
    /// A liveness beacon from an identified peer process (a heartbeat
    /// before the connection's first `Hello` has no sender and is dropped
    /// at the reader).
    Heartbeat {
        /// Every node introduced on the connection.
        from: Vec<NodeId>,
        /// The peer's restart epoch.
        epoch: u64,
    },
    /// An admin status request; the driver answers by writing a
    /// [`Frame::StatusReport`] straight back onto `reply`.
    Status {
        /// A clone of the requesting connection's stream to answer on.
        reply: TcpStream,
        /// Journal cursor: when set, include events with sequence numbers
        /// strictly greater than this.
        events_after: Option<u64>,
    },
    /// An admin trace request; the driver answers by writing a
    /// [`Frame::TraceReport`] straight back onto `reply`.
    Trace {
        /// A clone of the requesting connection's stream to answer on.
        reply: TcpStream,
        /// Span cursor: when set, include spans with buffer sequence
        /// numbers strictly greater than this.
        spans_after: Option<u64>,
    },
    /// A dialer or ack pump reporting on an outbound connection; the loop
    /// hands it to [`Link::on_signal`].
    Conn {
        /// The connection's [`LinkConfig::id`].
        link: usize,
        /// The connection concerned (1 = the link's first; for a redial
        /// attempt, the one that was lost).
        generation: u64,
        /// What happened.
        signal: ConnSignal,
    },
    /// A reader rejected (or tore down) a connection whose restart epoch
    /// regressed below the newest epoch seen from that node.
    Stale {
        /// The fenced node.
        from: NodeId,
        /// The stale epoch it presented.
        epoch: u64,
        /// The minimum epoch the registry accepts from it.
        expected: u64,
    },
    /// A reader suppressed a replayed frame it had already received.
    Duplicate {
        /// The sending node.
        from: NodeId,
        /// The duplicate sequence number.
        seq: u64,
    },
    /// A reader dropped a `Message` from a node never introduced on its
    /// connection: the driver would not know how to answer it.
    Unintroduced,
    /// An admin [`Frame::LinkDrop`] asked the driver to force-drop its
    /// connection towards `peer` (fault injection).
    AdminDrop {
        /// The peer whose connection should be dropped.
        peer: NodeId,
    },
}

/// A state transition of one outbound connection, raised by the event loop
/// as it drives the [`Link`] — or, for `Redial`, `Down` and `Fenced`,
/// reported to it by the link's helper threads ([`ConnSignal::Event`]).
#[derive(Debug)]
pub(crate) enum LinkEvent {
    /// Dial + handshake succeeded; `resent` unacknowledged frames that had
    /// been written before are being replayed (0 on the first connection).
    Up {
        /// Frames replayed from the resend window.
        resent: usize,
    },
    /// An established connection was lost; the dialer is redialing.
    Down {
        /// Why the connection dropped.
        reason: String,
    },
    /// One reconnect attempt towards the peer (successful or not).
    Redial {
        /// Lifetime redial attempt count for this link.
        attempt: u64,
    },
    /// The peer fenced this link's epoch: a newer incarnation of the local
    /// node owns the identity, so the link closes permanently.
    Fenced {
        /// The minimum epoch the peer accepts.
        expected: u64,
    },
    /// The link failed permanently and loudly (resend window overflow or
    /// an unsplittable oversized frame) — never a silent drop.
    Failed {
        /// Why the link cannot honour its contract any more.
        reason: String,
    },
}

/// What a link's helper threads tell the event loop.
#[derive(Debug)]
pub(crate) enum ConnSignal {
    /// The dialer connected; the loop takes the socket over.
    Connected(TcpStream),
    /// The dialer starts a reconnect attempt (`Redial`), or the ack pump's
    /// read half ended (`Down`) or was fenced by the peer (`Fenced`).
    Event(LinkEvent),
}

/// Deterministic fault injection for the link layer: drop the connection
/// after a number of data frames have been written, exercising the
/// redial + resend path in tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Restrict the fault to the connection that carries frames to this
    /// peer node index (`None` = every connection of the driver).
    pub peer: Option<usize>,
    /// Drop the connection once this many sequenced frames have been
    /// written on it, whichever node pairs they belong to.
    pub drop_after_frames: u64,
    /// Fire once (`true`) or every `drop_after_frames` frames (`false`).
    pub once: bool,
}

impl FaultPlan {
    /// A one-shot plan: drop every connection after `frames` sequenced
    /// frames.
    pub fn drop_after(frames: u64) -> Self {
        Self {
            peer: None,
            drop_after_frames: frames,
            once: true,
        }
    }

    /// Restricts the plan to the connection that carries frames to node
    /// `peer`: the one to that node's process, shared by every node pair
    /// towards it.
    pub fn on_peer(mut self, peer: usize) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Makes the plan recurring: fire every `drop_after_frames` frames.
    pub fn recurring(mut self) -> Self {
        self.once = false;
        self
    }
}

/// The knob set of one outbound connection.
pub(crate) struct LinkConfig {
    /// The driver's name for the connection, stamped on its helper
    /// threads' reports ([`Inbound::Conn`]).
    pub id: usize,
    /// The peer process's listen endpoint to dial.
    pub target: Endpoint,
    /// This process's dial-back endpoint, announced in every `Hello`.
    pub listen: Endpoint,
    /// Socket write timeout — the liveness horizon: a peer that takes no
    /// byte for this long is a broken connection, not a reason to wedge
    /// the event loop.
    pub write_timeout: Duration,
    /// Constant dial cadence for the *first* connection (cluster startup).
    pub dial_retry: Duration,
    /// Backoff cap for redials after a connection loss.
    pub redial_max: Duration,
    /// Maximum unacknowledged frames held for replay per node pair carried;
    /// overflow fails the connection loudly.
    pub resend_window: usize,
    /// The local process's restart epoch (stamped on handshakes and
    /// heartbeats).
    pub epoch: u64,
    /// Optional fault injection plan.
    pub fault: Option<FaultPlan>,
}

/// Exponential backoff with deterministic jitter for redial attempt
/// `attempt` (1-based): `base * 2^(attempt-1)` capped at `max`, plus up to
/// 25% jitter derived from `seed` — so a cluster of dialers redialing the
/// same crashed peer does not thunder in lockstep.
fn redial_backoff(attempt: u64, base: Duration, max: Duration, seed: u64) -> Duration {
    let base_us = (base.as_micros() as u64).max(1);
    let max_us = (max.as_micros() as u64).max(base_us);
    let shift = (attempt.saturating_sub(1)).min(20) as u32;
    let exp_us = base_us.saturating_mul(1u64 << shift).min(max_us);
    // xorshift64 over (seed, attempt): cheap, deterministic, no rand dep.
    let mut x = (seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let jitter_bound = exp_us / 4;
    let jitter = if jitter_bound > 0 {
        x % (jitter_bound + 1)
    } else {
        0
    };
    Duration::from_micros(exp_us + jitter)
}

/// Verdict of [`LinkRegistry::admit`].
pub(crate) enum Admit {
    /// The epoch is current (or newer, now recorded); proceed.
    Ok,
    /// The epoch regressed: fence the connection.
    Stale {
        /// The minimum epoch the registry accepts from this node.
        expected: u64,
    },
}

/// Shared per-driver connection bookkeeping: the newest restart epoch seen
/// per peer node (for fencing) and the per-direction receive high-water
/// marks (for duplicate suppression and cumulative acks).  One instance is
/// shared by every reader and ack-pump thread of a driver.
#[derive(Debug, Default)]
pub(crate) struct LinkRegistry {
    inner: Mutex<RegistryInner>,
    /// `Ack` frames written by this driver's readers, and read by its ack
    /// pumps, since the event loop last folded them into its `Metrics`
    /// (`net.acks_out` / `net.acks_in`; helper threads have no `Metrics`).
    pub acks_out: AtomicU64,
    pub acks_in: AtomicU64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Newest restart epoch seen per peer node index.
    epochs: HashMap<usize, u64>,
    /// Receive high-water mark per `(from, to)` direction.
    recv_high: HashMap<(usize, usize), u64>,
}

impl LinkRegistry {
    /// Judges a `Hello` from node `from` carrying `epoch`.  An epoch newer
    /// than the recorded one resets the node's receive high-water marks:
    /// the successor incarnation restarts its sequence numbers at 1, and
    /// its fresh frames must not be mistaken for the predecessor's
    /// duplicates.
    pub fn admit(&self, from: usize, epoch: u64) -> Admit {
        let mut inner = self.inner.lock().unwrap();
        match inner.epochs.get(&from).copied() {
            Some(known) if epoch < known => Admit::Stale { expected: known },
            Some(known) if epoch > known => {
                inner.epochs.insert(from, epoch);
                inner.recv_high.retain(|(f, _), _| *f != from);
                Admit::Ok
            }
            Some(_) => Admit::Ok,
            None => {
                inner.epochs.insert(from, epoch);
                Admit::Ok
            }
        }
    }

    /// The newest epoch seen from `from` (0 when never heard).
    pub fn current_epoch(&self, from: usize) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .epochs
            .get(&from)
            .copied()
            .unwrap_or(0)
    }

    /// Records `seq` on the `(from, to)` direction.  Returns `true` when
    /// the frame is fresh (forward it) and `false` for a duplicate (drop
    /// it, but still acknowledge).  A connection's pairs share one
    /// increasing sequence, so each pair sees an increasing subsequence of
    /// it, and what arrived of it is always a prefix.
    pub fn accept_seq(&self, from: usize, to: usize, seq: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let high = inner.recv_high.entry((from, to)).or_insert(0);
        if seq <= *high {
            false
        } else {
            *high = seq;
            true
        }
    }
}

/// The sans-IO outbound half of one connection to a peer process: the node
/// pairs it carries and their handshakes, one sequence space for all of
/// them, the resend window, the write cursor and the fault plan.
/// Everything that touches a socket takes it as `impl Write`, so the whole
/// contract is unit tested against a byte vector.
///
/// The window is ONE buffer of encoded frames, oldest unacknowledged first:
///
/// ```text
/// window:  [ acknowledged | written, unacknowledged | not yet written ]
///          0            head                     written          len
/// ```
///
/// A flush writes `window[written..]` in one call; a new connection rewinds
/// `written` to `head`, so "replay the unacknowledged suffix, then the
/// frames enqueued while the link was down, then fresh frames" is the same
/// flush — no frame exists in two places, so none can leave twice.
pub(crate) struct Outbound {
    /// The node pairs `(from, to)` the connection carries, in the order
    /// they were first used.
    pairs: Vec<(NodeId, NodeId)>,
    /// The encoded `Hello` of every pair, in `pairs` order.
    hellos: Vec<u8>,
    /// How much of `hellos` the current connection has been sent: the rest
    /// belongs to pairs added since, and leaves ahead of the next flush.
    introduced: usize,
    listen: Endpoint,
    epoch: u64,
    /// Unacknowledged frames allowed per pair.
    resend_window: usize,
    /// Largest encoded frame the peer accepts (header included).
    max_frame: usize,
    fault: Option<FaultPlan>,
    /// Whether `fault` applies: the connection carries frames to its peer.
    fault_armed: bool,
    /// Sequence number of the next frame; the frames in the window are
    /// `next_seq - lens.len() .. next_seq`.
    next_seq: u64,
    window: Vec<u8>,
    /// Encoded length of every unacknowledged frame, oldest first.
    lens: VecDeque<usize>,
    head: usize,
    written: usize,
    /// Highest sequence number ever written to a socket: frames above it
    /// are fresh (they count towards the fault plan), frames up to it are
    /// resends when a new connection replays them.
    sent_high: u64,
    /// Fresh frames written since the fault plan last fired.
    fault_count: u64,
    /// The peer's cumulative acknowledgement, published by the ack pumps.
    acked: Arc<AtomicU64>,
    /// Fenced or failed: every later enqueue is refused.
    closed: bool,
}

impl Outbound {
    pub fn new(cfg: &LinkConfig) -> Self {
        Self {
            pairs: Vec::new(),
            hellos: Vec::new(),
            introduced: 0,
            listen: cfg.listen.clone(),
            epoch: cfg.epoch,
            resend_window: cfg.resend_window,
            max_frame: MAX_FRAME_LEN as usize + FRAME_HEADER_LEN,
            fault: cfg.fault,
            fault_armed: false,
            next_seq: 1,
            window: Vec::new(),
            lens: VecDeque::new(),
            head: 0,
            written: 0,
            sent_high: 0,
            fault_count: 0,
            acked: Arc::new(AtomicU64::new(0)),
            closed: false,
        }
    }

    /// Whether a flush would write anything.
    pub fn pending(&self) -> bool {
        self.introduced < self.hellos.len() || self.written < self.window.len()
    }

    /// Adds the node pair `from → to` to the connection: its `Hello` goes
    /// out on every fresh connection from now on, and ahead of the next
    /// flush on the current one; the window grows by `resend_window`
    /// frames.  Returns `true` when the link had nothing unwritten before,
    /// like [`Outbound::enqueue`].
    pub fn add_pair(&mut self, from: NodeId, to: NodeId, delay: DelayModel) -> bool {
        let first_unwritten = !self.pending();
        self.pairs.push((from, to));
        Frame::Hello {
            from,
            to,
            epoch: self.epoch,
            listen: self.listen.clone(),
            delay,
        }
        .encode_framed_into(&mut self.hellos);
        self.fault_armed |= self
            .fault
            .is_some_and(|f| f.peer.is_none_or(|p| p == to.index()));
        first_unwritten
    }

    /// The distinct peer nodes the connection carries frames to.
    pub fn peers(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self.pairs.iter().map(|&(_, to)| to).collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Sequences `message` from `from` to `to` and encodes it into the
    /// window.  A frame over the receiver's size limit is split into halves
    /// (`DeliverBatch` payloads only) until every piece fits; pieces are sequenced
    /// in final order, so per-pair FIFO — and therefore exactly-once
    /// delivery — is preserved.
    ///
    /// `Ok(true)` means the link had nothing unwritten before: it is the
    /// caller's cue to put the link on its flush list.  `Err` means the
    /// frame was refused: `Some(event)` when this very frame failed the
    /// link (an unsplittable oversized frame, or more than `resend_window`
    /// frames per pair carried unacknowledged — checked against the peer's
    /// *current* ack mark), `None` when the link was already closed.
    pub fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        delay_micros: u64,
        message: Message,
    ) -> Result<bool, Option<LinkEvent>> {
        if self.closed {
            return Err(None);
        }
        let first_unwritten = !self.pending();
        let pushed = self.push(Frame::Message {
            from,
            to,
            delay_micros,
            seq: 0,
            message,
        });
        self.prune();
        let limit = self.resend_window * self.pairs.len();
        let reason = match pushed {
            Err(reason) => reason,
            Ok(()) if self.lens.len() > limit => format!(
                "resend window overflow: {} unacked frames exceed the limit of {limit} \
                 ({} per node pair)",
                self.lens.len(),
                self.resend_window
            ),
            Ok(()) => return Ok(first_unwritten),
        };
        self.close();
        Err(Some(LinkEvent::Failed { reason }))
    }

    fn push(&mut self, mut frame: Frame) -> Result<(), String> {
        if let Frame::Message { seq, .. } = &mut frame {
            *seq = self.next_seq;
        }
        let start = self.window.len();
        frame.encode_framed_into(&mut self.window);
        let len = self.window.len() - start;
        if len <= self.max_frame {
            self.next_seq += 1;
            self.lens.push_back(len);
            return Ok(());
        }
        self.window.truncate(start);
        match split_frame(frame) {
            Some((first, second)) => {
                self.push(first)?;
                self.push(second)
            }
            // An unsplittable message the peer is guaranteed to reject: the
            // link cannot honour its error-free contract any more — fail it
            // loudly rather than silently dropping one message.
            None => Err(format!(
                "unsplittable frame of {len} bytes exceeds the {} payload limit",
                self.max_frame - FRAME_HEADER_LEN
            )),
        }
    }

    /// Drops every frame the peer has acknowledged from the window.
    fn prune(&mut self) {
        // Relaxed: the mark is a lone monotone number, it publishes no
        // other memory.
        let acked = self.acked.load(Ordering::Relaxed);
        while self.next_seq - self.lens.len() as u64 <= acked {
            let Some(len) = self.lens.pop_front() else {
                break;
            };
            self.head += len;
        }
        // Acknowledged on an earlier connection: nothing left to replay.
        self.written = self.written.max(self.head);
        if self.head == self.window.len() {
            self.window.clear();
            (self.head, self.written) = (0, 0);
        } else if self.head > self.window.len() / 2 {
            self.window.drain(..self.head);
            self.written -= self.head;
            self.head = 0;
        }
    }

    /// Opens a fresh connection: writes the handshake of every pair in one
    /// `write` and rewinds the write cursor to the oldest unacknowledged
    /// frame, so the next flush starts exactly where the old connection
    /// provably left off.  Returns how many of the frames to replay had
    /// been written before.
    pub fn hello(
        &mut self,
        sock: &mut impl Write,
        metrics: &mut Metrics,
    ) -> std::io::Result<usize> {
        self.prune();
        self.written = self.head;
        metrics.incr("net.socket_writes");
        sock.write_all(&self.hellos)?;
        self.introduced = self.hellos.len();
        let oldest = self.next_seq - self.lens.len() as u64;
        Ok((self.sent_high + 1).saturating_sub(oldest) as usize)
    }

    /// Writes everything not yet written on this connection: the `Hello`s
    /// of pairs added since it came up, then the window with one `write`.
    /// `Ok(true)` means the fault plan fired at this write boundary; like
    /// an error, it obliges the caller to drop the connection.
    pub fn flush(&mut self, sock: &mut impl Write, metrics: &mut Metrics) -> std::io::Result<bool> {
        if self.introduced < self.hellos.len() {
            metrics.incr("net.socket_writes");
            sock.write_all(&self.hellos[self.introduced..])?;
            self.introduced = self.hellos.len();
        }
        if self.written == self.window.len() {
            return Ok(false);
        }
        metrics.incr("net.socket_writes");
        sock.write_all(&self.window[self.written..])?;
        self.written = self.window.len();
        let newest = self.next_seq - 1;
        self.fault_count += newest.saturating_sub(self.sent_high);
        self.sent_high = self.sent_high.max(newest);
        if let Some(plan) = self.fault.filter(|_| self.fault_armed) {
            if self.fault_count >= plan.drop_after_frames {
                if plan.once {
                    self.fault = None;
                } else {
                    self.fault_count = 0;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Closes the link for good (fenced or failed) and frees the window.
    pub fn close(&mut self) {
        self.closed = true;
        self.window = Vec::new();
        self.lens.clear();
        (self.head, self.written) = (0, 0);
        (self.hellos, self.introduced) = (Vec::new(), 0);
    }
}

/// One outbound connection to a peer process as the event loop owns it:
/// the [`Outbound`] state machine plus the connected socket (when there is
/// one) and the handle on the connection's dialer thread.
pub(crate) struct Link {
    out: Outbound,
    heartbeat: Vec<u8>,
    conn: Option<TcpStream>,
    /// Generation of `conn` (or of the last connection, while down).
    generation: u64,
    last_write: Instant,
    /// Asks the dialer for the next connection — `true` after a write
    /// timeout, which makes it back off first.
    redial: Sender<bool>,
}

impl Link {
    /// Creates the link and spawns its dialer, which starts dialling at
    /// once; frames enqueued before the first connection wait in the
    /// window.
    pub fn spawn(
        cfg: LinkConfig,
        events: Sender<Inbound>,
        shutdown: Arc<AtomicBool>,
        registry: Arc<LinkRegistry>,
    ) -> Self {
        let out = Outbound::new(&cfg);
        let heartbeat = Frame::Heartbeat { epoch: cfg.epoch }.encode_framed();
        let (redial, requests) = channel();
        spawn_dialer(cfg, out.acked.clone(), requests, events, shutdown, registry);
        Self {
            out,
            heartbeat,
            conn: None,
            generation: 0,
            last_write: Instant::now(),
            redial,
        }
    }

    /// See [`Outbound::add_pair`].
    pub fn add_pair(&mut self, from: NodeId, to: NodeId, delay: DelayModel) -> bool {
        self.out.add_pair(from, to, delay)
    }

    /// See [`Outbound::peers`].
    pub fn peers(&self) -> Vec<NodeId> {
        self.out.peers()
    }

    /// See [`Outbound::enqueue`]; a link that fails hangs up for good (its
    /// dialer stays parked until the driver goes).
    pub fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        delay_micros: u64,
        message: Message,
    ) -> Result<bool, Option<LinkEvent>> {
        let result = self.out.enqueue(from, to, delay_micros, message);
        if let Err(Some(_)) = result {
            self.hang_up();
        }
        result
    }

    /// Writes what the turn produced (one `write`); reports the connection
    /// loss if that is what came of it.
    pub fn flush(&mut self, metrics: &mut Metrics) -> Option<LinkEvent> {
        let sock = self.conn.as_mut()?;
        if !self.out.pending() {
            return None;
        }
        self.last_write = Instant::now();
        match self.out.flush(sock, metrics) {
            Ok(false) => None,
            Ok(true) => self.lose("fault-injected drop".into(), false),
            Err(e) => self.write_failed("write", e),
        }
    }

    /// A write that errors or times out is a broken connection, and the
    /// event loop will not wait for it.  Only the timeout — a peer that
    /// takes no bytes — makes the dialer back off first; a reset is
    /// redialled at once, like any other loss.
    fn write_failed(&mut self, what: &str, e: std::io::Error) -> Option<LinkEvent> {
        let stalled = timed_out(&e);
        let reason = if stalled {
            format!("{what} timed out: the peer takes no bytes")
        } else {
            format!("{what} failed: {e}")
        };
        self.lose(reason, stalled)
    }

    /// Writes a heartbeat if the connection has written nothing for `idle`.
    pub fn keep_alive(
        &mut self,
        now: Instant,
        idle: Duration,
        metrics: &mut Metrics,
    ) -> Option<LinkEvent> {
        let sock = self.conn.as_mut()?;
        if now.duration_since(self.last_write) < idle {
            return None;
        }
        self.last_write = now;
        metrics.incr("net.socket_writes");
        let written = sock.write_all(&self.heartbeat);
        written
            .err()
            .and_then(|e| self.write_failed("heartbeat write", e))
    }

    /// Drops the current connection, if any, and asks the dialer for the
    /// next one (after a backoff, if told to); the window keeps every
    /// unacknowledged frame for it.
    pub fn lose(&mut self, reason: String, back_off: bool) -> Option<LinkEvent> {
        self.hang_up()?;
        let _ = self.redial.send(back_off);
        Some(LinkEvent::Down { reason })
    }

    /// Closes the socket, if any, without asking for another.
    fn hang_up(&mut self) -> Option<()> {
        let _ = self.conn.take()?.shutdown(Shutdown::Both);
        Some(())
    }

    /// Reacts to a dialer or ack-pump report about connection `generation`.
    /// A fresh connection gets its `Hello` here; the caller flushes right
    /// after, which is the replay.
    pub fn on_signal(
        &mut self,
        generation: u64,
        signal: ConnSignal,
        metrics: &mut Metrics,
    ) -> Option<LinkEvent> {
        match signal {
            ConnSignal::Connected(sock) => {
                if self.out.closed {
                    let _ = sock.shutdown(Shutdown::Both);
                    return None;
                }
                self.generation = generation;
                self.last_write = Instant::now();
                match self.out.hello(self.conn.insert(sock), metrics) {
                    Ok(resent) => Some(LinkEvent::Up { resent }),
                    Err(e) => self.write_failed("handshake", e),
                }
            }
            // Feedback about a connection the loop already dropped.
            ConnSignal::Event(_) if generation != self.generation => None,
            ConnSignal::Event(LinkEvent::Down { reason }) => self.lose(reason, false),
            ConnSignal::Event(event) => {
                if let LinkEvent::Fenced { .. } = event {
                    self.out.close();
                    self.hang_up();
                }
                Some(event)
            }
        }
    }
}

/// Spawns the dialer of one link: dial (with retry until `shutdown`), hand
/// the connected socket to the event loop, start the connection's ack pump,
/// then sleep until the loop asks for the next connection.
///
/// The first connection keeps the constant startup cadence (cluster
/// processes come up in arbitrary order); after a loss every attempt is
/// reported ([`LinkEvent::Redial`]) and backed off exponentially with
/// jitter, capped at `redial_max`.  A connection whose *write timed out*
/// counts as a failed attempt too: a peer that accepts and takes no bytes
/// would otherwise cost the event loop one write timeout per redial, back
/// to back.  The thread exits when the [`Link`] is dropped or `shutdown`
/// is raised.
fn spawn_dialer(
    cfg: LinkConfig,
    acked: Arc<AtomicU64>,
    requests: Receiver<bool>,
    events: Sender<Inbound>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<LinkRegistry>,
) {
    std::thread::spawn(move || {
        let link = cfg.id;
        // Distinct per dialling process (its listen port) and connection.
        let jitter_seed = cfg
            .epoch
            .wrapping_mul(0x1000_0001)
            .wrapping_add(u64::from(cfg.listen.port()) << 16 | link as u64);
        let mut generation: u64 = 0;
        let mut redials: u64 = 0;
        // Redial attempts since a connection last ended for any reason
        // other than a write timeout.
        let mut attempt: u64 = 0;
        let backoff =
            |attempt| redial_backoff(attempt, cfg.dial_retry, cfg.redial_max, jitter_seed);
        let conn = move |generation, signal| Inbound::Conn {
            link,
            generation,
            signal,
        };
        loop {
            let (stream, pump_stream) = loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if generation > 0 {
                    attempt += 1;
                    redials += 1;
                    let redial = ConnSignal::Event(LinkEvent::Redial { attempt: redials });
                    if events.send(conn(generation, redial)).is_err() {
                        return;
                    }
                }
                let dialled = cfg.target.socket_addr().and_then(TcpStream::connect);
                // The pump needs its own handle on the read half.
                match dialled.and_then(|s| s.try_clone().map(|clone| (s, clone))) {
                    Ok(pair) => break pair,
                    Err(_) if generation == 0 => std::thread::sleep(cfg.dial_retry),
                    Err(_) => std::thread::sleep(backoff(attempt)),
                }
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(cfg.write_timeout));
            generation += 1;
            let connected = ConnSignal::Connected(stream);
            if events.send(conn(generation, connected)).is_err() {
                return;
            }
            spawn_ack_pump(
                pump_stream,
                move |event| conn(generation, ConnSignal::Event(event)),
                acked.clone(),
                events.clone(),
                shutdown.clone(),
                registry.clone(),
            );
            match requests.recv() {
                Ok(true) => std::thread::sleep(backoff(attempt.max(1))),
                Ok(false) => attempt = 0,
                Err(_) => return,
            }
        }
    });
}

/// Spawns the ack pump of one connection: it reads the peer's cumulative
/// [`Frame::Ack`]s off the connection's read half and publishes the
/// high-water mark in `acked` — waking nobody; the link reads the mark
/// before its next window check.  A [`Frame::Fenced`] rejection, EOF or a
/// read error is reported to the event loop (through `conn`, which stamps
/// the link and generation), so the loop notices a peer that died silently
/// between writes.  Exits on any of those, or on shutdown.
fn spawn_ack_pump(
    stream: TcpStream,
    conn: impl Fn(LinkEvent) -> Inbound + Send + 'static,
    acked: Arc<AtomicU64>,
    events: Sender<Inbound>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<LinkRegistry>,
) {
    std::thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut stream = stream;
        let mut buf: Vec<u8> = Vec::with_capacity(256);
        let mut chunk = [0u8; 4096];
        let report = |event| {
            let _ = events.send(conn(event));
        };
        let lost = || {
            report(LinkEvent::Down {
                reason: "peer closed the connection".into(),
            })
        };
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return lost(),
                Ok(n) => n,
                Err(e) if read_retryable(&e) => continue,
                Err(_) => return lost(),
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            loop {
                match Frame::decode_framed(&buf[consumed..]) {
                    Ok((Frame::Ack { seq }, used)) => {
                        consumed += used;
                        // Cumulative acks are monotone, so even one from a
                        // dead generation's pump safely prunes the window.
                        // Relaxed: see `Outbound::prune`.
                        acked.fetch_max(seq, Ordering::Relaxed);
                        registry.acks_in.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok((Frame::Fenced { expected }, _)) => {
                        return report(LinkEvent::Fenced { expected });
                    }
                    Ok((_, used)) => consumed += used, // unexpected; ignore
                    Err(WireError::Truncated) => break,
                    Err(_) => return lost(),
                }
            }
            buf.drain(..consumed);
        }
    });
}

/// Splits an oversized frame into two halves when its message is a
/// `DeliverBatch` of at least two deliveries.  `Replay` is deliberately NOT
/// split: the relocation protocol treats one replay message as the complete
/// buffered stream, so halving it would flush the holding merge early.
fn split_frame(frame: Frame) -> Option<(Frame, Frame)> {
    let Frame::Message {
        from,
        to,
        delay_micros,
        seq: _,
        message: Message::DeliverBatch(mut deliveries),
    } = frame
    else {
        return None;
    };
    if deliveries.len() < 2 {
        return None;
    }
    let tail = deliveries.split_off(deliveries.len() / 2);
    // Halves are sequenced by `Outbound::push` as it encodes them, so the
    // placeholder 0 here is never written to a socket.
    let remake = |deliveries| Frame::Message {
        from,
        to,
        delay_micros,
        seq: 0,
        message: Message::DeliverBatch(deliveries),
    };
    Some((remake(deliveries), remake(tail)))
}

/// Spawns the reader thread for one accepted connection: decodes frames
/// and forwards them into `tx`.  Exits on EOF, a corrupt stream, a raised
/// `shutdown`, an epoch fence, or when the driver drops the receiving end.
///
/// Bytes are accumulated in a local buffer and frames decoded off its
/// front, so a read timeout in the *middle* of a frame (slow sender, a
/// large frame spanning many TCP segments) just waits for more bytes — it
/// can never desynchronise the framing boundary.
///
/// The reader enforces the self-healing contract for its direction:
/// sequenced messages are checked against the shared [`LinkRegistry`]
/// (duplicates are suppressed but still acknowledged), and a `Hello` whose
/// restart epoch regresses the registry is answered with [`Frame::Fenced`]
/// and the connection closed.  An established connection is torn down the
/// same way as soon as a newer incarnation of any node introduced on it
/// introduces itself.  A `Message` from a node not introduced on the
/// connection is dropped ([`Inbound::Unintroduced`]).
///
/// Acknowledgements are cumulative and delayed: one [`Frame::Ack`] once
/// [`ACK_EVERY`] sequenced frames have arrived since the last, or once the
/// stream pauses for [`ACK_DELAY`] with one owed.  The pause is the socket
/// read timeout, shortened from [`READ_POLL`] only while an ack is owed and
/// restored by the first timeout that finds none.  The ack carries the
/// highest sequence number read on the connection: a connection starts at
/// its sender's oldest unacknowledged frame and is FIFO, so everything
/// below that number has arrived.
pub(crate) fn spawn_reader(
    stream: TcpStream,
    tx: Sender<Inbound>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<LinkRegistry>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut stream = stream;
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut chunk = [0u8; 16 * 1024];
        // Every node introduced on the connection and the restart epoch it
        // came with, learned from the Hellos — needed to attribute
        // heartbeats, to admit its messages and to fence a zombie
        // connection when any of them is superseded (admin connections
        // never say Hello and stay anonymous).
        let mut introduced: Vec<(NodeId, u64)> = Vec::new();
        // While an ack is owed: the highest sequence number read, and how
        // many sequenced frames (duplicates included — the sender prunes
        // its window either way) arrived since the last ack.
        let mut owed: Option<(u64, u32)> = None;
        let mut short_timeout = false;
        let registry = &*registry;
        let acknowledge = |stream: &mut TcpStream, seq: u64| {
            // An ack write failure is not fatal here: if the connection is
            // dying the read path notices next.
            let _ = stream.write_all(&Frame::Ack { seq }.encode_framed());
            registry.acks_out.fetch_add(1, Ordering::Relaxed);
        };
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Zombie fencing: if a newer incarnation of a node introduced
            // here has introduced itself (on any connection of this
            // driver), this pre-crash connection must not interleave with
            // it.
            let superseded = introduced.iter().find_map(|&(from, epoch)| {
                let current = registry.current_epoch(from.index());
                (current > epoch).then_some((from, epoch, current))
            });
            if let Some((from, epoch, expected)) = superseded {
                let _ = stream.write_all(&Frame::Fenced { expected }.encode_framed());
                let _ = tx.send(Inbound::Stale {
                    from,
                    epoch,
                    expected,
                });
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return, // EOF
                Ok(n) => n,
                Err(e) if read_retryable(&e) => {
                    // The stream paused: settle the ack owed, if any, and
                    // go back to the long poll.
                    if let Some((seq, _)) = owed.take() {
                        acknowledge(&mut stream, seq);
                    }
                    if short_timeout {
                        let _ = stream.set_read_timeout(Some(READ_POLL));
                        short_timeout = false;
                    }
                    continue;
                }
                Err(_) => return, // broken pipe
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            loop {
                let frame = match Frame::decode_framed(&buf[consumed..]) {
                    Ok((frame, used)) => {
                        consumed += used;
                        frame
                    }
                    Err(WireError::Truncated) => break, // need more bytes
                    Err(e) => {
                        // Corrupt stream: a typed decode error, never a
                        // panic.  Closing the connection is the only safe
                        // reaction — a desynchronised framing boundary
                        // cannot be recovered.
                        eprintln!("rebeca-net: closing corrupt connection: {e}");
                        return;
                    }
                };
                let inbound = match frame {
                    Frame::Hello {
                        from,
                        to,
                        epoch,
                        listen,
                        delay,
                    } => match registry.admit(from.index(), epoch) {
                        Admit::Stale { expected } => {
                            let _ = stream.write_all(&Frame::Fenced { expected }.encode_framed());
                            let _ = tx.send(Inbound::Stale {
                                from,
                                epoch,
                                expected,
                            });
                            let _ = stream.shutdown(Shutdown::Both);
                            return;
                        }
                        Admit::Ok => {
                            match introduced.iter_mut().find(|(node, _)| *node == from) {
                                Some(known) => known.1 = known.1.max(epoch),
                                None => introduced.push((from, epoch)),
                            }
                            Inbound::Hello {
                                from,
                                to,
                                epoch,
                                listen,
                                delay,
                            }
                        }
                    },
                    Frame::Heartbeat { .. } if introduced.is_empty() => continue,
                    Frame::Heartbeat { epoch } => Inbound::Heartbeat {
                        from: introduced.iter().map(|&(node, _)| node).collect(),
                        epoch,
                    },
                    Frame::StatusRequest { events_after } => match stream.try_clone() {
                        Ok(reply) => Inbound::Status {
                            reply,
                            events_after,
                        },
                        Err(e) => {
                            eprintln!("rebeca-net: cannot answer status request: {e}");
                            continue;
                        }
                    },
                    Frame::TraceRequest { spans_after } => match stream.try_clone() {
                        Ok(reply) => Inbound::Trace { reply, spans_after },
                        Err(e) => {
                            eprintln!("rebeca-net: cannot answer trace request: {e}");
                            continue;
                        }
                    },
                    // A report arriving at a serving node is a confused
                    // client; ignore it rather than kill the connection.
                    Frame::StatusReport(_) | Frame::TraceReport(_) => continue,
                    // Writer-side control frames have no business on a
                    // serving connection; ignore them likewise.
                    Frame::Ack { .. } | Frame::Fenced { .. } => continue,
                    Frame::LinkDrop { peer } => Inbound::AdminDrop { peer },
                    Frame::Message {
                        from,
                        to,
                        delay_micros,
                        seq,
                        message,
                    } => {
                        if !introduced.iter().any(|&(node, _)| node == from) {
                            // Nobody said who this is: the driver would
                            // have no delay, neighbour or dial-back
                            // endpoint to answer it with.
                            if tx.send(Inbound::Unintroduced).is_err() {
                                return;
                            }
                            continue;
                        }
                        if seq > 0 {
                            owed = Some(owed.map_or((seq, 1), |(high, n)| (high.max(seq), n + 1)));
                            if !registry.accept_seq(from.index(), to.index(), seq) {
                                // A replay of a frame that did arrive
                                // before the reconnect: suppress it, but
                                // report it so the driver can count it.
                                if tx.send(Inbound::Duplicate { from, seq }).is_err() {
                                    return;
                                }
                                continue;
                            }
                        }
                        Inbound::Message {
                            from,
                            to,
                            delay: SimDuration::from_micros(delay_micros),
                            message,
                        }
                    }
                };
                if tx.send(inbound).is_err() {
                    return; // driver gone
                }
            }
            match owed {
                Some((seq, n)) if n >= ACK_EVERY => {
                    acknowledge(&mut stream, seq);
                    owed = None;
                }
                Some(_) if !short_timeout => {
                    let _ = stream.set_read_timeout(Some(ACK_DELAY));
                    short_timeout = true;
                }
                _ => {}
            }
            buf.drain(..consumed);
        }
    })
}

/// Spawns the accept loop: every inbound connection gets its own reader
/// thread sharing the driver's [`LinkRegistry`].  Exits when `shutdown` is
/// raised (the driver wakes the loop by dialling its own listener once).
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<Inbound>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<LinkRegistry>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = listener.set_nonblocking(true);
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    // Readers exit on their own via the shutdown flag (or
                    // the read timeout); no join bookkeeping needed.
                    let _ = spawn_reader(stream, tx.clone(), shutdown.clone(), registry.clone());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => return,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_broker::{ClientId, Delivery, Envelope};
    use rebeca_filter::Notification;

    fn delivery(seq: u64) -> Delivery {
        Delivery {
            subscriber: ClientId::new(2),
            filter: rebeca_filter::Filter::new(),
            seq,
            envelope: Envelope::new(
                ClientId::new(1),
                seq,
                Notification::builder().attr("spot", seq as i64).build(),
            ),
        }
    }

    fn frame(message: Message) -> Frame {
        Frame::Message {
            from: NodeId::new(0),
            to: NodeId::new(1),
            delay_micros: 7,
            seq: 0,
            message,
        }
    }

    #[test]
    fn oversized_batches_split_in_order_and_keep_the_route() {
        let whole = frame(Message::DeliverBatch(vec![
            delivery(1),
            delivery(2),
            delivery(3),
        ]));
        let (first, second) = split_frame(whole).expect("batches split");
        match (&first, &second) {
            (
                Frame::Message {
                    from,
                    to,
                    delay_micros,
                    message: Message::DeliverBatch(a),
                    ..
                },
                Frame::Message {
                    message: Message::DeliverBatch(b),
                    ..
                },
            ) => {
                assert_eq!(
                    (*from, *to, *delay_micros),
                    (NodeId::new(0), NodeId::new(1), 7)
                );
                let seqs: Vec<u64> = a
                    .iter()
                    .chain(b)
                    .map(|d| d.envelope.publisher_seq)
                    .collect();
                assert_eq!(seqs, vec![1, 2, 3], "halves concatenate to the original");
            }
            other => panic!("unexpected split {other:?}"),
        }
    }

    #[test]
    fn singletons_and_protocol_steps_refuse_to_split() {
        // A one-element batch cannot shrink further.
        assert!(split_frame(frame(Message::DeliverBatch(vec![delivery(1)]))).is_none());
        // Replay is one protocol step: halving it would flush the holding
        // merge early.
        assert!(split_frame(frame(Message::Replay {
            client: ClientId::new(1),
            filter: rebeca_filter::Filter::new(),
            deliveries: Vec::new(),
        }))
        .is_none());
        assert!(split_frame(Frame::Heartbeat { epoch: 1 }).is_none());
    }

    #[test]
    fn redial_backoff_is_exponential_capped_and_jittered_within_bounds() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(1);
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for attempt in 1..=12 {
                let exp_us = (base.as_micros() as u64)
                    .saturating_mul(1 << (attempt - 1).min(20))
                    .min(max.as_micros() as u64);
                let d = redial_backoff(attempt, base, max, seed).as_micros() as u64;
                assert!(
                    d >= exp_us,
                    "attempt {attempt}: {d} below exponential floor"
                );
                assert!(
                    d <= exp_us + exp_us / 4,
                    "attempt {attempt}: {d} above the 25% jitter ceiling"
                );
            }
        }
    }

    #[test]
    fn registry_fences_stale_epochs_and_resets_seqs_on_new_incarnations() {
        let registry = LinkRegistry::default();
        assert!(matches!(registry.admit(0, 0), Admit::Ok));
        assert!(matches!(registry.admit(2, 0), Admit::Ok));
        // Nodes 0 and 2 of one process share a connection to node 1, so
        // their pairs share one sequence.
        for (from, seq) in [(0, 1), (2, 2), (2, 3), (0, 4)] {
            assert!(registry.accept_seq(from, 1, seq), "fresh {from}:{seq}");
        }
        // A reconnect replays 2-4: each is a duplicate of its own pair.
        for (from, seq) in [(2, 2), (2, 3), (0, 4)] {
            assert!(!registry.accept_seq(from, 1, seq), "replay {from}:{seq}");
        }
        // A newer incarnation resets the node's receive high-water marks…
        assert!(matches!(registry.admit(0, 1), Admit::Ok));
        assert!(
            registry.accept_seq(0, 1, 1),
            "the successor's fresh seq 1 is not its predecessor's duplicate"
        );
        assert!(!registry.accept_seq(2, 1, 3), "…and no other node's");
        // …and the predecessor's epoch is fenced from then on.
        match registry.admit(0, 0) {
            Admit::Stale { expected } => assert_eq!(expected, 1),
            Admit::Ok => panic!("stale epoch admitted"),
        }
        assert_eq!(registry.current_epoch(0), 1);
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    fn config(port: u16, resend_window: usize, fault: Option<FaultPlan>) -> LinkConfig {
        LinkConfig {
            id: 0,
            target: Endpoint::new("127.0.0.1", port),
            listen: Endpoint::new("127.0.0.1", 1),
            write_timeout: Duration::from_secs(5),
            dial_retry: Duration::from_millis(10),
            redial_max: Duration::from_millis(100),
            resend_window,
            epoch: 0,
            fault,
        }
    }

    /// An outbound connection carrying the one pair `n0 → n1`, introduced
    /// on a first connection.
    fn outbound(resend_window: usize, fault: Option<FaultPlan>) -> Outbound {
        let mut out = Outbound::new(&config(1, resend_window, fault));
        out.add_pair(N0, N1, DelayModel::Constant(0));
        out.hello(&mut Wire::default(), &mut Metrics::new())
            .unwrap();
        out
    }

    fn attach(i: u32) -> Message {
        Message::Attach {
            client: ClientId::new(i),
        }
    }

    fn enqueue_attaches(out: &mut Outbound, clients: std::ops::Range<u32>) {
        for i in clients {
            out.enqueue(N0, N1, 7, attach(i)).expect("frame accepted");
        }
    }

    /// A socket that records every `write` call it receives.
    #[derive(Default)]
    struct Wire(Vec<Vec<u8>>);

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn decode_all(mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let (frame, used) = Frame::decode_framed(bytes).expect("whole frames only");
            frames.push(frame);
            bytes = &bytes[used..];
        }
        frames
    }

    /// The sequence numbers of the message frames in one recorded write.
    fn seqs(bytes: &[u8]) -> Vec<u64> {
        decode_all(bytes)
            .iter()
            .filter_map(|f| match f {
                Frame::Message { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn split_halves_are_sequenced_in_final_order() {
        let mut out = outbound(1024, None);
        // Room for a batch of two deliveries, not three: a batch of eight
        // splits twice, into four frames.
        let pair = frame(Message::DeliverBatch(vec![delivery(1), delivery(2)]));
        out.max_frame = pair.encode_framed().len() + 8;
        out.enqueue(N0, N1, 7, attach(1)).unwrap();
        out.enqueue(
            N0,
            N1,
            7,
            Message::DeliverBatch((1..=8).map(delivery).collect()),
        )
        .unwrap();
        out.enqueue(N0, N1, 7, attach(2)).unwrap();

        let (mut wire, mut metrics) = (Wire::default(), Metrics::new());
        out.flush(&mut wire, &mut metrics).unwrap();
        let frames = decode_all(&wire.0[0]);
        assert_eq!(seqs(&wire.0[0]), vec![1, 2, 3, 4, 5, 6], "no gap, no reuse");
        let mut published = Vec::new();
        for f in &frames[1..5] {
            match f {
                Frame::Message {
                    from,
                    to,
                    delay_micros,
                    message: Message::DeliverBatch(deliveries),
                    ..
                } => {
                    assert_eq!(
                        (*from, *to, *delay_micros),
                        (NodeId::new(0), NodeId::new(1), 7)
                    );
                    assert_eq!(deliveries.len(), 2);
                    published.extend(deliveries.iter().map(|d| d.envelope.publisher_seq));
                }
                other => panic!("expected a batch piece, got {other:?}"),
            }
        }
        assert_eq!(published, (1..=8).collect::<Vec<u64>>());
        assert!(matches!(
            &frames[5],
            Frame::Message {
                message: Message::Attach { .. },
                ..
            }
        ));
    }

    #[test]
    fn everything_a_turn_enqueues_leaves_in_one_write() {
        let mut out = outbound(1024, None);
        enqueue_attaches(&mut out, 0..64);
        let (mut wire, mut metrics) = (Wire::default(), Metrics::new());
        out.flush(&mut wire, &mut metrics).unwrap();
        assert_eq!(wire.0.len(), 1, "64 frames, one write");
        assert_eq!(seqs(&wire.0[0]), (1..=64).collect::<Vec<u64>>());
        assert_eq!(metrics.counter("net.socket_writes"), 1);
        // Nothing new: the next flush does not touch the socket.
        out.flush(&mut wire, &mut metrics).unwrap();
        assert_eq!(wire.0.len(), 1);
        assert_eq!(metrics.counter("net.socket_writes"), 1);
    }

    #[test]
    fn fault_plan_fires_at_the_write_that_reaches_its_count() {
        let mut out = outbound(1024, Some(FaultPlan::drop_after(3).recurring()));
        let (mut wire, mut metrics) = (Wire::default(), Metrics::new());
        enqueue_attaches(&mut out, 0..2);
        assert!(!out.flush(&mut wire, &mut metrics).unwrap());
        enqueue_attaches(&mut out, 2..3);
        assert!(out.flush(&mut wire, &mut metrics).unwrap(), "third frame");

        // The replay on the next connection is not fresh traffic: it must
        // not fire the plan again, or a link could never make progress.
        let mut wire = Wire::default();
        assert_eq!(out.hello(&mut wire, &mut metrics).unwrap(), 3);
        assert!(!out.flush(&mut wire, &mut metrics).unwrap());
        assert_eq!(seqs(&wire.0[1]), vec![1, 2, 3]);

        // Recurring: three fresh frames later it fires again — here they
        // arrive in one turn of five, and the plan fires at that write.
        enqueue_attaches(&mut out, 3..5);
        assert!(!out.flush(&mut wire, &mut metrics).unwrap());
        enqueue_attaches(&mut out, 5..10);
        assert!(out.flush(&mut wire, &mut metrics).unwrap());

        // A one-shot plan is spent after its first drop.
        let mut once = outbound(1024, Some(FaultPlan::drop_after(1)));
        enqueue_attaches(&mut once, 0..1);
        assert!(once.flush(&mut wire, &mut metrics).unwrap());
        enqueue_attaches(&mut once, 1..4);
        assert!(!once.flush(&mut wire, &mut metrics).unwrap());
        // A plan for another peer does not apply…
        let mut other = outbound(1024, Some(FaultPlan::drop_after(1).on_peer(9)));
        enqueue_attaches(&mut other, 0..4);
        assert!(!other.flush(&mut wire, &mut metrics).unwrap());
        // …until the connection carries frames to that peer too.
        other.add_pair(N0, NodeId::new(9), DelayModel::Constant(0));
        other
            .enqueue(N0, NodeId::new(9), 7, attach(4))
            .expect("frame accepted");
        assert!(other.flush(&mut wire, &mut metrics).unwrap());
    }

    #[test]
    fn a_pair_added_mid_connection_is_introduced_ahead_of_its_first_frame() {
        let mut out = outbound(1024, None);
        let mut metrics = Metrics::new();
        let n2 = NodeId::new(2);
        let mut first = Wire::default();
        out.hello(&mut first, &mut metrics).unwrap();
        enqueue_attaches(&mut out, 0..1);
        out.flush(&mut first, &mut metrics).unwrap();

        assert!(out.add_pair(n2, N1, DelayModel::Constant(0)), "now dirty");
        out.enqueue(n2, N1, 7, attach(1)).expect("frame accepted");
        out.flush(&mut first, &mut metrics).unwrap();
        assert_eq!(first.0.len(), 4, "hello, frame 1, the new hello, frame 2");
        assert!(matches!(
            decode_all(&first.0[2])[..],
            [Frame::Hello { from, to, .. }] if from == n2 && to == N1
        ));
        assert_eq!(seqs(&first.0[3]), vec![2], "one sequence for both pairs");

        // A fresh connection introduces every pair in one write.
        let mut second = Wire::default();
        out.hello(&mut second, &mut metrics).unwrap();
        let introduced: Vec<(NodeId, NodeId)> = decode_all(&second.0[0])
            .into_iter()
            .map(|f| match f {
                Frame::Hello { from, to, .. } => (from, to),
                other => panic!("expected a handshake, got {other:?}"),
            })
            .collect();
        assert_eq!(introduced, vec![(N0, N1), (n2, N1)]);
        assert_eq!(out.peers(), vec![N1]);
    }

    #[test]
    fn a_new_connection_carries_hello_then_exactly_the_unacknowledged_suffix() {
        let mut out = outbound(1024, None);
        let mut metrics = Metrics::new();
        // Frames enqueued before the first connection wait in the window:
        // the handshake goes first and nothing counts as resent.
        enqueue_attaches(&mut out, 0..5);
        let mut first = Wire::default();
        assert_eq!(out.hello(&mut first, &mut metrics).unwrap(), 0);
        out.flush(&mut first, &mut metrics).unwrap();
        assert!(matches!(decode_all(&first.0[0])[..], [Frame::Hello { .. }]));
        assert_eq!(seqs(&first.0[1]), vec![1, 2, 3, 4, 5]);

        // The peer acknowledged 1-2; the connection dies; two more frames
        // are enqueued while the link is down.
        out.acked.store(2, Ordering::Relaxed);
        enqueue_attaches(&mut out, 5..7);

        let mut second = Wire::default();
        let resent = out.hello(&mut second, &mut metrics).unwrap();
        assert_eq!(resent, 3, "3-5 were written before; 6-7 are not resends");
        out.flush(&mut second, &mut metrics).unwrap();
        out.flush(&mut second, &mut metrics).unwrap();
        assert_eq!(second.0.len(), 2, "the handshake, then one replay write");
        assert!(matches!(
            decode_all(&second.0[0])[..],
            [Frame::Hello { .. }]
        ));
        assert_eq!(seqs(&second.0[1]), vec![3, 4, 5, 6, 7], "each exactly once");

        // Everything acknowledged: a third connection replays nothing.
        out.acked.store(7, Ordering::Relaxed);
        let mut third = Wire::default();
        assert_eq!(out.hello(&mut third, &mut metrics).unwrap(), 0);
        out.flush(&mut third, &mut metrics).unwrap();
        assert_eq!(third.0.len(), 1, "the handshake only");
        assert_eq!(metrics.counter("net.socket_writes"), 5);
    }

    /// Regression: acknowledgements used to queue behind the frames they
    /// acknowledged, so a backlog deeper than the window failed a healthy
    /// link at frame `window + 1` although the peer had acked everything.
    #[test]
    fn the_ack_mark_is_read_before_every_window_check() {
        let mut out = outbound(4, None);
        let (mut wire, mut metrics) = (Wire::default(), Metrics::new());
        for round in 0..10u32 {
            enqueue_attaches(&mut out, 4 * round..4 * round + 4);
            out.flush(&mut wire, &mut metrics).unwrap();
            assert_eq!(out.lens.len(), 4, "window full");
            // The peer acknowledges the lot; nobody tells the link.
            out.acked
                .store(4 * (u64::from(round) + 1), Ordering::Relaxed);
        }
        // Window full again, and this time no ack: loud failure.
        enqueue_attaches(&mut out, 40..44);
        match out.enqueue(N0, N1, 7, attach(44)) {
            Err(Some(LinkEvent::Failed { reason })) => assert!(
                reason.contains("resend window overflow: 5 unacked frames"),
                "unexpected failure: {reason}"
            ),
            other => panic!("expected a loud failure, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_or_fenced_link_refuses_every_later_frame() {
        // Failed by an unsplittable oversized frame…
        let mut out = outbound(1024, None);
        out.max_frame = 16;
        match out.enqueue(N0, N1, 7, attach(1)) {
            Err(Some(LinkEvent::Failed { reason })) => assert!(
                reason.contains("unsplittable frame"),
                "unexpected failure: {reason}"
            ),
            other => panic!("expected a loud failure, got {other:?}"),
        }
        out.max_frame = 1 << 20;
        assert!(matches!(out.enqueue(N0, N1, 7, attach(2)), Err(None)));
        // …or closed by a fence.
        let mut out = outbound(1024, None);
        enqueue_attaches(&mut out, 0..3);
        out.close();
        assert!(matches!(out.enqueue(N0, N1, 7, attach(3)), Err(None)));
        assert!(!out.pending(), "a closed link has nothing left to write");
    }

    /// Regression: every write failure used to make the dialer back off, so
    /// a connection the peer had reset stayed down a backoff longer than at
    /// a read-side loss — long enough, under load, to overflow the window.
    #[test]
    fn only_a_write_timeout_makes_the_dialer_back_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let connect = || TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (redial, requests) = channel();
        let mut link = Link {
            out: outbound(1024, None),
            heartbeat: Vec::new(),
            conn: Some(connect()),
            generation: 1,
            last_write: Instant::now(),
            redial,
        };
        let reset = std::io::Error::from(std::io::ErrorKind::ConnectionReset);
        assert!(matches!(
            link.write_failed("write", reset),
            Some(LinkEvent::Down { .. })
        ));
        assert!(!requests.try_recv().expect("a redial request"), "at once");
        link.conn = Some(connect());
        let stalled = std::io::Error::from(std::io::ErrorKind::WouldBlock);
        assert!(matches!(
            link.write_failed("write", stalled),
            Some(LinkEvent::Down { .. })
        ));
        assert!(requests.try_recv().expect("a redial request"), "backed off");
    }

    /// The window holds `resend_window` frames per pair carried: a
    /// connection of two pairs with a window of 4 fails at the ninth
    /// unacknowledged frame, whichever pairs the frames belong to.
    #[test]
    fn resend_window_overflow_fails_the_link_loudly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().unwrap().port();
        let (ev_tx, ev_rx) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut link = Link::spawn(
            config(port, 4, None),
            ev_tx,
            shutdown.clone(),
            Arc::new(LinkRegistry::default()),
        );
        let n2 = NodeId::new(2);
        link.add_pair(N0, N1, DelayModel::Constant(0));
        link.add_pair(n2, N1, DelayModel::Constant(0));
        let mut metrics = Metrics::new();
        // Accept the connection but never acknowledge anything.
        let (mut peer, _) = listener.accept().expect("accept");
        match ev_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Inbound::Conn {
                generation, signal, ..
            }) => match link.on_signal(generation, signal, &mut metrics) {
                Some(LinkEvent::Up { resent }) => {
                    assert_eq!(resent, 0, "first connection replays nothing")
                }
                other => panic!("the link did not come up: {other:?}"),
            },
            other => panic!("the dialer did not connect: {other:?}"),
        }
        let from = |i: u32| if i.is_multiple_of(2) { N0 } else { n2 };
        for i in 0..8u32 {
            link.enqueue(from(i), N1, 7, attach(i))
                .expect("within the window");
            assert!(link.flush(&mut metrics).is_none());
        }
        match link.enqueue(N0, N1, 7, attach(8)) {
            Err(Some(LinkEvent::Failed { reason })) => assert!(
                reason.contains("resend window overflow: 9 unacked frames exceed the limit of 8"),
                "unexpected failure: {reason}"
            ),
            other => panic!("no loud failure: {other:?}"),
        }
        assert!(matches!(link.enqueue(n2, N1, 7, attach(9)), Err(None)));
        // The failed link hung up: the peer reads both handshakes and the
        // eight frames, then EOF.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut received = Vec::new();
        peer.read_to_end(&mut received)
            .expect("EOF after the failure");
        let hellos = decode_all(&received)
            .iter()
            .filter(|f| matches!(f, Frame::Hello { .. }))
            .count();
        assert_eq!(hellos, 2, "one handshake per pair");
        assert_eq!(seqs(&received), (1..=8).collect::<Vec<u64>>());
        shutdown.store(true, Ordering::SeqCst);
    }
}
