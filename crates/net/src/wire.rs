//! The TCP wire format: length-prefixed, checksummed frames carrying the
//! full [`Message`] vocabulary plus a connection handshake and heartbeats.
//!
//! # Frame layout
//!
//! Every frame uses the same framing discipline as the mobility WAL
//! (`rebeca_mobility::codec`):
//!
//! ```text
//! ┌─────────────┬───────────────┬────────────────────┐
//! │ len: u32 LE │ crc32: u32 LE │ payload (len bytes)│
//! └─────────────┴───────────────┴────────────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload.  The payload starts with a
//! one-byte frame kind:
//!
//! | kind | frame           | contents                                          |
//! |------|-----------------|---------------------------------------------------|
//! | 1    | `Hello`         | from, to, epoch, listen endpoint, link delay model |
//! | 2    | `Heartbeat`     | epoch                                             |
//! | 3    | `Message`       | from, to, sampled delay, seq, encoded [`Message`] |
//! | 4    | `StatusRequest` | optional journal cursor (`events_after`)          |
//! | 5    | `StatusReport`  | encoded [`StatusReport`] snapshot                 |
//! | 6    | `Ack`           | cumulative, delayed receive high-water mark (`seq`) |
//! | 7    | `Fenced`        | the rejected dialer's expected minimum epoch      |
//! | 8    | `LinkDrop`      | admin fault injection: peer whose links to drop   |
//! | 9    | `TraceRequest`  | optional span cursor (`spans_after`)              |
//! | 10   | `TraceReport`   | encoded [`TraceReport`] span-buffer snapshot      |
//!
//! A connection's first frame is always the [`Frame::Hello`] handshake: it
//! names the sending node, the node the connection feeds, the sender's
//! restart epoch, the listen endpoint a reverse connection can dial back,
//! and the link's delay model.  [`Frame::Heartbeat`]s flow whenever a
//! link has been idle for the configured interval, keeping NATs and
//! liveness checks happy.
//!
//! # Self-healing links
//!
//! [`Frame::Message`] carries a per-direction monotonic sequence number
//! (`seq`, starting at 1; 0 means "unsequenced" and is skipped by the
//! resend machinery).  The reader acknowledges progress with cumulative
//! [`Frame::Ack`] frames written back onto the same connection — delayed:
//! one per 32 sequenced frames, or when the stream pauses for 2 ms with
//! one owed.  The sending link keeps the unacknowledged suffix and replays
//! it after a reconnect (so a replay can repeat up to a few dozen frames
//! the peer did receive), while the reader drops any sequence number at or
//! below its high-water mark — preserving the error-free FIFO link
//! contract of the paper's Section 2.1 across connection generations.  [`Frame::Fenced`] is the reader's
//! rejection of a `Hello` carrying a stale restart epoch: a crashed
//! broker's zombie incarnation can never interleave with its successor.
//!
//! # Robustness
//!
//! Decoding is *total*: truncated frames, flipped bits, absurd length
//! prefixes and unknown tags all surface as a typed [`WireError`], never as
//! a panic — mirroring the WAL-corruption guarantees of `rebeca-mobility`
//! (and covered by the same style of corruption tests).

use std::fmt;

use rebeca_broker::{ClientId, Message, SubscriptionId};
use rebeca_filter::{Filter, LocationDependentFilter, TemplateConstraint};
use rebeca_location::{AdaptivityPlan, LocationId};
use rebeca_mobility::codec::{
    crc32, put_delivery, put_envelope, put_filter, put_node, put_notification, put_str, put_u16,
    put_u32, put_u64, put_u8, ByteReader, DecodeError,
};
use rebeca_obs::{
    BrokerStatus, Histogram, LinkStatus, ObsEvent, SpanRecord, StatusReport, TraceReport,
};
use rebeca_sim::{DelayModel, NodeId};

use crate::endpoint::Endpoint;

/// Upper bound on the payload length of a single frame (32 MiB): a header
/// claiming more is treated as corruption instead of an allocation request.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Size of the frame header (`len` + `crc32`).
pub const FRAME_HEADER_LEN: usize = 8;

const KIND_HELLO: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
const KIND_MESSAGE: u8 = 3;
const KIND_STATUS_REQUEST: u8 = 4;
const KIND_STATUS_REPORT: u8 = 5;
const KIND_ACK: u8 = 6;
const KIND_FENCED: u8 = 7;
const KIND_LINK_DROP: u8 = 8;
const KIND_TRACE_REQUEST: u8 = 9;
const KIND_TRACE_REPORT: u8 = 10;

const MSG_ATTACH: u8 = 1;
const MSG_DETACH: u8 = 2;
const MSG_PUBLISH: u8 = 3;
// Tags 4 and 6 belonged to the retired publication-batch messages, and tags
// 9 and 10 to the retired `Advertise`/`Unadvertise`; all four stay unused so
// that no old frame decodes as another message.
const MSG_NOTIFICATION: u8 = 5;
const MSG_SUBSCRIBE: u8 = 7;
const MSG_UNSUBSCRIBE: u8 = 8;
const MSG_DELIVER: u8 = 11;
const MSG_DELIVER_BATCH: u8 = 12;
const MSG_RESUBSCRIBE: u8 = 13;
const MSG_RELOCATE: u8 = 14;
const MSG_FETCH: u8 = 15;
const MSG_REPLAY: u8 = 16;
const MSG_LOC_SUBSCRIBE: u8 = 17;
const MSG_LOC_UNSUBSCRIBE: u8 = 18;
const MSG_LOCATION_UPDATE: u8 = 19;
const MSG_SUBSCRIBE_SINCE: u8 = 20;
const MSG_HISTORY_FETCH: u8 = 21;
const MSG_HISTORY_REPLAY: u8 = 22;
const MSG_RESYNC: u8 = 23;

/// A decoding failure of the wire format.  Every malformed input maps to
/// one of these variants; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame (header or payload) is complete.
    Truncated,
    /// The header's length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload's CRC-32 does not match the header.
    Checksum {
        /// Checksum claimed by the header.
        expected: u32,
        /// Checksum computed over the received payload.
        found: u32,
    },
    /// The payload's frame kind byte is unknown.
    UnknownFrameKind(u8),
    /// A structural problem inside the payload (unknown tag, bad UTF-8,
    /// inner truncation).
    Malformed,
    /// The payload decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} limit")
            }
            WireError::Checksum { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch (header {expected:#010x}, payload {found:#010x})"
                )
            }
            WireError::UnknownFrameKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::Malformed => write!(f, "malformed frame payload"),
            WireError::TrailingBytes { extra } => {
                write!(f, "frame payload has {extra} trailing bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(_: DecodeError) -> Self {
        WireError::Malformed
    }
}

/// One unit of the TCP wire protocol.  See the module docs for the layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake, always the first frame on a connection: the
    /// sending node, the local node the connection feeds, the sender's
    /// restart epoch, the endpoint a reverse connection can dial back, and
    /// the delay model of the link.
    Hello {
        /// The dialing node.
        from: NodeId,
        /// The node on the accepting side this connection feeds.
        to: NodeId,
        /// The dialer's restart epoch (for future epoch fencing).
        epoch: u64,
        /// Where the dialer's process listens (for reverse connections).
        listen: Endpoint,
        /// The link's delay model, so the accepting side samples the same
        /// distribution for its own sends back over this link.
        delay: DelayModel,
    },
    /// Liveness beacon sent on an idle link.
    Heartbeat {
        /// The sender's restart epoch.
        epoch: u64,
    },
    /// One routed protocol message.
    Message {
        /// The sending node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The link delay sampled by the sender, applied by the receiver on
        /// top of the real network latency (clamped per direction to keep
        /// the link FIFO).
        delay_micros: u64,
        /// Per-direction monotonic sequence number assigned by the sending
        /// link (starting at 1).  `0` marks an unsequenced frame: it
        /// bypasses the resend window and duplicate suppression.
        seq: u64,
        /// The protocol message.
        message: Message,
    },
    /// Cumulative acknowledgement written by a reader back onto the
    /// connection it serves: every sequenced [`Frame::Message`] with
    /// `seq <= ack` has been received, so the sender may drop it from its
    /// resend window.  Written once per 32 sequenced frames, or after a
    /// 2 ms pause with one owed.
    Ack {
        /// The reader's receive high-water mark for this direction.
        seq: u64,
    },
    /// Epoch fencing rejection: the reader refused a [`Frame::Hello`] (or
    /// tore down an established connection) because the peer's restart
    /// epoch regressed below the newest epoch it has seen from that node.
    Fenced {
        /// The minimum epoch the reader will accept from this node.
        expected: u64,
    },
    /// Admin fault injection, sent on a hello-less connection like
    /// [`Frame::StatusRequest`]: the serving driver force-drops its
    /// established connections towards `peer`, exercising the reconnect
    /// path on demand.
    LinkDrop {
        /// The peer node whose links should be dropped.
        peer: NodeId,
    },
    /// Admin request for a live [`StatusReport`].  Sent by `rebeca-ctl` (or
    /// any monitoring client) as the *only* frame on a fresh connection —
    /// no `Hello` handshake required; the server answers with one
    /// [`Frame::StatusReport`] and the requester closes the connection.
    StatusRequest {
        /// When set, the report carries the journal events with sequence
        /// numbers strictly greater than this cursor (bounded by the
        /// journal's ring capacity), making `rebeca-ctl tail` resumable.
        /// `None` asks for a snapshot without events.
        events_after: Option<u64>,
    },
    /// Admin reply carrying the serving process's live [`StatusReport`].
    StatusReport(StatusReport),
    /// Admin request for the serving driver's retained trace spans.  Like
    /// [`Frame::StatusRequest`] it is the only frame on a hello-less
    /// connection; the server answers with one [`Frame::TraceReport`].
    TraceRequest {
        /// When set, only spans with buffer sequence numbers strictly
        /// greater than this cursor are returned (bounded by the span
        /// buffer's ring capacity), making repeated polls resumable.
        /// `None` asks for everything currently retained.
        spans_after: Option<u64>,
    },
    /// Admin reply carrying the serving process's retained trace spans.
    TraceReport(TraceReport),
}

fn put_endpoint(buf: &mut Vec<u8>, ep: &Endpoint) {
    put_str(buf, ep.host());
    put_u16(buf, ep.port());
}

fn read_endpoint(r: &mut ByteReader<'_>) -> Result<Endpoint, DecodeError> {
    let host = r.string()?;
    let port = r.u16()?;
    Ok(Endpoint::new(host, port))
}

fn put_delay_model(buf: &mut Vec<u8>, delay: &DelayModel) {
    match delay {
        DelayModel::Constant(micros) => {
            put_u8(buf, 0);
            put_u64(buf, *micros);
        }
        DelayModel::Uniform {
            min_micros,
            max_micros,
        } => {
            put_u8(buf, 1);
            put_u64(buf, *min_micros);
            put_u64(buf, *max_micros);
        }
        DelayModel::Jittered {
            base_micros,
            jitter_micros,
        } => {
            put_u8(buf, 2);
            put_u64(buf, *base_micros);
            put_u64(buf, *jitter_micros);
        }
    }
}

fn read_delay_model(r: &mut ByteReader<'_>) -> Result<DelayModel, DecodeError> {
    Ok(match r.u8()? {
        0 => DelayModel::Constant(r.u64()?),
        1 => DelayModel::Uniform {
            min_micros: r.u64()?,
            max_micros: r.u64()?,
        },
        2 => DelayModel::Jittered {
            base_micros: r.u64()?,
            jitter_micros: r.u64()?,
        },
        _ => return Err(DecodeError),
    })
}

fn put_sub_id(buf: &mut Vec<u8>, id: &SubscriptionId) {
    put_u32(buf, id.client.raw());
    put_u32(buf, id.index);
}

fn read_sub_id(r: &mut ByteReader<'_>) -> Result<SubscriptionId, DecodeError> {
    Ok(SubscriptionId::new(ClientId::new(r.u32()?), r.u32()?))
}

fn put_template(buf: &mut Vec<u8>, t: &LocationDependentFilter) {
    let constraints: Vec<_> = t.iter().collect();
    put_u32(buf, constraints.len() as u32);
    for (name, c) in constraints {
        put_str(buf, name);
        match c {
            TemplateConstraint::Concrete(c) => {
                put_u8(buf, 0);
                rebeca_mobility::codec::put_constraint(buf, c);
            }
            TemplateConstraint::MyLoc { vicinity } => {
                put_u8(buf, 1);
                put_u64(buf, *vicinity as u64);
            }
        }
    }
}

fn read_template(r: &mut ByteReader<'_>) -> Result<LocationDependentFilter, DecodeError> {
    let n = r.u32()? as usize;
    let mut t = LocationDependentFilter::from_filter(&Filter::new());
    for _ in 0..n {
        let name = r.string()?;
        match r.u8()? {
            0 => t = t.with_concrete(name, r.constraint()?),
            1 => t = t.with_myloc(name, r.u64()? as usize),
            _ => return Err(DecodeError),
        }
    }
    Ok(t)
}

fn put_plan(buf: &mut Vec<u8>, plan: &AdaptivityPlan) {
    let steps = plan.steps();
    put_u32(buf, steps.len() as u32);
    for &s in steps {
        put_u64(buf, s as u64);
    }
}

fn read_plan(r: &mut ByteReader<'_>) -> Result<AdaptivityPlan, DecodeError> {
    let n = r.u32()? as usize;
    let mut steps = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        steps.push(r.u64()? as usize);
    }
    Ok(AdaptivityPlan::from_steps(steps))
}

fn put_opt_u64(buf: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

fn read_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(DecodeError),
    })
}

// Histograms go over the wire sparsely: the sum plus (bucket index, count)
// pairs for the non-empty buckets only.  The total count is derived on
// decode, so a tampered frame cannot desynchronise count and buckets.
fn put_histogram(buf: &mut Vec<u8>, h: &Histogram) {
    put_u64(buf, h.sum());
    let nonzero: Vec<_> = h
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .collect();
    put_u32(buf, nonzero.len() as u32);
    for (i, &n) in nonzero {
        put_u8(buf, i as u8);
        put_u64(buf, n);
    }
}

fn read_histogram(r: &mut ByteReader<'_>) -> Result<Histogram, DecodeError> {
    let sum = r.u64()?;
    let n = r.u32()? as usize;
    if n > rebeca_obs::HISTOGRAM_BUCKETS {
        return Err(DecodeError);
    }
    let mut buckets = [0u64; rebeca_obs::HISTOGRAM_BUCKETS];
    for _ in 0..n {
        let idx = r.u8()? as usize;
        if idx >= rebeca_obs::HISTOGRAM_BUCKETS {
            return Err(DecodeError);
        }
        buckets[idx] = r.u64()?;
    }
    Ok(Histogram::from_parts(buckets, sum))
}

fn put_link_status(buf: &mut Vec<u8>, link: &LinkStatus) {
    put_u64(buf, link.peer);
    put_u8(buf, u8::from(link.connected));
    put_opt_u64(buf, link.last_heartbeat_age_ms);
    put_opt_u64(buf, link.down_since_ms);
    put_u64(buf, link.redial_attempts);
}

fn read_link_status(r: &mut ByteReader<'_>) -> Result<LinkStatus, DecodeError> {
    Ok(LinkStatus {
        peer: r.u64()?,
        connected: match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError),
        },
        last_heartbeat_age_ms: read_opt_u64(r)?,
        down_since_ms: read_opt_u64(r)?,
        redial_attempts: r.u64()?,
    })
}

fn put_obs_event(buf: &mut Vec<u8>, event: &ObsEvent) {
    put_u64(buf, event.seq);
    put_u64(buf, event.at_micros);
    put_str(buf, &event.kind);
    put_str(buf, &event.detail);
}

fn read_obs_event(r: &mut ByteReader<'_>) -> Result<ObsEvent, DecodeError> {
    Ok(ObsEvent {
        seq: r.u64()?,
        at_micros: r.u64()?,
        kind: r.string()?,
        detail: r.string()?,
    })
}

fn put_broker_status(buf: &mut Vec<u8>, b: &BrokerStatus) {
    put_u64(buf, b.broker);
    put_u64(buf, b.restart_epoch);
    put_u64(buf, b.generation);
    put_u64(buf, b.routing_entries);
    put_u64(buf, b.routing_subgroups);
    put_u64(buf, b.wal_depth);
    put_u64(buf, b.wal_since_checkpoint);
    put_opt_u64(buf, b.last_checkpoint_age_ms);
    put_u64(buf, b.counterparts);
    put_u64(buf, b.buffered_deliveries);
    put_u64(buf, b.pending_relocations);
    put_u64(buf, b.retained_publications);
    put_u64(buf, b.retained_segments);
    put_opt_u64(buf, b.oldest_retained_age_ms);
    put_u64(buf, b.expired_leases);
    put_u32(buf, b.relocations.len() as u32);
    for (name, count) in &b.relocations {
        put_str(buf, name);
        put_u64(buf, *count);
    }
    put_histogram(buf, &b.handoff_latency_micros);
    put_u32(buf, b.links.len() as u32);
    for link in &b.links {
        put_link_status(buf, link);
    }
}

fn read_broker_status(r: &mut ByteReader<'_>) -> Result<BrokerStatus, DecodeError> {
    let broker = r.u64()?;
    let restart_epoch = r.u64()?;
    let generation = r.u64()?;
    let routing_entries = r.u64()?;
    let routing_subgroups = r.u64()?;
    let wal_depth = r.u64()?;
    let wal_since_checkpoint = r.u64()?;
    let last_checkpoint_age_ms = read_opt_u64(r)?;
    let counterparts = r.u64()?;
    let buffered_deliveries = r.u64()?;
    let pending_relocations = r.u64()?;
    let retained_publications = r.u64()?;
    let retained_segments = r.u64()?;
    let oldest_retained_age_ms = read_opt_u64(r)?;
    let expired_leases = r.u64()?;
    let n = r.u32()? as usize;
    let mut relocations = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = r.string()?;
        relocations.push((name, r.u64()?));
    }
    let handoff_latency_micros = read_histogram(r)?;
    let n = r.u32()? as usize;
    let mut links = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        links.push(read_link_status(r)?);
    }
    Ok(BrokerStatus {
        broker,
        restart_epoch,
        generation,
        routing_entries,
        routing_subgroups,
        wal_depth,
        wal_since_checkpoint,
        last_checkpoint_age_ms,
        counterparts,
        buffered_deliveries,
        pending_relocations,
        retained_publications,
        retained_segments,
        oldest_retained_age_ms,
        expired_leases,
        relocations,
        handoff_latency_micros,
        links,
    })
}

/// Encodes a [`StatusReport`] (without any frame header) into `buf`.
pub fn put_status_report(buf: &mut Vec<u8>, report: &StatusReport) {
    put_u64(buf, report.now_micros);
    put_u64(buf, report.node_count);
    put_u32(buf, report.brokers.len() as u32);
    for b in &report.brokers {
        put_broker_status(buf, b);
    }
    put_u32(buf, report.events.len() as u32);
    for e in &report.events {
        put_obs_event(buf, e);
    }
}

/// Decodes a [`StatusReport`] from the reader (the inverse of
/// [`put_status_report`]).
pub fn read_status_report(r: &mut ByteReader<'_>) -> Result<StatusReport, DecodeError> {
    let now_micros = r.u64()?;
    let node_count = r.u64()?;
    let n = r.u32()? as usize;
    let mut brokers = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        brokers.push(read_broker_status(r)?);
    }
    let n = r.u32()? as usize;
    let mut events = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        events.push(read_obs_event(r)?);
    }
    Ok(StatusReport {
        now_micros,
        node_count,
        brokers,
        events,
    })
}

fn put_span_record(buf: &mut Vec<u8>, span: &SpanRecord) {
    put_u64(buf, span.seq);
    put_u64(buf, span.trace_id);
    put_u64(buf, span.span_id);
    put_u64(buf, span.parent_span);
    put_u64(buf, span.broker);
    put_str(buf, &span.kind);
    put_u64(buf, span.start_micros);
    put_u64(buf, span.end_micros);
    put_str(buf, &span.detail);
}

fn read_span_record(r: &mut ByteReader<'_>) -> Result<SpanRecord, DecodeError> {
    Ok(SpanRecord {
        seq: r.u64()?,
        trace_id: r.u64()?,
        span_id: r.u64()?,
        parent_span: r.u64()?,
        broker: r.u64()?,
        kind: r.string()?,
        start_micros: r.u64()?,
        end_micros: r.u64()?,
        detail: r.string()?,
    })
}

/// Encodes a [`TraceReport`] (without any frame header) into `buf`.
pub fn put_trace_report(buf: &mut Vec<u8>, report: &TraceReport) {
    put_u64(buf, report.now_micros);
    put_u32(buf, report.spans.len() as u32);
    for span in &report.spans {
        put_span_record(buf, span);
    }
}

/// Decodes a [`TraceReport`] from the reader (the inverse of
/// [`put_trace_report`]).
pub fn read_trace_report(r: &mut ByteReader<'_>) -> Result<TraceReport, DecodeError> {
    let now_micros = r.u64()?;
    let n = r.u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        spans.push(read_span_record(r)?);
    }
    Ok(TraceReport { now_micros, spans })
}

/// Encodes a [`Message`] (without any frame header) into `buf`.
pub fn put_message(buf: &mut Vec<u8>, message: &Message) {
    match message {
        Message::Attach { client } => {
            put_u8(buf, MSG_ATTACH);
            put_u32(buf, client.raw());
        }
        Message::Detach { client } => {
            put_u8(buf, MSG_DETACH);
            put_u32(buf, client.raw());
        }
        Message::Publish {
            publisher,
            notification,
        } => {
            put_u8(buf, MSG_PUBLISH);
            put_u32(buf, publisher.raw());
            put_notification(buf, notification);
        }
        Message::Notification(envelope) => {
            put_u8(buf, MSG_NOTIFICATION);
            put_envelope(buf, envelope);
        }
        Message::Subscribe { subscriber, filter } => {
            put_u8(buf, MSG_SUBSCRIBE);
            put_u32(buf, subscriber.raw());
            put_filter(buf, filter);
        }
        Message::Unsubscribe { subscriber, filter } => {
            put_u8(buf, MSG_UNSUBSCRIBE);
            put_u32(buf, subscriber.raw());
            put_filter(buf, filter);
        }
        Message::Deliver(delivery) => {
            put_u8(buf, MSG_DELIVER);
            put_delivery(buf, delivery);
        }
        Message::DeliverBatch(deliveries) => {
            put_u8(buf, MSG_DELIVER_BATCH);
            put_u32(buf, deliveries.len() as u32);
            for d in deliveries {
                put_delivery(buf, d);
            }
        }
        Message::ReSubscribe {
            client,
            filter,
            last_seq,
        } => {
            put_u8(buf, MSG_RESUBSCRIBE);
            put_u32(buf, client.raw());
            put_filter(buf, filter);
            put_u64(buf, *last_seq);
        }
        Message::Relocate {
            client,
            filter,
            last_seq,
            new_broker,
        } => {
            put_u8(buf, MSG_RELOCATE);
            put_u32(buf, client.raw());
            put_filter(buf, filter);
            put_u64(buf, *last_seq);
            put_node(buf, *new_broker);
        }
        Message::Fetch {
            client,
            filter,
            last_seq,
            junction,
        } => {
            put_u8(buf, MSG_FETCH);
            put_u32(buf, client.raw());
            put_filter(buf, filter);
            put_u64(buf, *last_seq);
            put_node(buf, *junction);
        }
        Message::Replay {
            client,
            filter,
            deliveries,
        } => {
            put_u8(buf, MSG_REPLAY);
            put_u32(buf, client.raw());
            put_filter(buf, filter);
            put_u32(buf, deliveries.len() as u32);
            for d in deliveries {
                put_delivery(buf, d);
            }
        }
        Message::LocSubscribe {
            sub_id,
            template,
            plan,
            location,
            hop,
        } => {
            put_u8(buf, MSG_LOC_SUBSCRIBE);
            put_sub_id(buf, sub_id);
            put_template(buf, template);
            put_plan(buf, plan);
            put_u32(buf, location.raw());
            put_u64(buf, *hop as u64);
        }
        Message::LocUnsubscribe { sub_id } => {
            put_u8(buf, MSG_LOC_UNSUBSCRIBE);
            put_sub_id(buf, sub_id);
        }
        Message::LocationUpdate {
            sub_id,
            location,
            hop,
        } => {
            put_u8(buf, MSG_LOCATION_UPDATE);
            put_sub_id(buf, sub_id);
            put_u32(buf, location.raw());
            put_u64(buf, *hop as u64);
        }
        Message::SubscribeSince {
            subscriber,
            filter,
            since_micros,
            last_seq,
        } => {
            put_u8(buf, MSG_SUBSCRIBE_SINCE);
            put_u32(buf, subscriber.raw());
            put_filter(buf, filter);
            put_u64(buf, *since_micros);
            put_u64(buf, *last_seq);
        }
        Message::HistoryFetch {
            client,
            filter,
            since_micros,
            origin,
        } => {
            put_u8(buf, MSG_HISTORY_FETCH);
            put_u32(buf, client.raw());
            put_filter(buf, filter);
            put_u64(buf, *since_micros);
            put_node(buf, *origin);
        }
        Message::HistoryReplay {
            client,
            filter,
            entries,
        } => {
            put_u8(buf, MSG_HISTORY_REPLAY);
            put_u32(buf, client.raw());
            put_filter(buf, filter);
            put_u32(buf, entries.len() as u32);
            for (ts, envelope) in entries {
                put_u64(buf, *ts);
                put_envelope(buf, envelope);
            }
        }
        Message::Resync { filters, answer } => {
            put_u8(buf, MSG_RESYNC);
            put_u32(buf, filters.len() as u32);
            for filter in filters {
                put_filter(buf, filter);
            }
            put_u8(buf, u8::from(*answer));
        }
    }
}

/// Decodes a [`Message`] from the reader (the inverse of [`put_message`]).
pub fn read_message(r: &mut ByteReader<'_>) -> Result<Message, DecodeError> {
    Ok(match r.u8()? {
        MSG_ATTACH => Message::Attach {
            client: ClientId::new(r.u32()?),
        },
        MSG_DETACH => Message::Detach {
            client: ClientId::new(r.u32()?),
        },
        MSG_PUBLISH => Message::Publish {
            publisher: ClientId::new(r.u32()?),
            notification: r.notification()?,
        },
        MSG_NOTIFICATION => Message::Notification(r.envelope()?),
        MSG_SUBSCRIBE => Message::Subscribe {
            subscriber: ClientId::new(r.u32()?),
            filter: r.filter()?,
        },
        MSG_UNSUBSCRIBE => Message::Unsubscribe {
            subscriber: ClientId::new(r.u32()?),
            filter: r.filter()?,
        },
        MSG_DELIVER => Message::Deliver(r.delivery()?),
        MSG_DELIVER_BATCH => {
            let n = r.u32()? as usize;
            let mut deliveries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                deliveries.push(r.delivery()?);
            }
            Message::DeliverBatch(deliveries)
        }
        MSG_RESUBSCRIBE => Message::ReSubscribe {
            client: ClientId::new(r.u32()?),
            filter: r.filter()?,
            last_seq: r.u64()?,
        },
        MSG_RELOCATE => Message::Relocate {
            client: ClientId::new(r.u32()?),
            filter: r.filter()?,
            last_seq: r.u64()?,
            new_broker: r.node()?,
        },
        MSG_FETCH => Message::Fetch {
            client: ClientId::new(r.u32()?),
            filter: r.filter()?,
            last_seq: r.u64()?,
            junction: r.node()?,
        },
        MSG_REPLAY => {
            let client = ClientId::new(r.u32()?);
            let filter = r.filter()?;
            let n = r.u32()? as usize;
            let mut deliveries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                deliveries.push(r.delivery()?);
            }
            Message::Replay {
                client,
                filter,
                deliveries,
            }
        }
        MSG_LOC_SUBSCRIBE => Message::LocSubscribe {
            sub_id: read_sub_id(r)?,
            template: read_template(r)?,
            plan: read_plan(r)?,
            location: LocationId::new(r.u32()?),
            hop: r.u64()? as usize,
        },
        MSG_LOC_UNSUBSCRIBE => Message::LocUnsubscribe {
            sub_id: read_sub_id(r)?,
        },
        MSG_LOCATION_UPDATE => Message::LocationUpdate {
            sub_id: read_sub_id(r)?,
            location: LocationId::new(r.u32()?),
            hop: r.u64()? as usize,
        },
        MSG_SUBSCRIBE_SINCE => Message::SubscribeSince {
            subscriber: ClientId::new(r.u32()?),
            filter: r.filter()?,
            since_micros: r.u64()?,
            last_seq: r.u64()?,
        },
        MSG_HISTORY_FETCH => Message::HistoryFetch {
            client: ClientId::new(r.u32()?),
            filter: r.filter()?,
            since_micros: r.u64()?,
            origin: r.node()?,
        },
        MSG_HISTORY_REPLAY => {
            let client = ClientId::new(r.u32()?);
            let filter = r.filter()?;
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let ts = r.u64()?;
                entries.push((ts, r.envelope()?));
            }
            Message::HistoryReplay {
                client,
                filter,
                entries,
            }
        }
        MSG_RESYNC => {
            let n = r.u32()?;
            let filters = (0..n).map(|_| r.filter()).collect::<Result<_, _>>()?;
            let answer = r.u8()? != 0;
            Message::Resync { filters, answer }
        }
        _ => return Err(DecodeError),
    })
}

impl Frame {
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                from,
                to,
                epoch,
                listen,
                delay,
            } => {
                put_u8(buf, KIND_HELLO);
                put_node(buf, *from);
                put_node(buf, *to);
                put_u64(buf, *epoch);
                put_endpoint(buf, listen);
                put_delay_model(buf, delay);
            }
            Frame::Heartbeat { epoch } => {
                put_u8(buf, KIND_HEARTBEAT);
                put_u64(buf, *epoch);
            }
            Frame::Message {
                from,
                to,
                delay_micros,
                seq,
                message,
            } => {
                put_u8(buf, KIND_MESSAGE);
                put_node(buf, *from);
                put_node(buf, *to);
                put_u64(buf, *delay_micros);
                put_u64(buf, *seq);
                put_message(buf, message);
            }
            Frame::StatusRequest { events_after } => {
                put_u8(buf, KIND_STATUS_REQUEST);
                put_opt_u64(buf, *events_after);
            }
            Frame::StatusReport(report) => {
                put_u8(buf, KIND_STATUS_REPORT);
                put_status_report(buf, report);
            }
            Frame::TraceRequest { spans_after } => {
                put_u8(buf, KIND_TRACE_REQUEST);
                put_opt_u64(buf, *spans_after);
            }
            Frame::TraceReport(report) => {
                put_u8(buf, KIND_TRACE_REPORT);
                put_trace_report(buf, report);
            }
            Frame::Ack { seq } => {
                put_u8(buf, KIND_ACK);
                put_u64(buf, *seq);
            }
            Frame::Fenced { expected } => {
                put_u8(buf, KIND_FENCED);
                put_u64(buf, *expected);
            }
            Frame::LinkDrop { peer } => {
                put_u8(buf, KIND_LINK_DROP);
                put_node(buf, *peer);
            }
        }
    }

    /// Appends the frame as `len ‖ crc32 ‖ payload` to `buf`.  The payload
    /// is encoded in place behind a reserved header, so a caller that
    /// reuses `buf` (a link's outbound window) pays no allocation and no
    /// copy per frame.
    pub(crate) fn encode_framed_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        self.encode_payload(buf);
        let payload = &buf[start + FRAME_HEADER_LEN..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf[start + 4..start + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    }

    /// Encodes the frame as `len ‖ crc32 ‖ payload`, ready to write to a
    /// socket.
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64 + FRAME_HEADER_LEN);
        self.encode_framed_into(&mut frame);
        frame
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(payload);
        let frame = match r.u8()? {
            KIND_HELLO => Frame::Hello {
                from: r.node()?,
                to: r.node()?,
                epoch: r.u64()?,
                listen: read_endpoint(&mut r)?,
                delay: read_delay_model(&mut r)?,
            },
            KIND_HEARTBEAT => Frame::Heartbeat { epoch: r.u64()? },
            KIND_MESSAGE => Frame::Message {
                from: r.node()?,
                to: r.node()?,
                delay_micros: r.u64()?,
                seq: r.u64()?,
                message: read_message(&mut r)?,
            },
            KIND_STATUS_REQUEST => Frame::StatusRequest {
                events_after: read_opt_u64(&mut r)?,
            },
            KIND_STATUS_REPORT => Frame::StatusReport(read_status_report(&mut r)?),
            KIND_TRACE_REQUEST => Frame::TraceRequest {
                spans_after: read_opt_u64(&mut r)?,
            },
            KIND_TRACE_REPORT => Frame::TraceReport(read_trace_report(&mut r)?),
            KIND_ACK => Frame::Ack { seq: r.u64()? },
            KIND_FENCED => Frame::Fenced { expected: r.u64()? },
            KIND_LINK_DROP => Frame::LinkDrop { peer: r.node()? },
            kind => return Err(WireError::UnknownFrameKind(kind)),
        };
        if !r.done() {
            return Err(WireError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(frame)
    }

    /// Decodes one frame from the front of `buf`, returning the frame and
    /// the number of bytes consumed.  [`WireError::Truncated`] means more
    /// bytes are needed; every other error means the stream is corrupt.
    pub fn decode_framed(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { len });
        }
        let expected = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let total = FRAME_HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(WireError::Truncated);
        }
        let payload = &buf[FRAME_HEADER_LEN..total];
        let found = crc32(payload);
        if found != expected {
            return Err(WireError::Checksum { expected, found });
        }
        Ok((Self::decode_payload(payload)?, total))
    }
}

// NOTE: there is deliberately no `read socket → Frame` convenience here.
// Reading frames off a socket needs partial-read buffering (a read timeout
// can strike mid-frame without losing the consumed prefix); the transport's
// reader thread in `link.rs` owns that loop, built on
// [`Frame::decode_framed`]'s `Truncated`-means-more-bytes contract.

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_broker::{Delivery, Envelope};
    use rebeca_filter::{Constraint, Notification};

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
                    .build(),
            ),
        }
    }

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Hello {
                from: NodeId::new(3),
                to: NodeId::new(0),
                epoch: 7,
                listen: Endpoint::new("127.0.0.1", 7200),
                delay: DelayModel::Jittered {
                    base_micros: 1000,
                    jitter_micros: 50,
                },
            },
            Frame::Heartbeat { epoch: 7 },
            Frame::Message {
                from: NodeId::new(0),
                to: NodeId::new(3),
                delay_micros: 5000,
                seq: 42,
                message: Message::Deliver(delivery(4)),
            },
            Frame::Ack { seq: 42 },
            Frame::Fenced { expected: 8 },
            Frame::LinkDrop {
                peer: NodeId::new(3),
            },
        ];
        for frame in frames {
            let bytes = frame.encode_framed();
            let (decoded, consumed) = Frame::decode_framed(&bytes).expect("roundtrip");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn status_frames_roundtrip() {
        let mut histogram = Histogram::default();
        for micros in [90, 1_500, 1_800, 250_000] {
            histogram.record(micros);
        }
        let report = StatusReport {
            now_micros: 12_345_678,
            node_count: 5,
            brokers: vec![BrokerStatus {
                broker: 1,
                restart_epoch: 2,
                generation: 3,
                routing_entries: 14,
                routing_subgroups: 5,
                wal_depth: 9,
                wal_since_checkpoint: 4,
                last_checkpoint_age_ms: Some(125),
                counterparts: 1,
                buffered_deliveries: 3,
                pending_relocations: 1,
                retained_publications: 250,
                retained_segments: 3,
                oldest_retained_age_ms: Some(42_000),
                expired_leases: 2,
                relocations: vec![
                    ("mobility.relocations_started".into(), 2),
                    ("mobility.replays".into(), 1),
                ],
                handoff_latency_micros: histogram,
                links: vec![
                    LinkStatus {
                        peer: 0,
                        connected: true,
                        last_heartbeat_age_ms: Some(48),
                        down_since_ms: None,
                        redial_attempts: 0,
                    },
                    LinkStatus {
                        peer: 2,
                        connected: false,
                        last_heartbeat_age_ms: None,
                        down_since_ms: Some(1_250),
                        redial_attempts: 17,
                    },
                ],
            }],
            events: vec![ObsEvent {
                seq: 7,
                at_micros: 11_000_000,
                kind: "relocation.settled".into(),
                detail: "broker=1 client=1 latency_micros=1500".into(),
            }],
        };
        let frames = [
            Frame::StatusRequest { events_after: None },
            Frame::StatusRequest {
                events_after: Some(41),
            },
            Frame::StatusReport(report),
        ];
        for frame in frames {
            let bytes = frame.encode_framed();
            let (decoded, consumed) = Frame::decode_framed(&bytes).expect("roundtrip");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn trace_frames_roundtrip() {
        let report = TraceReport {
            now_micros: 12_345_678,
            spans: vec![
                SpanRecord {
                    seq: 3,
                    trace_id: 0xDEAD_BEEF_0BAD_CAFE,
                    span_id: 0x1234_5678_9ABC_DEF1,
                    parent_span: 0,
                    broker: 7,
                    kind: "publish".into(),
                    start_micros: 50_000,
                    end_micros: 50_000,
                    detail: "publisher=2 seq=1".into(),
                },
                SpanRecord {
                    seq: 4,
                    trace_id: 0xDEAD_BEEF_0BAD_CAFE,
                    span_id: 0xFEDC_BA98_7654_3211,
                    parent_span: 0x1234_5678_9ABC_DEF1,
                    broker: 7,
                    kind: "match".into(),
                    start_micros: 50_000,
                    end_micros: 50_010,
                    detail: String::new(),
                },
            ],
        };
        let frames = [
            Frame::TraceRequest { spans_after: None },
            Frame::TraceRequest {
                spans_after: Some(17),
            },
            Frame::TraceReport(TraceReport::default()),
            Frame::TraceReport(report),
        ];
        for frame in frames {
            let bytes = frame.encode_framed();
            let (decoded, consumed) = Frame::decode_framed(&bytes).expect("roundtrip");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn status_report_histogram_survives_the_wire_with_quantiles() {
        let mut histogram = Histogram::default();
        for _ in 0..98 {
            histogram.record(100);
        }
        histogram.record(5_000);
        histogram.record(100_000);
        let report = StatusReport {
            now_micros: 1,
            node_count: 1,
            brokers: vec![BrokerStatus {
                broker: 0,
                handoff_latency_micros: histogram,
                ..BrokerStatus::default()
            }],
            events: Vec::new(),
        };
        let bytes = Frame::StatusReport(report).encode_framed();
        let (decoded, _) = Frame::decode_framed(&bytes).unwrap();
        let Frame::StatusReport(report) = decoded else {
            panic!("expected status report");
        };
        let h = &report.brokers[0].handoff_latency_micros;
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p99(), 8_191);
    }

    #[test]
    fn back_to_back_frames_decode_sequentially() {
        let a = Frame::Heartbeat { epoch: 1 };
        let b = Frame::Message {
            from: NodeId::new(1),
            to: NodeId::new(2),
            delay_micros: 0,
            seq: 1,
            message: Message::Attach {
                client: ClientId::new(5),
            },
        };
        let mut bytes = a.encode_framed();
        bytes.extend_from_slice(&b.encode_framed());
        let (first, used) = Frame::decode_framed(&bytes).unwrap();
        assert_eq!(first, a);
        let (second, used2) = Frame::decode_framed(&bytes[used..]).unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let frame = Frame::Message {
            from: NodeId::new(1),
            to: NodeId::new(2),
            delay_micros: 10,
            seq: 3,
            message: Message::Subscribe {
                subscriber: ClientId::new(1),
                filter: filter(),
            },
        };
        let bytes = frame.encode_framed();
        for cut in [0, 3, FRAME_HEADER_LEN, bytes.len() - 1] {
            assert_eq!(
                Frame::decode_framed(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let frame = Frame::Heartbeat { epoch: 3 };
        let mut bytes = frame.encode_framed();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Frame::decode_framed(&bytes),
            Err(WireError::Checksum { .. })
        ));
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, 0);
        assert_eq!(
            Frame::decode_framed(&bytes).unwrap_err(),
            WireError::FrameTooLarge { len: u32::MAX }
        );
    }

    #[test]
    fn garbage_with_a_valid_checksum_is_malformed_not_a_panic() {
        // A well-framed payload whose first byte is an unknown frame kind.
        let payload = vec![0xEEu8, 1, 2, 3];
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        assert_eq!(
            Frame::decode_framed(&bytes).unwrap_err(),
            WireError::UnknownFrameKind(0xEE)
        );
    }

    #[test]
    fn resend_control_frames_are_corruption_checked_like_any_other() {
        // A flipped bit in an Ack must fail the checksum, not ack the
        // wrong sequence number.
        let mut bytes = Frame::Ack { seq: 0x0102_0304 }.encode_framed();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Frame::decode_framed(&bytes),
            Err(WireError::Checksum { .. })
        ));
        // A truncated Fenced payload is malformed, never a panic.
        let payload = vec![KIND_FENCED, 1, 2];
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        assert_eq!(
            Frame::decode_framed(&bytes).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn retired_message_tags_are_malformed_not_another_message() {
        // Well-checksummed `Message` frames carrying the retired tags with
        // the bodies their messages had: one notification (4) and one
        // envelope (6) for the batches, a client and a filter for
        // `Advertise` (9) and `Unadvertise` (10).
        let envelope = delivery(1).envelope;
        let mut publish_body = Vec::new();
        put_u32(&mut publish_body, 9);
        put_u32(&mut publish_body, 1);
        put_notification(&mut publish_body, &envelope.notification);
        let mut notification_body = Vec::new();
        put_u32(&mut notification_body, 1);
        put_envelope(&mut notification_body, &envelope);
        let mut advertise_body = Vec::new();
        put_u32(&mut advertise_body, 9);
        put_filter(&mut advertise_body, &filter());
        for (tag, body) in [
            (4u8, publish_body),
            (6, notification_body),
            (9, advertise_body.clone()),
            (10, advertise_body),
        ] {
            let mut payload = vec![KIND_MESSAGE];
            put_node(&mut payload, NodeId::new(0));
            put_node(&mut payload, NodeId::new(2));
            put_u64(&mut payload, 0);
            put_u64(&mut payload, 1);
            put_u8(&mut payload, tag);
            payload.extend_from_slice(&body);
            let mut bytes = Vec::new();
            put_u32(&mut bytes, payload.len() as u32);
            put_u32(&mut bytes, crc32(&payload));
            bytes.extend_from_slice(&payload);
            assert_eq!(
                Frame::decode_framed(&bytes).unwrap_err(),
                WireError::Malformed,
                "tag {tag}"
            );
        }
    }

    #[test]
    fn retention_messages_roundtrip() {
        let messages = [
            Message::SubscribeSince {
                subscriber: ClientId::new(4),
                filter: filter(),
                since_micros: 1_500_000,
                last_seq: 12,
            },
            Message::HistoryFetch {
                client: ClientId::new(4),
                filter: filter(),
                since_micros: 1_500_000,
                origin: NodeId::new(2),
            },
            Message::HistoryReplay {
                client: ClientId::new(4),
                filter: filter(),
                entries: vec![
                    (1_600_000, delivery(1).envelope),
                    (1_700_000, delivery(2).envelope),
                ],
            },
            Message::HistoryReplay {
                client: ClientId::new(4),
                filter: filter(),
                entries: Vec::new(),
            },
        ];
        for message in messages {
            let frame = Frame::Message {
                from: NodeId::new(0),
                to: NodeId::new(2),
                delay_micros: 1_000,
                seq: 9,
                message,
            };
            let bytes = frame.encode_framed();
            let (decoded, consumed) = Frame::decode_framed(&bytes).expect("roundtrip");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Vec::new();
        Frame::Heartbeat { epoch: 1 }.encode_payload(&mut payload);
        payload.push(0);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        assert_eq!(
            Frame::decode_framed(&bytes).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }
}
