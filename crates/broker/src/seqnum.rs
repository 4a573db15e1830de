//! Per-subscription sequence numbering and notification buffers.
//!
//! A border broker annotates every delivery to a local consumer with a
//! sequence number that is consecutive per `(client, filter)`.  The roaming
//! client echoes the last number it received when it re-subscribes at a new
//! border broker, and the *virtual counterpart* left behind at the old
//! broker buffers deliveries so they can be replayed "beginning with the
//! sequence number initially given by the client" (Section 4.1).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rebeca_filter::Filter;

use crate::ids::ClientId;
use crate::message::Delivery;

/// Assigns consecutive sequence numbers per `(client, filter)` stream.
///
/// Streams are nested per client, so a lookup borrows the filter (it is
/// cloned only when a stream is first created) and dropping a client drops
/// one sub-map.  A client with no stream has no sub-map, which keeps the
/// derived equality exact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SequenceRegistry {
    next: BTreeMap<ClientId, BTreeMap<Filter, u64>>,
}

impl SequenceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next sequence number for the stream and advances it.
    /// The first number of a fresh stream is 1.
    pub fn next(&mut self, client: ClientId, filter: &Filter) -> u64 {
        let streams = self.next.entry(client).or_default();
        match streams.get_mut(filter) {
            Some(counter) => {
                let seq = *counter;
                *counter += 1;
                seq
            }
            None => {
                streams.insert(filter.clone(), 2);
                1
            }
        }
    }

    /// The sequence number that will be assigned next (without advancing).
    pub fn peek(&self, client: ClientId, filter: &Filter) -> u64 {
        self.next
            .get(&client)
            .and_then(|streams| streams.get(filter))
            .copied()
            .unwrap_or(1)
    }

    /// Fast-forwards the stream so that the next assigned number is
    /// `next_seq`.  Used by a new border broker that takes over a stream
    /// after relocation (it continues numbering where the replayed buffer
    /// ended).  Never moves the counter backwards.
    pub fn fast_forward(&mut self, client: ClientId, filter: &Filter, next_seq: u64) {
        let streams = self.next.entry(client).or_default();
        match streams.get_mut(filter) {
            Some(counter) => *counter = (*counter).max(next_seq),
            None => {
                streams.insert(filter.clone(), next_seq.max(1));
            }
        }
    }

    /// Removes the stream state for a client's filter (garbage collection at
    /// the old border broker).  Returns `true` when state existed.
    pub fn remove(&mut self, client: ClientId, filter: &Filter) -> bool {
        let Some(streams) = self.next.get_mut(&client) else {
            return false;
        };
        let removed = streams.remove(filter).is_some();
        if streams.is_empty() {
            self.next.remove(&client);
        }
        removed
    }

    /// Removes every stream belonging to the client.
    pub fn remove_client(&mut self, client: ClientId) -> usize {
        self.next.remove(&client).map_or(0, |streams| streams.len())
    }

    /// Number of tracked streams.
    pub fn len(&self) -> usize {
        self.next.values().map(BTreeMap::len).sum()
    }

    /// `true` when no stream is tracked.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }
}

/// A sequence-ordered buffer of deliveries for one `(client, filter)` stream:
/// the storage behind the *virtual counterpart* of a roaming client and
/// behind the new border broker's holding buffer during replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeliveryBuffer {
    deliveries: Vec<Delivery>,
}

impl DeliveryBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a delivery.  Deliveries are expected to arrive in increasing
    /// sequence order (the border broker assigns them in order); the buffer
    /// keeps whatever order it is given.
    pub fn push(&mut self, delivery: Delivery) {
        self.deliveries.push(delivery);
    }

    /// Number of buffered deliveries.
    pub fn len(&self) -> usize {
        self.deliveries.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty()
    }

    /// The buffered deliveries with sequence numbers strictly greater than
    /// `after_seq`, in sequence order — the replay the old border broker
    /// sends towards the junction.
    pub fn replay_after(&self, after_seq: u64) -> Vec<Delivery> {
        let mut replay: Vec<Delivery> = self
            .deliveries
            .iter()
            .filter(|d| d.seq > after_seq)
            .cloned()
            .collect();
        replay.sort_by_key(|d| d.seq);
        replay
    }

    /// The highest buffered sequence number (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.deliveries.iter().map(|d| d.seq).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use rebeca_filter::{Constraint, Notification};

    fn filter() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    fn other_filter() -> Filter {
        Filter::new().with("service", Constraint::Eq("weather".into()))
    }

    fn delivery(seq: u64) -> Delivery {
        Delivery {
            subscriber: ClientId::new(1),
            filter: filter(),
            seq,
            envelope: Envelope::new(
                ClientId::new(9),
                seq,
                Notification::builder().attr("service", "parking").build(),
            ),
        }
    }

    #[test]
    fn sequence_numbers_are_consecutive_per_stream() {
        let mut reg = SequenceRegistry::new();
        assert_eq!(reg.next(ClientId::new(1), &filter()), 1);
        assert_eq!(reg.next(ClientId::new(1), &filter()), 2);
        assert_eq!(reg.next(ClientId::new(1), &other_filter()), 1);
        assert_eq!(reg.next(ClientId::new(2), &filter()), 1);
        assert_eq!(reg.peek(ClientId::new(1), &filter()), 3);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn fast_forward_never_goes_backwards() {
        let mut reg = SequenceRegistry::new();
        reg.fast_forward(ClientId::new(1), &filter(), 100);
        assert_eq!(reg.next(ClientId::new(1), &filter()), 100);
        reg.fast_forward(ClientId::new(1), &filter(), 50);
        assert_eq!(reg.next(ClientId::new(1), &filter()), 101);
    }

    #[test]
    fn remove_and_remove_client() {
        let mut reg = SequenceRegistry::new();
        reg.next(ClientId::new(1), &filter());
        reg.next(ClientId::new(1), &other_filter());
        reg.next(ClientId::new(2), &filter());
        assert!(reg.remove(ClientId::new(1), &filter()));
        assert!(!reg.remove(ClientId::new(1), &filter()));
        assert_eq!(reg.remove_client(ClientId::new(1)), 1);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn replay_after_returns_only_newer_deliveries_in_order() {
        let mut buf = DeliveryBuffer::new();
        for seq in [3, 1, 2, 5, 4] {
            buf.push(delivery(seq));
        }
        let replay = buf.replay_after(2);
        let seqs: Vec<u64> = replay.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(buf.last_seq(), 5);
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn replay_after_last_seq_is_empty() {
        let mut buf = DeliveryBuffer::new();
        buf.push(delivery(1));
        assert!(buf.replay_after(1).is_empty());
        assert!(buf.replay_after(99).is_empty());
    }
}
