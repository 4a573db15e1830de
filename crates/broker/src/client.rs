//! Client-side state: the delivery log of a consumer.
//!
//! [`ConsumerLog`] records every delivery a consumer receives and checks the
//! quality-of-service properties the paper requires from the mobility
//! support (Section 3.2): *completeness* (no notification is lost),
//! *no duplicates*, and *sender-FIFO ordering*.  The relocation protocol also
//! reads the last received sequence number per subscription from this log
//! when re-subscribing at a new border broker.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use rebeca_filter::Filter;

use crate::ids::ClientId;
use crate::message::Delivery;

/// A violation of the delivery quality of service detected by the log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryViolation {
    /// The same publication was delivered twice for the same subscription
    /// (identified by the publisher and its publication sequence number;
    /// border-broker delivery sequence numbers restart per broker and are
    /// therefore not used for this check).
    Duplicate {
        /// The affected subscription.
        filter: Filter,
        /// The publisher of the duplicated notification.
        publisher: ClientId,
        /// The duplicated publication sequence number.
        publisher_seq: u64,
    },
    /// Two deliveries from the same publisher arrived out of publication
    /// order (sender-FIFO violation).
    FifoViolation {
        /// The publisher whose order was violated.
        publisher: ClientId,
        /// The publisher sequence number seen before.
        earlier: u64,
        /// The (smaller) publisher sequence number seen after.
        later: u64,
    },
}

/// What the log tracks per subscription.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct FilterStream {
    /// Highest border-broker sequence number received.
    last_seq: u64,
    /// Publications already delivered for the subscription.  Ordered, not
    /// hashed: logs are compared byte for byte through their `Debug` form,
    /// which a per-instance hash seed would scramble.
    seen: BTreeSet<(ClientId, u64)>,
}

/// The delivery log of one consumer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConsumerLog {
    deliveries: Vec<Delivery>,
    streams: BTreeMap<Filter, FilterStream>,
    last_publisher_seq: BTreeMap<ClientId, u64>,
    violations: Vec<DeliveryViolation>,
}

impl ConsumerLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivery, checking for duplicates and sender-FIFO
    /// violations on the fly, without scanning the log.
    pub fn record(&mut self, delivery: Delivery) {
        let publisher = delivery.envelope.publisher;
        let publisher_seq = delivery.envelope.publisher_seq;
        let stream = match self.streams.get_mut(&delivery.filter) {
            Some(stream) => stream,
            None => self.streams.entry(delivery.filter.clone()).or_default(),
        };
        if !stream.seen.insert((publisher, publisher_seq)) {
            self.violations.push(DeliveryViolation::Duplicate {
                filter: delivery.filter.clone(),
                publisher,
                publisher_seq,
            });
        }
        stream.last_seq = stream.last_seq.max(delivery.seq);

        let last_pub = self.last_publisher_seq.entry(publisher).or_insert(0);
        if publisher_seq < *last_pub {
            self.violations.push(DeliveryViolation::FifoViolation {
                publisher,
                earlier: *last_pub,
                later: publisher_seq,
            });
        } else {
            *last_pub = publisher_seq;
        }

        self.deliveries.push(delivery);
    }

    /// Every delivery recorded so far, in arrival order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Number of recorded deliveries.
    pub fn len(&self) -> usize {
        self.deliveries.len()
    }

    /// `true` when nothing has been delivered yet.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty()
    }

    /// The highest sequence number received for a subscription (0 when
    /// nothing arrived yet) — the number echoed in a re-subscription after
    /// relocation.
    pub fn last_seq(&self, filter: &Filter) -> u64 {
        self.streams.get(filter).map_or(0, |s| s.last_seq)
    }

    /// A copy of the log with the trace context stripped from every
    /// envelope.
    ///
    /// Distributed-trace sampling is deployment configuration, not
    /// payload: the same scenario run with and without `--trace-sample`
    /// (or on drivers that allocate span ids in a different local order)
    /// must still produce byte-identical *deliveries*.  Cross-driver
    /// equivalence tests compare `log.without_trace()` when the runs'
    /// sampling configurations differ.
    pub fn without_trace(&self) -> ConsumerLog {
        let mut log = self.clone();
        for delivery in &mut log.deliveries {
            delivery.envelope.trace = None;
        }
        log
    }

    /// The violations detected so far.
    pub fn violations(&self) -> &[DeliveryViolation] {
        &self.violations
    }

    /// `true` when no duplicate or FIFO violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The publisher sequence numbers received from one publisher, in arrival
    /// order (used by tests to assert completeness).
    pub fn publisher_seqs(&self, publisher: ClientId) -> Vec<u64> {
        self.deliveries
            .iter()
            .filter(|d| d.envelope.publisher == publisher)
            .map(|d| d.envelope.publisher_seq)
            .collect()
    }

    /// The distinct publisher sequence numbers received from one publisher
    /// (sorted).  With a single subscription this is the set of publications
    /// that actually reached the consumer.
    pub fn distinct_publisher_seqs(&self, publisher: ClientId) -> Vec<u64> {
        let mut seqs = self.publisher_seqs(publisher);
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    /// Checks completeness against an expected set of publisher sequence
    /// numbers: returns the numbers that never arrived.
    pub fn missing_from(
        &self,
        publisher: ClientId,
        expected: impl IntoIterator<Item = u64>,
    ) -> Vec<u64> {
        let received = self.distinct_publisher_seqs(publisher);
        expected
            .into_iter()
            .filter(|seq| !received.contains(seq))
            .collect()
    }

    /// Number of duplicate deliveries observed (per publisher sequence
    /// numbers), independent of border-broker sequence numbers.  Used by the
    /// Figure 2 experiment, which counts duplicates produced by the naive
    /// hand-off even though each duplicate carries a fresh delivery sequence
    /// number from a different broker.
    pub fn duplicate_publications(&self, publisher: ClientId) -> usize {
        let all = self.publisher_seqs(publisher);
        let distinct = self.distinct_publisher_seqs(publisher);
        all.len() - distinct.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use rebeca_filter::{Constraint, Notification};

    fn parking() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    fn delivery(seq: u64, publisher_seq: u64) -> Delivery {
        Delivery {
            subscriber: ClientId::new(1),
            filter: parking(),
            seq,
            envelope: Envelope::new(
                ClientId::new(9),
                publisher_seq,
                Notification::builder().attr("service", "parking").build(),
            ),
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut log = ConsumerLog::new();
        for i in 1..=5 {
            log.record(delivery(i, i));
        }
        assert!(log.is_clean());
        assert_eq!(log.len(), 5);
        assert_eq!(log.last_seq(&parking()), 5);
        assert_eq!(log.publisher_seqs(ClientId::new(9)), vec![1, 2, 3, 4, 5]);
        assert!(log.missing_from(ClientId::new(9), 1..=5).is_empty());
    }

    #[test]
    fn duplicates_are_detected() {
        let mut log = ConsumerLog::new();
        log.record(delivery(1, 1));
        log.record(delivery(1, 1));
        assert!(!log.is_clean());
        assert!(matches!(
            log.violations()[0],
            DeliveryViolation::Duplicate {
                publisher_seq: 1,
                ..
            }
        ));
        assert_eq!(log.duplicate_publications(ClientId::new(9)), 1);
    }

    #[test]
    fn fifo_violations_are_detected() {
        let mut log = ConsumerLog::new();
        log.record(delivery(1, 5));
        log.record(delivery(2, 3));
        assert!(!log.is_clean());
        assert!(matches!(
            log.violations()[0],
            DeliveryViolation::FifoViolation {
                earlier: 5,
                later: 3,
                ..
            }
        ));
    }

    #[test]
    fn missing_publications_are_reported() {
        let mut log = ConsumerLog::new();
        log.record(delivery(1, 1));
        log.record(delivery(2, 3));
        assert_eq!(log.missing_from(ClientId::new(9), 1..=3), vec![2]);
        assert_eq!(log.distinct_publisher_seqs(ClientId::new(9)), vec![1, 3]);
    }

    #[test]
    fn last_seq_of_unknown_filter_is_zero() {
        let log = ConsumerLog::new();
        assert_eq!(log.last_seq(&parking()), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn publisher_seqs_are_separated_by_publisher() {
        let mut log = ConsumerLog::new();
        log.record(delivery(1, 1));
        let mut other = delivery(2, 7);
        other.envelope.publisher = ClientId::new(8);
        log.record(other);
        assert_eq!(log.publisher_seqs(ClientId::new(9)), vec![1]);
        assert_eq!(log.publisher_seqs(ClientId::new(8)), vec![7]);
        assert!(log.is_clean());
    }
}
