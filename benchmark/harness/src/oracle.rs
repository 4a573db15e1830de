//! The correctness oracle: every consumer's delivery log against the set
//! of deliveries the workload owes it.
//!
//! The paper's guarantee is that each matching notification arrives exactly
//! once and in per-publisher order, across moves.  The oracle counts the
//! four ways a delivery can violate that — lost, duplicated, out of order,
//! outside the filter — and the harness reports their sum against the
//! deliveries owed (`failed` / `attempted` of the result line).

use std::collections::{BTreeMap, HashSet};
use std::ops::RangeInclusive;

use rebeca::{ClientId, ConsumerLog, Filter};

/// Failure counts of one or more consumer logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Deliveries the workload owes (one per consumer, subscription and
    /// matching publication), where completeness is checkable.
    pub owed: u64,
    /// Measured deliveries that arrived.
    pub delivered: u64,
    /// Owed deliveries that never arrived.
    pub lost: u64,
    /// Deliveries of a publication already delivered for that subscription.
    pub duplicated: u64,
    /// Deliveries older than one already received from the same publisher.
    pub out_of_order: u64,
    /// Deliveries whose notification does not match the delivery's filter,
    /// or whose filter the consumer never subscribed.
    pub outside_filter: u64,
}

impl Verdict {
    /// Every delivery that violated the guarantee.
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.out_of_order + self.outside_filter
    }

    /// Adds another verdict's counts.
    pub fn add(&mut self, other: &Verdict) {
        self.owed += other.owed;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.out_of_order += other.out_of_order;
        self.outside_filter += other.outside_filter;
    }
}

/// Checks one consumer's log.
///
/// * `measured` — publisher sequence numbers of the measured publications
///   of `publisher`; anything else in the log (set-up probes) is ignored.
/// * `filters` — the consumer's subscriptions, with completeness checked
///   against `owed_count(filter)` (how many measured publications match).
///   `None` for a location-dependent consumer: what it is owed depends on
///   where it was when each publication passed, so only exactly-once, order
///   and filter conformance are checked and `owed` counts what arrived.
pub fn check_log(
    log: &ConsumerLog,
    publisher: ClientId,
    measured: &RangeInclusive<u64>,
    filters: Option<&[Filter]>,
    owed_count: &mut dyn FnMut(&Filter) -> u64,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut seen: BTreeMap<&Filter, HashSet<u64>> = BTreeMap::new();
    let mut newest = 0u64;
    for d in log.deliveries() {
        let seq = d.envelope.publisher_seq;
        if d.envelope.publisher != publisher || !measured.contains(&seq) {
            continue;
        }
        verdict.delivered += 1;
        let subscribed = filters.is_none_or(|mine| mine.contains(&d.filter));
        if !subscribed || !d.filter.matches(&d.envelope.notification) {
            verdict.outside_filter += 1;
            continue;
        }
        if !seen.entry(&d.filter).or_default().insert(seq) {
            verdict.duplicated += 1;
        } else if seq < newest {
            verdict.out_of_order += 1;
        }
        newest = newest.max(seq);
    }
    match filters {
        Some(mine) => {
            for f in mine {
                let owed = owed_count(f);
                let arrived = seen.get(f).map_or(0, |s| s.len() as u64);
                verdict.owed += owed;
                verdict.lost += owed.saturating_sub(arrived);
            }
        }
        None => verdict.owed += seen.values().map(|s| s.len() as u64).sum::<u64>(),
    }
    verdict
}

/// An order-sensitive digest (FNV-1a) over delivery logs: two simulator
/// runs at the same seed must produce the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one consumer's log in, delivery by delivery.
    pub fn absorb(&mut self, log: &ConsumerLog) {
        for d in log.deliveries() {
            self.word(u64::from(d.subscriber.raw()));
            self.word(d.seq);
            self.word(u64::from(d.envelope.publisher.raw()));
            self.word(d.envelope.publisher_seq);
        }
        self.word(log.len() as u64);
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca::{Constraint, Delivery, Envelope, Notification};

    const PRODUCER: ClientId = ClientId::new(2);

    fn filter() -> Filter {
        Filter::new().with("kind", Constraint::Eq("bench".into()))
    }

    fn delivery(seq: u64, kind: &str) -> Delivery {
        Delivery {
            subscriber: ClientId::new(1),
            filter: filter(),
            seq,
            envelope: Envelope::new(
                PRODUCER,
                seq,
                Notification::builder().attr("kind", kind).build(),
            ),
        }
    }

    fn verdict_of(seqs: &[u64]) -> Verdict {
        let mut log = ConsumerLog::new();
        for &s in seqs {
            log.record(delivery(s, "bench"));
        }
        check_log(&log, PRODUCER, &(1..=5), Some(&[filter()]), &mut |_| 5)
    }

    #[test]
    fn a_clean_log_passes() {
        let v = verdict_of(&[1, 2, 3, 4, 5]);
        assert_eq!(v.failed(), 0);
        assert_eq!((v.owed, v.delivered), (5, 5));
    }

    #[test]
    fn a_dropped_delivery_is_counted_as_lost() {
        let v = verdict_of(&[1, 2, 4, 5]);
        assert_eq!((v.lost, v.duplicated, v.out_of_order), (1, 0, 0));
    }

    #[test]
    fn a_duplicated_delivery_is_counted_once() {
        let v = verdict_of(&[1, 2, 3, 3, 4, 5]);
        assert_eq!((v.lost, v.duplicated, v.out_of_order), (0, 1, 0));
    }

    #[test]
    fn a_reordered_delivery_is_counted_as_out_of_order() {
        let v = verdict_of(&[1, 3, 2, 4, 5]);
        assert_eq!((v.lost, v.duplicated, v.out_of_order), (0, 0, 1));
    }

    #[test]
    fn a_delivery_outside_the_filter_is_counted() {
        let mut log = ConsumerLog::new();
        log.record(delivery(1, "bench"));
        log.record(delivery(2, "other"));
        let v = check_log(&log, PRODUCER, &(1..=2), Some(&[filter()]), &mut |_| 1);
        assert_eq!((v.outside_filter, v.lost), (1, 0));
        // A filter the consumer never subscribed is outside, too.
        let v = check_log(&log, PRODUCER, &(1..=2), Some(&[]), &mut |_| 0);
        assert_eq!(v.outside_filter, 2);
    }

    #[test]
    fn probes_outside_the_measured_range_are_ignored() {
        let mut log = ConsumerLog::new();
        for s in 1..=8 {
            log.record(delivery(s, "bench"));
        }
        let v = check_log(&log, PRODUCER, &(4..=8), Some(&[filter()]), &mut |_| 5);
        assert_eq!((v.failed(), v.delivered), (0, 5));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = ConsumerLog::new();
        let mut b = ConsumerLog::new();
        for s in [1, 2, 3] {
            a.record(delivery(s, "bench"));
        }
        for s in [1, 3, 2] {
            b.record(delivery(s, "bench"));
        }
        let (mut da, mut db, mut da2) = (Digest::default(), Digest::default(), Digest::default());
        da.absorb(&a);
        db.absorb(&b);
        da2.absorb(&a);
        assert_ne!(da, db);
        assert_eq!(da, da2);
    }
}
