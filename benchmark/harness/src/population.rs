//! One description of who subscribes to what, where — shared by the traced
//! run's per-layer loops, so each layer is timed on the filters,
//! notifications and table sizes of the workload it is attributed to.

use rebeca::filter::{Filter, Notification};
use rebeca::LocationId;

use crate::inputs::{
    group_filter, group_notification, group_template, mobility_class, tcp_attrs, tcp_filter,
    tcp_notification, MatchInputs, MobilityClass, Rng, Sizes, Workload,
};
use crate::tcp::TcpShape;

/// One subscription of the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscription {
    /// The subscribing consumer.
    pub consumer: usize,
    /// The broker the consumer starts at.
    pub home: usize,
    /// Index into [`Population::filters`].
    pub filter: usize,
}

/// A workload's population.
#[derive(Debug, Clone)]
pub struct Population {
    /// Brokers in the line.
    pub brokers: usize,
    /// Broker the producer attaches to.
    pub producer_at: usize,
    /// The distinct filters.
    pub filters: Vec<Filter>,
    /// Every subscription.
    pub subs: Vec<Subscription>,
    /// A sample of the workload's publications.
    pub notifications: Vec<Notification>,
}

/// Publications sampled for the layer loops.
const SAMPLE: u64 = 256;

impl Population {
    /// The population `workload` runs with at `seed`.
    pub fn of(workload: Workload, seed: u64, sizes: &Sizes) -> Self {
        match workload {
            Workload::SimMatch => {
                let inputs = MatchInputs::generate(seed, sizes);
                let subs = inputs
                    .consumer_groups
                    .iter()
                    .enumerate()
                    .flat_map(|(c, mine)| {
                        mine.iter().map(move |&g| Subscription {
                            consumer: c,
                            home: c % 5,
                            filter: g,
                        })
                    })
                    .collect();
                Self {
                    brokers: 6,
                    producer_at: 5,
                    notifications: (0..SAMPLE).map(|i| inputs.publication(i)).collect(),
                    filters: inputs.groups,
                    subs,
                }
            }
            Workload::SimMobility => {
                let groups = sizes.mobility_groups;
                // Plain group filters first, then the location-dependent
                // instantiations (group ∧ location = l), four per group.
                let mut filters: Vec<Filter> = (0..groups).map(group_filter).collect();
                for g in 0..groups {
                    for l in 0..4u32 {
                        filters.push(group_template(g).instantiate([LocationId(l).raw()]));
                    }
                }
                let subs = (0..sizes.mobility_consumers)
                    .map(|i| {
                        let g = i % groups;
                        let filter = match mobility_class(i, groups) {
                            MobilityClass::Logical => groups + 4 * g + i % 4,
                            _ => g,
                        };
                        Subscription {
                            consumer: i,
                            home: i % 5,
                            filter,
                        }
                    })
                    .collect();
                let mut rng = Rng::new(seed, 22);
                Self {
                    brokers: 6,
                    producer_at: 5,
                    filters,
                    subs,
                    notifications: (0..SAMPLE)
                        .map(|i| group_notification(i, groups, &mut rng))
                        .collect(),
                }
            }
            tcp => {
                let shape = TcpShape::of(tcp);
                let mut rng = Rng::new(seed, 2);
                Self {
                    brokers: 3,
                    producer_at: shape.producer_at,
                    filters: (0..shape.consumers.len()).map(tcp_filter).collect(),
                    subs: shape
                        .consumers
                        .iter()
                        .enumerate()
                        .map(|(j, &home)| Subscription {
                            consumer: j,
                            home,
                            filter: j,
                        })
                        .collect(),
                    notifications: (0..SAMPLE)
                        .map(|i| tcp_notification(i, tcp_attrs(tcp), &mut rng))
                        .collect(),
                }
            }
        }
    }

    /// The border broker the layer loops model: the one with the most
    /// local subscriptions (lowest index on a tie).
    pub fn busiest_border(&self) -> usize {
        (0..self.brokers)
            .max_by_key(|&b| {
                (
                    self.subs.iter().filter(|s| s.home == b).count(),
                    std::cmp::Reverse(b),
                )
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populations_have_the_issue_shapes() {
        let rest = Population::of(Workload::TcpRest, 1, &Sizes::QUICK);
        assert_eq!(
            (rest.filters.len(), rest.subs.len(), rest.busiest_border()),
            (1, 1, 0)
        );
        let fanout = Population::of(Workload::TcpFanout, 1, &Sizes::QUICK);
        assert_eq!(fanout.subs.len(), 24);
        assert_eq!(fanout.notifications[0].len(), 12);
        let mobility = Population::of(Workload::SimMobility, 1, &Sizes::QUICK);
        assert_eq!(mobility.subs.len(), Sizes::QUICK.mobility_consumers);
        assert!(mobility
            .subs
            .iter()
            .all(|s| s.filter < mobility.filters.len()));
        // Every sampled publication is owed to someone.
        let m = Population::of(Workload::SimMobility, 1, &Sizes::QUICK);
        assert!(m
            .notifications
            .iter()
            .all(|n| m.filters.iter().any(|f| f.matches(n))));
    }
}
