//! Seeded input generation shared by the end-to-end harness and the traced
//! run: both build the *same* filters, notifications and population sizes
//! from `(workload, seed)`, so a layer loop in the traced run times exactly
//! the inputs the end-to-end numbers were produced with.
//!
//! Nothing here depends on `rebeca-bench` (the sampler and the filter mixes
//! are copies), so later PRs stay free to gate or delete `crates/bench`.

use rebeca::filter::{Constraint, Filter, LocationDependentFilter, Notification, Value};

/// The five workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 3 broker processes, fan-out 1, 3-attribute notifications.
    TcpRest,
    /// 3 broker processes, 24 consumers, 12-attribute notifications.
    TcpFanout,
    /// 3 broker processes with file WALs, four roaming consumers.
    TcpHandoff,
    /// Simulator, 200 consumers × 100 skewed subscriptions.
    SimMatch,
    /// Simulator, 10 000 mobile consumers under relocation churn.
    SimMobility,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::TcpRest,
        Workload::TcpFanout,
        Workload::TcpHandoff,
        Workload::SimMatch,
        Workload::SimMobility,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpRest => "tcp_rest",
            Workload::TcpFanout => "tcp_fanout",
            Workload::TcpHandoff => "tcp_handoff",
            Workload::SimMatch => "sim_match",
            Workload::SimMobility => "sim_mobility",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the workloads that spawn `rebeca-node` processes.
    pub fn is_tcp(self) -> bool {
        matches!(
            self,
            Workload::TcpRest | Workload::TcpFanout | Workload::TcpHandoff
        )
    }
}

/// A private xorshift64* stream: identical sequences on every platform for
/// the same seed, without threading a shared RNG through every call site.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the stream (`salt` separates the streams of one run).
    pub fn new(seed: u64, salt: u64) -> Self {
        // xorshift64* must not start at 0.
        Self(
            (seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                | 1,
        )
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A deterministic inverse-CDF sampler over `0..n` with zipf weights
/// `P(k) ∝ 1 / (k+1)^exponent`: real subscription populations are skewed,
/// and routing cost depends on how much filters share.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    rng: Rng,
}

impl ZipfSampler {
    /// A sampler over `0..n` (`n >= 1`); exponent 0 is uniform, ~1 classic
    /// zipf.
    pub fn new(n: usize, exponent: f64, rng: Rng) -> Self {
        assert!(n >= 1, "zipf domain must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf, rng }
    }

    /// Draws the next zipf-distributed value in `0..n`.
    pub fn sample(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Population sizes of one run.  `--quick` shrinks them; the code paths are
/// the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `sim_match`: consumers.
    pub match_consumers: usize,
    /// `sim_match`: subscriptions drawn per consumer.
    pub match_subs_per_consumer: usize,
    /// `sim_match`: distinct filters the zipf popularity ranges over.
    pub match_filter_groups: usize,
    /// `sim_mobility`: mobile consumers.
    pub mobility_consumers: usize,
    /// `sim_mobility`: telemetry groups.
    pub mobility_groups: usize,
}

impl Sizes {
    /// The sizes frozen for `BENCHMARK.json` runs.
    pub const FULL: Sizes = Sizes {
        match_consumers: 200,
        match_subs_per_consumer: 100,
        match_filter_groups: 2_000,
        mobility_consumers: 10_000,
        mobility_groups: 200,
    };

    /// The `--quick` sizes (same shapes, ~2 s per workload).
    pub const QUICK: Sizes = Sizes {
        match_consumers: 20,
        match_subs_per_consumer: 20,
        match_filter_groups: 200,
        mobility_consumers: 1_000,
        mobility_groups: 20,
    };
}

/// Number of distinct notifications a `sim_match` run cycles through: the
/// oracle evaluates every filter against the pool once instead of against
/// every publication.
pub const MATCH_POOL: usize = 512;

/// Services of the `sim_match` mix; with the cost and location constraints
/// below this puts a publication at ≈0.5 % of the stored subscriptions.
const MATCH_SERVICES: u32 = 8;

/// Every consumer filter of the TCP workloads matches every publication
/// (fan-out is the number of consumers); consumer `j` gets its own bound so
/// routing tables hold distinct filters.
pub fn tcp_filter(j: usize) -> Filter {
    Filter::new()
        .with("kind", Constraint::Eq("bench".into()))
        .with("v", Constraint::Gt(Value::Int(-1 - j as i64)))
}

/// A TCP-workload notification with `attrs` attributes (≥ 3): `kind`, the
/// publication number `n`, a payload value `v ≥ 0`, then mixed-type padding.
pub fn tcp_notification(n: u64, attrs: usize, rng: &mut Rng) -> Notification {
    let mut b = Notification::builder()
        .attr("kind", "bench")
        .attr("n", n as i64)
        .attr("v", rng.below(1_000_000) as i64);
    for a in 3..attrs {
        let name = format!("a{a}");
        b = match a % 4 {
            0 => b.attr(name, rng.below(10_000) as i64),
            1 => b.attr(name, rng.unit() * 100.0),
            2 => b.attr(name, format!("s{}", rng.below(1_000))),
            _ => b.attr(name, Value::Location(rng.below(100) as u32)),
        };
    }
    b.build()
}

/// Attribute count of a workload's TCP notifications.
pub fn tcp_attrs(workload: Workload) -> usize {
    match workload {
        Workload::TcpFanout => 12,
        Workload::TcpHandoff => 5,
        _ => 3,
    }
}

/// Filter group `i` of the `sim_match` mix — the matcher-bench constraint
/// kinds: equality on service, numeric bounds and ranges on cost, location
/// sets.
pub fn match_filter(i: u32, rng: &mut Rng) -> Filter {
    let service = format!("svc{}", rng.below(MATCH_SERVICES as u64));
    let mut f = Filter::new().with("service", Constraint::Eq(service.into()));
    match i % 3 {
        0 => f = f.with("cost", Constraint::Lt(Value::Int(1 + rng.below(40) as i64))),
        1 => {
            let lo = rng.below(30) as i64;
            f = f.with(
                "cost",
                Constraint::Between(Value::Int(lo), Value::Int(lo + 10)),
            );
        }
        _ => {}
    }
    let a = rng.below(100) as u32;
    let width = 1 + rng.below(12) as u32;
    f.with(
        "location",
        Constraint::any_location_of((0..width).map(|k| (a + 7 * k) % 100)),
    )
}

/// One notification of the `sim_match` pool (4 attributes).
pub fn match_notification(rng: &mut Rng) -> Notification {
    Notification::builder()
        .attr(
            "service",
            format!("svc{}", rng.below(MATCH_SERVICES as u64)),
        )
        .attr("cost", rng.below(45) as i64)
        .attr("location", Value::Location(rng.below(100) as u32))
        .attr("spot", 0i64)
        .build()
}

/// The generated inputs of `sim_match`.
#[derive(Debug, Clone)]
pub struct MatchInputs {
    /// The distinct filter groups, most popular first.
    pub groups: Vec<Filter>,
    /// Per consumer: indices into `groups` (deduplicated, draw order).
    pub consumer_groups: Vec<Vec<usize>>,
    /// The notification pool publications cycle through.
    pub pool: Vec<Notification>,
}

impl MatchInputs {
    /// Builds the population: `match_consumers` consumers each drawing
    /// `match_subs_per_consumer` filter groups with zipf(1.0) popularity.
    pub fn generate(seed: u64, sizes: &Sizes) -> Self {
        let mut rng = Rng::new(seed, 11);
        let groups: Vec<Filter> = (0..sizes.match_filter_groups as u32)
            .map(|i| match_filter(i, &mut rng))
            .collect();
        let mut zipf = ZipfSampler::new(groups.len(), 1.0, Rng::new(seed, 12));
        let consumer_groups = (0..sizes.match_consumers)
            .map(|_| {
                let mut mine: Vec<usize> = Vec::with_capacity(sizes.match_subs_per_consumer);
                for _ in 0..sizes.match_subs_per_consumer {
                    let g = zipf.sample();
                    // Identical filters of one consumer collapse into one
                    // subscription at the client, so owe them once.
                    if !mine.iter().any(|&m| groups[m] == groups[g]) {
                        mine.push(g);
                    }
                }
                mine
            })
            .collect();
        let mut rng = Rng::new(seed, 13);
        let pool = (0..MATCH_POOL)
            .map(|_| match_notification(&mut rng))
            .collect();
        Self {
            groups,
            consumer_groups,
            pool,
        }
    }

    /// Publication `i`: pool entry `i mod pool` with its own `spot`.
    pub fn publication(&self, i: u64) -> Notification {
        self.pool[(i % self.pool.len() as u64) as usize].with_attr("spot", i as i64)
    }

    /// Mean deliveries one publication owes (subscriptions matched), and
    /// that number as a share of all subscriptions.
    pub fn selectivity(&self) -> (f64, f64) {
        let mut subscribers = vec![0u64; self.groups.len()];
        for mine in &self.consumer_groups {
            for &g in mine {
                subscribers[g] += 1;
            }
        }
        let total: u64 = subscribers.iter().sum();
        let owed: u64 = self
            .pool
            .iter()
            .map(|n| {
                self.groups
                    .iter()
                    .zip(&subscribers)
                    .filter(|(f, _)| f.matches(n))
                    .map(|(_, s)| *s)
                    .sum::<u64>()
            })
            .sum();
        let mean = owed as f64 / self.pool.len() as f64;
        (mean, mean / total.max(1) as f64)
    }
}

/// The plain subscription of telemetry group `g` (`sim_mobility`).
pub fn group_filter(g: usize) -> Filter {
    Filter::new()
        .with("service", Constraint::Eq("telemetry".into()))
        .with("group", Constraint::Eq(Value::Int(g as i64)))
}

/// The location-dependent subscription of telemetry group `g`: the group's
/// publications at the consumer's current location.
pub fn group_template(g: usize) -> LocationDependentFilter {
    LocationDependentFilter::new("location", 0)
        .with_concrete("service", Constraint::Eq("telemetry".into()))
        .with_concrete("group", Constraint::Eq(Value::Int(g as i64)))
}

/// Publication `i` of `sim_mobility`: round-robin over the groups, at a
/// seeded location of the four-location paper graph.
pub fn group_notification(i: u64, groups: usize, rng: &mut Rng) -> Notification {
    Notification::builder()
        .attr("service", "telemetry")
        .attr("group", (i % groups as u64) as i64)
        .attr("reading", i as i64)
        .attr("location", Value::Location(rng.below(4) as u32))
        .build()
}

/// How a `sim_mobility` consumer moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityClass {
    /// Relocates with `Session::move_to` (the Section 4 protocol).
    Mover,
    /// Holds a location-dependent subscription and steps `set_location`.
    Logical,
    /// Detaches, then reattaches elsewhere with `subscribe_since`.
    Since,
}

/// Consumer `i` of `sim_mobility` is the `i / groups`-th member of group
/// `i mod groups`; of every 50 members 33 relocate, 12 are logically mobile
/// and 5 detach and reattach with history (66 % / 24 % / 10 %).
pub fn mobility_class(i: usize, groups: usize) -> MobilityClass {
    match (i / groups) % 50 {
        0..=32 => MobilityClass::Mover,
        33..=44 => MobilityClass::Logical,
        _ => MobilityClass::Since,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let a = MatchInputs::generate(7, &Sizes::QUICK);
        let b = MatchInputs::generate(7, &Sizes::QUICK);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.consumer_groups, b.consumer_groups);
        assert_eq!(a.pool, b.pool);
        let c = MatchInputs::generate(8, &Sizes::QUICK);
        assert_ne!(a.pool, c.pool);
    }

    #[test]
    fn zipf_concentrates_mass_on_low_ranks() {
        let mut zipf = ZipfSampler::new(100, 1.0, Rng::new(3, 0));
        let head = (0..10_000).filter(|_| zipf.sample() < 10).count();
        assert!(head > 3_500, "head draws: {head}");
    }

    #[test]
    fn every_tcp_filter_matches_every_tcp_notification() {
        let mut rng = Rng::new(1, 2);
        for attrs in [3, 5, 12] {
            let n = tcp_notification(9, attrs, &mut rng);
            assert_eq!(n.len(), attrs);
            assert!((0..24).all(|j| tcp_filter(j).matches(&n)));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
