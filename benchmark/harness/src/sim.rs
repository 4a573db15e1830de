//! The two simulator workloads: a 6-broker line on the deterministic
//! `SimDriver` with a constant 1 ms virtual link delay.  No socket, no
//! process, no thread — `net` does nothing here, so a transport change must
//! not move these numbers.
//!
//! The timed section advances the deployment one *step* at a time: one
//! publication (plus, for `sim_mobility`, that step's mobility operations),
//! then `run_until(now + 1 ms)`.  Deliveries of earlier steps are in flight
//! while later ones are published.  The wall-clock time of a step is the
//! workload's publish→deliver sample; publications per wall-clock second is
//! its throughput.

use std::collections::BTreeMap;
use std::time::Instant;

use rebeca::mobility::{BrokerConfig, BrokerStatus};
use rebeca::retain::RetentionConfig;
use rebeca::sim::{DelayModel, SimDuration, Topology};
use rebeca::{
    AdaptivityPlan, ClientId, Filter, LocationId, MobilitySystem, MovementGraph, Session,
    SystemBuilder,
};

use crate::inputs::{
    group_filter, group_notification, group_template, mobility_class, MatchInputs, MobilityClass,
    Rng, Sizes, Workload,
};
use crate::oracle::{check_log, Digest, Verdict};
use crate::spans::Spans;
use crate::{err, procstat};

/// Brokers in the line; the producer sits at the far end, consumers on the
/// other five.
const BROKERS: usize = 6;
const HOMES: usize = BROKERS - 1;
const PRODUCER: ClientId = ClientId::new(2);
const CONSUMER_BASE: u32 = 100;

/// One publication per virtual millisecond.
const STEP: SimDuration = SimDuration::from_millis(1);

/// Doubles as the history-gather window of `subscribe_since`, so it bounds
/// how long a since-reattach holds deliveries back.
const RELOCATION_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Virtual time that lets every relocation, replay and history session of
/// the steps so far finish.
const SETTLE: SimDuration = SimDuration::from_secs(2);

/// A consumer is not moved or detached while a publication of its group
/// may still be in flight towards it (published within this many steps):
/// a delivery on the old client link at the instant of the move is the
/// documented hand-over race, and a `since` window must start in a gap.
const QUIET_STEPS: u64 = 10;

/// Steps between a since-consumer's detach and its reattach elsewhere.
const OFFLINE_STEPS: u64 = 30;

/// A consumer is given this much virtual time to finish one mobility
/// operation before its next one.
const OP_SPACING_STEPS: f64 = 1_500.0;

/// Steps after which both runs at one seed must have identical logs.
const DIGEST_STEPS: u64 = 600;

/// What a simulator run needs from the command line.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured wall-clock seconds of the timed section.
    pub seconds: f64,
    /// Set-ups timed for `setup_s` (the last one is measured on).
    pub setups: usize,
    /// Population sizes.
    pub sizes: Sizes,
}

/// Everything a simulator run measured.
#[derive(Debug, Default)]
pub struct SimOutcome {
    /// Seconds of every timed set-up.
    pub setup_s: Vec<f64>,
    /// `(wall-clock µs since the timed section began, step wall time µs)`.
    pub step_us: Vec<(u64, f64)>,
    /// Publications of the timed section.
    pub pubs: u64,
    /// Summed step wall time, seconds.
    pub elapsed_s: f64,
    /// CPU seconds of this process over the timed section.
    pub cpu_s: f64,
    /// The timed section cut into consecutive windows of `WINDOW_US` of
    /// step time.
    pub windows: Vec<Window>,
    /// The oracle's verdict over every consumer.
    pub verdict: Verdict,
    /// Two runs at this seed produced identical delivery logs.
    pub deterministic: bool,
    /// `VmHWM` of this process after set-up and the digest prefix, MB.
    pub peak_rss_mb: f64,
    /// Simulator events processed in the timed section.
    pub events: u64,
    /// Relocations + location updates + since-reattaches completed.
    pub mobility_ops: u64,
    /// Relocations (`move_to`) among them.
    pub moves: u64,
    /// Notifications replayed from virtual counterparts.
    pub replayed: u64,
    /// Messages sent over links in total.
    pub total_messages: u64,
    /// Status of every broker at the end.
    pub statuses: Vec<BrokerStatus>,
    /// Mean deliveries one publication owes.
    pub deliveries_per_pub: f64,
}

/// One window of the timed section.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Steps (publications) completed in the window.
    pub pubs: u64,
    /// Summed step wall time, seconds.
    pub elapsed_s: f64,
    /// CPU seconds of this process.
    pub cpu_s: f64,
}

/// Length of a [`Window`]: 200 clock ticks of `/proc/self/stat`, so the
/// CPU time of a window is good to half a percent.
const WINDOW_US: f64 = 2e6;

fn build_system(seed: u64, config: BrokerConfig) -> Result<MobilitySystem, String> {
    SystemBuilder::new(&Topology::line(BROKERS))
        .config(config)
        .link_delay(DelayModel::constant_millis(1))
        .seed(seed)
        .build()
        .map_err(err("build system"))
}

fn run_for(system: &mut MobilitySystem, d: SimDuration) -> u64 {
    let until = system.now() + d;
    system.run_until(until)
}

/// Publishes probes until the first one is delivered; returns how many
/// were sent (the next publication gets publisher seq `probes + 1`).
fn probe(
    system: &mut MobilitySystem,
    producer: Session,
    mut notification: impl FnMut(u64) -> rebeca::Notification,
) -> Result<u64, String> {
    // Subscriptions cross at most six links.
    run_for(system, SimDuration::from_millis(20));
    for sent in 1..=10_000u64 {
        producer
            .publish(system, notification(sent - 1))
            .map_err(err("probe"))?;
        run_for(system, SimDuration::from_millis(10));
        if system.metrics().counter("client.delivered") > 0 {
            run_for(system, SimDuration::from_millis(20));
            return Ok(sent);
        }
    }
    Err("no probe publication was ever delivered".into())
}

/// A workload on the simulator, stepped by [`run`].
trait Bed {
    fn system(&self) -> &MobilitySystem;
    fn system_mut(&mut self) -> &mut MobilitySystem;
    /// Issues step `i`'s operations and its publication.
    fn issue(&mut self, i: u64) -> Result<(), String>;
    /// Drains the session mailboxes.
    fn harvest(&mut self);
    /// Checks every consumer log after `pubs` measured publications.
    fn verdict(&self, pubs: u64) -> Result<Verdict, String>;
    /// Consumers, for the digest.
    fn consumers(&self) -> Vec<ClientId>;
    /// `(mobility operations, relocations among them)` issued so far.
    fn mobility_counts(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Completes operations that span several steps, after the last step.
    fn wind_down(&mut self) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// sim_match
// ---------------------------------------------------------------------------

struct MatchBed<'a> {
    system: MobilitySystem,
    producer: Session,
    consumers: Vec<Session>,
    inputs: &'a MatchInputs,
    probes: u64,
}

impl<'a> MatchBed<'a> {
    fn setup(seed: u64, inputs: &'a MatchInputs) -> Result<Self, String> {
        let config = BrokerConfig::default().with_relocation_timeout(RELOCATION_TIMEOUT);
        let mut system = build_system(seed, config)?;
        let mut consumers = Vec::with_capacity(inputs.consumer_groups.len());
        for (c, mine) in inputs.consumer_groups.iter().enumerate() {
            let session = system
                .connect(ClientId::new(CONSUMER_BASE + c as u32), c % HOMES)
                .map_err(err("connect consumer"))?;
            for &g in mine {
                session
                    .subscribe(&mut system, inputs.groups[g].clone())
                    .map_err(err("subscribe"))?;
            }
            consumers.push(session);
        }
        let producer = system
            .connect(PRODUCER, BROKERS - 1)
            .map_err(err("connect producer"))?;
        let probes = probe(&mut system, producer, |k| {
            inputs.pool[k as usize % inputs.pool.len()].clone()
        })?;
        Ok(Self {
            system,
            producer,
            consumers,
            inputs,
            probes,
        })
    }
}

impl Bed for MatchBed<'_> {
    fn system(&self) -> &MobilitySystem {
        &self.system
    }

    fn system_mut(&mut self) -> &mut MobilitySystem {
        &mut self.system
    }

    fn issue(&mut self, i: u64) -> Result<(), String> {
        self.producer
            .publish(&mut self.system, self.inputs.publication(i))
            .map_err(err("publish"))
    }

    fn harvest(&mut self) {
        for c in &self.consumers {
            let _ = c.poll_deliveries(&mut self.system);
        }
    }

    fn verdict(&self, pubs: u64) -> Result<Verdict, String> {
        // Publication i is pool entry i mod P: evaluate every filter group
        // against the pool once instead of against every publication.
        let pool = self.inputs.pool.len() as u64;
        let uses = |p: u64| pubs / pool + u64::from(p < pubs % pool);
        let owed: BTreeMap<&Filter, u64> = self
            .inputs
            .groups
            .iter()
            .map(|f| {
                let n = (0..pool)
                    .filter(|&p| f.matches(&self.inputs.pool[p as usize]))
                    .map(uses)
                    .sum();
                (f, n)
            })
            .collect();
        let measured = self.probes + 1..=self.probes + pubs;
        let mut verdict = Verdict::default();
        for (session, mine) in self.consumers.iter().zip(&self.inputs.consumer_groups) {
            let filters: Vec<Filter> = mine
                .iter()
                .map(|&g| self.inputs.groups[g].clone())
                .collect();
            let log = session.log(&self.system).map_err(err("consumer log"))?;
            verdict.add(&check_log(
                log,
                PRODUCER,
                &measured,
                Some(&filters),
                &mut |f| owed[f],
            ));
        }
        Ok(verdict)
    }

    fn consumers(&self) -> Vec<ClientId> {
        self.consumers.iter().map(Session::client).collect()
    }
}

// ---------------------------------------------------------------------------
// sim_mobility
// ---------------------------------------------------------------------------

/// One class of mobile consumers and the pace its operations are issued at.
struct OpQueue {
    /// Consumer indices, in a seeded order, cycled through.
    order: Vec<usize>,
    cursor: usize,
    /// Operations per step (fractional; carried in `credit`).
    rate: f64,
    credit: f64,
}

impl OpQueue {
    /// `pattern_rate` operations per step, slowed down so that one consumer
    /// is not picked again before its previous operation has settled.
    fn new(mut order: Vec<usize>, pattern_rate: f64, rng: &mut Rng) -> Self {
        rng.shuffle(&mut order);
        let rate = pattern_rate.min(order.len() as f64 / OP_SPACING_STEPS);
        Self {
            order,
            cursor: 0,
            rate,
            credit: 0.0,
        }
    }

    /// How many operations this step issues.
    fn due(&mut self) -> usize {
        self.credit += self.rate;
        let n = self.credit as usize;
        self.credit -= n as f64;
        n
    }

    /// The next consumer accepted by `ok`, skipping at most a few.
    fn next(&mut self, ok: impl Fn(usize) -> bool) -> Option<usize> {
        for _ in 0..8.min(self.order.len()) {
            let c = self.order[self.cursor];
            self.cursor = (self.cursor + 1) % self.order.len();
            if ok(c) {
                return Some(c);
            }
        }
        None
    }
}

struct MobilityBed {
    system: MobilitySystem,
    producer: Session,
    consumers: Vec<Session>,
    groups: usize,
    /// Current broker of every consumer.
    at: Vec<usize>,
    /// Current location of the logically mobile consumers.
    location: Vec<LocationId>,
    graph: MovementGraph,
    movers: OpQueue,
    logical: OpQueue,
    since: OpQueue,
    /// `(reattach step, consumer, detached at µs)`, in step order.
    offline: std::collections::VecDeque<(u64, usize, u64)>,
    /// Whether mobility operations are issued at all (the no-move twin of
    /// `routing.control_msgs_per_move` publishes only).
    roam: bool,
    rng: Rng,
    probes: u64,
    moves: u64,
    location_updates: u64,
    reattaches: u64,
}

impl MobilityBed {
    fn setup(seed: u64, sizes: &Sizes, roam: bool) -> Result<Self, String> {
        let graph = MovementGraph::paper_example();
        let config = BrokerConfig::default()
            .with_movement_graph(graph.clone())
            .with_relocation_timeout(RELOCATION_TIMEOUT)
            .with_retention(Some(RetentionConfig::default()))
            .with_counterpart_lease(Some(SETTLE));
        let mut system = build_system(seed, config)?;
        let (n, groups) = (sizes.mobility_consumers, sizes.mobility_groups);
        let mut consumers = Vec::with_capacity(n);
        let mut location = vec![LocationId(0); n];
        let mut by_class: [Vec<usize>; 3] = Default::default();
        for (i, slot) in location.iter_mut().enumerate() {
            let session = system
                .connect(ClientId::new(CONSUMER_BASE + i as u32), i % HOMES)
                .map_err(err("connect consumer"))?;
            let g = i % groups;
            match mobility_class(i, groups) {
                MobilityClass::Logical => {
                    *slot = LocationId(i as u32 % 4);
                    session
                        .loc_subscribe(
                            &mut system,
                            group_template(g),
                            AdaptivityPlan::one_step_per_hop(HOMES),
                            *slot,
                        )
                        .map_err(err("loc_subscribe"))?;
                    by_class[1].push(i);
                }
                class => {
                    session
                        .subscribe(&mut system, group_filter(g))
                        .map_err(err("subscribe"))?;
                    by_class[if class == MobilityClass::Mover { 0 } else { 2 }].push(i);
                }
            }
            consumers.push(session);
        }
        let producer = system
            .connect(PRODUCER, BROKERS - 1)
            .map_err(err("connect producer"))?;
        let mut probe_rng = Rng::new(seed, 21);
        let probes = probe(&mut system, producer, |k| {
            group_notification(k, groups, &mut probe_rng)
        })?;
        let mut rng = Rng::new(seed, 22);
        let [movers, logical, since] = by_class;
        Ok(Self {
            system,
            producer,
            consumers,
            groups,
            at: (0..n).map(|i| i % HOMES).collect(),
            location,
            graph,
            // Per four steps: 13 relocations, 5 location updates, 1 detach
            // (its reattach follows) — the 65 / 25 / 10 shape.
            movers: OpQueue::new(movers, 3.25, &mut rng),
            logical: OpQueue::new(logical, 1.25, &mut rng),
            since: OpQueue::new(since, 0.25, &mut rng),
            offline: Default::default(),
            roam,
            rng,
            probes,
            moves: 0,
            location_updates: 0,
            reattaches: 0,
        })
    }

    /// Publication `i` goes to group `(probes + i) mod groups`.
    fn group_of(&self, i: u64) -> u64 {
        (self.probes + i) % self.groups as u64
    }

    /// Issues step `i`'s mobility operations.  A consumer is moved or
    /// detached only when its group's last publication is more than
    /// `QUIET_STEPS` steps old.
    fn mobility_ops(&mut self, i: u64) -> Result<(), String> {
        let groups = self.groups as u64;
        let now_group = self.group_of(i);
        let quiet = move |c: usize| (now_group + groups - c as u64 % groups) % groups > QUIET_STEPS;
        for _ in 0..self.movers.due() {
            let Some(c) = self.movers.next(quiet) else {
                continue;
            };
            let target = (self.at[c] + 1) % HOMES;
            self.consumers[c]
                .move_to(&mut self.system, target)
                .map_err(err("move_to"))?;
            self.at[c] = target;
            self.moves += 1;
        }
        for _ in 0..self.logical.due() {
            let Some(c) = self.logical.next(|_| true) else {
                continue;
            };
            let next: Vec<LocationId> = self.graph.neighbours(self.location[c]).collect();
            self.location[c] = next[self.rng.below(next.len() as u64) as usize];
            self.consumers[c]
                .set_location(&mut self.system, self.location[c])
                .map_err(err("set_location"))?;
            self.location_updates += 1;
        }
        for _ in 0..self.since.due() {
            let Some(c) = self.since.next(quiet) else {
                continue;
            };
            self.consumers[c]
                .detach(&mut self.system)
                .map_err(err("detach"))?;
            self.offline
                .push_back((i + OFFLINE_STEPS, c, self.system.now().as_micros()));
        }
        self.reattach_due(i)
    }

    /// Reattaches (elsewhere, with `subscribe_since`) every offline consumer
    /// whose return step is at most `i`.
    fn reattach_due(&mut self, i: u64) -> Result<(), String> {
        while self.offline.front().is_some_and(|o| o.0 <= i) {
            let (_, c, detached_at) = self.offline.pop_front().expect("front exists");
            let target = (self.at[c] + 1) % HOMES;
            let g = c % self.groups;
            self.consumers[c]
                .reattach(&mut self.system, target)
                .map_err(err("reattach"))?;
            self.consumers[c]
                .subscribe_since(&mut self.system, group_filter(g), detached_at)
                .map_err(err("subscribe_since"))?;
            self.at[c] = target;
            self.reattaches += 1;
        }
        Ok(())
    }
}

impl Bed for MobilityBed {
    fn system(&self) -> &MobilitySystem {
        &self.system
    }

    fn system_mut(&mut self) -> &mut MobilitySystem {
        &mut self.system
    }

    fn issue(&mut self, i: u64) -> Result<(), String> {
        if self.roam {
            self.mobility_ops(i)?;
        }
        let n = group_notification(self.probes + i, self.groups, &mut self.rng);
        self.producer
            .publish(&mut self.system, n)
            .map_err(err("publish"))
    }

    fn harvest(&mut self) {
        for c in &self.consumers {
            let _ = c.poll_deliveries(&mut self.system);
        }
    }

    fn verdict(&self, pubs: u64) -> Result<Verdict, String> {
        let groups = self.groups as u64;
        let measured = self.probes + 1..=self.probes + pubs;
        let mut verdict = Verdict::default();
        for (c, session) in self.consumers.iter().enumerate() {
            let log = session.log(&self.system).map_err(err("consumer log"))?;
            let g = c as u64 % groups;
            // Measured publication i (0-based) goes to group_of(i).
            let first = (g + groups - self.group_of(0)) % groups;
            let owed = if pubs > first {
                (pubs - first).div_ceil(groups)
            } else {
                0
            };
            let filters = [group_filter(g as usize)];
            let mine = match mobility_class(c, self.groups) {
                MobilityClass::Logical => None,
                _ => Some(&filters[..]),
            };
            verdict.add(&check_log(log, PRODUCER, &measured, mine, &mut |_| owed));
        }
        Ok(verdict)
    }

    fn consumers(&self) -> Vec<ClientId> {
        self.consumers.iter().map(Session::client).collect()
    }

    fn mobility_counts(&self) -> (u64, u64) {
        (
            self.moves + self.location_updates + self.reattaches,
            self.moves,
        )
    }

    fn wind_down(&mut self) -> Result<(), String> {
        // Let the last detaches reach their brokers, then bring every
        // offline consumer back.
        run_for(&mut self.system, SimDuration::from_millis(OFFLINE_STEPS));
        self.reattach_due(u64::MAX)
    }
}

// ---------------------------------------------------------------------------
// The stepping loop
// ---------------------------------------------------------------------------

/// Advances `bed` by steps `from..to`, untimed.
fn steps(bed: &mut dyn Bed, from: u64, to: u64) -> Result<(), String> {
    for i in from..to {
        bed.issue(i)?;
        run_for(bed.system_mut(), STEP);
        if i % 128 == 127 {
            bed.harvest();
        }
    }
    Ok(())
}

/// Settles the deployment and digests every consumer log.
fn settled_digest(bed: &mut dyn Bed) -> Result<Digest, String> {
    run_for(bed.system_mut(), SETTLE);
    bed.harvest();
    let mut digest = Digest::default();
    for id in bed.consumers() {
        digest.absorb(bed.system().client_log(id).map_err(err("consumer log"))?);
    }
    Ok(digest)
}

/// Times steps until `seconds` of step time have accumulated.
fn timed_section(
    bed: &mut dyn Bed,
    first_step: u64,
    seconds: f64,
    out: &mut SimOutcome,
    spans: &mut Spans,
) -> Result<u64, String> {
    let cpu_now = || procstat::cpu_seconds(std::process::id()).unwrap_or(0.0);
    let cpu_before = cpu_now();
    let mut i = first_step;
    let mut elapsed_us = 0.0f64;
    // Where the current window began: (step, step time µs, CPU seconds).
    let mut window = (i, 0.0f64, cpu_before);
    while elapsed_us < seconds * 1e6 {
        let tick = spans.reserve();
        let t_tick = spans.start();
        let t = Instant::now();
        let t_span = spans.start();
        bed.issue(i)?;
        spans.end("gen.publish", t_span, tick);
        let t_span = spans.start();
        out.events += run_for(bed.system_mut(), STEP);
        spans.end("gen.run_until", t_span, tick);
        let step = t.elapsed().as_secs_f64() * 1e6;
        spans.end_with_id("gen.tick", t_tick, 0, tick);
        out.step_us.push((elapsed_us as u64, step));
        elapsed_us += step;
        i += 1;
        if elapsed_us - window.1 >= WINDOW_US {
            let cpu = cpu_now();
            out.windows.push(Window {
                pubs: i - window.0,
                elapsed_s: (elapsed_us - window.1) / 1e6,
                cpu_s: cpu - window.2,
            });
            window = (i, elapsed_us, cpu);
        }
        if i.is_multiple_of(128) {
            let t_span = spans.start();
            bed.harvest();
            spans.end("gen.harvest", t_span, 0);
        }
    }
    out.cpu_s = cpu_now() - cpu_before;
    out.elapsed_s = elapsed_us / 1e6;
    Ok(i)
}

/// Runs one simulator workload end to end.
pub fn run(run: &SimRun, spans: &mut Spans) -> Result<SimOutcome, String> {
    let mut out = SimOutcome::default();
    let inputs =
        (run.workload == Workload::SimMatch).then(|| MatchInputs::generate(run.seed, &run.sizes));
    let setup = || -> Result<Box<dyn Bed + '_>, String> {
        Ok(match (run.workload, &inputs) {
            (Workload::SimMatch, Some(inputs)) => Box::new(MatchBed::setup(run.seed, inputs)?),
            (Workload::SimMobility, _) => Box::new(MobilityBed::setup(run.seed, &run.sizes, true)?),
            (w, _) => return Err(format!("{} is not a simulator workload", w.name())),
        })
    };

    // The twin: the same seed, stepped to the digest point, then dropped.
    // It doubles as the first timed set-up.
    let t = Instant::now();
    let mut twin = setup()?;
    out.setup_s.push(t.elapsed().as_secs_f64());
    steps(twin.as_mut(), 0, DIGEST_STEPS)?;
    let twin_digest = settled_digest(twin.as_mut())?;
    drop(twin);

    let mut bed = None;
    for _ in 1..run.setups.max(2) {
        drop(bed.take());
        let t = Instant::now();
        bed = Some(setup()?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bed = bed.expect("at least one measured set-up ran");
    steps(bed.as_mut(), 0, DIGEST_STEPS)?;
    out.deterministic = settled_digest(bed.as_mut())? == twin_digest;
    // Memory after a fixed amount of work: set-up plus the digest prefix.
    // (The timed section runs for a fixed time, so a faster system holds
    // more deliveries at its end.)
    out.peak_rss_mb = procstat::peak_rss_mb(std::process::id()).unwrap_or(0.0);

    let before = bed.mobility_counts();
    let end = timed_section(bed.as_mut(), DIGEST_STEPS, run.seconds, &mut out, spans)?;
    out.pubs = end - DIGEST_STEPS;
    let after = bed.mobility_counts();
    (out.mobility_ops, out.moves) = (after.0 - before.0, after.1 - before.1);
    bed.wind_down()?;
    run_for(bed.system_mut(), SETTLE);
    bed.harvest();

    out.verdict = bed.verdict(end)?;
    out.deliveries_per_pub = out.verdict.owed as f64 / end as f64;
    let system = bed.system();
    out.replayed = system.metrics().counter("mobility.replayed");
    out.total_messages = system.total_messages();
    out.statuses = system.status().brokers;
    Ok(out)
}

/// `routing.control_msgs_per_move`: link messages of a fixed-length
/// `sim_mobility` run with relocations minus the same run (same seed)
/// without, per relocation.  An exact count: it must repeat.
pub fn control_msgs_per_move(seed: u64, sizes: &Sizes, steps_run: u64) -> Result<f64, String> {
    let mut with = MobilityBed::setup(seed, sizes, true)?;
    steps(&mut with, 0, steps_run)?;
    run_for(with.system_mut(), SETTLE);
    let mut without = MobilityBed::setup(seed, sizes, false)?;
    steps(&mut without, 0, steps_run)?;
    run_for(without.system_mut(), SETTLE);
    let ops = (with.moves + with.location_updates + with.reattaches).max(1);
    let extra = with
        .system
        .total_messages()
        .saturating_sub(without.system.total_messages());
    Ok(extra as f64 / ops as f64)
}
