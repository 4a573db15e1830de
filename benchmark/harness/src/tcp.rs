//! The three TCP workloads: one client process (this one) with one
//! generator thread and one `MobilitySystem` on a `TcpDriver`, against three
//! `rebeca-node` broker processes on the host's loopback interface with
//! `delay_us 0`.
//!
//! A run is several **rounds**, each on a cluster of its own ([`run`] is
//! one round).  A round sets the cluster up (timed: `setup_s`), warms it up
//! at the open-loop rate, then drives an **open-loop** phase — publications
//! on a fixed schedule, every delivery timed from the publication's
//! *intended* send time on the driver clock, the generator's own lateness
//! reported — and a **closed-loop** phase that keeps a fixed number of
//! publications in flight to find capacity.  A run reports the median over
//! its rounds (`e2e`): a round that met a stall of the host does not decide
//! the run, and no consumer log grows past one round's deliveries
//! (`ConsumerLog::record` is linear in the log, so a long round measures
//! the log, and how much cache the host's other tenants leave it).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebeca::net::{fetch_status, Endpoint, NetConfig, SystemBuilderTcp};
use rebeca::sim::{DelayModel, SimDuration, SimTime, Topology};
use rebeca::{ClientId, MobilitySystem, Session, SystemBuilder};

use crate::cluster::{Cluster, ClusterSpec, NodeSummary, BROKERS};
use crate::inputs::{tcp_attrs, tcp_filter, tcp_notification, Rng, Workload};
use crate::oracle::{check_log, Verdict};
use crate::spans::Spans;
use crate::{err, procstat};

/// The producer's client id; consumers are `CONSUMER_BASE + j`.
pub const PRODUCER: ClientId = ClientId::new(2);
const CONSUMER_BASE: u32 = 10;

/// A delivery not arrived this long after the last send is lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// The shape of one TCP workload.
#[derive(Debug, Clone)]
pub struct TcpShape {
    /// Broker the producer attaches to.
    pub producer_at: usize,
    /// Home broker of every consumer.
    pub consumers: Vec<usize>,
    /// Open-loop publication rate (1/s).
    pub open_rate: f64,
    /// Publications kept in flight in the closed-loop phase.
    pub closed_window: u64,
    /// Brokers run with `--persist-dir` (file WAL, `sync_data` per append).
    pub persist: bool,
    /// Consumers roam between brokers 0 and 1: each `move_to` every
    /// `MOVE_PERIOD`, consumers staggered evenly across the period.  A move
    /// is issued half-way between two publications, at the first such
    /// instant the generator reaches on time and at which every consumer
    /// has received everything published so far: a publication in flight at
    /// the instant of the move can be
    /// delivered twice (the known hand-over race: once by the old path,
    /// once replayed by the new broker), and the benchmark runs workloads
    /// on which no operation fails.  The publications that follow within
    /// the hand-off are buffered by the old broker's counterpart and
    /// replayed, so the replay path is still exercised by every move.
    pub roaming: bool,
}

/// A move is only issued on a tick the generator reached on time: being
/// later than this means the host is stalling right now, and a stall is
/// when the hand-over race is won by the wrong side.
const ON_TIME: SimDuration = SimDuration::from_micros(100);

/// Time between two moves of one roaming consumer.
pub const MOVE_PERIOD: SimDuration = SimDuration::from_millis(500);

impl TcpShape {
    /// The shape frozen for each workload (rates sit at about a fifth of
    /// closed-loop capacity on the sizing machine).
    pub fn of(workload: Workload) -> Self {
        match workload {
            Workload::TcpRest => Self {
                producer_at: 2,
                consumers: vec![0],
                open_rate: 4_000.0,
                closed_window: 64,
                persist: false,
                roaming: false,
            },
            Workload::TcpFanout => Self {
                producer_at: 1,
                consumers: (0..24).map(|j| j / 8).collect(),
                open_rate: 400.0,
                closed_window: 16,
                persist: false,
                roaming: false,
            },
            Workload::TcpHandoff => Self {
                producer_at: 2,
                consumers: vec![0, 1, 0, 1],
                open_rate: 1_000.0,
                closed_window: 16,
                persist: true,
                roaming: true,
            },
            _ => panic!("{} is not a TCP workload", workload.name()),
        }
    }
}

/// What a TCP run needs from the command line.
#[derive(Debug, Clone)]
pub struct TcpRun<'a> {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of this round: warm-up 1/10, open loop 13/20, closed loop
    /// 1/4.
    pub seconds: f64,
    /// The `rebeca-node` binary.
    pub node_bin: &'a Path,
    /// Where per-run directories go.
    pub out_dir: &'a Path,
    /// Traced run: poll broker status every second (from a thread of its
    /// own) and wait for the brokers' clean-exit summaries.
    pub traced: bool,
}

/// Everything a TCP run measured.
#[derive(Debug, Default)]
pub struct TcpOutcome {
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Open loop, one sample per publication: `(intended send time µs, µs
    /// from then until the last consumer had received it)`.
    pub latencies: Vec<(u64, f64)>,
    /// Open loop: actual minus intended send time, µs, per publication.
    pub lateness_us: Vec<f64>,
    /// Deliveries still owed 5 ms after the last open-loop send was due.
    pub backlog_at_end: u64,
    /// Open loop: publications sent.
    pub open_pubs: u64,
    /// Open loop: CPU seconds of the three brokers plus this process.
    pub open_cpu_s: f64,
    /// Closed loop: publications fully delivered.
    pub closed_completed: u64,
    /// Closed loop: wall-clock seconds.
    pub closed_elapsed_s: f64,
    /// The oracle's verdict over every consumer.
    pub verdict: Verdict,
    /// `VmHWM` of brokers plus client at the end of the open-loop phase, MB.
    pub peak_rss_mb: f64,
    /// Per scheduled instant (a `move_to` on a roaming workload): the
    /// longest gap between consecutive deliveries to that consumer, ms.
    pub blackouts_ms: Vec<f64>,
    /// Hand-offs issued.
    pub moves: u64,
    /// Traced runs: status round-trip times, µs.
    pub status_fetch_us: Vec<f64>,
    /// Traced runs: highest WAL depth any status poll saw.
    pub wal_depth_max: u64,
    /// Traced runs: the last status report of every broker.
    pub statuses: Vec<rebeca::mobility::BrokerStatus>,
    /// Traced runs: rendered size of one status report.
    pub status_json_bytes: u64,
    /// Traced runs: the brokers' clean-exit counters.
    pub node_summaries: Vec<Option<NodeSummary>>,
    /// Every publication sent, probes included.
    pub total_pubs: u64,
}

/// One cluster with the client system attached, subscribed and probed.
struct Bed {
    system: MobilitySystem,
    producer: Session,
    consumers: Vec<Session>,
    /// Current broker of every consumer.
    at: Vec<usize>,
    /// Publications sent so far (the next one gets publisher seq `sent+1`).
    sent: u64,
    /// Per consumer: probes published before its subscription was in place
    /// (`sent - delivered` once everything in flight has landed).
    never_owed: Vec<u64>,
    // Declared last: the client system hangs up before the brokers die.
    cluster: Cluster,
}

impl Bed {
    /// Spawns the brokers, attaches producer and consumers, subscribes and
    /// publishes probes until one has reached every consumer.
    fn setup(run: &TcpRun<'_>, shape: &TcpShape, run_secs: u64) -> Result<Self, String> {
        let cluster = Cluster::start(&ClusterSpec {
            node_bin: run.node_bin,
            out_dir: run.out_dir,
            persist: shape.persist,
            run_secs,
        })?;
        let mut system = SystemBuilder::new(&Topology::line(BROKERS))
            .link_delay(DelayModel::Constant(0))
            .seed(run.seed)
            .build_tcp(NetConfig::new(cluster.endpoints.clone()).seed(run.seed))
            .map_err(err("client system"))?;
        let mut consumers = Vec::with_capacity(shape.consumers.len());
        for (j, &home) in shape.consumers.iter().enumerate() {
            let session = system
                .connect(ClientId::new(CONSUMER_BASE + j as u32), home)
                .map_err(err("connect consumer"))?;
            session
                .subscribe(&mut system, tcp_filter(j))
                .map_err(err("subscribe"))?;
            consumers.push(session);
        }
        let producer = system
            .connect(PRODUCER, shape.producer_at)
            .map_err(err("connect producer"))?;
        let mut bed = Bed {
            system,
            producer,
            consumers,
            at: shape.consumers.clone(),
            sent: 0,
            never_owed: Vec::new(),
            cluster,
        };
        bed.probe(run)?;
        bed.never_owed = bed
            .consumers
            .iter()
            .map(|c| bed.sent - bed.delivered(c))
            .collect();
        Ok(bed)
    }

    /// Publishes a probe every 5 ms until every consumer has received one:
    /// from then on every subscription path is established.
    fn probe(&mut self, run: &TcpRun<'_>) -> Result<(), String> {
        let mut rng = Rng::new(run.seed, 1);
        let attrs = tcp_attrs(run.workload);
        let deadline = Instant::now() + DRAIN_LIMIT;
        while self.consumers.iter().any(|c| self.delivered(c) == 0) {
            if Instant::now() > deadline {
                return Err("no probe publication was delivered within 10 s".into());
            }
            self.publish(tcp_notification(u64::MAX, attrs, &mut rng))?;
            self.run_for(SimDuration::from_millis(5));
        }
        // Let the probes still in flight land before anything is timed.
        self.run_for(SimDuration::from_millis(20));
        Ok(())
    }

    fn publish(&mut self, notification: rebeca::Notification) -> Result<(), String> {
        self.sent += 1;
        self.producer
            .publish(&mut self.system, notification)
            .map_err(err("publish"))
    }

    fn run_for(&mut self, d: SimDuration) {
        let until = self.system.now() + d;
        self.system.run_until(until);
    }

    fn delivered(&self, consumer: &Session) -> u64 {
        self.system
            .client(consumer.client())
            .map_or(0, |c| c.delivery_times().len() as u64)
    }

    /// Deliveries owed for the publications sent so far that have not
    /// arrived yet, over all consumers.
    fn in_flight(&self) -> u64 {
        self.consumers
            .iter()
            .zip(&self.never_owed)
            .map(|(c, never)| (self.sent - self.delivered(c)).saturating_sub(*never))
            .sum()
    }

    /// Whether every consumer has received every publication sent so far:
    /// every border broker has then processed the last publication, and no
    /// copy of it is in flight anywhere.
    fn quiescent(&self) -> bool {
        self.in_flight() == 0
    }

    /// Publications delivered to every consumer (per-publisher FIFO makes
    /// the slowest consumer's count the number fully delivered).
    fn fully_delivered(&self) -> u64 {
        self.consumers
            .iter()
            .map(|c| self.delivered(c))
            .min()
            .unwrap_or(0)
    }

    /// Empties the session mailboxes (the logs keep everything).
    fn harvest(&mut self, spans: &mut Spans) {
        let t = spans.start();
        for c in &self.consumers {
            let _ = c.poll_deliveries(&mut self.system);
        }
        spans.end("gen.harvest", t, 0);
    }
}

/// The move schedule: consumer `c` is due every `MOVE_PERIOD`, consumers
/// staggered evenly across the period.  On a workload without roaming the
/// instants are only recorded (and four times as dense), so the blackout
/// (`e2e.blackout_p50_ms`) is measured over the same 400 ms windows with
/// and without hand-offs.
struct Schedule {
    roaming: bool,
    /// `MOVE_PERIOD` (a quarter of it without roaming), or a quarter of the
    /// open-loop phase when that is shorter (`--quick`).
    period: SimDuration,
    /// Next due time per consumer.
    next: Vec<SimTime>,
    /// `(consumer, time)` of every move issued (or instant recorded).
    marks: Vec<(usize, SimTime)>,
}

/// Two consumers never relocate at once: a move waits until the previous
/// one (of any consumer) is this old, ten times the typical blackout.
/// Moves that slipped could otherwise pile up on one instant, and two
/// simultaneous relocations between the same pair of brokers held one
/// consumer's deliveries for seconds while sizing.
const MOVE_SPACING: SimDuration = SimDuration::from_millis(20);

impl Schedule {
    fn new(shape: &TcpShape, start: SimTime, open_secs: f64) -> Self {
        let n = shape.consumers.len() as u64;
        // Without moves nothing limits how often an instant may be sampled:
        // four times as many make the median steadier.
        let nominal = MOVE_PERIOD.as_micros() / if shape.roaming { 1 } else { 4 };
        let period = SimDuration::from_micros(nominal.min((open_secs * 1e6 / 4.0) as u64));
        let stagger = period.as_micros() / n;
        Self {
            roaming: shape.roaming,
            period,
            next: (0..n)
                .map(|c| start + period + SimDuration::from_micros(c * stagger))
                .collect(),
            marks: Vec::new(),
        }
    }

    /// Whether some consumer is due by `now` (and not later than `last`).
    fn due(&self, now: SimTime, last: SimTime) -> bool {
        self.next.iter().any(|&at| at <= now && at <= last)
    }

    /// Handles every consumer that is due and not later than `last`; a
    /// roaming consumer moves only once nothing is in flight.
    fn tick(&mut self, bed: &mut Bed, now: SimTime, last: SimTime) -> Result<(), String> {
        for c in 0..self.next.len() {
            if self.next[c] > now || self.next[c] > last {
                continue;
            }
            if self.roaming {
                // No quiet instant, no move: it stays due and is retried in
                // the next gap.  (A system that is never quiet — overloaded,
                // or an unoptimised build — makes no hand-off at all, and
                // the run fails for want of a blackout sample.)
                let spaced = self
                    .marks
                    .last()
                    .is_none_or(|&(_, at)| now.since(at) >= MOVE_SPACING);
                if !spaced || !bed.quiescent() {
                    continue;
                }
                let target = 1 - bed.at[c];
                bed.consumers[c]
                    .move_to(&mut bed.system, target)
                    .map_err(err("move_to"))?;
                bed.at[c] = target;
            }
            self.marks.push((c, now));
            self.next[c] += self.period;
        }
        Ok(())
    }
}

/// Runs one TCP workload end to end.
pub fn run(run: &TcpRun<'_>, spans: &mut Spans) -> Result<TcpOutcome, String> {
    let shape = TcpShape::of(run.workload);
    let mut out = TcpOutcome::default();
    // Brokers outlive the run by a margin, then exit on their own; a traced
    // run instead waits for that exit to read the clean-exit summary.
    let run_secs = if run.traced {
        (run.seconds + 2.0).ceil() as u64
    } else {
        (run.seconds * 2.0 + 30.0).ceil() as u64
    };

    let t = Instant::now();
    let mut bed = Bed::setup(run, &shape, run_secs)?;
    out.setup_s = t.elapsed().as_secs_f64();
    let pids = bed.cluster.pids();
    let attrs = tcp_attrs(run.workload);
    let mut rng = Rng::new(run.seed, 2);
    // A traced run polls every broker's status once a second, from a thread
    // of its own so that a slow reply never stalls the generator.
    let poller = run
        .traced
        .then(|| StatusPoller::start(bed.cluster.endpoints.clone()));

    // ---- warm-up, then open loop ----------------------------------------
    // One schedule for both: the first `warm` publications fill caches,
    // grow buffers and settle the threads, and are not measured.
    let open_secs = run.seconds * 0.65;
    let interval_us = 1e6 / shape.open_rate;
    let warm = (run.seconds * 0.1 * shape.open_rate).round() as u64;
    let total = warm + (open_secs * shape.open_rate).round() as u64;
    let first_measured = bed.sent + warm + 1;
    let start = bed.system.now() + SimDuration::from_millis(2);
    let intended = |i: u64| start + SimDuration::from_micros((i as f64 * interval_us) as u64);
    let open_end = intended(total);
    let mut schedule = Schedule::new(&shape, intended(warm), open_secs);
    // No move in the last 300 ms, so the backlog check sees settled streams.
    let quiet_tail = schedule.period.as_micros().min(300_000);
    let last_move = SimTime::from_micros(open_end.as_micros().saturating_sub(quiet_tail));
    let mut cpu_before = procstat::cpu_seconds_with_self(&pids);
    let mut next_harvest = start + SimDuration::from_millis(100);
    let mut i = 0u64;
    while i < total {
        let tick = spans.reserve();
        let t_tick = spans.start();
        let mut now = bed.system.now();
        while i < total && intended(i) <= now {
            if i == warm {
                cpu_before = procstat::cpu_seconds_with_self(&pids);
            }
            if i >= warm {
                out.lateness_us
                    .push(now.since(intended(i)).as_micros() as f64);
            }
            let t = spans.start();
            bed.publish(tcp_notification(i, attrs, &mut rng))?;
            spans.end("gen.publish", t, tick);
            i += 1;
            now = bed.system.now();
        }
        if now >= next_harvest {
            bed.harvest(spans);
            next_harvest = now + SimDuration::from_millis(100);
        }
        let t = spans.start();
        // Moves happen half-way between two publications: the previous one
        // has normally been delivered by then, and the Detach/ReSubscribe
        // pair (one hop) has half an interval's head start on the next
        // publication (two or three hops).
        let half_way = SimTime::from_micros(
            intended(i)
                .as_micros()
                .saturating_sub((interval_us / 2.0) as u64),
        );
        if schedule.due(half_way, last_move) {
            bed.system.run_until(half_way);
            if bed.system.now().since(half_way) < ON_TIME {
                schedule.tick(&mut bed, half_way, last_move)?;
            }
        }
        bed.system.run_until(intended(i));
        spans.end("gen.run_until", t, tick);
        spans.end_with_id("gen.tick", t_tick, 0, tick);
    }
    out.open_pubs = total - warm;
    out.open_cpu_s = procstat::cpu_seconds_with_self(&pids) - cpu_before;
    bed.system.run_until(open_end + SimDuration::from_millis(5));
    out.backlog_at_end = bed.in_flight();
    drain(&mut bed, spans);
    // Memory after a fixed amount of work (the open loop's publication
    // count does not depend on how fast the system is; the closed loop's
    // does, and every delivery stays in a consumer log).
    out.peak_rss_mb = procstat::peak_rss_mb_with_self(&pids);

    // ---- closed loop ----------------------------------------------------
    let closed_secs = run.seconds * 0.25;
    let closed_base = bed.fully_delivered();
    let base_sent = bed.sent;
    let closed_start = bed.system.now();
    let closed_end = closed_start + SimDuration::from_micros((closed_secs * 1e6) as u64);
    loop {
        let now = bed.system.now();
        if now >= closed_end {
            break;
        }
        let completed = bed.fully_delivered() - closed_base;
        while (bed.sent - base_sent) - completed < shape.closed_window {
            let n = total + (bed.sent - base_sent);
            bed.publish(tcp_notification(n, attrs, &mut rng))?;
        }
        if now >= next_harvest {
            bed.harvest(spans);
            next_harvest = now + SimDuration::from_millis(100);
        }
        bed.run_for(SimDuration::from_micros(100));
    }
    out.closed_completed = bed.fully_delivered() - closed_base;
    out.closed_elapsed_s = bed.system.now().since(closed_start).as_secs_f64();
    let measured_pubs = out.open_pubs + (bed.sent - base_sent);
    drain(&mut bed, spans);
    out.total_pubs = bed.sent;
    if let Some(poller) = poller {
        let polled = poller.finish();
        for (started, ended) in &polled.polls {
            spans.record("gen.status_poll", *started, *ended, 0);
        }
        out.status_fetch_us = polled.fetch_us;
        out.wal_depth_max = polled.wal_depth_max;
        out.status_json_bytes = polled.json_bytes;
        out.statuses = polled.statuses;
    }

    // ---- collect --------------------------------------------------------
    let measured = first_measured..=bed.sent;
    let open_last = first_measured + out.open_pubs - 1;
    // Per open-loop publication: consumers reached, latest arrival (µs).
    let mut reached = vec![(0usize, 0u64); out.open_pubs as usize];
    for (j, session) in bed.consumers.iter().enumerate() {
        let client = bed
            .system
            .client(session.client())
            .map_err(err("consumer state"))?;
        let log = client.log();
        for (&(at, seq), d) in client.delivery_times().iter().zip(log.deliveries()) {
            debug_assert_eq!(seq, d.envelope.publisher_seq);
            if (first_measured..=open_last).contains(&seq) {
                let slot = &mut reached[(seq - first_measured) as usize];
                *slot = (slot.0 + 1, slot.1.max(at.as_micros()));
            }
        }
        let filters = [tcp_filter(j)];
        let owed = measured_pubs;
        out.verdict.add(&check_log(
            log,
            PRODUCER,
            &measured,
            Some(&filters),
            &mut |_| owed,
        ));
        let times: Vec<u64> = client
            .delivery_times()
            .iter()
            .map(|(at, _)| at.as_micros())
            .collect();
        for &(c, at) in &schedule.marks {
            if c == j {
                out.blackouts_ms.extend(blackout_ms(&times, at.as_micros()));
            }
        }
    }
    for (k, &(consumers, at)) in reached.iter().enumerate() {
        // A publication that never reached some consumer has no latency; the
        // oracle has counted it as lost.
        if consumers >= bed.consumers.len() {
            let due = intended(warm + k as u64).as_micros();
            out.latencies.push((due, at.saturating_sub(due) as f64));
        }
    }
    out.moves = if shape.roaming {
        schedule.marks.len() as u64
    } else {
        0
    };
    if run.traced {
        // The brokers reach `--run-secs` on their own shortly after the run.
        out.node_summaries = bed.cluster.wait_clean_exit(Duration::from_secs(8));
    }
    Ok(out)
}

/// Runs until every delivery owed has arrived or the drain limit passed.
fn drain(bed: &mut Bed, spans: &mut Spans) {
    let deadline = Instant::now() + DRAIN_LIMIT;
    while !bed.quiescent() && Instant::now() < deadline {
        bed.run_for(SimDuration::from_millis(2));
    }
    bed.harvest(spans);
}

/// What the status poller saw.
#[derive(Default)]
struct Polled {
    /// `(start, end)` of every polling round.
    polls: Vec<(Instant, Instant)>,
    fetch_us: Vec<f64>,
    wal_depth_max: u64,
    json_bytes: u64,
    /// The last report of every broker.
    statuses: Vec<rebeca::mobility::BrokerStatus>,
}

/// Polls every broker's status once a second until told to stop, then once
/// more.  `fetch_status` opens its own admin connection, so this shares
/// nothing with the generator's `MobilitySystem`.
struct StatusPoller {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Polled>>,
}

impl StatusPoller {
    fn start(endpoints: Vec<Endpoint>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut polled = Polled::default();
                let mut next = Instant::now() + Duration::from_secs(1);
                loop {
                    // SeqCst: the flag orders nothing but itself; the
                    // default is simply the one nobody has to argue about.
                    let last = stop.load(Ordering::SeqCst);
                    if !last && Instant::now() < next {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                    next += Duration::from_secs(1);
                    poll_once(&endpoints, &mut polled);
                    if last {
                        return polled;
                    }
                }
            })
        };
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the poller after one last round and returns what it saw.
    fn finish(mut self) -> Polled {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for StatusPoller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One polling round: every broker's status (timed), tracking the deepest
/// WAL seen.
fn poll_once(endpoints: &[Endpoint], polled: &mut Polled) {
    let started = Instant::now();
    polled.statuses.clear();
    for endpoint in endpoints {
        let t = Instant::now();
        let Ok(report) = fetch_status(endpoint, None, Duration::from_secs(2)) else {
            continue;
        };
        polled.fetch_us.push(t.elapsed().as_secs_f64() * 1e6);
        polled.json_bytes = report.to_json().len() as u64;
        for broker in report.brokers {
            polled.wal_depth_max = polled.wal_depth_max.max(broker.wal_depth);
            polled.statuses.push(broker);
        }
    }
    polled.polls.push((started, Instant::now()));
}

/// The hand-off blackout of a move at `moved_at`: the longest gap between
/// consecutive deliveries from the last one before the move until the
/// stream has been back for 400 ms (or the log ends).
fn blackout_ms(arrivals_us: &[u64], moved_at: u64) -> Option<f64> {
    let from = arrivals_us
        .partition_point(|&t| t < moved_at)
        .checked_sub(1)?;
    let until = moved_at + 400_000;
    arrivals_us[from..]
        .windows(2)
        .take_while(|w| w[0] < until)
        .map(|w| (w[1] - w[0]) as f64 / 1e3)
        .fold(None, |worst: Option<f64>, gap| {
            Some(worst.map_or(gap, |w| w.max(gap)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_is_the_longest_gap_after_the_move() {
        // 1 ms cadence, a 7 ms hole right after the move at t = 10 ms.
        let mut arrivals: Vec<u64> = (0..10).map(|i| i * 1_000).collect();
        arrivals.extend((0..50).map(|i| 16_000 + i * 1_000));
        assert_eq!(blackout_ms(&arrivals, 9_500), Some(7.0));
        // A move before the first delivery has no "last delivery before".
        assert_eq!(blackout_ms(&arrivals, 0), None);
    }

    #[test]
    fn shapes_match_the_issue() {
        assert_eq!(TcpShape::of(Workload::TcpFanout).consumers.len(), 24);
        assert!(TcpShape::of(Workload::TcpHandoff).persist);
        assert!(!TcpShape::of(Workload::TcpRest).roaming);
    }
}
