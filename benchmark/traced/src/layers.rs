//! The per-layer loops: each crate's public functions, called from outside
//! on the workload's own filters, notifications and table sizes, between
//! two clock reads.
//!
//! One span is recorded per call batch.  Nested layers are timed
//! *inclusively* on identical inputs — `core` ⊃ `broker` ⊃ `routing` ⊃
//! `matcher` ⊃ `filter` — so a layer's self time is its inclusive median
//! minus its child's.  Every loop reports the median over its batches.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rebeca::broker::{BrokerCore, BrokerRole, Delivery, Envelope, Message};
use rebeca::matcher::ShardedFilterIndex;
use rebeca::mobility::{
    BrokerConfig, ClientNode, HandoffLog, LogicalMobilityMode, MobileBroker, SystemBuilder,
};
use rebeca::net::wire::Frame;
use rebeca::retain::{RetentionConfig, RetentionStore};
use rebeca::routing::{RoutingEngine, RoutingStrategyKind};
use rebeca::sim::{
    Context, DelayModel, Incoming, Metrics as SimMetrics, Network, Node, NodeId, SimDuration,
    SimTime, Topology,
};
use rebeca::{AdaptivityPlan, ClientId, Filter, LocationId, MovementGraph, Notification};
use rebeca_benchmark::population::Population;
use rebeca_benchmark::spans::Spans;
use rebeca_benchmark::stats::median;
use rebeca_mobility::{FileBackend, WalRecord};

use crate::alloc;

const PRODUCER: ClientId = ClientId::new(2);

/// Node ids of local clients start here (brokers are 0..brokers).
const CLIENT_NODE_BASE: usize = 1_000;

/// What the loops measured, by metric name, plus the pieces the ledger
/// sums.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// `(metric name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Five-hop pieces, nanoseconds per call.
    pub pieces: Pieces,
}

/// The measured pieces of `tcp_rest`'s five hops (ns per call).
#[derive(Debug, Default, Clone, Copy)]
pub struct Pieces {
    pub session_publish: f64,
    pub encode_publish: f64,
    pub decode_publish: f64,
    pub encode_notification: f64,
    pub decode_notification: f64,
    pub encode_deliver: f64,
    pub decode_deliver: f64,
    pub handle_publish: f64,
    pub handle_transit: f64,
    pub handle_border: f64,
    pub handle_client: f64,
}

impl Pieces {
    /// Σ over the five hops client → producer's broker → transit broker →
    /// border broker → client of encode + decode + handle, in µs.
    pub fn accounted_us(&self) -> f64 {
        (self.session_publish
            + self.encode_publish
            + self.decode_publish
            + self.handle_publish
            + self.encode_notification
            + self.decode_notification
            + self.handle_transit
            + self.encode_notification
            + self.decode_notification
            + self.handle_border
            + self.encode_deliver
            + self.decode_deliver
            + self.handle_client)
            / 1e3
    }
}

/// Runs the loops of one workload.
pub struct Layers<'a> {
    pop: &'a Population,
    spans: &'a mut Spans,
    /// Wall-clock budget of one loop.
    budget: Duration,
    /// Deliveries a consumer log holds, mid-run, per subscription.
    client_log_len: usize,
    out_dir: &'a Path,
    report: LayerReport,
}

impl<'a> Layers<'a> {
    pub fn new(
        pop: &'a Population,
        spans: &'a mut Spans,
        budget: Duration,
        client_log_len: usize,
        out_dir: &'a Path,
    ) -> Self {
        Self {
            pop,
            spans,
            budget,
            client_log_len,
            out_dir,
            report: LayerReport::default(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.report.metrics.push((name, value, unit));
    }

    /// Times `batch` calls of `call` between two clock reads, one span per
    /// batch, until the loop's budget is spent (at least five batches);
    /// `prepare` runs before each batch, untimed.  Returns the median
    /// nanoseconds per call.
    fn time_batches<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: usize,
        mut prepare: impl FnMut(usize) -> T,
        mut call: impl FnMut(&mut T, usize),
    ) -> (f64, u32) {
        let loop_id = self.spans.reserve();
        let loop_start = self.spans.start();
        let deadline = Instant::now() + self.budget;
        let mut per_call = Vec::new();
        let mut k = 0usize;
        while per_call.len() < 5 || Instant::now() < deadline {
            let mut state = prepare(k);
            let span = self.spans.start();
            let t = Instant::now();
            for i in 0..batch {
                call(&mut state, k + i);
            }
            let ns = t.elapsed().as_nanos() as f64;
            self.spans.end(name, span, loop_id);
            per_call.push(ns / batch as f64);
            k += batch;
        }
        self.spans
            .end_with_id("layer.loop", loop_start, parent, loop_id);
        (
            median(&mut per_call).expect("at least five batches"),
            loop_id,
        )
    }

    /// A loop with nothing to prepare.
    fn time_calls(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: usize,
        mut call: impl FnMut(usize),
    ) -> (f64, u32) {
        self.time_batches(name, parent, batch, |_| (), |(), k| call(k))
    }

    /// Times an operation and its undo in alternating runs of `run` calls —
    /// `op(0, k)` then `op(1, k)` over the same `k`s — so the table keeps
    /// the workload's size.  Returns both medians (ns per call).
    fn time_undo_pairs(
        &mut self,
        names: [&'static str; 2],
        parent: u32,
        run: usize,
        mut op: impl FnMut(usize, usize),
    ) -> [f64; 2] {
        let deadline = Instant::now() + self.budget;
        let mut per_call = [Vec::new(), Vec::new()];
        let mut base = 0usize;
        while per_call[0].len() < 5 || Instant::now() < deadline {
            for (which, samples) in per_call.iter_mut().enumerate() {
                let span = self.spans.start();
                let t = Instant::now();
                for k in base..base + run {
                    op(which, k);
                }
                samples.push(t.elapsed().as_nanos() as f64 / run as f64);
                self.spans.end(names[which], span, parent);
            }
            base += run;
        }
        per_call.map(|mut samples| median(&mut samples).expect("at least five runs"))
    }

    /// The links of broker `b` in the line and the link a publication
    /// arrives on (`None` when the producer is local).
    fn links_of(&self, b: usize) -> (Vec<NodeId>, Option<NodeId>) {
        let mut links = Vec::new();
        if b > 0 {
            links.push(NodeId::new(b - 1));
        }
        if b + 1 < self.pop.brokers {
            links.push(NodeId::new(b + 1));
        }
        let upstream = match self.pop.producer_at.cmp(&b) {
            std::cmp::Ordering::Less => Some(NodeId::new(b - 1)),
            std::cmp::Ordering::Greater => Some(NodeId::new(b + 1)),
            std::cmp::Ordering::Equal => None,
        };
        (links, upstream)
    }

    /// Where broker `b` learns subscription `s` from: the client's own
    /// node when local, else the link towards its home.
    fn source_of(&self, b: usize, home: usize, consumer: usize) -> NodeId {
        match home.cmp(&b) {
            std::cmp::Ordering::Equal => NodeId::new(CLIENT_NODE_BASE + consumer),
            std::cmp::Ordering::Less => NodeId::new(b - 1),
            std::cmp::Ordering::Greater => NodeId::new(b + 1),
        }
    }

    /// The busiest border broker's core: its local clients attached and
    /// subscribed, every other subscription learnt over the link towards
    /// its home.  Returns the core and the node publications arrive from.
    fn border_core(&self) -> (BrokerCore, NodeId) {
        let b = self.pop.busiest_border();
        let (links, upstream) = self.links_of(b);
        let mut core = BrokerCore::new(
            NodeId::new(b),
            BrokerRole::Border,
            links,
            RoutingStrategyKind::Covering,
        );
        let producer_node = NodeId::new(CLIENT_NODE_BASE - 1);
        if upstream.is_none() {
            core.handle_attach(PRODUCER, producer_node);
        }
        for s in &self.pop.subs {
            let from = self.source_of(b, s.home, s.consumer);
            let client = ClientId::new(10 + s.consumer as u32);
            if s.home == b {
                core.handle_attach(client, from);
            }
            core.handle_subscribe(client, self.pop.filters[s.filter].clone(), from);
        }
        (core, upstream.unwrap_or(producer_node))
    }

    /// A broker with no local client and one next hop: every subscription
    /// learnt over link 0, publications arriving over link 2 (`tcp_rest`'s
    /// broker 1).  With `producer` the producer is a local client instead
    /// (`tcp_rest`'s broker 2).
    fn transit_core(&self, producer: bool) -> (BrokerCore, NodeId) {
        let links = vec![NodeId::new(0), NodeId::new(2)];
        let mut core = BrokerCore::new(
            NodeId::new(1),
            BrokerRole::Border,
            links,
            RoutingStrategyKind::Covering,
        );
        for s in &self.pop.subs {
            core.handle_subscribe(
                ClientId::new(10 + s.consumer as u32),
                self.pop.filters[s.filter].clone(),
                NodeId::new(0),
            );
        }
        let from = if producer {
            let node = NodeId::new(CLIENT_NODE_BASE - 1);
            core.handle_attach(PRODUCER, node);
            node
        } else {
            NodeId::new(2)
        };
        (core, from)
    }

    // -----------------------------------------------------------------
    // filter ⊂ matcher ⊂ routing ⊂ broker ⊂ core
    // -----------------------------------------------------------------

    fn filter_layer(&mut self, parent: u32) {
        let pop = self.pop;
        let (ns, _) = self.time_calls("filter.matches", parent, 4_096, |k| {
            let f = &pop.filters[k % pop.filters.len()];
            black_box(f.matches(black_box(&pop.notifications[k % pop.notifications.len()])));
        });
        self.set("filter.matches_ns", ns, "ns");
        let (ns, _) = self.time_calls("filter.notification_clone", parent, 1_024, |k| {
            black_box(pop.notifications[k % pop.notifications.len()].clone());
        });
        self.set("filter.notification_clone_ns", ns, "ns");
        let bytes: usize = (0..pop.notifications.len())
            .map(|k| notification_frame(envelope(pop, k)).encode_framed().len())
            .sum();
        self.set(
            "filter.notification_wire_bytes",
            bytes as f64 / pop.notifications.len() as f64,
            "bytes",
        );
    }

    fn matcher_layer(&mut self, parent: u32) -> u32 {
        let pop = self.pop;
        let mut index: ShardedFilterIndex<u32> = ShardedFilterIndex::new();
        for (i, f) in pop.filters.iter().enumerate() {
            index.insert(i as u32, f);
        }
        self.set(
            "matcher.predicates",
            index.predicate_count() as f64,
            "count",
        );
        let (ns, match_loop) = self.time_calls("matcher.match", parent, 256, |k| {
            let mut hits = 0u32;
            index.for_each_match(&pop.notifications[k % pop.notifications.len()], |_| {
                hits += 1
            });
            black_box(hits);
        });
        self.set("matcher.match_ns", ns, "ns");
        let batch = &pop.notifications[..64.min(pop.notifications.len())];
        let (ns, _) = self.time_calls("matcher.match_batch", parent, 4, |_| {
            black_box(index.match_batch(batch));
        });
        self.set(
            "matcher.match_batch_ns_per_item",
            ns / batch.len() as f64,
            "ns",
        );
        let (ns, _) = self.time_calls("matcher.covering_probe", parent, 256, |k| {
            black_box(index.covers_any(&pop.filters[k % pop.filters.len()]));
        });
        self.set("matcher.covering_probe_ns", ns, "ns");
        let [remove_ns, insert_ns] = self.time_undo_pairs(
            ["matcher.remove", "matcher.insert"],
            parent,
            64.min(pop.filters.len()),
            |which, k| {
                let key = (k % pop.filters.len()) as u32;
                if which == 0 {
                    black_box(index.remove(&key));
                } else {
                    index.insert(key, &pop.filters[key as usize]);
                }
            },
        );
        self.set("matcher.remove_ns", remove_ns, "ns");
        self.set("matcher.insert_ns", insert_ns, "ns");
        match_loop
    }

    fn routing_layer(&mut self, parent: u32) -> u32 {
        let pop = self.pop;
        let b = pop.busiest_border();
        let (links, upstream) = self.links_of(b);
        let mut engine: RoutingEngine<NodeId> = RoutingEngine::new(RoutingStrategyKind::Covering);
        for s in &pop.subs {
            let from = self.source_of(b, s.home, s.consumer);
            engine.handle_subscribe(pop.filters[s.filter].clone(), from, &links);
        }
        self.set("routing.entries", engine.table_size() as f64, "count");
        self.set("routing.subgroups", engine.subgroup_count() as f64, "count");
        let (ns, route_loop) = self.time_calls("routing.route", parent, 256, |k| {
            let mut hits = 0u32;
            engine.for_each_route(
                &pop.notifications[k % pop.notifications.len()],
                upstream.as_ref(),
                &links,
                |_| hits += 1,
            );
            black_box(hits);
        });
        self.set("routing.route_ns", ns, "ns");
        // One more subscriber comes and goes: a relocation's table writes.
        let newcomer = NodeId::new(CLIENT_NODE_BASE * 100);
        let [subscribe_ns, unsubscribe_ns] = self.time_undo_pairs(
            ["routing.subscribe", "routing.unsubscribe"],
            parent,
            32.min(pop.filters.len()),
            |which, k| {
                let filter = &pop.filters[k % pop.filters.len()];
                if which == 0 {
                    black_box(engine.handle_subscribe(filter.clone(), newcomer, &links));
                } else {
                    black_box(engine.handle_unsubscribe(filter, &newcomer, &links));
                }
            },
        );
        self.set("routing.subscribe_ns", subscribe_ns, "ns");
        self.set("routing.unsubscribe_ns", unsubscribe_ns, "ns");
        route_loop
    }

    fn broker_layer(&mut self, parent: u32) -> u32 {
        let pop = self.pop;
        let (mut transit, from) = self.transit_core(false);
        // Allocation counts first: exact, so measured once over a fixed
        // number of publications, before any helper thread exists.
        let count = 512usize;
        let batch = envelopes(pop, 0, count);
        let before = alloc::counters();
        for envelope in batch {
            black_box(transit.route_envelope(envelope, Some(from)));
        }
        let after = alloc::counters();
        self.set(
            "broker.allocs_per_pub_transit",
            (after.0 - before.0) as f64 / count as f64,
            "count",
        );
        let (mut border, border_from) = self.border_core();
        let batch = envelopes(pop, 0, count);
        let before = alloc::counters();
        for envelope in batch {
            black_box(border.route_envelope(envelope, Some(border_from)));
        }
        let after = alloc::counters();
        self.set(
            "broker.allocs_per_pub_border",
            (after.0 - before.0) as f64 / count as f64,
            "count",
        );
        self.set(
            "broker.alloc_bytes_per_pub_border",
            (after.1 - before.1) as f64 / count as f64,
            "bytes",
        );

        let (ns, _) = self.time_batches(
            "broker.route_transit",
            parent,
            128,
            |k| envelopes(pop, k, 128),
            |batch: &mut Vec<Envelope>, _| {
                let envelope = batch.pop().expect("batch holds 128");
                black_box(transit.route_envelope(envelope, Some(from)));
            },
        );
        self.set("broker.route_transit_ns", ns, "ns");
        self.report.pieces.handle_transit = ns;
        let (ns, border_loop) = self.time_batches(
            "broker.route_border",
            parent,
            128,
            |k| envelopes(pop, k, 128),
            |batch: &mut Vec<Envelope>, _| {
                let envelope = batch.pop().expect("batch holds 128");
                black_box(border.route_envelope(envelope, Some(border_from)));
            },
        );
        self.set("broker.route_border_ns", ns, "ns");
        let (mut origin, producer_node) = self.transit_core(true);
        let (ns, _) = self.time_batches(
            "broker.publish",
            parent,
            128,
            |k| notifications(pop, k, 128),
            |batch: &mut Vec<Notification>, _| {
                let n = batch.pop().expect("batch holds 128");
                black_box(origin.handle_publish(PRODUCER, n, producer_node));
            },
        );
        self.set("broker.publish_ns", ns, "ns");
        self.report.pieces.handle_publish = ns;
        border_loop
    }

    /// A `MobileBroker` set up like [`Layers::border_core`], through
    /// `Node::handle` only.
    fn mobile_border(&self, metrics: &mut SimMetrics) -> (MobileBroker, Vec<NodeId>, NodeId) {
        let b = self.pop.busiest_border();
        let (links, upstream) = self.links_of(b);
        let id = NodeId::new(b);
        let mut broker = MobileBroker::new(
            id,
            BrokerRole::Border,
            links.clone(),
            BrokerConfig::default(),
        );
        let mut neighbours = links;
        let producer_node = NodeId::new(CLIENT_NODE_BASE - 1);
        let mut feed = |broker: &mut MobileBroker, neighbours: &[NodeId], from, message| {
            let mut ctx = Context::external(SimTime::ZERO, id, neighbours, metrics);
            broker.handle(&mut ctx, Incoming::Message { from, message });
        };
        if upstream.is_none() {
            neighbours.push(producer_node);
            feed(
                &mut broker,
                &neighbours,
                producer_node,
                Message::Attach { client: PRODUCER },
            );
        }
        for s in &self.pop.subs {
            let from = self.source_of(b, s.home, s.consumer);
            let client = ClientId::new(10 + s.consumer as u32);
            if s.home == b && !neighbours.contains(&from) {
                neighbours.push(from);
                feed(&mut broker, &neighbours, from, Message::Attach { client });
            }
            feed(
                &mut broker,
                &neighbours,
                from,
                Message::Subscribe {
                    subscriber: client,
                    filter: self.pop.filters[s.filter].clone(),
                },
            );
        }
        (broker, neighbours, upstream.unwrap_or(producer_node))
    }

    fn core_layer(&mut self, parent: u32) {
        let pop = self.pop;
        let mut metrics = SimMetrics::new();
        let (mut broker, neighbours, from) = self.mobile_border(&mut metrics);
        let id = NodeId::new(self.pop.busiest_border());
        let local_producer = from.index() >= CLIENT_NODE_BASE - 1;
        let prepare = |k: usize| -> Vec<Message> {
            (k..k + 128)
                .rev()
                .map(|i| {
                    if local_producer {
                        Message::Publish {
                            publisher: PRODUCER,
                            notification: notification(pop, i).clone(),
                        }
                    } else {
                        Message::Notification(envelope(pop, i))
                    }
                })
                .collect()
        };
        let (ns, _) = self.time_batches(
            "core.broker_handle",
            parent,
            128,
            prepare,
            |batch: &mut Vec<Message>, _| {
                let message = batch.pop().expect("batch holds 128");
                let mut ctx = Context::external(SimTime::ZERO, id, &neighbours, &mut metrics);
                broker.handle(&mut ctx, Incoming::Message { from, message });
                black_box(ctx.into_harvest());
            },
        );
        self.set("core.broker_handle_ns", ns, "ns");
        self.report.pieces.handle_border = ns;

        // A consumer whose log already holds what it holds mid-run: the
        // log's duplicate check scans the subscription's history.
        let broker_node = NodeId::new(0);
        let client_links = [broker_node];
        let mut client = ClientNode::new(
            ClientId::new(10),
            Vec::new(),
            LogicalMobilityMode::LocationDependent,
            MovementGraph::paper_example(),
        );
        let mut metrics = SimMetrics::new();
        let mut seq = 0usize;
        let mut deliver = |client: &mut ClientNode, d: Delivery| {
            let mut ctx =
                Context::external(SimTime::ZERO, NodeId::new(9), &client_links, &mut metrics);
            client.handle(
                &mut ctx,
                Incoming::Message {
                    from: broker_node,
                    message: Message::Deliver(d),
                },
            );
        };
        // One subscription's stream, so the pre-fill is that stream's
        // history.
        let template = delivery(pop, 0);
        for _ in 0..self.client_log_len {
            seq += 1;
            let mut d = template.clone();
            d.seq = seq as u64;
            d.envelope.publisher_seq = seq as u64;
            deliver(&mut client, d);
        }
        let prepare = |k: usize| -> Vec<Delivery> {
            (0..64)
                .rev()
                .map(|i| {
                    let mut d = template.clone();
                    d.seq = (seq + k + i + 1) as u64;
                    d.envelope.publisher_seq = d.seq;
                    d
                })
                .collect()
        };
        let (ns, _) = self.time_batches(
            "core.client_handle",
            parent,
            64,
            prepare,
            |batch: &mut Vec<Delivery>, _| {
                let d = batch.pop().expect("batch holds 64");
                deliver(&mut client, d);
            },
        );
        self.set("core.client_handle_ns", ns, "ns");
        self.report.pieces.handle_client = ns;

        // Session::publish: queue the action and its timer; the simulator
        // drains between batches, untimed.
        let mut system = SystemBuilder::new(&Topology::line(1))
            .link_delay(DelayModel::Constant(0))
            .build()
            .expect("one broker");
        let producer = system.connect(PRODUCER, 0).expect("connect");
        system.run_to_idle(1_000);
        let system = std::cell::RefCell::new(system);
        let (ns, _) = self.time_batches(
            "core.session_publish",
            parent,
            128,
            |k| {
                system.borrow_mut().run_to_idle(100_000);
                notifications(pop, k, 128)
            },
            |batch: &mut Vec<Notification>, _| {
                let n = batch.pop().expect("batch holds 128");
                producer
                    .publish(&mut system.borrow_mut(), n)
                    .expect("publish");
            },
        );
        self.set("core.session_publish_ns", ns, "ns");
        self.report.pieces.session_publish = ns;
    }

    // -----------------------------------------------------------------
    // mobility, retain, location, sim, net, obs
    // -----------------------------------------------------------------

    fn mobility_layer(&mut self, parent: u32) {
        let pop = self.pop;
        let records: Vec<WalRecord> = (0..256)
            .map(|k| WalRecord::Buffered {
                delivery: delivery(pop, k),
            })
            .collect();
        let bytes: usize = records.iter().map(|r| r.encode_framed().len()).sum();
        self.set(
            "mobility.wal_record_bytes",
            bytes as f64 / records.len() as f64,
            "bytes",
        );
        let mut log = HandoffLog::in_memory().checkpoint_every(0);
        let (ns, _) = self.time_calls("mobility.wal_append_mem", parent, 256, |k| {
            log.append(&records[k % records.len()]);
        });
        self.set("mobility.wal_append_mem_ns", ns, "ns");

        let path = self
            .out_dir
            .join(format!("wal-bench-{}.wal", std::process::id()));
        let mut file_log =
            HandoffLog::with_backend(Box::new(FileBackend::new(&path))).checkpoint_every(0);
        let (ns, _) = self.time_calls("mobility.wal_append_file", parent, 8, |k| {
            file_log.append(&records[k % records.len()]);
        });
        let _ = std::fs::remove_file(&path);
        self.set("mobility.wal_append_file_ns", ns, "ns");

        let mut log = HandoffLog::in_memory().checkpoint_every(0);
        let stored = 2_000usize;
        for k in 0..stored {
            log.append(&records[k % records.len()]);
        }
        let (ns, _) = self.time_calls("mobility.recover", parent, 1, |_| {
            black_box(log.recover());
        });
        self.set(
            "mobility.recover_us_per_krecord",
            ns / 1e3 * 1_000.0 / stored as f64,
            "us",
        );

        // Replay: an old border broker whose client detached, buffering
        // `held` deliveries; one Fetch makes it replay them all.
        let held = 64usize;
        let filter = delivery(pop, 0).filter;
        let client = ClientId::new(10);
        let client_node = NodeId::new(CLIENT_NODE_BASE);
        let link = NodeId::new(1);
        let neighbours = [link, client_node];
        let matching: Vec<Envelope> = (0..self.pop.notifications.len())
            .filter(|&k| filter.matches(notification(pop, k)))
            .map(|k| envelope(pop, k))
            .collect();
        let make = || {
            let mut metrics = SimMetrics::new();
            let mut broker = MobileBroker::new(
                NodeId::new(0),
                BrokerRole::Border,
                vec![link],
                BrokerConfig::default(),
            );
            let mut feed = |from, message| {
                let mut ctx =
                    Context::external(SimTime::ZERO, NodeId::new(0), &neighbours, &mut metrics);
                broker.handle(&mut ctx, Incoming::Message { from, message });
            };
            feed(client_node, Message::Attach { client });
            feed(
                client_node,
                Message::Subscribe {
                    subscriber: client,
                    filter: filter.clone(),
                },
            );
            feed(client_node, Message::Detach { client });
            for k in 0..held {
                let mut envelope = matching[k % matching.len()].clone();
                envelope.publisher_seq = k as u64 + 1;
                feed(link, Message::Notification(envelope));
            }
            (broker, metrics)
        };
        let mut replayed = 0usize;
        let (ns, _) = self.time_batches(
            "mobility.replay",
            parent,
            1,
            |_| make(),
            |(broker, metrics), _| {
                let mut ctx =
                    Context::external(SimTime::ZERO, NodeId::new(0), &neighbours, metrics);
                broker.handle(
                    &mut ctx,
                    Incoming::Message {
                        from: link,
                        message: Message::Fetch {
                            client,
                            filter: filter.clone(),
                            last_seq: 0,
                            junction: link,
                        },
                    },
                );
                let (outgoing, _) = ctx.into_harvest();
                replayed = outgoing
                    .iter()
                    .map(|(_, m)| match m {
                        Message::Replay { deliveries, .. } => deliveries.len(),
                        _ => 0,
                    })
                    .sum();
            },
        );
        self.set(
            "mobility.replay_ns_per_delivery",
            ns / replayed.max(1) as f64,
            "ns",
        );
    }

    fn retain_layer(&mut self, parent: u32) {
        let pop = self.pop;
        let mut store = RetentionStore::new(RetentionConfig::default());
        let mut ts = 0u64;
        let (ns, _) = self.time_batches(
            "retain.append",
            parent,
            256,
            |k| envelopes(pop, k, 256),
            |batch: &mut Vec<Envelope>, _| {
                ts += 1_000;
                store.append(ts, batch.pop().expect("batch holds 256"));
            },
        );
        self.set("retain.append_ns", ns, "ns");
        let filter = delivery(pop, 0).filter;
        let oldest = store.oldest_ts().unwrap_or(0);
        let recent = ts - (ts - oldest) / 100;
        let half = ts - (ts - oldest) / 2;
        let (ns, _) = self.time_calls("retain.fetch_recent", parent, 4, |_| {
            black_box(store.fetch_since(recent, &filter));
        });
        self.set("retain.fetch_recent_us", ns / 1e3, "us");
        let (ns, _) = self.time_calls("retain.fetch_half", parent, 1, |_| {
            black_box(store.fetch_since(half, &filter));
        });
        self.set("retain.fetch_half_us", ns / 1e3, "us");
    }

    fn location_layer(&mut self, parent: u32) {
        let graph = MovementGraph::paper_example();
        let plan = AdaptivityPlan::one_step_per_hop(5);
        let (ns, _) = self.time_calls("location.location_sets", parent, 256, |k| {
            black_box(plan.location_sets(&graph, LocationId(k as u32 % 4)));
        });
        self.set("location.location_sets_ns", ns, "ns");
    }

    fn sim_layer(&mut self, parent: u32) {
        /// Sends every message straight back: the dispatch floor.
        struct Echo;
        impl Node for Echo {
            type Message = u64;
            fn handle(&mut self, ctx: &mut Context<'_, u64>, event: Incoming<u64>) {
                if let Incoming::Message { from, message } = event {
                    if from != ctx.self_id() {
                        ctx.send(from, message + 1);
                    } else if let Some(&peer) = ctx.neighbours().first() {
                        ctx.send(peer, message);
                    }
                }
            }
        }
        let mut network: Network<Echo> = Network::new(1);
        let a = network.add_node(Echo);
        let b = network.add_node(Echo);
        network.connect(a, b, DelayModel::Constant(1));
        network.inject(a, 0);
        let (ns, _) = self.time_calls("sim.dispatch", parent, 1, |_| {
            black_box(network.run(4_096));
        });
        self.set("sim.dispatch_ns", ns / 4_096.0, "ns");
    }

    fn net_layer(&mut self, parent: u32) {
        let pop = self.pop;
        let frame_of = |message: Message| Frame::Message {
            from: NodeId::new(2),
            to: NodeId::new(1),
            delay_micros: 0,
            seq: 7,
            message,
        };
        let publish: Vec<Frame> = (0..64)
            .map(|k| {
                frame_of(Message::Publish {
                    publisher: PRODUCER,
                    notification: notification(pop, k).clone(),
                })
            })
            .collect();
        let notification: Vec<Frame> = (0..64)
            .map(|k| notification_frame(envelope(pop, k)))
            .collect();
        let deliver: Vec<Frame> = (0..64)
            .map(|k| frame_of(Message::Deliver(delivery(pop, k))))
            .collect();
        let mut pieces = [[0.0f64; 2]; 3];
        let mut sizes = [0.0f64; 3];
        for (i, (frames, enc, dec)) in [
            (
                &publish,
                "net.wire_encode.publish",
                "net.wire_decode.publish",
            ),
            (
                &notification,
                "net.wire_encode.notification",
                "net.wire_decode.notification",
            ),
            (
                &deliver,
                "net.wire_encode.deliver",
                "net.wire_decode.deliver",
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let (ns, _) = self.time_calls(enc, parent, 256, |k| {
                black_box(frames[k % frames.len()].encode_framed());
            });
            pieces[i][0] = ns;
            let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode_framed).collect();
            sizes[i] = encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
            let (ns, _) = self.time_calls(dec, parent, 256, |k| {
                black_box(Frame::decode_framed(&encoded[k % encoded.len()]).expect("valid frame"));
            });
            pieces[i][1] = ns;
        }
        let p = &mut self.report.pieces;
        (p.encode_publish, p.decode_publish) = (pieces[0][0], pieces[0][1]);
        (p.encode_notification, p.decode_notification) = (pieces[1][0], pieces[1][1]);
        (p.encode_deliver, p.decode_deliver) = (pieces[2][0], pieces[2][1]);
        // The two message kinds brokers exchange and deliver.
        self.set(
            "net.wire_encode_ns",
            (pieces[1][0] + pieces[2][0]) / 2.0,
            "ns",
        );
        self.set(
            "net.wire_decode_ns",
            (pieces[1][1] + pieces[2][1]) / 2.0,
            "ns",
        );

        // Bytes on the wire per publication: one Publish, one Notification
        // per broker link between the producer and the matching consumers'
        // homes, one Deliver per matching subscription.
        let mut links = 0usize;
        let mut deliveries = 0usize;
        for n in &pop.notifications {
            let homes: Vec<usize> = pop
                .subs
                .iter()
                .filter(|s| pop.filters[s.filter].matches(n))
                .map(|s| s.home)
                .collect();
            deliveries += homes.len();
            if let (Some(&lo), Some(&hi)) = (homes.iter().min(), homes.iter().max()) {
                links += pop.producer_at.saturating_sub(lo) + hi.saturating_sub(pop.producer_at);
            }
        }
        let per = pop.notifications.len() as f64;
        self.set(
            "net.wire_bytes_per_pub",
            sizes[0] + sizes[1] * links as f64 / per + sizes[2] * deliveries as f64 / per,
            "bytes",
        );
    }

    fn obs_layer(&mut self, parent: u32) {
        let mut metrics = SimMetrics::new();
        let (ns, _) = self.time_calls("obs.incr", parent, 4_096, |_| {
            metrics.incr("bench.counter");
        });
        black_box(metrics.counter("bench.counter"));
        self.set("obs.incr_ns", ns, "ns");
    }

    /// Runs every loop; nested layers hang off their parent's loop span.
    pub fn run(mut self) -> LayerReport {
        let root = self.spans.reserve();
        let start = self.spans.start();
        // broker first: its allocation counts want a quiet process.
        let broker_loop = self.broker_layer(root);
        let routing_loop = self.routing_layer(broker_loop);
        let matcher_loop = self.matcher_layer(routing_loop);
        self.filter_layer(matcher_loop);
        self.core_layer(root);
        self.mobility_layer(root);
        self.retain_layer(root);
        self.location_layer(root);
        self.sim_layer(root);
        self.net_layer(root);
        self.obs_layer(root);
        self.spans.end_with_id("layers", start, 0, root);
        self.report
    }
}

fn notification(pop: &Population, k: usize) -> &Notification {
    &pop.notifications[k % pop.notifications.len()]
}

fn envelope(pop: &Population, k: usize) -> Envelope {
    Envelope::new(PRODUCER, k as u64 + 1, notification(pop, k).clone())
}

/// Publications `k..k + n` as owned envelopes, last first (loops `pop`).
fn envelopes(pop: &Population, k: usize, n: usize) -> Vec<Envelope> {
    (k..k + n).rev().map(|i| envelope(pop, i)).collect()
}

/// Publications `k..k + n` as owned notifications, last first.
fn notifications(pop: &Population, k: usize, n: usize) -> Vec<Notification> {
    (k..k + n)
        .rev()
        .map(|i| notification(pop, i).clone())
        .collect()
}

/// A delivery of publication `k` for the population's first subscription
/// that matches it (any subscription when none does).
fn delivery(pop: &Population, k: usize) -> Delivery {
    let n = notification(pop, k);
    let filter = pop
        .filters
        .iter()
        .find(|f| f.matches(n))
        .unwrap_or(&pop.filters[0]);
    Delivery {
        subscriber: ClientId::new(10),
        filter: filter.clone(),
        seq: k as u64 + 1,
        envelope: envelope(pop, k),
    }
}

fn notification_frame(envelope: Envelope) -> Frame {
    Frame::Message {
        from: NodeId::new(2),
        to: NodeId::new(1),
        delay_micros: 0,
        seq: 7,
        message: Message::Notification(envelope),
    }
}

/// One-hop cost of a wall-clock driver: publish→deliver through a single
/// broker, median over `samples` publications at 200 pubs/s, halved (two
/// hops).
pub fn one_hop_us(
    mut system: rebeca::MobilitySystem,
    notification: &Notification,
    filter: &Filter,
    samples: usize,
) -> Result<f64, String> {
    let consumer = system
        .connect(ClientId::new(10), 0)
        .map_err(|e| e.to_string())?;
    consumer
        .subscribe(&mut system, filter.clone())
        .map_err(|e| e.to_string())?;
    let producer = system.connect(PRODUCER, 0).map_err(|e| e.to_string())?;
    let step = SimDuration::from_millis(5);
    let run = |system: &mut rebeca::MobilitySystem| {
        let until = system.now() + step;
        system.run_until(until);
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let delivered = |system: &rebeca::MobilitySystem| {
        system
            .client(ClientId::new(10))
            .map_or(0, |c| c.delivery_times().len())
    };
    // Warm up until the subscription is in place.
    while delivered(&system) == 0 {
        if Instant::now() > deadline {
            return Err("one-hop probe never arrived".into());
        }
        producer
            .publish(&mut system, notification.clone())
            .map_err(|e| e.to_string())?;
        run(&mut system);
    }
    run(&mut system);
    let mut latencies = Vec::with_capacity(samples);
    for _ in 0..samples {
        let before = delivered(&system);
        let sent_at = system.now();
        producer
            .publish(&mut system, notification.clone())
            .map_err(|e| e.to_string())?;
        run(&mut system);
        let client = system
            .client(ClientId::new(10))
            .map_err(|e| e.to_string())?;
        if let Some((at, _)) = client.delivery_times().get(before) {
            latencies.push(at.since(sent_at).as_micros() as f64);
        }
    }
    median(&mut latencies)
        .map(|p50| p50 / 2.0)
        .ok_or_else(|| "no one-hop sample arrived".to_string())
}
