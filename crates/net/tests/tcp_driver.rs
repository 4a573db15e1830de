//! In-process TCP cluster tests: brokers and clients in separate
//! [`TcpDriver`]s of one process, talking real loopback TCP.
//!
//! The broker system runs in a background thread (pumping its event loop)
//! while the test thread drives the client system interactively — exactly
//! the two-process deployment shape, minus the `fork`.  The multi-process
//! variant (spawned `rebeca-node` binaries) lives in `multiprocess.rs`.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rebeca_core::{MobilitySystem, SystemBuilder};
use rebeca_net::{Endpoint, FaultPlan, NetConfig, SystemBuilderTcp, TcpDriver};
use rebeca_sim::{DelayModel, SimDuration, Topology};

use common::{
    assert_exactly_once, builder, drive_retention_scenario, drive_scenario, reference_sim_log,
    retention_builder, retention_oracle_sim_log, CONSUMER, PRODUCER, RETAIN_TOTAL,
};

/// Builds the broker-side system: one driver hosting all three brokers of
/// the line, listening on an ephemeral loopback port, with an optional
/// fault plan on its connections.  Returns the system and the endpoint
/// client processes dial (the same for every broker — node pairs are told
/// apart by their handshakes).
fn broker_system(fault: Option<FaultPlan>) -> (MobilitySystem, Endpoint) {
    let placeholder = vec![Endpoint::new("127.0.0.1", 0); 3];
    let mut net = NetConfig::new(placeholder).host_all().seed(11);
    if let Some(plan) = fault {
        net = net.fault(plan);
    }
    let driver = TcpDriver::new(net).expect("bind broker listener");
    let endpoint = driver.listen_endpoint().clone();
    let sys = builder(1)
        .build_with(Box::new(driver))
        .expect("broker system builds");
    (sys, endpoint)
}

/// Pumps a system's event loop until asked to stop, then returns it.
fn pump_in_background(
    mut sys: MobilitySystem,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<MobilitySystem> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            let now = sys.now();
            sys.run_until(now + SimDuration::from_millis(25));
        }
        sys
    })
}

/// Hosts a single border broker on a raw driver listening on a fresh
/// loopback port (the raw-socket tests talk to it frame by frame).
fn lone_broker(seed: u64) -> (TcpDriver, u16) {
    use rebeca_broker::BrokerRole;
    use rebeca_core::{Driver, MobileBroker, SystemNode};

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];
    let mut broker =
        TcpDriver::new(NetConfig::new(endpoints).host(0).seed(seed)).expect("broker driver binds");
    broker.add_node(SystemNode::Broker(MobileBroker::new(
        rebeca_sim::NodeId::new(0),
        BrokerRole::Border,
        Vec::new(),
        common::broker_config(),
    )));
    (broker, port)
}

/// The acceptance scenario: quickstart plus a mid-run relocation across
/// real TCP, asserted exactly-once and byte-identical to the simulator.
#[test]
fn loopback_cluster_matches_the_simulator_byte_for_byte() {
    let (broker_sys, endpoint) = broker_system(None);
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let client_net = NetConfig::new(vec![endpoint; 3]).seed(13);
    let mut client_sys = builder(1)
        .build_tcp(client_net)
        .expect("client system builds");

    let tcp_log = drive_scenario(&mut client_sys, 30_000);
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    assert_exactly_once(&tcp_log);
    // The same scenario on the deterministic simulator delivers the
    // byte-identical log (same deliveries, same stream sequence numbers,
    // same order) — the transport is invisible to the protocol.
    let sim_log = reference_sim_log();
    assert_eq!(
        tcp_log, sim_log,
        "TCP and sim delivery logs must be identical"
    );

    // The brokers actually moved traffic over the wire.
    assert!(broker_sys.metrics().counter("net.frames_in") > 0);
    assert!(broker_sys.metrics().counter("net.frames_out") > 0);
    assert!(broker_sys.metrics().counter("net.hello_in") > 0);
}

/// Time-aware subscriptions over real TCP: the consumer detaches from
/// broker 0, misses >100 matching publications, and reattaches at broker 1
/// with a `since`-scoped subscription.  The retained history replays the
/// gap exactly once, merged in order with the live tail — byte-identical
/// to a never-detached run on the deterministic simulator.
#[test]
fn subscribe_since_replays_the_offline_gap_over_tcp() {
    let placeholder = vec![Endpoint::new("127.0.0.1", 0); 3];
    let driver = TcpDriver::new(NetConfig::new(placeholder).host_all().seed(17))
        .expect("bind broker listener");
    let endpoint = driver.listen_endpoint().clone();
    let broker_sys = retention_builder(1)
        .build_with(Box::new(driver))
        .expect("broker system builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let client_net = NetConfig::new(vec![endpoint; 3]).seed(19);
    let mut client_sys = retention_builder(1)
        .build_tcp(client_net)
        .expect("client system builds");

    let tcp_log = drive_retention_scenario(&mut client_sys, 60_000);
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    assert!(tcp_log.is_clean(), "violations: {:?}", tcp_log.violations());
    assert_eq!(
        tcp_log.distinct_publisher_seqs(PRODUCER),
        (1..=RETAIN_TOTAL).collect::<Vec<u64>>(),
        "the offline gap must be closed exactly once"
    );
    assert_eq!(
        tcp_log,
        retention_oracle_sim_log(),
        "history merge must be indistinguishable from never detaching"
    );

    // The history session ran on the broker side, fed by a remote broker's
    // retained slice, and the retention plane shows up in the status report.
    let m = broker_sys.metrics();
    assert_eq!(m.counter("retain.history_session_closed"), 1);
    assert!(m.counter("retain.replayed") >= 100);
    let status = broker_sys.status();
    let b2 = status.brokers.iter().find(|b| b.broker == 2).unwrap();
    assert!(
        b2.retained_publications >= 100,
        "origin broker reports its retained depth"
    );
    assert!(b2.oldest_retained_age_ms.is_some());
}

/// A broker split across two driver processes: broker 0 alone, brokers 1-2
/// together — broker↔broker links cross the wire too.
#[test]
fn split_broker_processes_deliver_end_to_end() {
    // Pre-bind two listeners on ephemeral ports to learn free port
    // numbers, then hand them to the two broker drivers.
    let probe_a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let probe_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port_a = probe_a.local_addr().unwrap().port();
    let port_b = probe_b.local_addr().unwrap().port();
    drop((probe_a, probe_b));
    let endpoints = vec![
        Endpoint::new("127.0.0.1", port_a),
        Endpoint::new("127.0.0.1", port_b),
        Endpoint::new("127.0.0.1", port_b),
    ];

    let sys_a = builder(1)
        .build_tcp(NetConfig::new(endpoints.clone()).host(0).seed(21))
        .expect("process A builds");
    let sys_b = builder(1)
        .build_tcp(NetConfig::new(endpoints.clone()).host(1).host(2).seed(22))
        .expect("process B builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump_a = pump_in_background(sys_a, stop.clone());
    let pump_b = pump_in_background(sys_b, stop.clone());

    let mut client_sys = builder(1)
        .build_tcp(NetConfig::new(endpoints).seed(23))
        .expect("client system builds");
    let tcp_log = drive_scenario(&mut client_sys, 30_000);

    stop.store(true, Ordering::SeqCst);
    let a = pump_a.join().expect("pump A");
    let b = pump_b.join().expect("pump B");

    assert_exactly_once(&tcp_log);
    assert_eq!(tcp_log, reference_sim_log());
    // The inter-broker edge 0-1 crossed processes.
    assert!(a.metrics().counter("net.frames_out") > 0);
    assert!(b.metrics().counter("net.frames_in") > 0);
}

/// The status plane over real TCP: after the scripted relocation, every
/// broker process answers a `StatusRequest` with live structured state —
/// routing tables, WAL depth, restart epoch, per-link heartbeat freshness,
/// the hand-off latency histogram, and a resumable journal tail.
#[test]
fn status_plane_reports_live_cluster_state() {
    let probe_a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let probe_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port_a = probe_a.local_addr().unwrap().port();
    let port_b = probe_b.local_addr().unwrap().port();
    drop((probe_a, probe_b));
    let endpoints = vec![
        Endpoint::new("127.0.0.1", port_a),
        Endpoint::new("127.0.0.1", port_b),
        Endpoint::new("127.0.0.1", port_b),
    ];

    // Broker 0 alone (restart epoch 2), brokers 1-2 together: the 0-1 edge
    // crosses the wire, so link liveness and heartbeat ages are real.
    let sys_a = builder(1)
        .build_tcp(
            NetConfig::new(endpoints.clone())
                .host(0)
                .epoch(2)
                .heartbeat(Duration::from_millis(50))
                .seed(31),
        )
        .expect("process A builds");
    let sys_b = builder(1)
        .build_tcp(
            NetConfig::new(endpoints.clone())
                .host(1)
                .host(2)
                .heartbeat(Duration::from_millis(50))
                .seed(32),
        )
        .expect("process B builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump_a = pump_in_background(sys_a, stop.clone());
    let pump_b = pump_in_background(sys_b, stop.clone());

    let mut client_sys = builder(1)
        .build_tcp(NetConfig::new(endpoints.clone()).seed(33))
        .expect("client system builds");
    let tcp_log = drive_scenario(&mut client_sys, 30_000);
    assert_exactly_once(&tcp_log);

    let timeout = Duration::from_secs(5);
    let report_a =
        rebeca_net::fetch_status(&endpoints[0], None, timeout).expect("process A serves status");
    let report_b =
        rebeca_net::fetch_status(&endpoints[1], None, timeout).expect("process B serves status");

    // Process A hosts exactly broker 0; process B brokers 1 and 2.
    assert_eq!(
        report_a
            .brokers
            .iter()
            .map(|b| b.broker)
            .collect::<Vec<_>>(),
        vec![0]
    );
    assert_eq!(
        report_b
            .brokers
            .iter()
            .map(|b| b.broker)
            .collect::<Vec<_>>(),
        vec![1, 2]
    );

    // Routing state is installed somewhere in the cluster.
    let routing_total: u64 = report_a
        .brokers
        .iter()
        .chain(&report_b.brokers)
        .map(|b| b.routing_entries)
        .sum();
    assert!(routing_total > 0, "no routing entries anywhere");
    let subgroup_total: u64 = report_a
        .brokers
        .iter()
        .chain(&report_b.brokers)
        .map(|b| b.routing_subgroups)
        .sum();
    assert!(
        subgroup_total > 0 && subgroup_total <= routing_total,
        "subgroups must be populated and never exceed entries \
         ({subgroup_total} of {routing_total})"
    );

    // The configured restart epoch is surfaced.
    assert_eq!(report_a.brokers[0].restart_epoch, 2);

    // Broker 0's wire link to broker 1 is up and recently heard from.
    let link_to_1 = report_a.brokers[0]
        .links
        .iter()
        .find(|l| l.peer == 1)
        .expect("broker 0 reports its link to broker 1");
    assert!(link_to_1.connected, "link 0->1 is up");
    let age = link_to_1
        .last_heartbeat_age_ms
        .expect("broker 1 has been heard from");
    assert!(age < 10_000, "heartbeat age is fresh, got {age}ms");

    // The relocation settled at the new border broker (broker 1, process
    // B): its hand-off latency histogram has non-zero quantiles.
    let histogram = &report_b.brokers[0].handoff_latency_micros;
    assert!(histogram.count() > 0, "hand-off latency was recorded");
    assert!(histogram.p50() > 0 && histogram.p99() >= histogram.p50());
    let relocation_counters: u64 = report_b
        .brokers
        .iter()
        .flat_map(|b| &b.relocations)
        .map(|(_, count)| count)
        .sum();
    assert!(relocation_counters > 0, "relocation counters in the report");

    // The journal tail is resumable: a cursor past the last seq is empty.
    let tail = rebeca_net::fetch_status(&endpoints[1], Some(0), timeout).expect("tail fetch");
    assert!(!tail.events.is_empty(), "journal events over the wire");
    let seqs: Vec<u64> = tail.events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs increase");
    assert!(
        tail.events
            .iter()
            .any(|e| e.kind.starts_with("relocation.")),
        "relocation transitions journaled"
    );
    let last = *seqs.last().unwrap();
    let resumed = rebeca_net::fetch_status(&endpoints[1], Some(last), timeout).expect("resume");
    assert!(
        resumed.events.iter().all(|e| e.seq > last),
        "resumed tail starts strictly after the cursor"
    );

    stop.store(true, Ordering::SeqCst);
    let _ = pump_a.join().expect("pump A");
    let _ = pump_b.join().expect("pump B");
}

/// The handshake carries node identity and epoch; heartbeats keep an idle
/// link alive without surfacing as protocol traffic.
#[test]
fn handshake_and_heartbeats_flow() {
    let listener_probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener_probe.local_addr().unwrap().port();
    drop(listener_probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];

    let mut broker = TcpDriver::new(
        NetConfig::new(endpoints.clone())
            .host(0)
            .epoch(3)
            .heartbeat(Duration::from_millis(30)),
    )
    .expect("broker driver binds");
    {
        // Host the single broker node on the raw driver.
        use rebeca_broker::BrokerRole;
        use rebeca_core::{Driver, MobileBroker, SystemNode};
        broker.add_node(SystemNode::Broker(MobileBroker::new(
            rebeca_sim::NodeId::new(0),
            BrokerRole::Border,
            Vec::new(),
            common::broker_config(),
        )));
    }

    let client_net = NetConfig::new(endpoints)
        .epoch(9)
        .heartbeat(Duration::from_millis(30));
    let mut client = SystemBuilder::new(&Topology::line(1))
        .link_delay(DelayModel::constant_millis(1))
        .build_tcp(client_net)
        .expect("client system builds");
    let session = client.connect(CONSUMER, 0).expect("connect");
    session
        .subscribe(&mut client, common::parking_filter())
        .expect("subscribe");

    // Drive both sides; use the raw Driver API on the broker side.
    use rebeca_core::Driver;
    for _ in 0..20 {
        let now = client.now();
        client.run_until(now + SimDuration::from_millis(10));
        let bnow = broker.now();
        broker.run_until(bnow + SimDuration::from_millis(10));
    }

    // The broker saw the client's handshake (node id 1 = first id after
    // the single-broker range) with the client's epoch.
    assert_eq!(broker.peer_epoch(rebeca_sim::NodeId::new(1)), Some(9));
    assert!(broker.metrics().counter("net.hello_in") >= 1);
    assert!(
        broker.metrics().counter("net.frames_in") >= 2,
        "attach + subscribe"
    );
    // The client's event loop kept its idle link alive (400 ms at a 30 ms
    // heartbeat).
    assert!(broker.metrics().counter("net.heartbeats_in") >= 2);
}

/// Self-healing under injected faults: each side drops its one connection
/// to the other process after every few sequenced frames, redials, and
/// replays its unacked window.  Four consumers sit behind those
/// connections — one roaming, three stationary — and every one still
/// receives exactly-once, byte-identical to the simulator, because
/// receivers deduplicate by sequence number per node pair.
#[test]
fn forced_drops_resend_without_loss_or_duplication() {
    let (broker_sys, endpoint) = broker_system(Some(FaultPlan::drop_after(5).recurring()));
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let client_net = NetConfig::new(vec![endpoint; 3])
        .seed(41)
        .fault(FaultPlan::drop_after(3).recurring());
    let mut client_sys = builder(1)
        .build_tcp(client_net)
        .expect("client system builds");

    let tcp_logs = common::drive_watched_scenario(&mut client_sys, 60_000);
    // Let a drop fired by the last flush on either side heal before the
    // counts are read.
    let now = client_sys.now();
    client_sys.run_until(now + SimDuration::from_millis(200));
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    for log in &tcp_logs {
        assert_exactly_once(log);
    }
    assert_eq!(
        tcp_logs,
        common::reference_watched_sim_logs(),
        "forced reconnects must be invisible to the protocol"
    );

    // The faults actually fired and the resend machinery actually worked,
    // on both sides.
    let m = client_sys.metrics();
    let b = broker_sys.metrics();
    for (side, m) in [("client", m), ("broker", b)] {
        assert!(m.counter("net.link_down") >= 1, "{side}: no drop fired");
        assert!(
            m.counter("net.frames_resent") >= 1,
            "{side}: reconnect replayed nothing"
        );
        // Every drop was followed by a successful re-establishment.
        assert!(m.counter("net.link_up") > m.counter("net.link_down"));
    }
    // Each side silently absorbed the other's replay overlap.
    for (dups, resent) in [
        (
            b.counter("net.frames_duplicate"),
            m.counter("net.frames_resent"),
        ),
        (
            m.counter("net.frames_duplicate"),
            b.counter("net.frames_resent"),
        ),
    ] {
        assert!(
            dups <= resent,
            "duplicates ({dups}) cannot exceed resends ({resent})"
        );
    }
}

/// A raw-socket sender that repeats a sequenced frame sees it delivered
/// once: the reader deduplicates by per-direction sequence number and
/// acknowledges cumulatively.
#[test]
fn duplicate_frames_are_suppressed_and_acknowledged_cumulatively() {
    use rebeca_net::wire::Frame;
    use std::io::{Read, Write};

    let (mut broker, port) = lone_broker(51);

    let mut socket = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial broker");
    socket
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let hello = Frame::Hello {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        epoch: 0,
        listen: Endpoint::new("127.0.0.1", 1), // never dialled back in this test
        delay: DelayModel::Constant(0),
    };
    let first = Frame::Message {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        delay_micros: 0,
        seq: 1,
        message: rebeca_broker::Message::Attach { client: CONSUMER },
    };
    let second = Frame::Message {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        delay_micros: 0,
        seq: 2,
        message: rebeca_broker::Message::Subscribe {
            subscriber: CONSUMER,
            filter: common::parking_filter(),
        },
    };
    socket.write_all(&hello.encode_framed()).unwrap();
    socket.write_all(&first.encode_framed()).unwrap();
    // The retransmission a reconnecting writer would send: byte-identical.
    socket.write_all(&first.encode_framed()).unwrap();
    socket.write_all(&second.encode_framed()).unwrap();

    // Pump the broker until both unique frames landed, reading the acks the
    // reader pushes back on this same connection.
    use rebeca_core::Driver;
    let mut acked_high = 0u64;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    for _ in 0..100 {
        let now = broker.now();
        broker.run_until(now + SimDuration::from_millis(10));
        match socket.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => {}
        }
        let mut consumed = 0;
        while let Ok((frame, used)) = Frame::decode_framed(&buf[consumed..]) {
            consumed += used;
            if let Frame::Ack { seq } = frame {
                acked_high = acked_high.max(seq);
            }
        }
        buf.drain(..consumed);
        if acked_high >= 2 && broker.metrics().counter("net.frames_duplicate") >= 1 {
            break;
        }
    }

    assert_eq!(acked_high, 2, "cumulative ack reaches the receive high");
    assert_eq!(
        broker.metrics().counter("net.frames_in"),
        2,
        "the duplicate never reached the protocol"
    );
    assert_eq!(broker.metrics().counter("net.frames_duplicate"), 1);
}

/// Regression: a `Message` from a node no `Hello` introduced used to crash
/// the receiving process (`no link n0 -> n1`: it had no way to answer).
/// The reader drops and counts such frames, and the connection stays
/// usable: once node 1 introduces itself, its frames are heard.
#[test]
fn frames_from_an_unintroduced_node_are_dropped_and_counted() {
    use rebeca_broker::Message;
    use rebeca_core::Driver;
    use rebeca_net::wire::Frame;
    use std::io::Write;

    let (mut broker, port) = lone_broker(53);
    let mut socket = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial broker");
    let frame = |from: usize, seq: u64, message: Message| {
        Frame::Message {
            from: rebeca_sim::NodeId::new(from),
            to: rebeca_sim::NodeId::new(0),
            delay_micros: 0,
            seq,
            message,
        }
        .encode_framed()
    };
    let pump_until = |broker: &mut TcpDriver, counter: &str, want: u64| {
        for _ in 0..100 {
            if broker.metrics().counter(counter) >= want {
                break;
            }
            let now = broker.now();
            broker.run_until(now + SimDuration::from_millis(10));
        }
    };

    socket
        .write_all(&frame(1, 1, Message::Attach { client: CONSUMER }))
        .unwrap();
    let subscribe = Message::Subscribe {
        subscriber: CONSUMER,
        filter: common::parking_filter(),
    };
    socket.write_all(&frame(1, 2, subscribe)).unwrap();
    let publish = Message::Publish {
        publisher: PRODUCER,
        notification: common::vacancy(1),
    };
    socket.write_all(&frame(2, 3, publish)).unwrap();
    pump_until(&mut broker, "net.frames_unintroduced", 3);
    assert_eq!(broker.metrics().counter("net.frames_unintroduced"), 3);
    assert_eq!(broker.metrics().counter("net.frames_in"), 0);

    let hello = Frame::Hello {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        epoch: 0,
        listen: Endpoint::new("127.0.0.1", 1), // never dialled back in this test
        delay: DelayModel::Constant(0),
    };
    socket.write_all(&hello.encode_framed()).unwrap();
    socket
        .write_all(&frame(1, 4, Message::Attach { client: CONSUMER }))
        .unwrap();
    pump_until(&mut broker, "net.frames_in", 1);
    assert_eq!(broker.metrics().counter("net.frames_in"), 1);
    assert_eq!(broker.metrics().counter("net.frames_unintroduced"), 3);
}

/// Epoch fencing: a connection introducing itself with a stale restart
/// epoch is rejected with `Fenced`, and an already-accepted connection is
/// torn down as soon as a newer incarnation of any node it introduced
/// appears — not only the last one.
#[test]
fn stale_epochs_are_fenced_and_zombie_connections_torn_down() {
    use rebeca_net::wire::Frame;
    use std::io::{Read, Write};

    let (mut broker, port) = lone_broker(61);

    let hello_from = |from: usize, epoch: u64| Frame::Hello {
        from: rebeca_sim::NodeId::new(from),
        to: rebeca_sim::NodeId::new(0),
        epoch,
        listen: Endpoint::new("127.0.0.1", 1),
        delay: DelayModel::Constant(0),
    };
    let hello = |epoch: u64| hello_from(1, epoch);
    let read_fenced = |socket: &mut std::net::TcpStream| -> Option<u64> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        for _ in 0..100 {
            match socket.read(&mut chunk) {
                Ok(0) => return None, // closed without a reply
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => continue,
            }
            if let Ok((Frame::Fenced { expected }, _)) = Frame::decode_framed(&buf) {
                return Some(expected);
            }
        }
        None
    };
    use rebeca_core::Driver;
    let pump = |broker: &mut TcpDriver| {
        let now = broker.now();
        broker.run_until(now + SimDuration::from_millis(20));
    };

    // Incarnation with epoch 5 introduces node 1, then node 2, on one
    // connection, and is accepted.
    let mut live = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial");
    live.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    live.write_all(&hello(5).encode_framed()).unwrap();
    live.write_all(&hello_from(2, 5).encode_framed()).unwrap();
    pump(&mut broker);

    // A zombie from before the restart (epoch 3) is rejected outright.
    let mut zombie = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial");
    zombie
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    zombie.write_all(&hello(3).encode_framed()).unwrap();
    assert_eq!(
        read_fenced(&mut zombie),
        Some(5),
        "stale hello answered with the expected epoch"
    );

    // A successor incarnation of node 1 (epoch 6) supersedes the live
    // connection, although node 2 was introduced on it last…
    let mut successor = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial");
    successor
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    successor.write_all(&hello(6).encode_framed()).unwrap();
    pump(&mut broker);

    // …so the epoch-5 connection is fenced off even though it was once
    // legitimate: zombies can never interleave with their successors.
    assert_eq!(read_fenced(&mut live), Some(6), "zombie teardown");

    pump(&mut broker);
    assert!(
        broker.metrics().counter("net.link_fenced_rejected") >= 2,
        "both the stale hello and the superseded connection were counted"
    );
    let journal: Vec<_> = broker
        .metrics()
        .journal()
        .events()
        .filter(|e| e.kind == "link.fenced")
        .map(|e| e.detail.clone())
        .collect();
    assert!(
        journal.iter().any(|d| d.contains("stale_epoch=3")),
        "stale hello journaled, got {journal:?}"
    );
    assert!(
        journal.iter().any(|d| d.contains("stale_epoch=5")),
        "zombie teardown journaled, got {journal:?}"
    );
}

/// Every node pair between two processes shares one connection per
/// direction: eight consumers and a producer hosted by one client driver,
/// attached across the three brokers of one broker process, bring up one
/// connection each way — and every pair is still introduced by a `Hello`
/// of its own.
#[test]
fn one_connection_per_process_pair_carries_every_node_pair() {
    let (broker_sys, endpoint) = broker_system(None);
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let mut client_sys = builder(1)
        .build_tcp(NetConfig::new(vec![endpoint; 3]).seed(91))
        .expect("client system builds");
    let consumers: Vec<_> = (10..18).map(rebeca_broker::ClientId::new).collect();
    for (i, &consumer) in consumers.iter().enumerate() {
        let session = client_sys.connect(consumer, i % 3).expect("connects");
        session
            .subscribe(&mut client_sys, common::parking_filter())
            .expect("subscribe");
    }
    let producer = client_sys.connect(PRODUCER, 2).expect("producer connects");
    let now = client_sys.now();
    client_sys.run_until(now + SimDuration::from_millis(300));
    for i in 1..=5 {
        producer
            .publish(&mut client_sys, common::vacancy(i))
            .expect("publish");
    }
    assert!(
        common::run_until_all_deliveries(&mut client_sys, &consumers, 5, 30_000),
        "deliveries stalled"
    );
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    for &consumer in &consumers {
        let log = client_sys.client_log(consumer).expect("consumer log");
        assert!(log.is_clean(), "violations: {:?}", log.violations());
        assert_eq!(log.distinct_publisher_seqs(PRODUCER), vec![1, 2, 3, 4, 5]);
    }
    assert_eq!(client_sys.metrics().counter("net.link_up"), 1, "client");
    assert_eq!(broker_sys.metrics().counter("net.link_up"), 1, "broker");
    assert_eq!(
        broker_sys.metrics().counter("net.hello_in"),
        9,
        "one Hello per client node pair"
    );
}

/// Regression: `step()` used to race a 1-microsecond phase window against
/// the live wall clock and intermittently return `false` with the connect
/// timer still pending — the `while system.step() {}` idiom then concluded
/// the system was idle before anything ran.
#[test]
fn step_dispatches_a_due_event_instead_of_reporting_idle() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];
    for round in 0..20 {
        let mut client = SystemBuilder::new(&Topology::line(1))
            .link_delay(DelayModel::constant_millis(1))
            .build_tcp(NetConfig::new(endpoints.clone()).seed(round))
            .expect("client system builds");
        let _session = client.connect(CONSUMER, 0).expect("connect");
        // The Attach action timer is due immediately.
        assert!(
            client.step(),
            "round {round}: step() returned false with a due event pending"
        );
    }
}

/// Acknowledgements are cumulative and *delayed*: a steady stream of N
/// sequenced frames costs about N / 32 ack frames, not one per read, and an
/// idle link is still acknowledged within the 2 ms ack delay (plus slack).
#[test]
fn a_steady_stream_is_acknowledged_every_32_frames_and_an_idle_link_promptly() {
    use rebeca_core::Driver;
    use rebeca_net::wire::Frame;
    use std::io::{Read, Write};
    use std::time::Instant;

    const STREAM: u64 = 256;
    const ACK_EVERY: u64 = 32;

    let (mut broker, port) = lone_broker(71);
    let mut socket = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial broker");
    socket.set_nodelay(true).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let me = rebeca_sim::NodeId::new(1);
    let frame = |seq: u64| {
        let message = if seq == 1 {
            rebeca_broker::Message::Attach { client: PRODUCER }
        } else {
            rebeca_broker::Message::Publish {
                publisher: PRODUCER,
                notification: common::vacancy(seq),
            }
        };
        Frame::Message {
            from: me,
            to: rebeca_sim::NodeId::new(0),
            delay_micros: 0,
            seq,
            message,
        }
        .encode_framed()
    };
    let hello = Frame::Hello {
        from: me,
        to: rebeca_sim::NodeId::new(0),
        epoch: 0,
        listen: Endpoint::new("127.0.0.1", 1), // never dialled back in this test
        delay: DelayModel::Constant(0),
    };
    socket.write_all(&hello.encode_framed()).unwrap();

    // Reads what the reader wrote back: (ack frames, highest seq acked).
    let mut buf = Vec::new();
    let mut drain_acks = |socket: &mut std::net::TcpStream, until: u64| -> (u64, u64) {
        let (mut acks, mut high) = (0, 0);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut chunk = [0u8; 4096];
        while high < until && Instant::now() < deadline {
            if let Ok(n) = socket.read(&mut chunk) {
                buf.extend_from_slice(&chunk[..n]);
            }
            let mut consumed = 0;
            while let Ok((frame, used)) = Frame::decode_framed(&buf[consumed..]) {
                consumed += used;
                if let Frame::Ack { seq } = frame {
                    acks += 1;
                    high = high.max(seq);
                }
            }
            buf.drain(..consumed);
        }
        (acks, high)
    };

    // One frame per write, 200 µs apart: slow enough that the reader takes
    // every frame in a read of its own (one ack per read would show as ~256
    // acks), fast enough that the stream never pauses for the ack delay.
    // A pause of the *sender* beyond that may legitimately cost one more
    // ack, so pauses are counted rather than assumed away.
    let mut pauses = 0;
    let mut last = Instant::now();
    for seq in 1..=STREAM {
        while last.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        if last.elapsed() > Duration::from_millis(1) {
            pauses += 1;
        }
        socket.write_all(&frame(seq)).unwrap();
        last = Instant::now();
    }
    let (acks, high) = drain_acks(&mut socket, STREAM);
    assert_eq!(high, STREAM, "the whole stream is acknowledged");
    let bound = STREAM.div_ceil(ACK_EVERY) + 1 + pauses;
    assert!(
        acks <= bound,
        "{acks} ack frames for {STREAM} frames ({pauses} sender pauses): more than {bound}"
    );

    // Idle link: a lone frame is acknowledged after the ack delay, not at
    // the reader's 100 ms poll.  Best of five, so a host stall cannot fail
    // the test.
    let mut best = Duration::MAX;
    for seq in STREAM + 1..=STREAM + 5 {
        let sent = Instant::now();
        socket.write_all(&frame(seq)).unwrap();
        let (_, high) = drain_acks(&mut socket, seq);
        assert_eq!(high, seq, "a lone frame is acknowledged too");
        best = best.min(sent.elapsed());
    }
    assert!(
        best < Duration::from_millis(50),
        "an idle link waited {best:?} for its ack"
    );

    // Nothing was lost on the way to the protocol.
    let now = broker.now();
    broker.run_until(now + SimDuration::from_millis(50));
    assert_eq!(broker.metrics().counter("net.frames_in"), STREAM + 5);
    let acks_out = broker.metrics().counter("net.acks_out");
    assert!(
        acks_out >= acks + 5 && acks_out <= bound + 5,
        "net.acks_out counts the reader's ack frames, got {acks_out}"
    );
}

/// A peer that accepts and never reads cannot wedge the event loop: the
/// write times out at the liveness horizon, the link goes down (and keeps
/// redialling), and the driver's other links keep delivering.
#[test]
fn a_peer_that_never_reads_takes_its_link_down_and_nothing_else() {
    use std::time::Instant;

    // "Broker 0" accepts connections (the kernel completes them into the
    // backlog) and never reads a byte.
    let stalled = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let endpoints = vec![
        Endpoint::new("127.0.0.1", stalled.local_addr().unwrap().port()),
        Endpoint::new("127.0.0.1", port),
        Endpoint::new("127.0.0.1", port),
    ];
    let heartbeat = Duration::from_millis(50); // write timeout: 150 ms
    let broker_sys = builder(1)
        .build_tcp(
            NetConfig::new(endpoints.clone())
                .host(1)
                .host(2)
                .heartbeat(heartbeat)
                .seed(81),
        )
        .expect("broker system builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let mut sys = builder(1)
        .build_tcp(NetConfig::new(endpoints).heartbeat(heartbeat).seed(83))
        .expect("client system builds");
    let consumer = sys.connect(CONSUMER, 1).expect("consumer connects");
    consumer
        .subscribe(&mut sys, common::parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let victim = sys
        .connect(rebeca_broker::ClientId::new(3), 0)
        .expect("victim connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(300));
    assert_eq!(sys.metrics().counter("net.link_down"), 0);

    // 16 MB towards the stalled peer: far more than two socket buffers hold.
    let blob = "x".repeat(64 * 1024);
    for i in 0..256 {
        let notification = rebeca_filter::Notification::builder()
            .attr("blob", blob.as_str())
            .attr("i", i as i64)
            .build();
        victim.publish(&mut sys, notification).expect("publish");
    }
    let started = Instant::now();
    while sys.metrics().counter("net.link_down") == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the stalled link never went down"
        );
        let now = sys.now();
        sys.run_until(now + SimDuration::from_millis(25));
    }
    let drops: Vec<String> = sys
        .metrics()
        .journal()
        .events()
        .filter(|e| e.kind == "link.drop")
        .map(|e| e.detail.clone())
        .collect();
    assert!(
        drops
            .iter()
            .any(|d| d.contains("peer=n0") && d.contains("write timed out")),
        "the drop is a write timeout towards the stalled peer: {drops:?}"
    );
    assert_eq!(sys.metrics().counter("net.link_failed"), 0);

    // The links towards the healthy process still deliver.
    for i in 1..=5 {
        producer
            .publish(&mut sys, common::vacancy(i))
            .expect("publish");
    }
    assert!(
        common::run_until_deliveries(&mut sys, 5, 30_000),
        "deliveries through the healthy links stalled"
    );
    let log = sys.client_log(CONSUMER).expect("consumer log");
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(log.distinct_publisher_seqs(PRODUCER), vec![1, 2, 3, 4, 5]);

    stop.store(true, Ordering::SeqCst);
    let _ = pump.join().expect("broker pump thread");
    drop(stalled);
}

/// Peers acknowledge every 32 frames, so a resend window of only a few
/// multiples of that would fail a healthy link: the config is rejected.
#[test]
fn a_resend_window_under_the_ack_cadence_is_rejected() {
    let endpoints = vec![Endpoint::new("127.0.0.1", 0)];
    let error = TcpDriver::new(NetConfig::new(endpoints.clone()).host(0).resend_window(127))
        .expect_err("a 127-frame window is under the floor");
    assert!(
        error.to_string().contains("resend_window 127"),
        "unexpected error: {error}"
    );
    TcpDriver::new(NetConfig::new(endpoints).host(0).resend_window(128))
        .expect("the floor itself is accepted");
}

/// `heartbeat × missed_heartbeats` is the write timeout of every data
/// socket; zero would leave the sockets fully blocking and the event loop
/// at the mercy of a peer that never reads.
#[test]
fn a_zero_liveness_horizon_is_rejected() {
    let config = || NetConfig::new(vec![Endpoint::new("127.0.0.1", 0)]).host(0);
    for zero in [
        config().heartbeat(Duration::ZERO),
        config().missed_heartbeats(0),
    ] {
        let error = TcpDriver::new(zero).expect_err("no write timeout, no driver");
        assert!(
            error.to_string().contains("heartbeat × missed_heartbeats"),
            "unexpected error: {error}"
        );
    }
}
