//! Property-based tests of the interconnect subsystem: topology invariants
//! (hop symmetry, zero self-distance, diameter bounds, route/hop agreement,
//! crossbar = 1 hop, torus ≤ mesh, hypercube = Hamming distance) and the
//! link-contention conservation law (total link busy time is at least the
//! NI-only serialization time of the traffic that crossed the fabric), plus
//! the equivalence of [`Network::carry`] with [`Network::send`] under every
//! contention model, with and without NI outages.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use ddio_net::{
    ContentionModel, Envelope, LinkStat, NetConfig, Network, NetworkParams, NiOutage, TopologyKind,
};
use ddio_sim::sync::Receiver;
use ddio_sim::{Sim, SimDuration, SimTime};

fn node_counts() -> impl Strategy<Value = usize> {
    1usize..=40
}

/// Nodes of the fabric the carry/send equivalence runs on.
const EQ_NODES: usize = 6;

/// Everything a fabric run reports: when each message's sender resumed, the
/// counters, per-node NI utilization (as bits, so equality is exact), the
/// link table, and the time the run ended.
#[derive(Debug, PartialEq)]
struct FabricRun {
    resumed: Vec<SimTime>,
    messages: u64,
    bytes: u64,
    ni_utilization: Vec<(u64, u64)>,
    links: Vec<LinkStat>,
    end: SimTime,
}

/// Runs `msgs` — `(from, to, bytes, start delay in ns)`, each in its own
/// task — over a fresh fabric with `outages` installed, either through
/// [`Network::carry`] or through [`Network::send`] with every inbox
/// drained. A send run also checks that each message reached its inbox
/// once, with its own sender and size.
fn run_fabric(
    config: NetConfig,
    msgs: &[(usize, usize, u64, u64)],
    outages: &[NiOutage],
    via_send: bool,
) -> FabricRun {
    let mut sim = Sim::new();
    let (net, inboxes): (Network<usize>, Vec<Receiver<Envelope<usize>>>) =
        Network::new(sim.context(), config, NetworkParams::default(), EQ_NODES);
    net.set_outages(outages.to_vec());
    let resumed = Rc::new(RefCell::new(vec![SimTime::ZERO; msgs.len()]));
    for (i, &(from, to, bytes, delay)) in msgs.iter().enumerate() {
        let (net, ctx, resumed) = (net.clone(), sim.context(), Rc::clone(&resumed));
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(delay)).await;
            if via_send {
                net.send(from, to, bytes, i).await;
            } else {
                net.carry(from, to, bytes).await;
            }
            resumed.borrow_mut()[i] = ctx.now();
        });
    }
    let delivered = Rc::new(RefCell::new(Vec::new()));
    if via_send {
        for rx in inboxes {
            let delivered = Rc::clone(&delivered);
            sim.spawn(async move {
                while let Some(env) = rx.recv().await {
                    delivered
                        .borrow_mut()
                        .push((env.payload, env.from, env.to, env.bytes));
                }
            });
        }
    }
    let end = sim.run();
    if via_send {
        let mut got = delivered.borrow().clone();
        got.sort_unstable();
        let expected: Vec<_> = msgs
            .iter()
            .enumerate()
            .map(|(i, &(from, to, bytes, _))| (i, from, to, bytes))
            .collect();
        assert_eq!(got, expected, "every sent message lands in its inbox once");
    }
    let resumed = resumed.borrow().clone();
    FabricRun {
        resumed,
        messages: net.messages_sent(),
        bytes: net.bytes_sent(),
        ni_utilization: (0..EQ_NODES)
            .map(|n| {
                (
                    net.send_utilization(n).to_bits(),
                    net.recv_utilization(n).to_bits(),
                )
            })
            .collect(),
        links: net.link_stats(),
        end,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hop counts are symmetric, zero exactly on the diagonal, and bounded
    /// by the diameter; every route's length equals the hop count and its
    /// links chain from source to destination.
    #[test]
    fn hops_are_symmetric_zero_diagonal_and_within_diameter(nodes in node_counts()) {
        for kind in TopologyKind::ALL {
            let topo = kind.build(nodes);
            prop_assert!(topo.size() >= nodes, "{kind} too small");
            for a in 0..nodes {
                prop_assert_eq!(topo.hops(a, a), 0, "{} self-distance", kind);
                prop_assert!(topo.route(a, a).is_empty());
                for b in 0..nodes {
                    let h = topo.hops(a, b);
                    prop_assert_eq!(h, topo.hops(b, a), "{} asymmetric", kind);
                    prop_assert!(h <= topo.diameter(), "{kind} {a}->{b}: {h} hops");
                    if a != b {
                        prop_assert!(h >= 1);
                    }
                    let route = topo.route(a, b);
                    prop_assert_eq!(route.len(), h, "{} route/hop mismatch", kind);
                    if let (Some(first), Some(last)) = (route.first(), route.last()) {
                        prop_assert_eq!(first.0, a);
                        prop_assert_eq!(last.1, b);
                    }
                    for pair in route.windows(2) {
                        prop_assert_eq!(pair[0].1, pair[1].0, "{} route breaks", kind);
                    }
                }
            }
        }
    }

    /// A crossbar reaches every distinct pair in exactly one hop.
    #[test]
    fn crossbar_is_always_one_hop(nodes in node_counts()) {
        let x = TopologyKind::Crossbar.build(nodes);
        for a in 0..nodes {
            for b in 0..nodes {
                prop_assert_eq!(x.hops(a, b), usize::from(a != b));
            }
        }
    }

    /// Wraparound links only ever shorten routes: the torus never needs
    /// more hops than the same-shaped mesh.
    #[test]
    fn torus_hops_never_exceed_mesh_hops(nodes in node_counts()) {
        let torus = TopologyKind::Torus.build(nodes);
        let mesh = TopologyKind::Mesh.build(nodes);
        prop_assert_eq!(torus.size(), mesh.size(), "same grid fitting");
        for a in 0..nodes {
            for b in 0..nodes {
                prop_assert!(
                    torus.hops(a, b) <= mesh.hops(a, b),
                    "torus {a}->{b} = {} > mesh {}",
                    torus.hops(a, b),
                    mesh.hops(a, b)
                );
            }
        }
    }

    /// Hypercube hop counts are the Hamming distance of the node ids.
    #[test]
    fn hypercube_hops_are_hamming_distance(nodes in node_counts()) {
        let h = TopologyKind::Hypercube.build(nodes);
        for a in 0..nodes {
            for b in 0..nodes {
                prop_assert_eq!(h.hops(a, b), (a ^ b).count_ones() as usize);
            }
        }
    }

    /// Conservation under the link model: every message occupies each link
    /// of its route for its full serialization time, so the total busy time
    /// across all links is at least the NI-only serialization time of all
    /// the bytes that crossed the fabric (routes have ≥ 1 link whenever
    /// sender ≠ receiver), and per-link accounting sums to the total.
    #[test]
    fn link_busy_time_is_at_least_ni_serialization_time(
        sends in prop::collection::vec((0usize..8, 0usize..8, 1u64..65536), 1..24),
        kind_idx in 0usize..4,
    ) {
        let kind = TopologyKind::ALL[kind_idx];
        let mut sim = Sim::new();
        let config = NetConfig {
            topology: kind,
            contention: ContentionModel::Link,
        };
        let params = NetworkParams::default();
        let (net, inboxes): (Network<usize>, Vec<Receiver<Envelope<usize>>>) =
            Network::new(sim.context(), config, params, 8);
        let mut ni_serialization = ddio_sim::SimDuration::ZERO;
        for &(from, to, bytes) in &sends {
            if from != to {
                ni_serialization += params.link_occupancy(bytes);
            }
            let net = net.clone();
            sim.spawn(async move {
                net.send(from, to, bytes, 0).await;
            });
        }
        let expected = sends.len();
        for rx in inboxes {
            sim.spawn(async move {
                while rx.recv().await.is_some() {}
            });
        }
        sim.run();
        prop_assert_eq!(net.messages_sent() as usize, expected);
        let total_busy = net.link_busy_total();
        prop_assert!(
            total_busy >= ni_serialization,
            "{kind}: link busy {:?} < serialization {:?}",
            total_busy,
            ni_serialization
        );
        let per_link: ddio_sim::SimDuration =
            net.link_stats().iter().map(|l| l.busy).sum();
        prop_assert_eq!(per_link, total_busy, "per-link stats disagree with total");
    }

    /// `carry` is `send` minus the inbox push: over random message sets, on
    /// every topology under both contention models, with and without NI
    /// outages, both give the same sender resume times, message and byte
    /// counters, NI utilization, link statistics and end time, and no
    /// carried message finishes sooner than its uncontended trip.
    #[test]
    fn carry_costs_exactly_what_send_costs(
        msgs in prop::collection::vec(
            (0..EQ_NODES, 0..EQ_NODES, 1u64..65536, 0u64..400_000),
            1..24,
        ),
        raw_outages in prop::collection::vec(
            (0..EQ_NODES, 0u64..400_000, 1u64..300_000),
            0..4,
        ),
        with_outages in prop::bool::ANY,
        kind_idx in 0usize..4,
        link_model in prop::bool::ANY,
    ) {
        let config = NetConfig {
            topology: TopologyKind::ALL[kind_idx],
            contention: if link_model {
                ContentionModel::Link
            } else {
                ContentionModel::NiOnly
            },
        };
        let outages: Vec<NiOutage> = if with_outages {
            raw_outages
                .iter()
                .map(|&(node, from, len)| NiOutage {
                    node,
                    from: SimTime::ZERO + SimDuration::from_nanos(from),
                    until: SimTime::ZERO + SimDuration::from_nanos(from + len),
                })
                .collect()
        } else {
            Vec::new()
        };
        let carried = run_fabric(config, &msgs, &outages, false);
        let sent = run_fabric(config, &msgs, &outages, true);
        prop_assert_eq!(carried.messages, msgs.len() as u64);
        prop_assert_eq!(carried.bytes, msgs.iter().map(|m| m.2).sum::<u64>());
        // Independently of `send`: no message can beat its uncontended
        // trip, which starts once any outage at the sender that covers the
        // start has closed. A receiver outage that opens before the
        // earliest possible arrival (and overlaps no other window at that
        // node) holds the deposit until it closes.
        let params = NetworkParams::default();
        let topology = config.topology.build(EQ_NODES);
        for (i, &(from, to, bytes, delay)) in msgs.iter().enumerate() {
            let start = SimTime::ZERO + SimDuration::from_nanos(delay);
            let leaves = outages
                .iter()
                .filter(|o| o.node == from && o.from <= start && start < o.until)
                .map(|o| o.until)
                .min()
                .unwrap_or(start);
            let hops = topology.hops(from, to);
            let fabric = match config.contention {
                ContentionModel::NiOnly => params.wire_latency(hops),
                ContentionModel::Link => {
                    (params.router_latency + params.link_occupancy(bytes)) * hops as u64
                }
            };
            let arrives = leaves + params.send_occupancy(bytes) + fabric;
            let deposit_from = outages
                .iter()
                .enumerate()
                .filter(|&(j, o)| {
                    o.node == to
                        && o.from <= arrives
                        && !outages.iter().enumerate().any(|(k, p)| {
                            k != j && p.node == to && p.from < o.until && o.from < p.until
                        })
                })
                .map(|(_, o)| o.until)
                .fold(arrives, SimTime::max);
            let fastest = deposit_from + params.recv_occupancy(bytes);
            prop_assert!(
                carried.resumed[i] >= fastest,
                "message {i} resumed at {:?}, before its fastest trip ends at {:?}",
                carried.resumed[i],
                fastest
            );
        }
        prop_assert_eq!(carried, sent);
    }
}
