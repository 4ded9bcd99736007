//! Seeded property tests of the network substrate: the disk graph against a
//! brute-force oracle (random and adversarial geometry), incremental
//! rebuild chains against fresh builds, shortest-path-tree
//! depths, fragmentation, wave completeness, ledger totals and tx-energy
//! monotonicity.
//!
//! Every property runs over a fixed set of splitmix64-drawn cases, so a
//! failure names its case and replays exactly.

use wsn_net::splitmix::SplitMix64;
use wsn_net::{
    Aggregate, EnergyLedger, MessageSizes, Network, NodeId, Point, RadioModel, RoutingTree,
    Topology,
};

/// Cases per randomized property.
const CASES: u64 = 96;

/// A seeded case generator: property `prop`, case `case`.
struct Gen(SplitMix64);

impl Gen {
    fn new(prop: u64, case: u64) -> Gen {
        Gen(SplitMix64::new(prop << 32 | case))
    }

    /// Uniform in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.0.next_f64()
    }

    /// Uniform in `lo..hi`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.0.next_u64() % (hi - lo) as u64) as usize
    }

    fn points(&mut self, n: usize, side: f64) -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(self.f64_in(0.0, side), self.f64_in(0.0, side)))
            .collect()
    }
}

/// The disk graph by definition, in O(n²): `j` neighbors `i` iff `i ≠ j`
/// and their squared distance is at most `ρ²`. Rows ascend by id.
fn oracle(positions: &[Point], range: f64) -> Vec<Vec<NodeId>> {
    let range_sq = range * range;
    positions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (0..positions.len())
                .filter(|&j| j != i && positions[j].dist_sq(p) <= range_sq)
                .map(|j| NodeId(j as u32))
                .collect()
        })
        .collect()
}

fn assert_matches_oracle(positions: Vec<Point>, range: f64, what: &str) -> Topology {
    let expect = oracle(&positions, range);
    let topo = Topology::build(positions, range);
    for (i, row) in expect.iter().enumerate() {
        assert_eq!(
            topo.neighbors(NodeId(i as u32)),
            row.as_slice(),
            "{what}: row {i} differs from the brute-force disk graph"
        );
    }
    topo
}

#[test]
fn disk_graph_is_symmetric_and_respects_range() {
    for case in 0..CASES {
        let mut g = Gen::new(1, case);
        let n = g.usize_in(2, 80);
        let points = g.points(n, 100.0);
        let range = g.f64_in(5.0, 60.0);
        let topo = assert_matches_oracle(points, range, &format!("case {case}"));
        for u in topo.node_ids() {
            for &v in topo.neighbors(u) {
                assert!(topo.neighbors(v).contains(&u), "case {case}: {u}-{v}");
                assert!(topo.position(u).dist_sq(&topo.position(v)) <= range * range);
                assert_ne!(u, v, "case {case}: self loop");
            }
        }
    }
}

#[test]
fn disk_graph_matches_the_oracle_at_every_density() {
    // From one node per cell to hundreds: cell occupancy, not just the
    // extent, drives the grid's candidate runs.
    for case in 0..CASES {
        let mut g = Gen::new(2, case);
        let n = g.usize_in(2, 400);
        let side = g.f64_in(1.0, 500.0);
        let range = side * g.f64_in(0.01, 1.5);
        let mut points = g.points(n, side);
        // Shift the deployment off the origin, sometimes far into the
        // negative quadrant.
        let (ox, oy) = (g.f64_in(-1e4, 1e4), g.f64_in(-1e4, 1e4));
        for p in &mut points {
            *p = Point::new(p.x + ox, p.y + oy);
        }
        assert_matches_oracle(points, range, &format!("case {case}"));
    }
}

#[test]
fn pairs_exactly_one_range_apart_are_linked() {
    // On an axis: a lattice with spacing exactly ρ, so every horizontal
    // and vertical neighbor sits at distance ρ and every diagonal beyond.
    let range = 2.5;
    let lattice: Vec<Point> = (0..36)
        .map(|i| Point::new((i % 6) as f64 * range, (i / 6) as f64 * range))
        .collect();
    let topo = assert_matches_oracle(lattice, range, "axis lattice");
    assert_eq!(
        topo.neighbors(NodeId(7)).len(),
        4,
        "interior node: 4 axis links"
    );

    // On a diagonal: 3-4-5 steps, so every link is exactly ρ = 5 with
    // both coordinates changing, in all four diagonal directions.
    let diagonal: Vec<Point> = (0..20)
        .map(|i| {
            let (sx, sy) = if i % 2 == 0 { (3.0, 4.0) } else { (-4.0, 3.0) };
            Point::new(i as f64 * sx, i as f64 * sy)
        })
        .collect();
    assert_matches_oracle(diagonal, 5.0, "3-4-5 diagonal");
    let zigzag: Vec<Point> = (0..30)
        .map(|i| Point::new(i as f64 * 3.0, if i % 2 == 0 { 0.0 } else { 4.0 }))
        .collect();
    let topo = assert_matches_oracle(zigzag, 5.0, "3-4-5 zigzag");
    assert_eq!(topo.neighbors(NodeId(5)), &[NodeId(4), NodeId(6)]);

    // Near-ρ pairs at random angles and offsets: whatever rounding makes
    // of ρ, the grid must agree with the definition.
    for case in 0..CASES {
        let mut g = Gen::new(3, case);
        let range = g.f64_in(0.1, 50.0);
        let mut points = Vec::new();
        for _ in 0..g.usize_in(1, 40) {
            let p = Point::new(g.f64_in(-1e3, 1e3), g.f64_in(-1e3, 1e3));
            let theta = match g.usize_in(0, 3) {
                0 => 0.0,
                1 => std::f64::consts::FRAC_PI_4,
                _ => g.f64_in(0.0, std::f64::consts::TAU),
            };
            points.push(p);
            points.push(Point::new(
                p.x + range * theta.cos(),
                p.y + range * theta.sin(),
            ));
        }
        assert_matches_oracle(points, range, &format!("near-range case {case}"));
    }
}

#[test]
fn co_located_points_form_a_clique() {
    let mut points = vec![Point::new(7.0, -3.0); 12];
    points.push(Point::new(7.0, -1.0));
    points.push(Point::new(50.0, 50.0));
    let topo = assert_matches_oracle(points, 2.0, "co-located");
    assert_eq!(
        topo.neighbors(NodeId(0)).len(),
        12,
        "11 twins and the node 2 m away"
    );
    assert!(topo.neighbors(NodeId(13)).is_empty());
}

#[test]
fn extreme_coordinates_and_extents_build_exactly() {
    // Negative and ±1e6 coordinates: two clusters at opposite corners,
    // extent/ρ = 2e5 on both axes.
    let mut g = Gen::new(4, 0);
    let mut points = Vec::new();
    for &(cx, cy) in &[(-1e6, -1e6), (1e6, 1e6), (-1e6, 1e6)] {
        for _ in 0..30 {
            points.push(Point::new(
                cx + g.f64_in(-25.0, 25.0),
                cy + g.f64_in(-25.0, 25.0),
            ));
        }
    }
    assert_matches_oracle(points.clone(), 10.0, "±1e6 clusters");

    // extent/ρ = 2e12: a grid of ρ-cells would need ~4e24 cells. The
    // build must stay O(n) in memory (it merges cells instead) and still
    // find exactly the co-located and near pairs.
    let mut tiny = points;
    tiny.push(Point::new(-1e6, -1e6));
    tiny.push(Point::new(-1e6, -1e6));
    tiny.push(Point::new(1e6, 1e6));
    assert_matches_oracle(tiny, 1e-6, "extent/ρ = 2e12");

    // A line of 1000 nodes with extent/ρ > 1e5.
    let line: Vec<Point> = (0..1000)
        .map(|i| Point::new(i as f64 * 101.0, -5.0))
        .collect();
    let topo = assert_matches_oracle(line, 1.0, "sparse line");
    assert!(topo.node_ids().all(|u| topo.neighbors(u).is_empty()));
}

#[test]
fn two_node_graphs() {
    let a = Point::new(-1.0, 2.0);
    let topo = assert_matches_oracle(vec![a, Point::new(-1.0, 3.0)], 1.0, "in range");
    assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
    let topo = assert_matches_oracle(vec![a, Point::new(-1.0, 3.5)], 1.0, "out of range");
    assert!(topo.neighbors(NodeId(1)).is_empty());
    let topo = assert_matches_oracle(vec![a, a], 1e-9, "co-located");
    assert_eq!(topo.neighbors(NodeId(1)), &[NodeId(0)]);
}

/// Asserts that `topo` is the graph a fresh build over its positions
/// gives, and the brute-force disk graph.
fn assert_equals_fresh_build(topo: &Topology, what: &str) {
    let positions: Vec<Point> = topo.node_ids().map(|id| topo.position(id)).collect();
    let expect = oracle(&positions, topo.radio_range());
    let fresh = Topology::build(positions, topo.radio_range());
    for id in topo.node_ids() {
        assert_eq!(
            topo.neighbors(id),
            fresh.neighbors(id),
            "{what}: row {id} differs from a fresh build"
        );
        assert_eq!(topo.neighbors(id), expect[id.index()], "{what}: row {id}");
    }
}

/// One step of a relocation chain: which nodes move, and where to.
fn relocation_step(g: &mut Gen, step: usize, positions: &mut [Point], range: f64, side: f64) {
    let n = positions.len();
    let anywhere = |g: &mut Gen| Point::new(g.f64_in(-0.1, 1.1) * side, g.f64_in(-0.1, 1.1) * side);
    match step % 8 {
        // Nothing moves.
        0 => {}
        // One node.
        1 => positions[g.usize_in(0, n)] = anywhere(g),
        // k nodes, some of them possibly twice.
        2 => {
            for _ in 0..g.usize_in(2, n.max(3)) {
                positions[g.usize_in(0, n)] = anywhere(g);
            }
        }
        // Every node, by a small jitter or to a fresh spot.
        3 => {
            let jitter = g.f64_in(0.0, range);
            for p in positions.iter_mut() {
                *p = if jitter < range / 2.0 {
                    Point::new(
                        p.x + g.f64_in(-jitter, jitter),
                        p.y + g.f64_in(-jitter, jitter),
                    )
                } else {
                    anywhere(g)
                };
            }
        }
        // Onto another node's exact position.
        4 => {
            let (i, j) = (g.usize_in(0, n), g.usize_in(0, n));
            positions[i] = positions[j];
        }
        // Exactly ρ from another node along an axis, or ρ = 5 units along
        // a 3-4-5 diagonal: dyadic coordinates keep the distance exact.
        5 => {
            let (i, j) = (g.usize_in(0, n), g.usize_in(0, n));
            let u = range / 5.0;
            let (dx, dy) = [(5.0, 0.0), (0.0, -5.0), (3.0, 4.0), (-4.0, 3.0)][g.usize_in(0, 4)];
            positions[i] = Point::new(positions[j].x + dx * u, positions[j].y + dy * u);
        }
        // Far outside the old extent: the grid grows past `4n` ρ-cells and
        // merges cells; the next far step may bring the node back.
        6 => {
            let far = side * [1e3, -1e5, 1e7][g.usize_in(0, 3)];
            positions[g.usize_in(0, n)] = Point::new(far, g.f64_in(0.0, side));
        }
        // Signed zeros: `-0.0` and `0.0` differ in bits, not in value.
        _ => {
            let i = g.usize_in(0, n);
            let zero = if positions[i].x.to_bits() == 0.0f64.to_bits() {
                -0.0
            } else {
                0.0
            };
            positions[i] = Point::new(zero, positions[i].y);
        }
    }
}

#[test]
fn relocated_graphs_equal_fresh_builds() {
    // Chains of rebuilds through `Network::dynamics_rebuild`, which keeps
    // one topology and re-derives only the rows a move touched. After
    // every step the graph must equal a from-scratch build, and the
    // caller's buffer must hold the previous positions.
    for case in 0..24 {
        let mut g = Gen::new(11, case);
        let n = if case < 2 { 2 } else { g.usize_in(3, 120) };
        let side = g.f64_in(20.0, 200.0);
        // Dyadic ranges on a ρ-lattice for half the cases, so that the
        // exactly-ρ steps land exactly ρ away.
        let lattice = case % 2 == 1;
        let range = if lattice {
            2.5 * (1 + g.usize_in(0, 8)) as f64
        } else {
            g.f64_in(5.0, 60.0)
        };
        let mut positions: Vec<Point> = if lattice {
            let cols = (n as f64).sqrt().ceil() as usize;
            (0..n)
                .map(|i| Point::new((i % cols) as f64 * range, (i / cols) as f64 * range))
                .collect()
        } else {
            g.points(n, side)
        };
        let topo = Topology::build(positions.clone(), range);
        let (tree, _) = RoutingTree::spanning_alive(&topo, &vec![true; n]);
        let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        for step in 0..64 {
            let before = positions.clone();
            let kind = if step < 8 { step } else { g.usize_in(0, 8) };
            relocation_step(&mut g, kind, &mut positions, range, side);
            let mut buf = positions.clone();
            net.dynamics_rebuild(Some(&mut buf));
            let what = format!("case {case} step {step} (kind {})", kind % 8);
            assert_eq!(
                buf.iter()
                    .map(|p| (p.x.to_bits(), p.y.to_bits()))
                    .collect::<Vec<_>>(),
                before
                    .iter()
                    .map(|p| (p.x.to_bits(), p.y.to_bits()))
                    .collect::<Vec<_>>(),
                "{what}: the old positions come back"
            );
            assert_equals_fresh_build(net.topology(), &what);
        }
    }
}

#[test]
fn spt_depths_are_shortest_hop_counts() {
    for case in 0..CASES {
        let mut g = Gen::new(5, case);
        let n = g.usize_in(2, 50);
        let points = g.points(n, 60.0);
        let topo = Topology::build(points, g.f64_in(15.0, 40.0));
        let Ok(tree) = RoutingTree::shortest_path_tree(&topo) else {
            continue; // disconnected draw: nothing to check
        };
        // BFS hop counts from scratch must match the tree's depths.
        let mut dist = vec![u32::MAX; n];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([NodeId::ROOT]);
        while let Some(u) = queue.pop_front() {
            for &v in topo.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        for id in topo.node_ids() {
            assert_eq!(tree.depth(id), dist[id.index()], "case {case}: {id}");
            if let Some(p) = tree.parent(id) {
                assert_eq!(tree.depth(p) + 1, tree.depth(id));
                assert!(tree.children(p).contains(&id));
                assert!(topo.neighbors(id).contains(&p), "tree edges are links");
            }
        }
        assert_eq!(tree.subtree_sizes()[0], n);
    }
}

#[test]
fn fragmentation_never_loses_bits() {
    let sizes = MessageSizes::default();
    let mut g = Gen::new(6, 0);
    let payloads = (0..1000u64)
        .chain([0, 1, sizes.max_payload_bits, sizes.max_payload_bits + 1])
        .chain((0..CASES * 8).map(|_| g.usize_in(0, 100_000) as u64));
    for payload in payloads {
        let (frags, total) = sizes.fragment(payload);
        assert!(frags >= 1);
        assert_eq!(
            total,
            payload + frags * sizes.header_bits,
            "payload {payload}"
        );
        assert!(
            payload <= frags * sizes.max_payload_bits,
            "payload {payload} fits"
        );
        if frags > 1 {
            assert!(
                payload > (frags - 1) * sizes.max_payload_bits,
                "payload {payload}"
            );
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Sum(u64);

impl Aggregate for Sum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits
    }
}

/// A connected network over a random placement, or `None` for a
/// partitioned draw.
fn random_network(g: &mut Gen) -> Option<Network> {
    let n = g.usize_in(2, 40);
    let topo = Topology::build(g.points(n, 50.0), 25.0);
    let tree = RoutingTree::shortest_path_tree(&topo).ok()?;
    Some(Network::new(
        topo,
        tree,
        RadioModel::default(),
        MessageSizes::default(),
    ))
}

#[test]
fn convergecast_reaches_root_with_full_aggregate() {
    for case in 0..CASES {
        let mut g = Gen::new(7, case);
        let contributions: Vec<u64> = (0..40).map(|_| g.usize_in(0, 100) as u64).collect();
        let Some(mut net) = random_network(&mut g) else {
            continue;
        };
        let n = net.len() - 1;
        let agg = net.convergecast(|id| Some(Sum(contributions[id.index() % 40])));
        let expect: u64 = (1..=n).map(|i| contributions[i % 40]).sum();
        assert_eq!(agg.map(|s| s.0), Some(expect), "case {case}");
    }
}

#[test]
fn broadcast_reaches_every_node_without_loss() {
    for case in 0..CASES {
        let mut g = Gen::new(8, case);
        let payload = g.usize_in(0, 4096) as u64;
        let Some(mut net) = random_network(&mut g) else {
            continue;
        };
        assert!(net.broadcast(payload).all(), "case {case}");
    }
}

#[test]
fn ledger_totals_match_charges() {
    for case in 0..CASES {
        let mut g = Gen::new(9, case);
        let mut ledger = EnergyLedger::new(5);
        let mut expect = [0.0f64; 5];
        for _ in 0..g.usize_in(1, 100) {
            let (node, joules) = (g.usize_in(0, 5), g.f64_in(0.0, 1e-3));
            ledger.charge(NodeId(node as u32), joules);
            expect[node] += joules;
        }
        for (i, &e) in expect.iter().enumerate() {
            assert!(
                (ledger.consumed(NodeId(i as u32)) - e).abs() < 1e-12,
                "case {case}"
            );
        }
        let max_sensor = expect[1..].iter().copied().fold(0.0, f64::max);
        assert!((ledger.max_sensor_consumption() - max_sensor).abs() < 1e-12);
    }
}

#[test]
fn tx_energy_is_monotone_in_bits_and_range() {
    let m = RadioModel::default();
    for case in 0..CASES * 4 {
        let mut g = Gen::new(10, case);
        let (a, b) = (g.usize_in(0, 10_000) as u64, g.usize_in(0, 10_000) as u64);
        let (r_a, r_b) = (g.f64_in(1.0, 100.0), g.f64_in(1.0, 100.0));
        assert!(m.tx_energy(a.min(b), 35.0) <= m.tx_energy(a.max(b), 35.0));
        assert!(m.tx_energy(1000, r_a.min(r_b)) <= m.tx_energy(1000, r_a.max(r_b)));
    }
}
