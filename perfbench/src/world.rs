//! World set-up and the traced replay of one protocol run.
//!
//! [`run_traced`] repeats what `wsn_sim::runner::run_once_capture` does,
//! step by step through the same public calls, with a span around each
//! layer's call. It rebuilds the run's `RunMetrics` the same way, so the
//! caller can check that the traced replay simulated exactly the run the
//! untraced entry point did.

use std::hint::black_box;

use cqp_core::protocol::QueryConfig;
use wsn_data::som::som_placement;
use wsn_data::walks::{RandomWalkDataset, RegimeDataset};
use wsn_data::{Dataset, PressureDataset, Rng, SyntheticDataset};
use wsn_net::loss::LossModel;
use wsn_net::{EnergyAuditor, FailureModel, Network, NodeId, Point, RoutingTree, Topology};
use wsn_sim::runner::{build_world, AREA, MAX_PLACEMENT_ATTEMPTS};
use wsn_sim::{AlgorithmKind, DatasetSpec, RunMetrics, SimulationConfig};

use crate::trace::Tracer;

/// The per-run RNG the runner derives from `(cfg.seed, run_index)`.
pub fn run_rng(seed: u64, run_index: u32) -> Rng {
    Rng::seed_from_u64(
        seed ^ (run_index as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(1),
    )
}

/// Placements drawn and worlds built by a traced set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attempts {
    /// Placements drawn (each one a dataset plus a topology build).
    pub placements: u64,
    /// Connected worlds returned.
    pub worlds: u64,
}

/// `build_world`, split into its data and topology halves.
fn build_world_traced(
    cfg: &SimulationConfig,
    rng: &mut Rng,
    t: &mut Tracer,
    attempts: &mut Attempts,
) -> (Box<dyn Dataset>, Topology, RoutingTree) {
    for _ in 0..MAX_PLACEMENT_ATTEMPTS {
        attempts.placements += 1;
        let (dataset, positions) = t.span("data.world", || draw_world(cfg, rng));
        let built = t.span("net.topology", || {
            let topo = Topology::build(positions, cfg.radio_range);
            RoutingTree::shortest_path_tree(&topo).map(|tree| (topo, tree))
        });
        if let Ok((topo, tree)) = built {
            attempts.worlds += 1;
            return (dataset, topo, tree);
        }
    }
    panic!(
        "no connected placement for |N|={} ρ={}",
        cfg.sensor_count, cfg.radio_range
    );
}

/// One placement and dataset draw, in the order `build_world` draws them.
fn draw_world(cfg: &SimulationConfig, rng: &mut Rng) -> (Box<dyn Dataset>, Vec<Point>) {
    let uniform = |rng: &mut Rng| -> (Vec<(f64, f64)>, Vec<Point>) {
        let raw = wsn_data::placement::uniform(cfg.sensor_count, AREA, AREA, rng);
        let positions = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
        (raw, positions)
    };
    match &cfg.dataset {
        DatasetSpec::Synthetic(scfg) => {
            let (raw, positions) = uniform(rng);
            let ds = SyntheticDataset::generate(scfg.clone(), &raw[1..], rng);
            (Box::new(ds), positions)
        }
        DatasetSpec::Pressure(pcfg) => {
            let ds = PressureDataset::generate(pcfg.clone(), rng);
            let sensor_pos = som_placement(&ds.first_measurements(), AREA, AREA, rng);
            let mut positions = vec![Point::new(
                rng.range_f64(0.0, AREA),
                rng.range_f64(0.0, AREA),
            )];
            positions.extend(sensor_pos.iter().map(|&(x, y)| Point::new(x, y)));
            (Box::new(ds), positions)
        }
        DatasetSpec::RandomWalk { range_size, step } => {
            let (_, positions) = uniform(rng);
            let ds =
                RandomWalkDataset::new(cfg.sensor_count, 0, *range_size as i64 - 1, *step, rng);
            (Box::new(ds), positions)
        }
        DatasetSpec::Regime {
            range_size,
            phase_len,
            drift,
        } => {
            let (_, positions) = uniform(rng);
            let ds = RegimeDataset::new(
                cfg.sensor_count,
                0,
                *range_size as i64 - 1,
                *phase_len,
                *drift,
                rng,
            );
            (Box::new(ds), positions)
        }
    }
}

/// The loss and failure draws the runner makes between `Network::new`
/// and `dynamics::init`, in its order.
fn install_channel(cfg: &SimulationConfig, net: &mut Network, rng: &mut Rng) {
    if let Some(p) = cfg.loss {
        net.set_loss(Some(LossModel::new(p, rng.next_u64())));
    }
    net.set_reliability(cfg.reliability);
    if let Some(pf) = cfg.node_failure {
        net.set_failures(Some(FailureModel::new(pf, rng.next_u64())));
    }
}

/// Sets up the world of run `run_index` as the runner does: world,
/// network, channel and dynamics. Untraced; this is what `setup_s` times.
pub fn setup(cfg: &SimulationConfig, run_index: u32) {
    let mut rng = run_rng(cfg.seed, run_index);
    let (dataset, topo, tree) = build_world(cfg, &mut rng);
    let mut net = Network::new(topo, tree, cfg.radio, cfg.sizes);
    install_channel(cfg, &mut net, &mut rng);
    let dynamics = wsn_sim::dynamics::init(cfg.dynamics.as_ref(), cfg.loss, &mut net, &mut rng);
    black_box((dataset, net, dynamics));
}

/// [`setup`] with a span around each layer's part.
pub fn setup_traced(cfg: &SimulationConfig, run_index: u32, t: &mut Tracer, a: &mut Attempts) {
    let mut rng = run_rng(cfg.seed, run_index);
    let (dataset, topo, tree) = build_world_traced(cfg, &mut rng, t, a);
    let mut net = t.span("net.network_new", || {
        Network::new(topo, tree, cfg.radio, cfg.sizes)
    });
    install_channel(cfg, &mut net, &mut rng);
    let dynamics = t.span("sim.dynamics_init", || {
        wsn_sim::dynamics::init(cfg.dynamics.as_ref(), cfg.loss, &mut net, &mut rng)
    });
    black_box((dataset, net, dynamics));
}

/// Counts the traced replay of a run reads off its network.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounts {
    /// Data messages sent.
    pub messages: u64,
    /// Bits on air.
    pub bits: u64,
    /// Values carried.
    pub values: u64,
    /// Audit events replayed by the auditor (0 with audit off).
    pub audit_events: u64,
}

/// Absolute rank error of answer `v` against rank `k` (the runner's
/// definition, which the crate keeps private).
fn rank_error(values: &[i64], v: i64, k: u64) -> u64 {
    let (mut l, mut e) = (0u64, 0u64);
    for &x in values {
        l += (x < v) as u64;
        e += (x == v) as u64;
    }
    if k > l && k <= l + e {
        0
    } else if k <= l {
        l + 1 - k
    } else {
        k - (l + e).max(1)
    }
}

/// Replays `run_once(cfg, kind, run_index)` with a span around every
/// layer call and returns the metrics the runner would have returned.
pub fn run_traced(
    cfg: &SimulationConfig,
    kind: AlgorithmKind,
    run_index: u32,
    t: &mut Tracer,
    a: &mut Attempts,
) -> (RunMetrics, RunCounts) {
    let mut rng = run_rng(cfg.seed, run_index);
    let (mut dataset, topo, tree) = build_world_traced(cfg, &mut rng, t, a);
    let n = dataset.sensor_count();
    let query = QueryConfig::phi(cfg.phi, n, dataset.range_min(), dataset.range_max());
    let mut alg = t.span("core.build", || kind.build(query, &cfg.sizes));
    let mut net = t.span("net.network_new", || {
        Network::new(topo, tree, cfg.radio, cfg.sizes)
    });
    net.set_audit(cfg.audit);
    net.set_telemetry(cfg.telemetry);
    net.set_wave_workers(cfg.wave_workers);
    install_channel(cfg, &mut net, &mut rng);
    let mut dynamics = t.span("sim.dynamics_init", || {
        wsn_sim::dynamics::init(cfg.dynamics.as_ref(), cfg.loss, &mut net, &mut rng)
    });
    let moving_population = cfg
        .dynamics
        .as_ref()
        .is_some_and(|d| d.churn > 0.0 || d.mobility_step > 0.0);

    let mut values = vec![0i64; n];
    let mut reachable = Vec::new();
    let (mut exact_rounds, mut rank_error_sum, mut max_rank_error) = (0u32, 0u64, 0u64);
    for round in 0..cfg.rounds {
        if cfg.node_failure.is_some() {
            t.span("net.fail_round", || net.fail_round());
        } else {
            net.fail_round();
        }
        if let Some(d) = dynamics.as_mut() {
            t.span("sim.dynamics", || {
                if d.apply(round, &mut net) {
                    alg.topology_changed();
                }
            });
        }
        t.span("data.sample", || dataset.sample_round(round, &mut values));
        let answer = t.span("core.round", || alg.round(&mut net, &values));
        let err = t.span("sim.oracle", || {
            let mut reachable_values = |net: &Network| {
                reachable.clear();
                reachable.extend(
                    (1..=n)
                        .filter(|&i| net.is_reachable(NodeId(i as u32)))
                        .map(|i| values[i - 1]),
                );
            };
            if cfg.node_failure.is_some() {
                reachable_values(&net);
                let m = reachable.len() as u64;
                if m == 0 {
                    0
                } else {
                    let k = (cfg.phi * m as f64).ceil() as u64;
                    rank_error(&reachable, answer, k.clamp(1, m))
                }
            } else if moving_population {
                reachable_values(&net);
                if reachable.is_empty() {
                    0
                } else {
                    let k = cqp_core::rank::rank_of_phi(cfg.phi, reachable.len());
                    rank_error(&reachable, answer, k)
                }
            } else {
                rank_error(&values, answer, query.k)
            }
        });
        exact_rounds += (err == 0) as u32;
        rank_error_sum += err;
        max_rank_error = max_rank_error.max(err);
    }

    let (audit_events, audit_discrepancies) = if cfg.audit {
        let report = t.span("net.audit_verify", || EnergyAuditor::verify(&net));
        (report.events, report.discrepancies.len() as u32)
    } else {
        (0, 0)
    };

    t.span("sim.metrics", || {
        let rounds = cfg.rounds.max(1) as f64;
        let ledger = net.ledger();
        let stats = net.stats();
        let rel = net.reliability_stats();
        let metrics = RunMetrics {
            max_node_energy_per_round: ledger.max_sensor_consumption() / rounds,
            lifetime_rounds: ledger.estimated_lifetime_rounds(net.model()),
            messages_per_round: stats.messages as f64 / rounds,
            values_per_round: stats.values as f64 / rounds,
            bits_per_round: stats.bits as f64 / rounds,
            exact_rounds,
            total_rounds: cfg.rounds,
            mean_rank_error: rank_error_sum as f64 / rounds,
            max_rank_error,
            rank_tolerance: alg.rank_tolerance(n as u64),
            hotspot_rx_fraction: ledger.hotspot_rx_fraction(),
            delivery_rate: rel.delivery_rate(),
            retransmissions_per_round: rel.retransmissions as f64 / rounds,
            peak_round_energy: ledger.max_round_sensor_consumption(),
            failed_nodes: rel.failed_nodes as u32,
            rebuilds: rel.rebuilds as u32,
            phase_joules: net.phases().joules(),
            phase_bits: net.phases().bits(),
            audit_events,
            audit_discrepancies,
            hists: net.histograms().total(),
        };
        let counts = RunCounts {
            messages: stats.messages,
            bits: stats.bits,
            values: stats.values,
            audit_events,
        };
        (metrics, counts)
    })
}
