//! Cross-crate exactness: every protocol must return the true k-th value
//! every round, on every dataset, for every quantile — the defining
//! property of the paper's algorithm class ("exact methods", §3.1).

use cqp_core::QueryConfig;
use wsn_data::pressure::PressureConfig;
use wsn_data::synthetic::SyntheticConfig;
use wsn_data::Rng;
use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};
use wsn_sim::config::{AlgorithmKind, DatasetSpec, SimulationConfig};
use wsn_sim::run_experiment;

const ALL: [AlgorithmKind; 10] = [
    AlgorithmKind::Tag,
    AlgorithmKind::Pos,
    AlgorithmKind::LcllH,
    AlgorithmKind::LcllS,
    AlgorithmKind::LcllR,
    AlgorithmKind::Hbc,
    AlgorithmKind::HbcNb,
    AlgorithmKind::Iq,
    AlgorithmKind::Adaptive,
    AlgorithmKind::Gk,
];

fn quick(dataset: DatasetSpec) -> SimulationConfig {
    SimulationConfig {
        sensor_count: 90,
        rounds: 50,
        runs: 2,
        dataset,
        ..SimulationConfig::default()
    }
}

#[test]
fn all_algorithms_exact_on_synthetic_defaults() {
    let cfg = quick(DatasetSpec::Synthetic(SyntheticConfig::default()));
    for kind in ALL {
        let m = run_experiment(&cfg, kind);
        assert_eq!(m.exactness, 1.0, "{} not exact", kind.name());
        assert_eq!(m.mean_rank_error, 0.0, "{}", kind.name());
    }
}

#[test]
fn all_algorithms_exact_under_fast_dynamics() {
    // τ = 8: the median races through the range — worst case for the
    // continuous protocols' filters.
    let cfg = quick(DatasetSpec::Synthetic(SyntheticConfig {
        period: 8,
        noise_percent: 50.0,
        ..SyntheticConfig::default()
    }));
    for kind in ALL {
        let m = run_experiment(&cfg, kind);
        assert_eq!(m.exactness, 1.0, "{} not exact at τ=8/ψ=50", kind.name());
    }
}

#[test]
fn all_algorithms_exact_on_pressure_traces() {
    let cfg = quick(DatasetSpec::Pressure(PressureConfig {
        sensor_count: 90,
        steps: 500,
        skip: 8,
        ..PressureConfig::default()
    }));
    for kind in ALL {
        let m = run_experiment(&cfg, kind);
        assert_eq!(m.exactness, 1.0, "{} not exact on pressure", kind.name());
    }
}

#[test]
fn all_algorithms_exact_for_skewed_quantiles() {
    // Definition 2.1 covers any φ, not just the median.
    for phi in [0.05, 0.25, 0.75, 0.95] {
        let cfg = SimulationConfig {
            phi,
            rounds: 30,
            runs: 1,
            sensor_count: 80,
            ..SimulationConfig::default()
        };
        for kind in ALL {
            let m = run_experiment(&cfg, kind);
            assert_eq!(m.exactness, 1.0, "{} not exact at φ={phi}", kind.name());
        }
    }
}

#[test]
fn all_algorithms_exact_on_tiny_value_universe() {
    // Heavy duplication: range of only 16 values for 90 sensors.
    let cfg = quick(DatasetSpec::Synthetic(SyntheticConfig {
        range_size: 16,
        ..SyntheticConfig::default()
    }));
    for kind in ALL {
        let m = run_experiment(&cfg, kind);
        assert_eq!(m.exactness, 1.0, "{} not exact on tiny range", kind.name());
    }
}

/// Drives the protocols directly (outside the sim runner) on a handcrafted
/// adversarial sequence: constant, step jump to both range ends, heavy
/// ties, oscillation.
#[test]
fn adversarial_sequence_direct_drive() {
    let n = 40usize;
    let positions: Vec<Point> = (0..=n).map(|i| Point::new(i as f64 * 8.0, 0.0)).collect();
    let topo = Topology::build(positions, 10.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    let range_max = 4095;
    let query = QueryConfig::median(n, 0, range_max);

    let rounds: Vec<Vec<i64>> = vec![
        vec![2000; n],
        vec![2000; n],
        (0..n).map(|i| if i < n / 2 { 0 } else { 4095 }).collect(),
        (0..n).map(|i| i as i64 * 100).collect(),
        vec![0; n],
        vec![4095; n],
        (0..n).map(|i| 2048 + (i as i64 % 2)).collect(),
        (0..n).map(|i| (i as i64 * 997) % 4096).collect(),
        vec![1; n],
    ];

    let sizes = MessageSizes::default();
    for kind in ALL {
        let mut alg = kind.build(query, &sizes);
        let mut net = Network::new(topo.clone(), tree.clone(), RadioModel::default(), sizes);
        for (t, values) in rounds.iter().enumerate() {
            let got = alg.round(&mut net, values);
            let want = cqp_core::rank::kth_smallest(values, query.k);
            assert_eq!(got, want, "{} wrong at adversarial round {t}", kind.name());
        }
    }
}

/// Random fuzz across seeds, kept small enough for CI; the seeded property
/// suites in each crate (`crates/*/tests/properties.rs`) go deeper.
#[test]
fn randomized_fuzz_direct_drive() {
    let n = 25usize;
    let positions: Vec<Point> = (0..=n)
        .map(|i| Point::new((i % 6) as f64 * 9.0, (i / 6) as f64 * 9.0))
        .collect();
    let topo = Topology::build(positions, 13.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    let sizes = MessageSizes::default();

    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let k = rng.range_i64(1, n as i64) as u64;
        let query = QueryConfig {
            k,
            range_min: 0,
            range_max: 255,
        };
        for kind in ALL {
            let mut alg = kind.build(query, &sizes);
            let mut net = Network::new(topo.clone(), tree.clone(), RadioModel::default(), sizes);
            let mut rng2 = Rng::seed_from_u64(seed.wrapping_mul(31) + 7);
            for t in 0..25 {
                let values: Vec<i64> = (0..n).map(|_| rng2.range_i64(0, 255)).collect();
                let got = alg.round(&mut net, &values);
                let want = cqp_core::rank::kth_smallest(&values, k);
                assert_eq!(got, want, "{} wrong: seed={seed} k={k} t={t}", kind.name());
            }
        }
    }
}

/// The b-ary snapshot initialization ([21], §4.2.1) must leave every
/// protocol in a consistent state: exactness from round 0 onward.
#[test]
fn bary_search_init_keeps_protocols_exact() {
    use cqp_core::hbc::{Hbc, HbcConfig};
    use cqp_core::init::InitStrategy;
    use cqp_core::iq::{Iq, IqConfig};
    use cqp_core::lcll::{Lcll, RefiningStrategy};
    use cqp_core::{ContinuousQuantile, Pos};

    let n = 35usize;
    let positions: Vec<Point> = (0..=n).map(|i| Point::new(i as f64 * 8.0, 0.0)).collect();
    let topo = Topology::build(positions, 10.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    let sizes = MessageSizes::default();
    let query = QueryConfig::median(n, 0, 2047);

    let protos: Vec<Box<dyn ContinuousQuantile>> = vec![
        Box::new(Pos::new(query).with_init(InitStrategy::BarySearch)),
        Box::new(Hbc::new(
            query,
            HbcConfig {
                init: InitStrategy::BarySearch,
                ..HbcConfig::default()
            },
            &sizes,
        )),
        Box::new(Iq::new(
            query,
            IqConfig {
                init: InitStrategy::BarySearch,
                ..IqConfig::default()
            },
        )),
        Box::new(
            Lcll::new(query, RefiningStrategy::Slip, &sizes).with_init(InitStrategy::BarySearch),
        ),
        Box::new(
            Lcll::new(query, RefiningStrategy::Hierarchical, &sizes)
                .with_init(InitStrategy::BarySearch),
        ),
    ];
    for mut alg in protos {
        let mut net = Network::new(topo.clone(), tree.clone(), RadioModel::default(), sizes);
        let mut rng = Rng::seed_from_u64(123);
        for t in 0..25 {
            let values: Vec<i64> = (0..n)
                .map(|i| 700 + ((i as i64 * 31 + t * 13) % 500) + rng.range_i64(-5, 5))
                .collect();
            let got = alg.round(&mut net, &values);
            assert_eq!(
                got,
                cqp_core::rank::kth_smallest(&values, query.k),
                "{} wrong at t={t} with b-ary init",
                alg.name()
            );
        }
    }
}

/// Exactness must also hold for dataset-driven worlds with changing
/// topology between runs (the §5.1 methodology).
#[test]
fn exactness_survives_topology_resampling() {
    let cfg = SimulationConfig {
        sensor_count: 70,
        rounds: 20,
        runs: 5, // five distinct placements/trees
        ..SimulationConfig::default()
    };
    for kind in [AlgorithmKind::Iq, AlgorithmKind::Hbc, AlgorithmKind::LcllS] {
        let m = run_experiment(&cfg, kind);
        assert_eq!(m.exactness, 1.0, "{}", kind.name());
    }
}
