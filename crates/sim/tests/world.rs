//! One run scaffold: a traced run is run 0 of the experiment. Stepping
//! `runner::World::new(cfg, 0)` through `trace::trace_run` must simulate
//! exactly the run `run_once_capture(cfg, kind, 0)` simulates — same
//! packet capture frame for frame, same traffic, same exactness — on a
//! static world and on one with every world flag on.

use wsn_net::ReliabilityConfig;
use wsn_sim::runner::{run_once_capture, World};
use wsn_sim::trace::{to_csv, trace_run, RoundRecord};
use wsn_sim::{AlgorithmKind, DynamicsConfig, RunMetrics, SimulationConfig};

fn static_world() -> SimulationConfig {
    SimulationConfig {
        sensor_count: 60,
        radio_range: 50.0,
        rounds: 20,
        runs: 1,
        seed: 17,
        ..SimulationConfig::default()
    }
}

/// Loss, ARQ, wave recovery, node failures, mobility, churn, drift and
/// duty cycling, all at once (harsh enough that the sink is cut off from
/// every sensor in the last rounds of run 0).
fn every_world_flag() -> SimulationConfig {
    SimulationConfig {
        loss: Some(0.2),
        reliability: ReliabilityConfig::recovering(2, 2),
        node_failure: Some(0.01),
        dynamics: Some(DynamicsConfig {
            mobility_step: 12.5,
            churn: 0.02,
            drift: 0.1,
            duty_milli: 100,
            epoch: 4,
        }),
        ..static_world()
    }
}

/// Traces run 0 of `cfg` (audit on) and checks it against
/// `run_once_capture`; returns the trace and the run's metrics.
fn assert_traced_run_is_run_0(
    cfg: &SimulationConfig,
    kind: AlgorithmKind,
) -> (Vec<RoundRecord>, RunMetrics) {
    let cfg = SimulationConfig {
        audit: true,
        ..cfg.clone()
    };
    let (metrics, net) = run_once_capture(&cfg, &|q, s| kind.build(q, s), 0);

    let mut world = World::new(&cfg, 0);
    let mut alg = kind.build(world.query(), &cfg.sizes);
    let trace = trace_run(&mut world, alg.as_mut(), cfg.rounds);

    let (want, got) = (net.capture(), world.net.capture());
    assert!(!want.is_empty());
    assert_eq!(got.len(), want.len(), "{}: frame count", kind.name());
    if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{}: frame {i} differs: traced {:?} vs run 0 {:?}",
            kind.name(),
            got[i],
            want[i]
        );
    }

    // The CSV's bits column accounts for every bit of the run.
    let csv = to_csv(&trace);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let bits = header
        .iter()
        .position(|&c| c == "bits")
        .expect("bits column");
    let csv_bits: u64 = lines
        .map(|row| row.split(',').nth(bits).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(csv_bits, net.stats().bits, "{}: CSV bits", kind.name());
    assert_eq!(world.net.stats(), net.stats());
    (trace, metrics)
}

#[test]
fn a_traced_static_run_is_run_0() {
    for kind in [AlgorithmKind::Iq, AlgorithmKind::Hbc] {
        let (trace, metrics) = assert_traced_run_is_run_0(&static_world(), kind);
        // Both judge answers with the one oracle.
        let exact = trace.iter().filter(|r| r.quantile == r.truth).count();
        assert_eq!(exact as u32, metrics.exact_rounds, "{}", kind.name());
        assert_eq!(metrics.exact_rounds, metrics.total_rounds);
    }
}

#[test]
fn a_traced_run_with_every_world_flag_is_run_0() {
    let cfg = every_world_flag();
    for kind in [AlgorithmKind::Iq, AlgorithmKind::Pos] {
        assert_traced_run_is_run_0(&cfg, kind);
    }
    // The flags really act: the run rebuilds, retransmits and idles.
    let (m, net) = run_once_capture(
        &SimulationConfig { audit: true, ..cfg },
        &|q, s| AlgorithmKind::Iq.build(q, s),
        0,
    );
    assert!(m.rebuilds > 0 && m.retransmissions_per_round > 0.0);
    assert!(
        m.failed_nodes > 0,
        "1% failures over 60 sensors and 20 rounds"
    );
    let frames = net.capture();
    for kind in ["idle", "ack"] {
        assert!(frames.iter().any(|f| f.kind == kind), "no {kind} frame");
    }
    assert!(
        frames.iter().any(|f| f.phase == "rebuild"),
        "no rebuild frame"
    );
}
