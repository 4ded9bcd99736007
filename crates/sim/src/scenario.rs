//! Fuzzable scenario descriptions — the bridge between the `wsn-check`
//! scenario fuzzer and [`SimulationConfig`].
//!
//! A [`Scenario`] is a *flat, all-integer* description of one simulated
//! world: topology density, sink placement seed, data source, loss rate,
//! ARQ budget, node-failure schedule and quantile parameter. Keeping every
//! field an integer makes scenarios bit-for-bit reproducible across
//! serialization (no float formatting ambiguity) and gives the shrinker a
//! discrete lattice to walk. Probabilities and the quantile φ are stored in
//! thousandths (`*_milli`), the radio range as a density factor in
//! thousandths of the mean node spacing.

use wsn_data::pressure::{PressureConfig, RangeSetting};
use wsn_data::synthetic::SyntheticConfig;
use wsn_net::ReliabilityConfig;

use crate::config::{AlgorithmKind, ConfigError, DatasetSpec, SimulationConfig};
use crate::runner::AREA;
use crate::service::ServeQuery;

/// Which measurement process drives the scenario. A discrete, integer-only
/// mirror of [`DatasetSpec`] (which holds floats and nested configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Synthetic sinusoid (§5.1.2): period τ in rounds, noise ψ in
    /// thousandths of the sine amplitude.
    Sinusoid {
        /// Period τ in rounds (≥ 1).
        period: u32,
        /// Noise ψ in permille of the amplitude (Table 2's 0…50 % is
        /// 0…500 here).
        noise_permille: u32,
    },
    /// Per-node bounded random walks over `[0, range_size)`.
    Walk {
        /// Number of values in the universe (≥ 2).
        range_size: u64,
        /// Maximum per-round step (≥ 1).
        step: i64,
    },
    /// Calm-drift / turbulence regime switching.
    Regime {
        /// Number of values in the universe (≥ 2).
        range_size: u64,
        /// Rounds per regime phase (≥ 1).
        phase_len: u32,
        /// Per-round drift during calm phases.
        drift: i64,
    },
    /// Barometric-pressure trace slices (§5.1.3), SOM placement.
    Pressure {
        /// Sampling stride (round `t` reads raw step `t·skip`).
        skip: u32,
        /// `true` = pessimistic range scaling, `false` = optimistic.
        pessimistic: bool,
    },
}

impl DataSource {
    /// Short stable name used by repro lines and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            DataSource::Sinusoid { .. } => "sinusoid",
            DataSource::Walk { .. } => "walk",
            DataSource::Regime { .. } => "regime",
            DataSource::Pressure { .. } => "pressure",
        }
    }
}

/// One fully-described fuzz scenario. See the module docs for the integer
/// encoding conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Master seed: drives placement (sink included), dataset generation,
    /// loss/failure schedules — everything stochastic.
    pub seed: u64,
    /// Number of sensor nodes (≥ 1; the sink is always added on top).
    pub nodes: usize,
    /// Radio range as a factor of the mean node spacing
    /// `AREA / sqrt(nodes + 1)`, in thousandths (2000 = 2×spacing).
    pub range_milli: u32,
    /// Rounds per run (≥ 1).
    pub rounds: u32,
    /// Simulation runs (topology re-drawn between runs, ≥ 1).
    pub runs: u32,
    /// Quantile parameter φ in thousandths, clamped to `[0, 1000]` —
    /// the boundaries are legal: φ = 0 targets rank 1 (the minimum) and
    /// φ = 1 targets rank n (the maximum).
    pub phi_milli: u32,
    /// Bernoulli message-loss probability in thousandths (0 = reliable
    /// links, 1000 = every frame lost).
    pub loss_milli: u32,
    /// ARQ retransmission budget per data frame.
    pub retries: u32,
    /// End-to-end wave-recovery passes.
    pub recovery: u32,
    /// Per-round crash-stop node-failure probability in thousandths.
    pub failure_milli: u32,
    /// Sketch-family rank tolerance ε in thousandths (used by the QD/GKS
    /// battery members; the exact battery ignores it). 100 = the default
    /// 10 % rank error.
    pub eps_milli: u32,
    /// GKS summary capacity override in entries; 0 derives the capacity
    /// from the configured maximum payload size.
    pub capacity: u32,
    /// Concurrent continuous queries for serve-mode invariants (1 = the
    /// classic single-query world; the multi-query workload is derived
    /// deterministically by [`Scenario::workload`]).
    pub queries: u32,
    /// Waypoint-mobility speed in thousandths of the radio range per
    /// mobility epoch (0 = static placement, 1000 = a full radio range
    /// per epoch). Scenarios use a fixed epoch of
    /// [`Scenario::MOBILITY_EPOCH`] rounds.
    pub mobility_milli: u32,
    /// Per-round churn probability in thousandths (sensors toggle between
    /// departed and joined; 0 = fixed population).
    pub churn_milli: u32,
    /// Link-drift amplitude in thousandths: the loss probability
    /// random-walks within `loss ± drift`. Without link loss
    /// (`loss_milli == 0`) there is no loss process to drive and drift is
    /// inert by definition.
    pub drift_milli: u32,
    /// Duty-cycle listen fraction in per-mille: idle-listen joules charged
    /// to every live sensor each round (0 = no idle radio).
    pub duty_milli: u32,
    /// The measurement process.
    pub source: DataSource,
}

impl Scenario {
    /// The quantile parameter φ as a float in `[0, 1]`. The closed
    /// boundaries map to the extreme order statistics: `0` → rank 1,
    /// `1000` → rank n ([`cqp_core::rank::rank_of_phi`] pins the clamp).
    pub fn phi(&self) -> f64 {
        self.phi_milli.min(1000) as f64 / 1000.0
    }

    /// The deterministic multi-query workload of this scenario:
    /// `queries` entries cycling through the full 8-protocol battery with
    /// mixed φ (boundaries included) and mixed epochs, so a 16-query
    /// workload covers every protocol twice — duplicated specs exercise
    /// the service layer's dedup path.
    pub fn workload(&self) -> Vec<ServeQuery> {
        let battery = AlgorithmKind::battery(self.eps_milli, self.capacity);
        let phi = self.phi_milli.min(1000);
        (0..self.queries.max(1))
            .map(|j| {
                let m = (j % 8) as usize;
                ServeQuery {
                    algorithm: battery[m],
                    phi_milli: [phi, 0, 1000, 250, 750, (phi * 3) % 1001, 900, 100][m],
                    epoch: [1, 1, 2, 3, 1, 2, 4, 1][m],
                }
            })
            .collect()
    }

    /// The radio range in meters: `range_milli/1000 ×` the mean node
    /// spacing of a uniform placement, capped at the deployment diagonal
    /// (beyond which every node hears every other).
    pub fn radio_range(&self) -> f64 {
        let spacing = AREA / ((self.nodes + 1) as f64).sqrt();
        let range = self.range_milli as f64 / 1000.0 * spacing;
        range.min(AREA * std::f64::consts::SQRT_2)
    }

    /// Rounds per mobility epoch in scenario-driven worlds: positions
    /// advance and the disk graph re-derives every 4 rounds.
    pub const MOBILITY_EPOCH: u32 = 4;

    /// True iff the scenario guarantees that every sensor's measurement
    /// reaches the sink every round: no link loss, no node failures, no
    /// churn and no mobility. Only then must every protocol answer exactly
    /// (the paper's operating assumption). Churn and mobility can orphan
    /// or remove contributors mid-stream, so those worlds check the
    /// accounting/termination invariants instead; drift is inert without
    /// loss, and a duty-cycled radio only spends idle joules — neither
    /// weakens exactness.
    pub fn is_reliable_world(&self) -> bool {
        self.loss_milli == 0
            && self.failure_milli == 0
            && self.churn_milli == 0
            && self.mobility_milli == 0
    }

    /// True iff any dynamic-world process is active.
    pub fn is_dynamic_world(&self) -> bool {
        self.mobility_milli > 0
            || self.churn_milli > 0
            || self.drift_milli > 0
            || self.duty_milli > 0
    }

    /// Checks that the scenario expands into a runnable configuration:
    /// [`SimulationConfig::validate`] on [`Scenario::to_config`]. Rejects,
    /// for instance, zero nodes, zero runs or a zero radio range, which
    /// would otherwise panic inside every protocol of a battery.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.to_config().validate()
    }

    /// Expands the scenario into a full [`SimulationConfig`]. The audit
    /// layer is always enabled — every fuzz invariant battery replays the
    /// transmission log through the energy auditor.
    pub fn to_config(&self) -> SimulationConfig {
        let dataset = match self.source {
            DataSource::Sinusoid {
                period,
                noise_permille,
            } => DatasetSpec::Synthetic(SyntheticConfig {
                period: period.max(1),
                noise_percent: noise_permille as f64 / 10.0,
                ..SyntheticConfig::default()
            }),
            DataSource::Walk { range_size, step } => DatasetSpec::RandomWalk {
                range_size: range_size.max(2),
                step: step.max(1),
            },
            DataSource::Regime {
                range_size,
                phase_len,
                drift,
            } => DatasetSpec::Regime {
                range_size: range_size.max(2),
                phase_len: phase_len.max(1),
                drift,
            },
            DataSource::Pressure { skip, pessimistic } => {
                let skip = skip.max(1);
                DatasetSpec::Pressure(PressureConfig {
                    sensor_count: self.nodes,
                    steps: self.rounds as usize * skip as usize + 1,
                    skip,
                    range: if pessimistic {
                        RangeSetting::Pessimistic
                    } else {
                        RangeSetting::Optimistic
                    },
                    ..PressureConfig::default()
                })
            }
        };
        SimulationConfig {
            sensor_count: self.nodes,
            radio_range: self.radio_range(),
            rounds: self.rounds,
            runs: self.runs,
            phi: self.phi(),
            seed: self.seed,
            loss: if self.loss_milli == 0 {
                None
            } else {
                Some((self.loss_milli.min(1000)) as f64 / 1000.0)
            },
            reliability: ReliabilityConfig::recovering(self.retries, self.recovery),
            node_failure: if self.failure_milli == 0 {
                None
            } else {
                Some((self.failure_milli.min(1000)) as f64 / 1000.0)
            },
            dynamics: if !self.is_dynamic_world() {
                None
            } else {
                Some(crate::config::DynamicsConfig {
                    mobility_step: self.mobility_milli.min(1000) as f64 / 1000.0
                        * self.radio_range(),
                    churn: self.churn_milli.min(1000) as f64 / 1000.0,
                    drift: self.drift_milli.min(1000) as f64 / 1000.0,
                    duty_milli: self.duty_milli.min(1000),
                    epoch: Self::MOBILITY_EPOCH,
                })
            },
            audit: true,
            ..SimulationConfig::default()
        }
        .with_dataset(dataset)
    }
}

impl SimulationConfig {
    /// Replaces the dataset (builder-style helper for scenario expansion
    /// and sweeps).
    pub fn with_dataset(mut self, dataset: DatasetSpec) -> Self {
        self.dataset = dataset;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario {
            seed: 7,
            nodes: 20,
            range_milli: 2500,
            rounds: 8,
            runs: 1,
            phi_milli: 500,
            loss_milli: 0,
            retries: 0,
            recovery: 0,
            failure_milli: 0,
            eps_milli: 100,
            capacity: 0,
            queries: 1,
            mobility_milli: 0,
            churn_milli: 0,
            drift_milli: 0,
            duty_milli: 0,
            source: DataSource::Sinusoid {
                period: 32,
                noise_permille: 100,
            },
        }
    }

    #[test]
    fn expansion_mirrors_the_scenario() {
        let cfg = base().to_config();
        assert_eq!(cfg.sensor_count, 20);
        assert_eq!(cfg.rounds, 8);
        assert_eq!(cfg.runs, 1);
        assert_eq!(cfg.phi, 0.5);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.loss.is_none());
        assert!(cfg.node_failure.is_none());
        assert!(cfg.audit, "fuzz batteries always audit");
        match cfg.dataset {
            DatasetSpec::Synthetic(s) => {
                assert_eq!(s.period, 32);
                assert_eq!(s.noise_percent, 10.0);
            }
            other => panic!("wrong dataset {other:?}"),
        }
    }

    #[test]
    fn probabilities_convert_from_milli() {
        let s = Scenario {
            loss_milli: 250,
            failure_milli: 10,
            ..base()
        };
        let cfg = s.to_config();
        assert_eq!(cfg.loss, Some(0.25));
        assert_eq!(cfg.node_failure, Some(0.01));
        assert!(!s.is_reliable_world());
        assert!(base().is_reliable_world());
    }

    #[test]
    fn radio_range_scales_with_density() {
        let sparse = Scenario {
            nodes: 40,
            ..base()
        };
        let dense = Scenario { nodes: 3, ..base() };
        assert!(dense.radio_range() > sparse.radio_range());
        // A single sensor always ends up fully connected.
        let single = Scenario {
            nodes: 1,
            range_milli: 2000,
            ..base()
        };
        assert!(single.radio_range() > AREA);
    }

    #[test]
    fn pressure_slices_cover_the_requested_rounds() {
        let s = Scenario {
            source: DataSource::Pressure {
                skip: 3,
                pessimistic: true,
            },
            ..base()
        };
        match s.to_config().dataset {
            DatasetSpec::Pressure(p) => {
                assert_eq!(p.sensor_count, 20);
                assert_eq!(p.skip, 3);
                assert!(p.steps >= 8 * 3);
                assert_eq!(p.range, RangeSetting::Pessimistic);
            }
            other => panic!("wrong dataset {other:?}"),
        }
    }

    #[test]
    fn phi_boundaries_are_legal_and_out_of_range_clamps() {
        // φ = 0 and φ = 1 are valid quantile parameters (rank 1 / rank n)
        // and must survive the conversion untouched.
        assert_eq!(
            Scenario {
                phi_milli: 0,
                ..base()
            }
            .phi(),
            0.0
        );
        assert_eq!(
            Scenario {
                phi_milli: 1000,
                ..base()
            }
            .phi(),
            1.0
        );
        // Out-of-range encodings clamp to the maximum, not past it.
        assert_eq!(
            Scenario {
                phi_milli: 5000,
                ..base()
            }
            .phi(),
            1.0
        );
    }

    #[test]
    fn dynamics_expand_from_milli_knobs() {
        let s = Scenario {
            mobility_milli: 250,
            churn_milli: 10,
            drift_milli: 400,
            duty_milli: 100,
            loss_milli: 200,
            ..base()
        };
        assert!(s.is_dynamic_world());
        assert!(!s.is_reliable_world());
        let d = s.to_config().dynamics.expect("dynamic world");
        assert!((d.mobility_step - 0.25 * s.radio_range()).abs() < 1e-12);
        assert_eq!(d.churn, 0.01);
        assert_eq!(d.drift, 0.4);
        assert_eq!(d.duty_milli, 100);
        assert_eq!(d.epoch, Scenario::MOBILITY_EPOCH);
        // The static scenario expands to no dynamics at all.
        assert!(!base().is_dynamic_world());
        assert!(base().to_config().dynamics.is_none());
        // Drift without loss is inert, and duty only spends idle joules:
        // neither demotes the world from the exactness bar.
        assert!(Scenario {
            drift_milli: 500,
            duty_milli: 300,
            ..base()
        }
        .is_reliable_world());
        // Churn and mobility do demote it.
        assert!(!Scenario {
            churn_milli: 5,
            ..base()
        }
        .is_reliable_world());
        assert!(!Scenario {
            mobility_milli: 100,
            ..base()
        }
        .is_reliable_world());
    }

    #[test]
    fn workload_cycles_protocols_phis_and_epochs() {
        let s = Scenario {
            queries: 16,
            ..base()
        };
        let w = s.workload();
        assert_eq!(w.len(), 16);
        // Two full battery cycles: entry j and j+8 are identical specs,
        // which is exactly what exercises the dedup path.
        for j in 0..8 {
            assert_eq!(w[j], w[j + 8]);
        }
        // The boundary φ values are in the workload by construction.
        assert!(w.iter().any(|q| q.phi_milli == 0));
        assert!(w.iter().any(|q| q.phi_milli == 1000));
        // Mixed epochs, including every-round queries.
        assert!(w.iter().any(|q| q.epoch == 1));
        assert!(w.iter().any(|q| q.epoch > 1));
        // All 8 protocols appear.
        let names: std::collections::BTreeSet<&str> =
            w.iter().map(|q| q.algorithm.name()).collect();
        assert_eq!(names.len(), 8);
        // queries = 0 degrades to a single-query workload.
        assert_eq!(
            Scenario {
                queries: 0,
                ..base()
            }
            .workload()
            .len(),
            1
        );
    }
}
