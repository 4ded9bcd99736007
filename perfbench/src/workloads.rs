//! The four workloads: inputs drawn from the seed, the operation the
//! measured pass times, and the correctness gate on each operation.
//!
//! An *operation* is one call of a program entry point: `run_once` for
//! `paper-static` and `dynamic-churn`, `serve_monitored` for
//! `serve-audited`, and `wsn_check::check` on one scenario for
//! `fuzz-campaign`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use wsn_check::Tally;
use wsn_net::obs::MonitorConfig;
use wsn_net::Phase;
use wsn_sim::{
    AlgorithmKind, DataSource, DynamicsConfig, RunMetrics, Scenario, ServeQuery, SimulationConfig,
};

/// Seed whose simulated statistics are pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of all tuning; it runs unpinned.
pub const HELD_OUT_SEED: u64 = 2;

/// ε, in thousandths, of the sketch protocols in the serve query list.
const SERVE_EPS_MILLI: u32 = 100;

/// The workload names, as `--workload` takes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Table 2 world, the six paper protocols, reliable links.
    PaperStatic,
    /// Table 2 world with mobility, churn and duty-cycled radios.
    DynamicChurn,
    /// Audited multi-query serve with the monitor attached.
    ServeAudited,
    /// Tiny fuzz worlds through the full invariant battery.
    FuzzCampaign,
}

impl Name {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Name; 4] = [
        Name::PaperStatic,
        Name::DynamicChurn,
        Name::ServeAudited,
        Name::FuzzCampaign,
    ];

    /// The name on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::PaperStatic => "paper-static",
            Name::DynamicChurn => "dynamic-churn",
            Name::ServeAudited => "serve-audited",
            Name::FuzzCampaign => "fuzz-campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// One operation of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `run_once(cfg, kind, run_index)`.
    Run {
        /// Protocol.
        kind: AlgorithmKind,
        /// Run index (selects the world).
        run_index: u32,
    },
    /// `serve_monitored(cfg, queries, [], shared, run_index, monitor)`.
    Serve {
        /// Run index (selects the world).
        run_index: u32,
    },
    /// `check(scenarios[index])`.
    Scenario {
        /// Index into [`Workload::scenarios`].
        index: usize,
    },
}

/// The simulated statistics of one operation, pinned for the default
/// seed. All of them are outputs of the simulation, not host timings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Bits on air.
    pub bits: u64,
    /// Data messages.
    pub messages: u64,
    /// Joules per protocol phase, in `Phase::ALL` order.
    pub joules: [f64; Phase::COUNT],
    /// Routing-tree rebuilds.
    pub rebuilds: u64,
    /// Maximum per-sensor energy per round, in joules.
    pub hotspot_j: f64,
    /// Invariant checks performed (fuzz scenarios only).
    pub checks: u64,
}

impl SimStats {
    fn of_run(m: &RunMetrics) -> SimStats {
        SimStats {
            bits: m.phase_bits.iter().sum(),
            messages: (m.messages_per_round * m.total_rounds as f64).round() as u64,
            joules: m.phase_joules,
            rebuilds: m.rebuilds as u64,
            hotspot_j: m.max_node_energy_per_round,
            checks: 0,
        }
    }
}

/// What one call of a workload's entry point produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time of the entry-point call alone (NaN if it panicked).
    pub seconds: f64,
    /// FNV-1a of the entry point's complete output; repeats must match.
    pub digest: u64,
    /// FNV-1a of the serve report alone (the whole output elsewhere), for
    /// comparing a monitored serve run with an unmonitored one.
    pub report_digest: u64,
    /// Simulated statistics (`None` for scenarios: `check` reports no
    /// traffic, so their statistics come from the probe run).
    pub stats: Option<SimStats>,
    /// Query·rounds answered.
    pub query_rounds: u64,
    /// Checks a scenario performed.
    pub tally: Tally,
    /// Why the operation failed its gate, if it did.
    pub failure: Option<String>,
}

/// A workload: its configurations, its operations and its worlds.
pub struct Workload {
    /// Which workload.
    pub name: Name,
    /// Whether the small test sizes are in use.
    pub tiny: bool,
    /// Simulation configurations; operations index into them.
    pub cfgs: Vec<SimulationConfig>,
    /// Fuzz scenarios (empty on other workloads), parallel to `cfgs`.
    pub scenarios: Vec<Scenario>,
    /// Serve query list (empty on other workloads).
    pub queries: Vec<ServeQuery>,
    /// Operations in measurement order.
    pub ops: Vec<Op>,
    /// Distinct worlds the operations simulate, as `(cfg, run_index)`.
    pub worlds: Vec<(usize, u32)>,
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// SplitMix64: the benchmark's own input stream, independent of every
/// generator inside the program.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The simulation seed of workload `salt` under benchmark seed `seed`.
fn sim_seed(seed: u64, salt: u64) -> u64 {
    SplitMix(seed ^ salt.wrapping_mul(0xD1B54A32D192ED03)).next()
}

/// Seed of the stream that draws the fuzz campaign's scenario shapes.
const CAMPAIGN_SHAPE_SEED: u64 = 0x5EED_F022;

/// Draws one fuzz scenario's shape over the field ranges and class
/// weights of `wsn_check::gen`, from the benchmark's own stream, so a
/// change to the checker's generator cannot change this workload. The
/// caller sets the world seed.
fn draw_scenario(r: &mut SplitMix) -> Scenario {
    let nodes = 1 + r.below(40) as usize;
    let range_milli = 2000 + r.below(2001) as u32;
    let rounds = 1 + r.below(24) as u32;
    let runs = 1 + r.below(2) as u32;
    let phi_milli = match r.below(8) {
        0 => 0,
        1 => 1000,
        _ => 1 + r.below(999) as u32,
    };
    let loss_milli = match r.below(8) {
        0..=4 => 0,
        5 => 1 + r.below(300) as u32,
        6 => 300 + r.below(500) as u32,
        _ => 1000,
    };
    let retries = r.below(5) as u32;
    let recovery = r.below(4) as u32;
    let failure_milli = if r.below(5) == 0 {
        1 + r.below(50) as u32
    } else {
        0
    };
    let source = match r.below(8) {
        0..=3 => DataSource::Sinusoid {
            period: 1 + r.below(64) as u32,
            noise_permille: r.below(501) as u32,
        },
        4..=5 => DataSource::Walk {
            range_size: 2 + r.below(2047),
            step: 1 + r.below(32) as i64,
        },
        6 => DataSource::Regime {
            range_size: 2 + r.below(2047),
            phase_len: 1 + r.below(12) as u32,
            drift: r.below(17) as i64 - 8,
        },
        _ => DataSource::Pressure {
            skip: 1 + r.below(4) as u32,
            pessimistic: r.below(2) == 1,
        },
    };
    let eps_milli = match r.below(5) {
        0 => 0,
        1..=3 => 1 + r.below(250) as u32,
        _ => 251 + r.below(750) as u32,
    };
    let capacity = if r.below(4) == 0 {
        2 + r.below(31) as u32
    } else {
        0
    };
    let queries = if r.below(4) == 0 {
        2 + r.below(15) as u32
    } else {
        1
    };
    let mobility_milli = [0, 0, 250, 1000][r.below(4) as usize];
    let churn_milli = [0, 0, 0, 10, 50, 200][r.below(6) as usize];
    let drift_milli = [0, 0, 0, 100, 400, 1000][r.below(6) as usize];
    let duty_milli = [0, 0, 0, 100, 1000][r.below(5) as usize];
    Scenario {
        seed: 0,
        nodes,
        range_milli,
        rounds,
        runs,
        phi_milli,
        loss_milli,
        retries,
        recovery,
        failure_milli,
        eps_milli,
        capacity,
        queries,
        mobility_milli,
        churn_milli,
        drift_milli,
        duty_milli,
        source,
    }
}

/// The Table 2 world (1000 sensors, ρ = 35 m, synthetic τ = 125,
/// ψ = 10 %, median) with `rounds` rounds; tiny mode shrinks it to 150
/// sensors at ρ = 50 m, which keeps random placements connected.
fn table2(seed: u64, rounds: u32, tiny: bool) -> SimulationConfig {
    let base = SimulationConfig {
        seed,
        rounds,
        runs: 1,
        ..SimulationConfig::default()
    };
    if tiny {
        SimulationConfig {
            sensor_count: 150,
            radio_range: 50.0,
            ..base
        }
    } else {
        base
    }
}

/// The 8-protocol battery at distinct φ and epoch values, each query
/// listed twice so half of them take the service's dedup path.
fn serve_queries() -> Vec<ServeQuery> {
    let battery = AlgorithmKind::battery(SERVE_EPS_MILLI, 0);
    let phi = [500, 0, 1000, 250, 750, 499, 900, 100];
    let epoch = [1, 1, 2, 3, 1, 2, 4, 1];
    (0..16)
        .map(|j| ServeQuery {
            algorithm: battery[j % 8],
            phi_milli: phi[j % 8],
            epoch: epoch[j % 8],
        })
        .collect()
}

impl Workload {
    /// Builds workload `name`'s inputs from `seed`.
    pub fn new(name: Name, seed: u64, tiny: bool) -> Workload {
        let mut w = Workload {
            name,
            tiny,
            cfgs: Vec::new(),
            scenarios: Vec::new(),
            queries: Vec::new(),
            ops: Vec::new(),
            worlds: Vec::new(),
        };
        let runs = |w: &mut Workload, worlds: u32, kinds: &[AlgorithmKind]| {
            for run_index in 0..worlds {
                w.worlds.push((0, run_index));
                for &kind in kinds {
                    w.ops.push(Op::Run { kind, run_index });
                }
            }
        };
        match name {
            Name::PaperStatic => {
                w.cfgs
                    .push(table2(sim_seed(seed, 1), if tiny { 30 } else { 250 }, tiny));
                runs(&mut w, if tiny { 2 } else { 4 }, &AlgorithmKind::PAPER_SET);
            }
            Name::DynamicChurn => {
                // The `simulate --mobility --churn --duty` operating point.
                // Runs are 40 rounds (10 mobility epochs) so a measured
                // window holds enough of them for a median.
                let cfg = table2(sim_seed(seed, 2), if tiny { 12 } else { 40 }, tiny);
                let dynamics = DynamicsConfig {
                    mobility_step: 0.25 * cfg.radio_range,
                    churn: 0.01,
                    drift: 0.0,
                    duty_milli: 100,
                    epoch: Scenario::MOBILITY_EPOCH,
                };
                w.cfgs.push(SimulationConfig {
                    dynamics: Some(dynamics),
                    ..cfg
                });
                runs(
                    &mut w,
                    if tiny { 2 } else { 3 },
                    &[AlgorithmKind::Hbc, AlgorithmKind::Iq],
                );
            }
            Name::ServeAudited => {
                w.cfgs.push(SimulationConfig {
                    audit: true,
                    ..table2(sim_seed(seed, 3), if tiny { 30 } else { 250 }, tiny)
                });
                w.queries = serve_queries();
                // One world: its single operation gets every call of the
                // window, and the fastest of ~50 calls repeated better
                // between runs than three worlds' fastest of ~7 each.
                w.worlds.push((0, 0));
                w.ops.push(Op::Serve { run_index: 0 });
            }
            Name::FuzzCampaign => {
                // The campaign's shape (sizes and classes) is drawn from a
                // fixed stream; the seed draws each scenario's world. Drawing
                // the shape from the seed too moved scenarios/s by 14%
                // between seeds, more than any bound could absorb.
                let mut shape = SplitMix(CAMPAIGN_SHAPE_SEED);
                let mut worlds = SplitMix(sim_seed(seed, 4));
                for index in 0..if tiny { 24 } else { 300 } {
                    let s = Scenario {
                        seed: worlds.next(),
                        ..draw_scenario(&mut shape)
                    };
                    w.cfgs.push(s.to_config());
                    for run_index in 0..s.runs {
                        w.worlds.push((index, run_index));
                    }
                    w.scenarios.push(s);
                    w.ops.push(Op::Scenario { index });
                }
            }
        }
        w
    }

    /// The configuration operation `op` simulates.
    pub fn cfg(&self, op: Op) -> &SimulationConfig {
        match op {
            Op::Scenario { index } => &self.cfgs[index],
            _ => &self.cfgs[0],
        }
    }

    /// Simulated sensor·rounds of operation `op`. A scenario counts the
    /// solo runs of its 8-protocol battery; its parity, metamorphic and
    /// serve checks are extra work on top.
    pub fn node_rounds(&self, op: Op) -> u64 {
        let cfg = self.cfg(op);
        let base = cfg.sensor_count as u64 * cfg.rounds as u64;
        match op {
            Op::Scenario { .. } => base * cfg.runs as u64 * 8,
            _ => base,
        }
    }

    /// Calls operation `op`'s entry point once and applies the gate.
    pub fn execute(&self, op: Op) -> Outcome {
        match catch_unwind(AssertUnwindSafe(|| self.execute_inner(op))) {
            Ok(out) => out,
            Err(e) => Outcome {
                seconds: f64::NAN,
                digest: 0,
                report_digest: 0,
                stats: None,
                query_rounds: 0,
                tally: Tally::default(),
                failure: Some(format!("panic: {}", wsn_check::invariants::panic_text(&*e))),
            },
        }
    }

    fn execute_inner(&self, op: Op) -> Outcome {
        let cfg = self.cfg(op);
        match op {
            Op::Run { kind, run_index } => {
                let start = Instant::now();
                let m = black_box(wsn_sim::run_once(cfg, kind, run_index));
                let seconds = start.elapsed().as_secs_f64();
                let digest = fnv(format!("{m:?}").as_bytes());
                Outcome {
                    seconds,
                    digest,
                    report_digest: digest,
                    stats: Some(SimStats::of_run(&m)),
                    query_rounds: cfg.rounds as u64,
                    tally: Tally::default(),
                    failure: run_gate(cfg, kind, &m),
                }
            }
            Op::Serve { run_index } => {
                let mon = MonitorConfig::default();
                let start = Instant::now();
                let (report, monitor, net) = black_box(wsn_sim::serve_monitored(
                    cfg,
                    &self.queries,
                    &[],
                    true,
                    run_index,
                    Some(&mon),
                ));
                let rounds = cfg.rounds.max(1) as f64;
                let stats = SimStats {
                    bits: report.total_bits,
                    messages: report.total_messages,
                    joules: net.phases().joules(),
                    rebuilds: net.reliability_stats().rebuilds,
                    hotspot_j: net.ledger().max_sensor_consumption() / rounds,
                    checks: 0,
                };
                // Freeing the returned network (mostly audit log) is part
                // of what a caller of the entry point pays.
                drop(net);
                let seconds = start.elapsed().as_secs_f64();
                let events = monitor.as_ref().map(|m| format!("{:?}", m.events()));
                Outcome {
                    seconds,
                    digest: fnv(format!("{report:?}{events:?}").as_bytes()),
                    report_digest: fnv(format!("{report:?}").as_bytes()),
                    stats: Some(stats),
                    query_rounds: report.served,
                    tally: Tally::default(),
                    failure: serve_gate(&report)
                        .or_else(|| monitor.is_none().then(|| "no monitor returned".to_string())),
                }
            }
            Op::Scenario { index } => {
                let start = Instant::now();
                let report = black_box(wsn_check::check(&self.scenarios[index]));
                let seconds = start.elapsed().as_secs_f64();
                let t = report.tally;
                let digest = fnv(format!("{t:?}{:?}", report.violations).as_bytes());
                Outcome {
                    seconds,
                    digest,
                    report_digest: digest,
                    stats: None,
                    query_rounds: 8 * cfg.runs as u64 * cfg.rounds as u64,
                    tally: t,
                    failure: report
                        .violations
                        .first()
                        .map(|v| format!("scenario violation: {v}")),
                }
            }
        }
    }

    /// The untimed half of the gate, run once per distinct operation
    /// after its first measured call: serve runs must report the same
    /// with and without the monitor, and each scenario gets a probe run
    /// (`run_once` of one battery protocol, run 0) whose traffic stands in
    /// for the statistics `check` does not report. Returns the failure,
    /// if any, and the operation's simulated statistics.
    pub fn cross_check(&self, op: Op, first: &Outcome) -> (Option<String>, SimStats) {
        let cfg = self.cfg(op);
        let checked = catch_unwind(AssertUnwindSafe(|| match op {
            Op::Run { .. } => (None, first.stats.unwrap_or_default()),
            Op::Serve { run_index } => {
                let (plain, _) = wsn_sim::serve_capture(cfg, &self.queries, &[], true, run_index);
                let failure = (fnv(format!("{plain:?}").as_bytes()) != first.report_digest)
                    .then(|| "monitored and unmonitored serve reports differ".to_string());
                (failure, first.stats.unwrap_or_default())
            }
            Op::Scenario { index } => {
                let m = wsn_sim::run_once(cfg, self.probe_kind(index), 0);
                let t = first.tally;
                let stats = SimStats {
                    checks: t.batteries
                        + t.audit
                        + t.telemetry
                        + t.exactness
                        + t.parity
                        + t.metamorphic
                        + t.serve
                        + t.watchdog,
                    ..SimStats::of_run(&m)
                };
                let failure = (m.audit_discrepancies != 0)
                    .then(|| format!("probe audit found {} discrepancies", m.audit_discrepancies));
                (failure, stats)
            }
        }));
        checked.unwrap_or_else(|e| {
            (
                Some(format!("panic: {}", wsn_check::invariants::panic_text(&*e))),
                SimStats::default(),
            )
        })
    }

    /// The battery protocol scenario `index`'s probe run uses; cycling
    /// through the battery covers all eight across the campaign.
    pub fn probe_kind(&self, index: usize) -> AlgorithmKind {
        let s = &self.scenarios[index];
        AlgorithmKind::battery(s.eps_milli, s.capacity)[index % 8]
    }
}

/// True when every sensor reaches the sink every round: no loss, no
/// failures, no mobility or churn.
fn reliable_static(cfg: &SimulationConfig) -> bool {
    cfg.loss.is_none()
        && cfg.node_failure.is_none()
        && cfg
            .dynamics
            .as_ref()
            .is_none_or(|d| d.churn == 0.0 && d.mobility_step == 0.0)
}

/// The gate on one run: a clean audit and, on a reliable static world,
/// exact answers from exact protocols and sketches within their
/// advertised rank tolerance.
fn run_gate(cfg: &SimulationConfig, kind: AlgorithmKind, m: &RunMetrics) -> Option<String> {
    if m.audit_discrepancies != 0 {
        return Some(format!(
            "audit found {} discrepancies",
            m.audit_discrepancies
        ));
    }
    if !reliable_static(cfg) {
        return None;
    }
    if kind.is_approximate() {
        (m.max_rank_error > m.rank_tolerance).then(|| {
            format!(
                "{} rank error {} exceeds its tolerance {}",
                kind.name(),
                m.max_rank_error,
                m.rank_tolerance
            )
        })
    } else {
        (m.exact_rounds != m.total_rounds || m.rank_tolerance != 0).then(|| {
            format!(
                "{} exact in {}/{} rounds",
                kind.name(),
                m.exact_rounds,
                m.total_rounds
            )
        })
    }
}

/// The gate on a serve report: a clean audit, and every query within its
/// advertised rank tolerance (zero for the exact protocols).
pub fn serve_gate(r: &wsn_sim::ServeReport) -> Option<String> {
    if r.audit_discrepancies != 0 {
        return Some(format!(
            "serve audit found {} discrepancies",
            r.audit_discrepancies
        ));
    }
    let mut out = String::new();
    for q in &r.queries {
        let exact = !q.query.algorithm.is_approximate();
        if q.max_rank_error > q.rank_tolerance || (exact && q.rank_tolerance != 0) {
            let _ = write!(
                out,
                "slot {} {} rank error {} over tolerance {}; ",
                q.slot,
                q.query.algorithm.name(),
                q.max_rank_error,
                q.rank_tolerance
            );
        }
    }
    (!out.is_empty()).then_some(out)
}

/// The pinned line of a workload's statistics: totals over its distinct
/// operations plus a digest of every operation's statistics.
pub fn pin_line(w: &Workload, seed: u64, stats: &[SimStats]) -> String {
    let mut total = SimStats::default();
    let mut digest_input = Vec::new();
    for s in stats {
        total.bits += s.bits;
        total.messages += s.messages;
        for (t, j) in total.joules.iter_mut().zip(s.joules) {
            *t += j;
        }
        total.rebuilds += s.rebuilds;
        total.checks += s.checks;
        for word in [
            s.bits,
            s.messages,
            s.rebuilds,
            s.checks,
            s.hotspot_j.to_bits(),
        ]
        .into_iter()
        .chain(s.joules.map(f64::to_bits))
        {
            digest_input.extend_from_slice(&word.to_le_bytes());
        }
    }
    let joules: Vec<String> = total.joules.iter().map(|j| format!("{j:e}")).collect();
    format!(
        "{} {} seed={seed} ops={} bits={} messages={} joules={} rebuilds={} checks={} hotspot_mj_per_round={} digest={:016x}",
        w.name.as_str(),
        if w.tiny { "tiny" } else { "full" },
        stats.len(),
        total.bits,
        total.messages,
        joules.join(","),
        total.rebuilds,
        total.checks,
        hotspot_mj(stats),
        fnv(&digest_input),
    )
}

/// Mean over operations of the paper's maximum per-sensor energy per
/// round, in millijoules.
pub fn hotspot_mj(stats: &[SimStats]) -> f64 {
    stats.iter().map(|s| s.hotspot_j).sum::<f64>() * 1e3 / stats.len().max(1) as f64
}

/// The pinned line for `(workload, size)` from `pins.txt`, if any.
pub fn pinned(w: &Workload) -> Option<&'static str> {
    let prefix = format!(
        "{} {} seed={DEFAULT_SEED} ",
        w.name.as_str(),
        if w.tiny { "tiny" } else { "full" }
    );
    include_str!("../pins.txt")
        .lines()
        .find(|l| l.starts_with(&prefix))
}
