//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//! ```
//!
//! With `--trace 0` it sets every world of the workload up several times
//! (`setup_s`), then calls the workload's entry point operation after
//! operation for `--seconds`, applies the correctness gate to every call,
//! and prints the end-to-end metrics, with host times scaled by a fixed
//! reference computation run throughout the window. With `--trace 1` it replays one
//! pass of the workload through each layer's public calls with spans
//! around them, checks that the replay simulated exactly what the
//! untraced calls did, prints the per-layer metrics, and writes the spans
//! to `<out>/spans-<workload>-seed<n>.jsonl`.
//!
//! The last line of standard output is the result record
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! `{"_meta": ...}` with the host, build, sample counts and quartiles.
//! The exit code is 0 only when no operation failed.

mod json;
mod meta;
mod reference;
mod stats;
mod trace;
mod workloads;
mod world;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use reference::Reference;
use stats::{median, quartiles, tail};
use trace::Tracer;
use workloads::{fnv, hotspot_mj, pin_line, pinned, Name, Op, Outcome, SimStats, Workload};
use wsn_net::{EnergyAuditor, Phase};

const USAGE: &str =
    "usage: perfbench --workload <paper-static|dynamic-churn|serve-audited|fuzz-campaign> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--out <dir>]";

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut out) = (false, PathBuf::from("perfbench/out"));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Name::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--tiny" => tiny = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        out,
    })
}

/// What a run prints.
struct Report {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
    /// Extra `_meta` entries.
    meta: Vec<(String, Json)>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            meta: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.failures.push(what);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.workload, args.seed, args.tiny);
    let mut report = if args.trace {
        traced(&w, &args)
    } else {
        measured(&w, &args)
    };
    let failed = report.failures.len() as u64;
    let mut meta = vec![
        ("workload".to_string(), Json::Str(w.name.as_str().into())),
        ("seed".into(), Json::Int(args.seed)),
        (
            "held_out_seed".into(),
            Json::Bool(args.seed == workloads::HELD_OUT_SEED),
        ),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("tiny".into(), Json::Bool(args.tiny)),
        ("git_rev".into(), Json::Str(meta::git_rev())),
        ("rustc".into(), Json::Str(meta::rustc_version())),
        ("cpu".into(), Json::Str(meta::cpu_model())),
        ("nproc".into(), Json::Int(meta::nproc() as u64)),
        (
            "error_rate".into(),
            Json::Num(failed as f64 / report.attempted.max(1) as f64),
        ),
        (
            "failures".into(),
            Json::Arr(
                report
                    .failures
                    .iter()
                    .take(20)
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
    ];
    meta.append(&mut report.meta);
    println!("{}", Json::obj([("_meta", Json::Obj(meta))]).compact());
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let record = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(report.attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", record.compact());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn quartile_json(samples: &[f64]) -> Json {
    Json::Arr(quartiles(samples).map(Json::Num).to_vec())
}

/// Unmonitored/monitored serve pairs per operation in the traced run.
const SERVE_PAIRS: usize = 2;

/// Set-up repeats made before the measured window opens; one more
/// follows every complete pass, so the repeats spread over the window.
const SETUP_LEAD_REPEATS: usize = 3;

/// Times the set-up of every world of the workload once.
fn setup_once(w: &Workload, reference: &mut Reference) -> f64 {
    let mut seconds = 0.0;
    for &(c, run_index) in &w.worlds {
        reference.tick();
        let start = Instant::now();
        world::setup(&w.cfgs[c], run_index);
        seconds += start.elapsed().as_secs_f64();
    }
    seconds
}

/// The untimed half of the gate for each operation, given its first
/// call's outcome; returns the operation's simulated statistics.
fn cross_check(w: &Workload, first: &[Outcome], report: &mut Report) -> Vec<SimStats> {
    w.ops
        .iter()
        .zip(first)
        .enumerate()
        .map(|(i, (&op, f))| {
            let (failure, stats) = w.cross_check(op, f);
            if let Some(failure) = failure {
                report.fail(format!("op {i}: {failure}"));
            }
            stats
        })
        .collect()
}

/// The untraced run: the measured window with set-up repeats between
/// its passes, then the untimed checks and the pinned pass.
fn measured(w: &Workload, args: &Args) -> Report {
    let mut report = Report::new();

    // The measured window: every operation in order, over and over, until
    // the window closes; the first pass always completes so every
    // operation has a sample.
    let n = w.ops.len();
    let mut reference = Reference::default();
    reference.call();
    let mut setup: Vec<f64> = (0..SETUP_LEAD_REPEATS)
        .map(|_| setup_once(w, &mut reference))
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Outcome> = Vec::with_capacity(n);
    let mut complete_passes = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    'window: for pass in 0.. {
        for (i, &op) in w.ops.iter().enumerate() {
            if pass > 0 && Instant::now() >= deadline {
                break 'window;
            }
            reference.tick();
            let out = w.execute(op);
            samples[i].push(out.seconds);
            report.attempted += 1;
            if let Some(f) = &out.failure {
                report.fail(format!("op {i}: {f}"));
            }
            if pass == 0 {
                first.push(out);
            } else if first[i].digest != out.digest {
                report.fail(format!("op {i}: output differs from its first call"));
            }
        }
        complete_passes += 1;
        setup.push(setup_once(w, &mut reference));
    }
    let sim = cross_check(w, &first, &mut report);

    // The default seed's operations run on every seed, untimed, so drift
    // in the simulated statistics fails every run, not only default-seed
    // ones. They also give the hotspot figure: fixed worlds keep that
    // simulated metric free of seed-to-seed topology variance.
    let pinned_sim = if args.seed == workloads::DEFAULT_SEED {
        sim.clone()
    } else {
        let pw = Workload::new(w.name, workloads::DEFAULT_SEED, w.tiny);
        let outs: Vec<Outcome> = pw.ops.iter().map(|&op| pw.execute(op)).collect();
        for (i, out) in outs.iter().enumerate() {
            report.attempted += 1;
            if let Some(f) = &out.failure {
                report.fail(format!("default-seed op {i}: {f}"));
            }
        }
        cross_check(&pw, &outs, &mut report)
    };
    check_pins(w, &pinned_sim, &mut report);

    // An operation's cost is its fastest call: on a shared host, calls are
    // slowed in bursts, and the minimum of a handful of calls spread over
    // the window repeats far better between runs than their median. The
    // reference scales the costs to one host speed.
    let scale = reference.scale();
    let best: Vec<f64> = samples
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min) * scale)
        .collect();
    let busy: f64 = best.iter().sum();
    let node_rounds: u64 = w.ops.iter().map(|&op| w.node_rounds(op)).sum();
    let query_rounds: u64 = first.iter().map(|f| f.query_rounds).sum();
    let op_ms: Vec<f64> = best.iter().map(|b| b * 1e3).collect();
    let (tail_ms, tail_pct, tail_beyond) = tail(&op_ms);
    let calls: usize = samples.iter().map(Vec::len).sum();
    // Quartiles over operations of the same per-operation costs the
    // metrics sum.
    let op_ns: Vec<f64> = w
        .ops
        .iter()
        .zip(&best)
        .map(|(&op, b)| b * 1e9 / w.node_rounds(op) as f64)
        .collect();
    let op_qr: Vec<f64> = first
        .iter()
        .zip(&best)
        .map(|(f, b)| f.query_rounds as f64 / b)
        .collect();
    let op_rate: Vec<f64> = best.iter().map(|b| 1.0 / b).collect();
    let setup: Vec<f64> = setup.iter().map(|s| s * scale).collect();
    let hotspots: Vec<f64> = pinned_sim.iter().map(|s| s.hotspot_j * 1e3).collect();
    let peak = meta::peak_rss_mb();

    report.metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("ns_per_node_round", busy * 1e9 / node_rounds as f64, "ns"),
        ("query_rounds_per_s", query_rounds as f64 / busy, "1/s"),
        ("scenarios_per_s", n as f64 / busy, "1/s"),
        ("scenario_p50_ms", median(&op_ms), "ms"),
        ("scenario_tail_ms", tail_ms, "ms"),
        ("peak_rss_mb", peak, "MiB"),
        ("hotspot_mj_per_round", hotspot_mj(&pinned_sim), "mJ"),
    ];
    report.meta.extend([
        (
            "hotspot_mj_per_round_this_seed".into(),
            Json::Num(hotspot_mj(&sim)),
        ),
        (
            "reference".into(),
            Json::obj([
                ("nominal_s", Json::Num(reference::NOMINAL_S)),
                ("sensitivity", Json::Num(reference::SENSITIVITY)),
                ("best_s", Json::Num(reference.best())),
                ("calls", Json::Int(reference.calls())),
                ("scale", Json::Num(scale)),
                ("unscaled_busy_s", Json::Num(busy / scale)),
            ]),
        ),
        (
            "samples".into(),
            Json::obj([
                ("setup_repeats", Json::Int(setup.len() as u64)),
                ("operations", Json::Int(n as u64)),
                ("calls", Json::Int(calls as u64)),
                ("complete_passes", Json::Int(complete_passes)),
                ("worlds", Json::Int(w.worlds.len() as u64)),
            ]),
        ),
        (
            "tail".into(),
            Json::obj([
                ("percentile", Json::Num(tail_pct)),
                ("samples_beyond", Json::Int(tail_beyond as u64)),
            ]),
        ),
        (
            "quartiles".into(),
            Json::obj([
                ("setup_s", quartile_json(&setup)),
                ("ns_per_node_round", quartile_json(&op_ns)),
                ("query_rounds_per_s", quartile_json(&op_qr)),
                ("scenarios_per_s", quartile_json(&op_rate)),
                ("scenario_p50_ms", quartile_json(&op_ms)),
                ("scenario_tail_ms", quartile_json(&op_ms)),
                ("peak_rss_mb", quartile_json(&[peak])),
                ("hotspot_mj_per_round", quartile_json(&hotspots)),
            ]),
        ),
    ]);
    report
}

/// Compares the default seed's statistics with `pins.txt`; any drift,
/// or a missing pin, fails the run.
fn check_pins(w: &Workload, pinned_sim: &[SimStats], report: &mut Report) {
    let line = pin_line(w, workloads::DEFAULT_SEED, pinned_sim);
    let status = match pinned(w) {
        Some(pin) if pin == line => "match",
        Some(pin) => {
            report.fail(format!(
                "pinned statistics drifted:\n  pinned {pin}\n  now    {line}"
            ));
            "drift"
        }
        None => {
            report.fail(format!("no pin for the default seed; measured {line}"));
            "missing"
        }
    };
    report.meta.push(("pin".into(), Json::Str(line)));
    report
        .meta
        .push(("pin_status".into(), Json::Str(status.into())));
}

/// Counts the traced replay accumulates.
#[derive(Default)]
struct Counts {
    messages: u64,
    bits: u64,
    values: u64,
    phase_bits: [u64; Phase::COUNT],
    rebuilds: u64,
    audit_events: u64,
    served: u64,
    executions: u64,
    plan_hits: u64,
    plan_misses: u64,
    health_events: u64,
    /// Summed fastest unmonitored and monitored serve times.
    serve_s: f64,
    monitored_s: f64,
    tally: wsn_check::Tally,
}

/// The digest of the untraced calls one traced operation replays, and
/// the gate's verdict on them.
fn reference(w: &Workload, op: Op) -> (u64, Option<String>) {
    match op {
        Op::Run { .. } => {
            let out = w.execute(op);
            (out.digest, out.failure)
        }
        Op::Serve { run_index } => {
            let cfg = w.cfg(op);
            let mon = wsn_net::obs::MonitorConfig::default();
            let (mut plain, mut monitored) = (None, None);
            for k in 0..2 * SERVE_PAIRS {
                if (k + run_index as usize).is_multiple_of(2) {
                    let (report, net) =
                        wsn_sim::serve_capture(cfg, &w.queries, &[], true, run_index);
                    drop(net);
                    plain = Some(report);
                } else {
                    drop(monitored.take());
                    monitored = Some(wsn_sim::serve_monitored(
                        cfg,
                        &w.queries,
                        &[],
                        true,
                        run_index,
                        Some(&mon),
                    ));
                }
            }
            let (report, monitor, net) = monitored.expect("monitored serve runs");
            let audit = EnergyAuditor::verify(&net);
            drop(net);
            let failure = workloads::serve_gate(&report).or_else(|| {
                (plain.as_ref() != Some(&report))
                    .then(|| "monitored and unmonitored serve reports differ".to_string())
            });
            let events = monitor.map(|m| m.events().len());
            let digest = fnv(format!("{report:?}{events:?}{}", audit.events).as_bytes());
            (digest, failure)
        }
        Op::Scenario { index } => {
            let out = w.execute(op);
            let probe = wsn_sim::run_once(w.cfg(op), w.probe_kind(index), 0);
            (
                fnv(format!("{}{probe:?}", out.digest).as_bytes()),
                out.failure,
            )
        }
    }
}

/// Replays one operation with spans around each layer call; returns the
/// digest [`reference`] computes for the same calls.
fn replay(
    w: &Workload,
    op: Op,
    t: &mut Tracer,
    attempts: &mut world::Attempts,
    c: &mut Counts,
) -> u64 {
    let cfg = w.cfg(op);
    let add_run = |m: &wsn_sim::RunMetrics, rc: world::RunCounts, c: &mut Counts| {
        c.messages += rc.messages;
        c.bits += rc.bits;
        c.values += rc.values;
        c.audit_events += rc.audit_events;
        c.rebuilds += m.rebuilds as u64;
        for (p, b) in c.phase_bits.iter_mut().zip(m.phase_bits) {
            *p += b;
        }
    };
    match op {
        Op::Run { kind, run_index } => {
            let (m, rc) = world::run_traced(cfg, kind, run_index, t, attempts);
            add_run(&m, rc, c);
            fnv(format!("{m:?}").as_bytes())
        }
        Op::Serve { run_index } => {
            // Unmonitored and monitored runs alternate, `SERVE_PAIRS` of
            // each, and the fastest of each feeds `obs.monitor_s`: the
            // second of two 180 MB runs reuses freed pages, and one pair's
            // difference is lost in the noise.
            let mon = wsn_net::obs::MonitorConfig::default();
            let (mut plain_s, mut monitored_s) = (f64::INFINITY, f64::INFINITY);
            let mut monitored = None;
            for k in 0..2 * SERVE_PAIRS {
                let start = Instant::now();
                if (k + run_index as usize).is_multiple_of(2) {
                    let (_, net) = t.span("sim.serve", || {
                        wsn_sim::serve_capture(cfg, &w.queries, &[], true, run_index)
                    });
                    plain_s = plain_s.min(start.elapsed().as_secs_f64());
                    t.span("net.drop", || drop(net));
                } else {
                    if let Some(old) = monitored.take() {
                        t.span("net.drop", || drop(old));
                    }
                    let start = Instant::now();
                    monitored = Some(t.span("obs.serve_monitored", || {
                        wsn_sim::serve_monitored(cfg, &w.queries, &[], true, run_index, Some(&mon))
                    }));
                    monitored_s = monitored_s.min(start.elapsed().as_secs_f64());
                }
            }
            c.serve_s += plain_s;
            c.monitored_s += monitored_s;
            let (report, monitor, net) = monitored.expect("monitored serve runs");
            let audit = t.span("net.audit_verify", || EnergyAuditor::verify(&net));
            let stats = net.stats();
            c.messages += stats.messages;
            c.bits += stats.bits;
            c.values += stats.values;
            for (p, b) in c.phase_bits.iter_mut().zip(net.phases().bits()) {
                *p += b;
            }
            c.rebuilds += net.reliability_stats().rebuilds;
            t.span("net.drop", || drop(net));
            c.audit_events += audit.events;
            c.served += report.served;
            c.executions += report.executions;
            c.plan_hits += report.plan_hits;
            c.plan_misses += report.plan_misses;
            let events = monitor.map(|m| m.events().len());
            c.health_events += events.unwrap_or(0) as u64;
            fnv(format!("{report:?}{events:?}{}", audit.events).as_bytes())
        }
        Op::Scenario { index } => {
            let scenario = &w.scenarios[index];
            let report = t.span("check.scenario", || wsn_check::check(scenario));
            c.tally.add(&report.tally);
            let digest = fnv(format!("{:?}{:?}", report.tally, report.violations).as_bytes());
            let (m, rc) = world::run_traced(cfg, w.probe_kind(index), 0, t, attempts);
            add_run(&m, rc, c);
            fnv(format!("{digest}{m:?}").as_bytes())
        }
    }
}

/// The traced run: the traced set-up of every world, then each
/// operation twice, untraced and traced, alternating which goes first,
/// with the two compared digest by digest.
fn traced(w: &Workload, args: &Args) -> Report {
    let mut report = Report::new();
    let mut t = Tracer::default();
    let mut attempts = world::Attempts::default();
    for (i, &(c, run_index)) in w.worlds.iter().enumerate() {
        t.set_op(i as u64);
        let root = t.enter("setup");
        world::setup_traced(&w.cfgs[c], run_index, &mut t, &mut attempts);
        t.exit(root);
    }
    // Set-up figures come from the traced set-up pass alone, so they
    // describe the same worlds `setup_s` times.
    let setup_spans = t.totals();
    let worlds_per_placement = attempts.worlds as f64 / attempts.placements.max(1) as f64;

    let mut counts = Counts::default();
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    for (i, &op) in w.ops.iter().enumerate() {
        let mut digests = [0u64; 2];
        for side in [i % 2, 1 - i % 2] {
            let start = Instant::now();
            if side == 0 {
                let (digest, failure) = reference(w, op);
                untraced_wall += start.elapsed().as_secs_f64();
                if let Some(f) = failure {
                    report.fail(format!("op {i}: {f}"));
                }
                digests[0] = digest;
            } else {
                t.set_op((w.worlds.len() + i) as u64);
                let root = t.enter("op");
                digests[1] = replay(w, op, &mut t, &mut attempts, &mut counts);
                t.exit(root);
                traced_wall += start.elapsed().as_secs_f64();
            }
            report.attempted += 1;
        }
        if digests[0] != digests[1] {
            report.fail(format!(
                "op {i}: traced replay differs from the untraced calls"
            ));
        }
    }

    // The checker's own generator, once per scenario. The campaign draws
    // its scenarios itself and never calls it, so it is timed apart from
    // the replay and stays out of `trace.overhead`.
    for (index, s) in w.scenarios.iter().enumerate() {
        t.set_op((w.worlds.len() + w.ops.len() + index) as u64);
        let root = t.enter("gen");
        t.span("check.gen", || {
            black_box(wsn_check::gen::scenario(s.seed, index as u64));
        });
        t.exit(root);
    }

    let path = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", w.name.as_str(), args.seed));
    if let Err(e) = t.write_jsonl(&path) {
        report.fail(format!("writing {}: {e}", path.display()));
    }

    let setup_secs = |name: &str| {
        setup_spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 * 1e-9)
    };
    let secs = |name: &str| t.seconds(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let core_round = secs("core.round");
    let dynamics = secs("sim.dynamics");
    let tally = counts.tally;
    let scenarios = w.scenarios.len() as f64;
    let share = |pred: fn(&wsn_sim::Scenario) -> bool| {
        ratio(
            w.scenarios.iter().filter(|s| pred(s)).count() as f64,
            scenarios,
        )
    };
    let mut metrics = vec![
        ("data.world_s", setup_secs("data.world"), "s"),
        ("net.topology_s", setup_secs("net.topology"), "s"),
        ("net.network_new_s", setup_secs("net.network_new"), "s"),
        ("sim.world_attempts_ratio", worlds_per_placement, "ratio"),
        ("data.sample_s", secs("data.sample"), "s"),
        ("core.round_s", core_round, "s"),
        (
            "core.ns_per_message",
            ratio(core_round * 1e9, counts.messages as f64),
            "ns",
        ),
        ("net.messages", counts.messages as f64, "count"),
        ("net.bits", counts.bits as f64, "count"),
        ("net.values", counts.values as f64, "count"),
    ];
    for (phase, name) in [
        (Phase::Init, "net.bits.init"),
        (Phase::Validation, "net.bits.validation"),
        (Phase::Refinement, "net.bits.refinement"),
        (Phase::Recovery, "net.bits.recovery"),
        (Phase::Rebuild, "net.bits.rebuild"),
        (Phase::Other, "net.bits.other"),
    ] {
        metrics.push((name, counts.phase_bits[phase.index()] as f64, "count"));
    }
    metrics.extend([
        ("sim.dynamics_s", dynamics, "s"),
        ("sim.rebuilds", counts.rebuilds as f64, "count"),
        (
            "sim.ms_per_rebuild",
            ratio(dynamics * 1e3, counts.rebuilds as f64),
            "ms",
        ),
        ("sim.oracle_s", secs("sim.oracle"), "s"),
        ("net.audit_events", counts.audit_events as f64, "count"),
        ("net.audit_verify_s", secs("net.audit_verify"), "s"),
        ("sim.serve_s", counts.serve_s, "s"),
        (
            "sim.dedup_ratio",
            ratio(counts.served as f64, counts.executions as f64),
            "ratio",
        ),
        (
            "core.plan_hit_ratio",
            ratio(
                counts.plan_hits as f64,
                (counts.plan_hits + counts.plan_misses) as f64,
            ),
            "ratio",
        ),
        ("obs.monitor_s", counts.monitored_s - counts.serve_s, "s"),
        ("obs.health_events", counts.health_events as f64, "count"),
        ("check.gen_s", secs("check.gen"), "s"),
        ("check.scenario_s", secs("check.scenario"), "s"),
        ("check.batteries", tally.batteries as f64, "count"),
        ("check.audit", tally.audit as f64, "count"),
        ("check.telemetry", tally.telemetry as f64, "count"),
        ("check.exactness", tally.exactness as f64, "count"),
        ("check.parity", tally.parity as f64, "count"),
        ("check.metamorphic", tally.metamorphic as f64, "count"),
        ("check.serve", tally.serve as f64, "count"),
        ("check.watchdog", tally.watchdog as f64, "count"),
        (
            "check.share.dynamic",
            share(wsn_sim::Scenario::is_dynamic_world),
            "ratio",
        ),
        ("check.share.lossy", share(|s| s.loss_milli > 0), "ratio"),
        (
            "check.share.pressure",
            share(|s| matches!(s.source, wsn_sim::DataSource::Pressure { .. })),
            "ratio",
        ),
        ("trace.coverage", t.coverage(), "ratio"),
        ("trace.overhead", ratio(traced_wall, untraced_wall), "ratio"),
    ]);
    report.metrics = metrics;

    let spans = t.totals();
    report.meta = vec![
        ("spans_file".into(), Json::Str(path.display().to_string())),
        ("untraced_wall_s".into(), Json::Num(untraced_wall)),
        ("traced_wall_s".into(), Json::Num(traced_wall)),
        (
            "span_self_s".into(),
            Json::obj(
                spans
                    .iter()
                    .map(|(name, s)| (*name, Json::Num(s.self_ns as f64 * 1e-9))),
            ),
        ),
        (
            "span_counts".into(),
            Json::obj(spans.iter().map(|(name, s)| (*name, Json::Int(s.count)))),
        ),
    ];
    report
}
