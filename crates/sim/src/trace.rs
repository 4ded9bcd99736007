//! Per-round instrumentation: run any protocol over a dataset and record
//! what happened each round — the raw series behind time plots like
//! Figure 4 — with CSV export.

use cqp_core::ContinuousQuantile;
use wsn_net::Phase;

use crate::runner::World;
use crate::Value;

/// One round of a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index `t`.
    pub round: u32,
    /// The answer the protocol produced.
    pub quantile: Value,
    /// The oracle's k-th value of the population the round is judged
    /// against ([`World::oracle`]; 0 when no sensor is reachable). Equal
    /// to `quantile` whenever the round is exact.
    pub truth: Value,
    /// Messages transmitted in this round.
    pub messages: u64,
    /// Raw measurements transmitted in this round (hop-counted).
    pub values: u64,
    /// Bits on air in this round.
    pub bits: u64,
    /// Hotspot energy consumed in this round (J).
    pub hotspot_energy: f64,
    /// Smallest measurement in the network this round.
    pub min: Value,
    /// Largest measurement this round.
    pub max: Value,
    /// Bits on air in this round per protocol phase, indexed by
    /// [`Phase::index`] (init, validation, refinement, recovery, other,
    /// rebuild); they sum to `bits`.
    pub phase_bits: [u64; Phase::COUNT],
}

/// Runs `alg` on `world` for `rounds` rounds, recording every round. Each
/// round is a runner round: [`World::step`] (failures, dynamics and any
/// rebuild, whose traffic lands in this round), [`World::sample`], then
/// the protocol. On `World::new(cfg, 0)` with `cfg.rounds` rounds this is
/// exactly run 0 of the experiment. The protocol keeps running when its
/// answer diverges from the oracle (loss experiments), so the trace shows
/// the divergence.
pub fn trace_run(
    world: &mut World,
    alg: &mut dyn ContinuousQuantile,
    rounds: u32,
) -> Vec<RoundRecord> {
    let phi = world.phi();
    let mut out = Vec::with_capacity(rounds as usize);
    let mut prev_stats = *world.net.stats();
    let mut prev_hotspot = world.net.ledger().max_sensor_consumption();
    let mut prev_phase_bits = world.net.phases().bits();
    for t in 0..rounds {
        if world.step(t) {
            alg.topology_changed();
        }
        world.sample(t);
        let quantile = alg.round(&mut world.net, &world.values);
        let (min, max) = (
            // A sensor-less network has no measurements; record a neutral
            // 0 rather than panicking on a degenerate (but legal) world.
            world.values.iter().min().copied().unwrap_or_default(),
            world.values.iter().max().copied().unwrap_or_default(),
        );
        let truth = match world.oracle(phi) {
            (population, k) if k > 0 => cqp_core::rank::kth_smallest(population, k),
            _ => 0,
        };
        let net = &world.net;
        let stats = *net.stats();
        let hotspot = net.ledger().max_sensor_consumption();
        let phase_bits = net.phases().bits();
        out.push(RoundRecord {
            round: t,
            quantile,
            truth,
            messages: stats.messages - prev_stats.messages,
            values: stats.values - prev_stats.values,
            bits: stats.bits - prev_stats.bits,
            hotspot_energy: hotspot - prev_hotspot,
            min,
            max,
            phase_bits: std::array::from_fn(|i| phase_bits[i] - prev_phase_bits[i]),
        });
        prev_stats = stats;
        prev_hotspot = hotspot;
        prev_phase_bits = phase_bits;
    }
    out
}

/// Initialization-overhead summary of a trace: `(bits of round 0, largest
/// bits of any later round)` — the comparison behind "the full collection
/// dominates update rounds". Returns `None` for traces with fewer than two
/// rounds, where no later round exists to compare against (the guarded
/// form of the `trace[1..] ... .max().unwrap()` pattern).
pub fn init_overhead(trace: &[RoundRecord]) -> Option<(u64, u64)> {
    let (first, rest) = trace.split_first()?;
    let later_max = rest.iter().map(|r| r.bits).max()?;
    Some((first.bits, later_max))
}

/// Renders a trace as CSV (with header), ready for external plotting.
/// The per-phase columns follow [`Phase::ALL`], so `bits_rebuild` comes
/// last and the older columns keep their positions.
pub fn to_csv(trace: &[RoundRecord]) -> String {
    let mut out =
        String::from("round,quantile,truth,messages,values,bits,hotspot_energy_j,min,max");
    for phase in Phase::ALL {
        out += &format!(",bits_{}", phase.name());
    }
    for r in trace {
        out += &format!(
            "\n{},{},{},{},{},{},{:.9e},{},{}",
            r.round,
            r.quantile,
            r.truth,
            r.messages,
            r.values,
            r.bits,
            r.hotspot_energy,
            r.min,
            r.max,
        );
        for bits in r.phase_bits {
            out += &format!(",{bits}");
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulationConfig;
    use cqp_core::iq::IqConfig;
    use cqp_core::Iq;

    /// Run 0 of a static 80-sensor synthetic world, with IQ on its median.
    fn iq_world() -> (World, Iq) {
        let cfg = SimulationConfig {
            sensor_count: 80,
            radio_range: 40.0,
            seed: 7,
            ..SimulationConfig::default()
        };
        let world = World::new(&cfg, 0);
        let iq = Iq::new(world.query(), IqConfig::default());
        (world, iq)
    }

    #[test]
    fn trace_matches_oracle_and_sums_to_totals() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, &mut iq, 30);
        assert_eq!(trace.len(), 30);
        for r in &trace {
            assert_eq!(r.quantile, r.truth, "round {}", r.round);
            assert!(r.min <= r.quantile && r.quantile <= r.max);
        }
        let sum_msgs: u64 = trace.iter().map(|r| r.messages).sum();
        assert_eq!(sum_msgs, world.net.stats().messages);
        let sum_bits: u64 = trace.iter().map(|r| r.bits).sum();
        assert_eq!(sum_bits, world.net.stats().bits);
    }

    #[test]
    fn init_round_is_the_expensive_one() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, &mut iq, 20);
        let (init_bits, later_max) = init_overhead(&trace).expect("20-round trace");
        assert!(
            init_bits > later_max,
            "full collection ({init_bits}) must dominate update rounds ({later_max})"
        );
    }

    #[test]
    fn degenerate_traces_are_guarded_not_panicking() {
        // 0-round and 1-round traces run without panicking, and the
        // init-overhead comparison declines rather than indexing past the
        // end.
        let (mut world, mut iq) = iq_world();
        let empty = trace_run(&mut world, &mut iq, 0);
        assert!(empty.is_empty());
        assert_eq!(init_overhead(&empty), None);
        assert_eq!(to_csv(&empty).lines().count(), 1, "header only");

        let (mut world, mut iq) = iq_world();
        let one = trace_run(&mut world, &mut iq, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(init_overhead(&one), None, "no later rounds to compare");

        let (mut world, mut iq) = iq_world();
        let two = trace_run(&mut world, &mut iq, 2);
        let (init_bits, later) = init_overhead(&two).expect("two rounds suffice");
        assert_eq!(init_bits, two[0].bits);
        assert_eq!(later, two[1].bits);
    }

    #[test]
    fn phase_bits_partition_the_round_bits() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, &mut iq, 15);
        for r in &trace {
            assert_eq!(
                r.phase_bits.iter().sum::<u64>(),
                r.bits,
                "round {}",
                r.round
            );
        }
        // Round 0 is the initialization collection; afterwards IQ's traffic
        // is validation (plus occasional refinements), never init again.
        assert!(trace[0].phase_bits[Phase::Init.index()] > 0);
        assert_eq!(trace[1].phase_bits[Phase::Init.index()], 0);
        assert!(trace[1].phase_bits[Phase::Validation.index()] > 0);
    }

    #[test]
    fn csv_has_header_and_one_line_per_round() {
        let (mut world, mut iq) = iq_world();
        let trace = trace_run(&mut world, &mut iq, 10);
        let csv = to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 11);
        assert!(lines[0].starts_with("round,quantile,truth"));
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn csv_phase_columns_sum_to_bits_under_churn() {
        let cfg = SimulationConfig {
            sensor_count: 60,
            radio_range: 50.0,
            rounds: 20,
            seed: 17,
            dynamics: Some(crate::DynamicsConfig {
                churn: 0.05,
                ..crate::DynamicsConfig::default()
            }),
            ..SimulationConfig::default()
        };
        let mut world = World::new(&cfg, 0);
        let mut iq = Iq::new(world.query(), IqConfig::default());
        let csv = to_csv(&trace_run(&mut world, &mut iq, cfg.rounds));
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        assert_eq!(
            header.last(),
            Some(&"bits_rebuild"),
            "rebuild is appended last"
        );
        let bits = header
            .iter()
            .position(|&c| c == "bits")
            .expect("bits column");
        let phases: Vec<usize> = (0..header.len())
            .filter(|&i| header[i].starts_with("bits_"))
            .collect();
        assert_eq!(phases.len(), Phase::COUNT);
        let mut rebuild_bits = 0u64;
        for row in lines {
            let cells: Vec<u64> = row
                .split(',')
                .map(|c| c.parse().unwrap_or_default())
                .collect();
            let by_phase: u64 = phases.iter().map(|&i| cells[i]).sum();
            assert_eq!(by_phase, cells[bits], "row {row}");
            rebuild_bits += cells[header.len() - 1];
        }
        assert!(rebuild_bits > 0, "5% churn over 20 rounds must rebuild");
    }
}
