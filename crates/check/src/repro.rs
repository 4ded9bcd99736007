//! Single-line repro encoding.
//!
//! A failing scenario is emitted as one flat JSON object per line — easy
//! to copy out of CI logs into `simulate fuzz --repro '<line>'` or to
//! append to `tests/fuzz_corpus.txt`. Every field is an integer (the
//! [`Scenario`] encoding is all-integer by design), the data source is a
//! kind string plus three positional parameters, and the writer emits keys
//! in one fixed order, so `parse_line(to_line(s)) == s` holds exactly and
//! corpus diffs stay minimal. The parser is a tiny scanner over this
//! self-generated dialect, not a general JSON parser.

use wsn_sim::{ConfigError, DataSource, Scenario};

/// Serializes a scenario as one flat JSON line.
///
/// The `p1..p3` parameters depend on the source kind:
/// `sinusoid: (period, noise_permille, 0)`, `walk: (range_size, step, 0)`,
/// `regime: (range_size, phase_len, drift)`, `pressure: (skip, 0|1, 0)`.
pub fn to_line(s: &Scenario) -> String {
    let (p1, p2, p3): (i128, i128, i128) = match s.source {
        DataSource::Sinusoid {
            period,
            noise_permille,
        } => (period as i128, noise_permille as i128, 0),
        DataSource::Walk { range_size, step } => (range_size as i128, step as i128, 0),
        DataSource::Regime {
            range_size,
            phase_len,
            drift,
        } => (range_size as i128, phase_len as i128, drift as i128),
        DataSource::Pressure { skip, pessimistic } => (skip as i128, pessimistic as i128, 0),
    };
    format!(
        "{{\"seed\":{},\"nodes\":{},\"range_milli\":{},\"rounds\":{},\"runs\":{},\
         \"phi_milli\":{},\"loss_milli\":{},\"retries\":{},\"recovery\":{},\
         \"failure_milli\":{},\"eps_milli\":{},\"capacity\":{},\"queries\":{},\
         \"mobility_milli\":{},\"churn_milli\":{},\"drift_milli\":{},\"duty_milli\":{},\
         \"source\":\"{}\",\"p1\":{},\"p2\":{},\"p3\":{}}}",
        s.seed,
        s.nodes,
        s.range_milli,
        s.rounds,
        s.runs,
        s.phi_milli,
        s.loss_milli,
        s.retries,
        s.recovery,
        s.failure_milli,
        s.eps_milli,
        s.capacity,
        s.queries,
        s.mobility_milli,
        s.churn_milli,
        s.drift_milli,
        s.duty_milli,
        s.source.name(),
        p1,
        p2,
        p3
    )
}

/// Extracts the raw token after `"key":` (up to the next `,` or `}`).
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("missing field `{key}`"))?
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated field `{key}`"))?;
    Ok(rest[..end].trim())
}

fn int(line: &str, key: &str) -> Result<i128, String> {
    field(line, key)?
        .parse::<i128>()
        .map_err(|e| format!("field `{key}`: {e}"))
}

fn uint<T: TryFrom<i128>>(line: &str, key: &str) -> Result<T, String> {
    T::try_from(int(line, key)?).map_err(|_| format!("field `{key}` out of range"))
}

/// Like [`uint`], but a *missing* key falls back to `default`. Used for
/// fields added after the corpus format was first pinned (`eps_milli`,
/// `capacity`, `queries`), so older corpus lines keep parsing — and keep
/// expanding to the same worlds they always did. A present-but-malformed
/// value is still an error.
fn uint_or<T: TryFrom<i128>>(line: &str, key: &str, default: T) -> Result<T, String> {
    if field(line, key).is_err() {
        return Ok(default);
    }
    uint(line, key)
}

/// Parses one repro line back into a scenario. Accepts exactly the
/// dialect [`to_line`] produces; anything else is an `Err` naming the
/// first offending field. So is a well-formed line that cannot run
/// ([`Scenario::validate`]), such as one with zero nodes.
pub fn parse_line(line: &str) -> Result<Scenario, String> {
    let line = line.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err("repro line must be a flat JSON object".to_string());
    }
    // u64 seeds can exceed i64, so go through i128 uniformly.
    let seed: u64 = uint(line, "seed")?;
    let nodes: usize = uint(line, "nodes")?;
    let source_raw = field(line, "source")?;
    let kind = source_raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("field `source`: expected a quoted string, got `{source_raw}`"))?;
    let p1 = int(line, "p1")?;
    let p2 = int(line, "p2")?;
    let p3 = int(line, "p3")?;
    let source = match kind {
        "sinusoid" => DataSource::Sinusoid {
            period: p1 as u32,
            noise_permille: p2 as u32,
        },
        "walk" => DataSource::Walk {
            range_size: p1 as u64,
            step: p2 as i64,
        },
        "regime" => DataSource::Regime {
            range_size: p1 as u64,
            phase_len: p2 as u32,
            drift: p3 as i64,
        },
        "pressure" => DataSource::Pressure {
            skip: p1 as u32,
            pessimistic: p2 != 0,
        },
        other => return Err(format!("unknown source kind `{other}`")),
    };
    let scenario = Scenario {
        seed,
        nodes,
        range_milli: uint(line, "range_milli")?,
        rounds: uint(line, "rounds")?,
        runs: uint(line, "runs")?,
        phi_milli: uint(line, "phi_milli")?,
        loss_milli: uint(line, "loss_milli")?,
        retries: uint(line, "retries")?,
        recovery: uint(line, "recovery")?,
        failure_milli: uint(line, "failure_milli")?,
        eps_milli: uint_or(line, "eps_milli", 100)?,
        capacity: uint_or(line, "capacity", 0)?,
        queries: uint_or(line, "queries", 1)?,
        mobility_milli: uint_or(line, "mobility_milli", 0)?,
        churn_milli: uint_or(line, "churn_milli", 0)?,
        drift_milli: uint_or(line, "drift_milli", 0)?,
        duty_milli: uint_or(line, "duty_milli", 0)?,
        source,
    };
    scenario.validate().map_err(|e| match e {
        ConfigError::OutOfRange(config_field, ..) => {
            format!("field `{}`: {e}", repro_key(config_field))
        }
        other => other.to_string(),
    })?;
    Ok(scenario)
}

/// The repro key a [`wsn_sim::SimulationConfig`] field that validation
/// can reject is expanded from ([`Scenario::to_config`] clamps the rest).
fn repro_key(config_field: &str) -> &str {
    match config_field {
        "sensor_count" => "nodes",
        "radio_range" => "range_milli",
        "dataset.noise_percent" => "p2",
        same => same,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trips_every_generated_scenario() {
        for i in 0..256 {
            let s = gen::scenario(0xFEED, i);
            let line = to_line(&s);
            assert_eq!(parse_line(&line).unwrap(), s, "{line}");
        }
    }

    #[test]
    fn round_trips_extreme_fields() {
        let s = Scenario {
            seed: u64::MAX,
            nodes: 1,
            range_milli: 4000,
            rounds: 1,
            runs: 1,
            phi_milli: 999,
            loss_milli: 1000,
            retries: 0,
            recovery: 0,
            failure_milli: 0,
            eps_milli: 1000,
            capacity: 32,
            queries: 16,
            mobility_milli: 1000,
            churn_milli: 200,
            drift_milli: 1000,
            duty_milli: 1000,
            source: DataSource::Regime {
                range_size: 2048,
                phase_len: 3,
                drift: -8,
            },
        };
        assert_eq!(parse_line(&to_line(&s)).unwrap(), s);
    }

    #[test]
    fn pre_sketch_lines_parse_with_default_tolerances() {
        // A corpus line from before the sketch fields existed: no
        // `eps_milli`/`capacity` keys. Must parse to the documented
        // defaults, not fail.
        let old = "{\"seed\":9,\"nodes\":5,\"range_milli\":2500,\"rounds\":3,\"runs\":1,\
                   \"phi_milli\":500,\"loss_milli\":0,\"retries\":0,\"recovery\":0,\
                   \"failure_milli\":0,\"source\":\"sinusoid\",\"p1\":16,\"p2\":100,\"p3\":0}";
        let s = parse_line(old).unwrap();
        assert_eq!(s.eps_milli, 100);
        assert_eq!(s.capacity, 0);
        assert_eq!(s.queries, 1);
        // Pre-dynamics lines default to the fully static world.
        assert_eq!(s.mobility_milli, 0);
        assert_eq!(s.churn_milli, 0);
        assert_eq!(s.drift_milli, 0);
        assert_eq!(s.duty_milli, 0);
        assert!(!s.is_dynamic_world());
        // A present-but-malformed value is still rejected.
        let bad = old.replace("\"failure_milli\":0", "\"failure_milli\":0,\"eps_milli\":x");
        assert!(parse_line(&bad).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"seed\":1}").is_err(), "missing fields");
        let bad_kind = to_line(&gen::scenario(1, 0)).replace("sinusoid", "volcano");
        if bad_kind.contains("volcano") {
            assert!(parse_line(&bad_kind).is_err());
        }
        let s = gen::scenario(1, 0);
        let negative = to_line(&s).replace(&format!("\"nodes\":{}", s.nodes), "\"nodes\":-3");
        assert!(parse_line(&negative).is_err(), "negative counts rejected");
    }

    #[test]
    fn rejects_well_formed_lines_that_cannot_run() {
        let s = gen::scenario(1, 0);
        let line = to_line(&s);
        for (key, value, names) in [
            ("nodes", s.nodes as u64, "field `nodes`: sensor_count = 0"),
            ("runs", s.runs as u64, "field `runs`: runs = 0"),
            (
                "range_milli",
                s.range_milli as u64,
                "field `range_milli`: radio_range = 0",
            ),
        ] {
            let zero = line.replace(&format!("\"{key}\":{value},"), &format!("\"{key}\":0,"));
            assert_ne!(zero, line, "{key} must be in the line");
            let err = parse_line(&zero).unwrap_err();
            assert!(err.starts_with(names), "{key}: {err}");
        }
        let noisy = Scenario {
            source: DataSource::Sinusoid {
                period: 16,
                noise_permille: 1001,
            },
            ..s
        };
        let err = parse_line(&to_line(&noisy)).unwrap_err();
        assert!(
            err.starts_with("field `p2`: dataset.noise_percent"),
            "{err}"
        );
    }
}
