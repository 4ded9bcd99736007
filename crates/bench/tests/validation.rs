//! Binary-level tests of input validation at the `simulate` boundary:
//! out-of-domain flags, serve events that would do nothing and fuzz repro
//! lines that cannot run exit 2 with a one-line error before any run (or
//! worker thread) starts, instead of panicking deep inside a run.

/// Runs the real `simulate` binary on the space-separated `args` and
/// returns `(exit code, stderr)`.
fn simulate(args: &str) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args.split_whitespace())
        .output()
        .expect("simulate binary must run");
    let code = out.status.code().expect("no signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts that a two-thread run with `flag` appended exits 2 with
/// exactly one `error:` line naming `field`.
fn rejected(flag: &str, field: &str) {
    let base = "--algorithm TAG --nodes 40 --rounds 3 --runs 2 --threads 2";
    let (code, err) = simulate(&format!("{base} {flag}"));
    assert_eq!(code, 2, "{flag}: {err}");
    assert_eq!(err.lines().count(), 1, "one-line error: {err}");
    assert!(err.starts_with("error: ") && err.contains(field), "{err}");
}

#[test]
fn zero_nodes_exit_2() {
    rejected("--nodes 0", "sensor_count");
}

#[test]
fn phi_outside_the_unit_interval_exits_2() {
    rejected("--phi 1.5", "phi");
}

#[test]
fn zero_radio_range_exits_2() {
    rejected("--rho 0", "radio_range");
}

#[test]
fn zero_period_exits_2() {
    rejected("--period 0", "period");
}

#[test]
fn negative_noise_exits_2() {
    rejected("--noise -1", "noise_percent");
}

/// Runs `simulate serve` with four queries over eight rounds plus `events`.
fn serve(events: &str) -> (i32, String) {
    simulate(&format!("serve --queries 4 --nodes 16 --rounds 8 {events}"))
}

#[test]
fn serve_retiring_a_slot_that_does_not_exist_exits_2() {
    let (code, err) = serve("--retire 3:99");
    assert_eq!(
        (code, err.trim()),
        (2, "error: no query holds slot 99 at round 3")
    );
    // Slot 4 exists only once an admission took it, at or before round 3.
    assert_eq!(serve("--retire 3:4").0, 2);
    assert_eq!(serve("--admit 2:250 --retire 3:4").0, 0);
}

#[test]
fn serve_events_at_or_past_the_last_round_exit_2() {
    for events in ["--admit 8:250", "--retire 8:0", "--retire 9:1"] {
        let (code, err) = serve(events);
        assert_eq!(code, 2, "{events}: {err}");
        assert!(err.contains("past the last round"), "{err}");
    }
    let (code, err) = serve("--admit 7:250 --retire 7:0");
    assert_eq!(code, 0, "the last round still takes events: {err}");
}

/// A small, clean repro line in the `wsn_check::repro` dialect.
const REPRO: &str = "{\"seed\":9,\"nodes\":5,\"range_milli\":2500,\"rounds\":3,\"runs\":1,\
                     \"phi_milli\":500,\"loss_milli\":0,\"retries\":0,\"recovery\":0,\
                     \"failure_milli\":0,\"source\":\"sinusoid\",\"p1\":16,\"p2\":100,\"p3\":0}";

/// Asserts that `simulate fuzz --repro` of [`REPRO`] with `key` changed
/// from `value` to 0 exits 2 with exactly one `error:` line naming the key.
fn zeroed_repro_rejected(key: &str, value: u32) {
    let line = REPRO.replace(&format!("\"{key}\":{value},"), &format!("\"{key}\":0,"));
    assert_ne!(line, REPRO);
    let (code, err) = simulate(&format!("fuzz --repro {line}"));
    assert_eq!(code, 2, "{key}: {err}");
    assert_eq!(err.lines().count(), 1, "one-line error: {err}");
    assert!(
        err.starts_with("error: --repro: field `") && err.contains(key),
        "{err}"
    );
}

#[test]
fn a_runnable_repro_line_replays_clean() {
    assert_eq!(simulate(&format!("fuzz --repro {REPRO}")).0, 0);
}

#[test]
fn repro_with_zero_nodes_exits_2() {
    zeroed_repro_rejected("nodes", 5);
}

#[test]
fn repro_with_zero_runs_exits_2() {
    zeroed_repro_rejected("runs", 1);
}

#[test]
fn repro_with_zero_radio_range_exits_2() {
    zeroed_repro_rejected("range_milli", 2500);
}

#[test]
fn corpus_with_an_unrunnable_line_exits_2() {
    let path = std::env::temp_dir().join(format!("unrunnable-{}.txt", std::process::id()));
    let line = REPRO.replace("\"nodes\":5", "\"nodes\":0");
    std::fs::write(&path, format!("# pinned\n{line}\n")).unwrap();
    let (code, err) = simulate(&format!("fuzz --scenarios 0 --corpus {}", path.display()));
    std::fs::remove_file(&path).unwrap();
    assert_eq!(code, 2, "{err}");
    assert_eq!(err.lines().count(), 1, "one-line error: {err}");
    assert!(err.contains("line 2: field `nodes`"), "{err}");
}
