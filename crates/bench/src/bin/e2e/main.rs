//! `e2e` — the repository's end-to-end benchmark with a per-layer budget.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run of one workload
//! e2e --all [--seed <n>] [--seconds <s>]                         every workload, one document
//! e2e compare A.json B.json                                      two documents, row by row
//! ```
//!
//! A single run prints two JSON lines on stdout: the detailed result, then
//! — last — the object `BENCHMARK.json`'s driver reads (`correct`,
//! `attempted`, `failed`, `metrics`). `--all` runs each workload in a fresh
//! child process, untraced then traced, and prints one document on stdout
//! and a table on stderr. See `README.md` beside this file.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::Measured;
use std::process::{Command, ExitCode};

/// Environment knobs of the runtime; a run with any of them set would not
/// be the shipped default configuration.
const PINNED_ENV: [&str; 7] = [
    "RUNTIME_SHARDS",
    "TELEMETRY",
    "TELEMETRY_BUCKET_BASE",
    "FAULT_PLAN",
    "WORKER_SNAPSHOT_EVERY",
    "RECOVERY_SNAPSHOT",
    "PROPTEST_SEED",
];

/// Swallow the one panic message a run expects — `crash_recover`'s injected
/// kill — and leave every other panic to the default hook.
fn quiet_injected_faults() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected fault:") {
            default(info);
        }
    }));
}

struct Args {
    all: bool,
    smoke: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        all: false,
        smoke: false,
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--all" => out.all = true,
            "--smoke" => out.smoke = true,
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.all == out.workload.is_some() {
        return Err("give exactly one of --all and --workload <name>".into());
    }
    Ok(out)
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)
}

fn effective_config() -> Json {
    Json::obj(vec![
        ("shards", Json::Num(workloads::SHARDS as f64)),
        ("submitters", Json::Num(1.0)),
        (
            "mailbox_capacity",
            Json::Num(workloads::MAILBOX_CAPACITY as f64),
        ),
        ("telemetry", Json::str("Registry::new()")),
        (
            "env_removed",
            Json::Arr(PINNED_ENV.iter().map(|k| Json::str(*k)).collect()),
        ),
    ])
}

fn checks_json(checks: &[(&'static str, bool)]) -> Json {
    Json::obj(checks.iter().map(|(k, ok)| (*k, Json::Bool(*ok))).collect())
}

/// The detailed record of a metric: declaration, value and — where the
/// value summarises several runs — their quartiles, count and samples.
fn metric_json(m: &Measured) -> (String, Json) {
    let mut fields = vec![("unit", Json::str(m.unit))];
    if let Some(d) = END_TO_END.iter().find(|d| d.name == m.name) {
        fields.push(("better", Json::str(d.better.as_str())));
        fields.push(("bound", Json::Num(d.bound)));
    } else if let Some(d) = PER_LAYER.iter().find(|d| d.name == m.name) {
        fields.push(("better", Json::str(d.better.as_str())));
    }
    fields.push(("value", Json::Num(m.value)));
    if !m.samples.is_empty() {
        let (q1, q3) = stats::quartiles(&m.samples);
        fields.push(("q1", Json::Num(q1)));
        fields.push(("q3", Json::Num(q3)));
        fields.push(("n", Json::Num(m.samples.len() as f64)));
        fields.push(("samples", Json::nums(&m.samples)));
    }
    (m.name.to_owned(), Json::obj(fields))
}

/// The last stdout line of a single run: what `BENCHMARK.json`'s driver reads.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let record = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            (m.name, Json::obj(record))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Where the traced run's spans go: beside the build's other outputs.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    std::path::Path::new(&target)
        .join("e2e")
        .join(format!("{workload}.trace.jsonl"))
}

/// One run of one workload in this process; returns whether it was correct.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let unknown = || format!("unknown workload `{name}` (one of {:?})", workloads::NAMES);
    let mut detail = vec![
        ("workload", Json::str(name)),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
    ];
    let (correct, attempted, failed, metrics) = if args.trace {
        let out = layers::run(name, args.seed, args.seconds, args.smoke).ok_or_else(unknown)?;
        let path = trace_path(name);
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        detail.push(("spans", Json::Num(out.tracer.spans.len() as f64)));
        detail.push(("replay_self_share", Json::Num(out.replay_self_share)));
        detail.push(("trace_file", Json::str(path.display().to_string())));
        detail.push(("checks", checks_json(&out.checks)));
        let correct = out.checks.iter().all(|(_, ok)| *ok);
        (correct, out.attempted, out.failed, out.metrics)
    } else {
        let out = run::run(name, args.seed, args.seconds, args.smoke).ok_or_else(unknown)?;
        detail.push(("sizes", Json::str(out.sizes.clone())));
        detail.push(("events", Json::Num(out.events as f64)));
        detail.push(("repetitions", Json::Num(out.repetitions as f64)));
        detail.push(("waves_pooled", Json::Num(out.waves_pooled as f64)));
        let tail = stats::highest_supported_percentile(out.waves_pooled);
        detail.push(("highest_supported_percentile", Json::Num(tail)));
        detail.push(("pooled_wave_p95_ms", Json::Num(out.pooled_wave_p95_ms)));
        detail.push(("checks", checks_json(&out.checks)));
        (out.correct(), out.attempted, out.failed, out.metrics)
    };
    detail.push(("correct", Json::Bool(correct)));
    detail.push(("attempted", Json::Num(attempted as f64)));
    detail.push(("failed", Json::Num(failed as f64)));
    detail.push((
        "metrics",
        Json::Obj(metrics.iter().map(metric_json).collect()),
    ));
    println!("{}", Json::obj(detail).render());
    println!("{}", contract_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// First line of a command's stdout, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload in a fresh child process and parse its detailed line.
fn child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    for key in PINNED_ENV {
        cmd.env_remove(key);
    }
    let out = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout.lines().rev().nth(1).unwrap_or("");
    if !out.status.success() && detail.is_empty() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{name} (trace {trace}) failed: {}", stderr.trim()));
    }
    Json::parse(detail).map_err(|e| format!("{name} (trace {trace}) printed no result: {e}"))
}

fn table(name: &str, e2e: &Json, layers: &Json) {
    eprintln!(
        "\n== {name}: {}",
        e2e.get("sizes").and_then(Json::as_str).unwrap_or("")
    );
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    eprintln!(
        "   {} events, {} repetitions, {} waves pooled, failed {}/{}",
        num(e2e, "events"),
        num(e2e, "repetitions"),
        num(e2e, "waves_pooled"),
        num(e2e, "failed"),
        num(e2e, "attempted"),
    );
    eprintln!(
        "   {:<20} {:>14} {:>6}  {:>14} {:>14} {:>4}",
        "end to end", "value", "unit", "q1", "q3", "n"
    );
    for (metric, m) in e2e.get("metrics").map(Json::as_obj).unwrap_or(&[]) {
        eprintln!(
            "   {:<20} {:>14.4} {:>6}  {:>14.4} {:>14.4} {:>4}",
            metric,
            num(m, "value"),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            num(m, "q1"),
            num(m, "q3"),
            num(m, "n"),
        );
    }
    eprintln!("   {:<40} {:>14} {:>6}", "per layer", "value", "unit");
    for (metric, m) in layers.get("metrics").map(Json::as_obj).unwrap_or(&[]) {
        eprintln!(
            "   {:<40} {:>14.4} {:>6}",
            metric,
            num(m, "value"),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    for side in [e2e, layers] {
        for (check, ok) in side.get("checks").map(Json::as_obj).unwrap_or(&[]) {
            if *ok != Json::Bool(true) {
                eprintln!("   CHECK FAILED: {check}");
            }
        }
    }
}

/// Every workload, each in fresh child processes; one document on stdout.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for name in workloads::NAMES {
        let e2e = child(name, args, false)?;
        let layers = child(name, args, true)?;
        table(name, &e2e, &layers);
        let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
        for side in [&e2e, &layers] {
            all_correct &= side.get("correct") == Some(&Json::Bool(true));
        }
        let mut entry: Vec<(&str, Json)> = [
            "sizes",
            "events",
            "repetitions",
            "waves_pooled",
            "highest_supported_percentile",
            "pooled_wave_p95_ms",
            "correct",
            "attempted",
            "failed",
            "checks",
        ]
        .into_iter()
        .map(|k| (k, field(&e2e, k)))
        .collect();
        entry.extend([
            ("end_to_end", field(&e2e, "metrics")),
            ("traced_correct", field(&layers, "correct")),
            ("traced_checks", field(&layers, "checks")),
            ("trace_file", field(&layers, "trace_file")),
            ("replay_self_share", field(&layers, "replay_self_share")),
            ("per_layer", field(&layers, "metrics")),
        ]);
        let entry = Json::obj(entry);
        results.push((name, entry));
    }
    let doc = Json::obj(vec![
        ("benchmark", Json::str("e2e")),
        ("claim", Json::Null),
        ("commit", Json::str(probe("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(probe("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("config", effective_config()),
        ("workloads", Json::obj(results)),
    ]);
    println!("{}", doc.render());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: e2e compare A.json B.json");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a)
            .and_then(|a| Ok((a, read(b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
        {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    // Before any thread exists: the runtime reads these at construction.
    for key in PINNED_ENV {
        std::env::remove_var(key);
    }
    quiet_injected_faults();
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, untraced and traced: every declared
    /// metric appears exactly once, and every correctness check the
    /// workload owes is made and passes.
    #[test]
    fn smoke_runs_report_every_declared_metric_and_pass_every_check() {
        quiet_injected_faults();
        for name in workloads::NAMES {
            let e2e = run::run(name, 42, 0.0, true).expect("known workload");
            let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{name}: end-to-end metrics");
            assert!(e2e
                .metrics
                .iter()
                .all(|m| m.value > 0.0 && m.value.is_finite()));
            assert_eq!(
                (e2e.failed, e2e.correct()),
                (0, true),
                "{name}: {:?}",
                e2e.checks
            );
            assert!(e2e.attempted > 0 && e2e.waves_pooled > 0);

            let traced = layers::run(name, 42, 0.0, true).expect("known workload");
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{name}: per-layer metrics");
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            assert!(
                traced.checks.iter().all(|(_, ok)| *ok),
                "{name}: {:?}",
                traced.checks
            );
            assert_eq!(traced.failed, 0);
            assert!(!traced.tracer.spans.is_empty());

            let made = |checks: &[(&str, bool)], c: &str| checks.iter().any(|(k, _)| *k == c);
            let journal = matches!(name, "mixed_shared" | "crowd_churn");
            for checks in [&e2e.checks, &traced.checks] {
                assert!(made(checks, "gate_accepted_every_event"));
                assert!(made(checks, "dropped_equals_serial"));
                assert_eq!(
                    made(checks, "journal_identical_to_serial"),
                    journal,
                    "{name}"
                );
                assert_eq!(made(checks, "good_facts"), !journal, "{name}");
                assert_eq!(
                    made(checks, "one_recovery_per_run"),
                    name == "crash_recover"
                );
            }
            assert_eq!(made(&e2e.checks, "replay_reproduces_good_facts"), !journal);
            assert!(made(&traced.checks, "replay_reproduces_serial"));
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let metrics = vec![Measured {
            name: "setup_s",
            unit: "s",
            value: 0.8127,
            samples: vec![0.8, 0.9],
        }];
        let line = contract_line(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let a = parse("--workload judge_stream --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("judge_stream"), 7, 3.0, true)
        );
        assert!(parse("--all").unwrap().all);
        assert!(parse("").is_err());
        assert!(parse("--all --workload x").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seed").is_err());
        assert!(parse("--bogus").is_err());
    }
}
