//! Regenerate every paper figure/experiment as a text report.
//!
//! ```text
//! cargo run --release -p crowd4u-bench --bin report            # all
//! cargo run --release -p crowd4u-bench --bin report -- e6 e7   # subset
//! cargo run --release -p crowd4u-bench --bin report -- e8full  # full 600k
//! cargo run --release -p crowd4u-bench --bin report -- ingest  # BENCH_ingest.json
//! ```
//!
//! The output of this binary is what EXPERIMENTS.md records. The `ingest`
//! experiment (explicit only — its per-answer baseline runs ~10⁴ fixpoints
//! and takes minutes) records the batched-vs-per-answer ingestion baseline
//! to `BENCH_ingest.json` and fails if batching is less than 5× faster.

use crowd4u_assign::prelude::*;
use crowd4u_bench::{all_algorithms, clustered_instance, random_instance, TablePrinter};
use crowd4u_collab::Scheme;
use crowd4u_core::controller::AlgorithmChoice;
use crowd4u_crowd::estimate::{estimate_skills, EstimatorConfig, TeamObservation};
use crowd4u_crowd::profile::WorkerId;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_forms::admin::{constraint_form, parse_constraints};
use crowd4u_forms::form::FormResponse;
use crowd4u_scenarios::{journalism, surveillance, translation, ScenarioConfig};
use crowd4u_sim::rng::SimRng;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("# Crowd4U reproduction report\n");
    if want("e1") {
        e1_pipeline();
    }
    if want("e2") {
        e2_workflow();
    }
    if want("e3") {
        e3_admin_form();
    }
    if want("e4") {
        e4_worker_factors();
    }
    if want("e5") {
        e5_simultaneous();
    }
    if want("e6") {
        e6_assignment_quality();
    }
    if want("e7") {
        e7_assignment_runtime();
    }
    if want("e8") || args.iter().any(|a| a == "e8full") {
        e8_scale(args.iter().any(|a| a == "e8full"));
    }
    if want("e9") {
        e9_scenarios();
    }
    // Explicit only: the per-answer baseline takes minutes by design.
    if args.iter().any(|a| a == "ingest") {
        ingest_baseline();
    }
    // Explicit only: the shard-scaling sweep ingests the full workload at
    // four shard counts (records BENCH_shard.json).
    if args.iter().any(|a| a == "shard") {
        shard_baseline();
    }
    // Explicit only: the ingestion front-door comparison (records
    // BENCH_gate.json).
    if args.iter().any(|a| a == "gate") {
        gate_baseline();
    }
    // Explicit only: the scenario-streaming comparison (records
    // BENCH_scenario.json).
    if args.iter().any(|a| a == "scenario") {
        scenario_baseline();
    }
    // Explicit only: the million-worker crowd baseline (records
    // BENCH_workers.json; ~minutes at the default 10⁶ population —
    // override with E13_WORKERS).
    if args.iter().any(|a| a == "workers") {
        workers_baseline();
    }
    // Explicit only: the crash-recovery latency baseline (records
    // BENCH_recovery.json).
    if args.iter().any(|a| a == "recovery") {
        recovery_baseline();
    }
    // Explicit only: the shared-crowd marketplace baseline (records
    // BENCH_marketplace.json).
    if args.iter().any(|a| a == "marketplace") {
        marketplace_baseline();
    }
}

/// E16 baseline: the shared-crowd marketplace. Streams the three §2.5
/// scenarios over one population at 1/2/4 shards — byte-identity against
/// the serial shared composite and the exact split partition are asserted
/// inside every run — then measures what the least-loaded proposal buys
/// over a skill-only formation on a star-skewed crowd. Records
/// `BENCH_marketplace.json` and exits non-zero if any run's totals drift
/// across shard counts or the marketplace proposal fields a busier team
/// than the base algorithm.
fn marketplace_baseline() {
    use crowd4u_bench::{run_marketplace_proposal, run_marketplace_workload};
    const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
    const REPS: usize = 3;
    const PROPOSAL_CROWD: u64 = 12;
    let cfg = ScenarioConfig::default()
        .with_crowd(20)
        .with_items(3)
        .with_seed(1016);
    println!(
        "\n## E16 — shared-crowd marketplace (3 scenarios, one crowd of 20, \
         best of {REPS})\n"
    );

    let mut t = TablePrinter::new(&["shards", "seconds", "platform points"]);
    let mut per_shard_s = Vec::new();
    let mut reference: Option<crowd4u_bench::MarketplaceRun> = None;
    for shards in SHARD_SWEEP {
        let mut best = f64::MAX;
        let mut last = None;
        for _ in 0..REPS {
            let run = run_marketplace_workload(shards, &cfg);
            best = best.min(run.elapsed.as_secs_f64());
            last = Some(run);
        }
        let run = last.expect("at least one rep");
        if let Some(r) = &reference {
            assert_eq!(
                r.scheme_points, run.scheme_points,
                "per-scheme totals drifted between shard counts"
            );
            assert_eq!(
                r.platform_points, run.platform_points,
                "platform total drifted between shard counts"
            );
        }
        t.row(vec![
            shards.to_string(),
            format!("{best:.4}"),
            run.platform_points.to_string(),
        ]);
        per_shard_s.push((shards, best));
        reference.get_or_insert(run);
    }
    println!("{}", t.render());
    let reference = reference.expect("sweep ran");

    let prop = run_marketplace_proposal(4, PROPOSAL_CROWD);
    assert!(
        prop.market_max_load <= prop.base_max_load,
        "least-loaded proposal ({}) busier than the base pick ({})",
        prop.market_max_load,
        prop.base_max_load
    );
    let mut t = TablePrinter::new(&["proposal", "busiest member's load"]);
    t.row(vec![
        "base algorithm (skill only)".into(),
        prop.base_max_load.to_string(),
    ]);
    t.row(vec![
        "marketplace (least-loaded)".into(),
        prop.market_max_load.to_string(),
    ]);
    println!("{}", t.render());

    let scheme_points: Vec<String> = reference
        .scheme_points
        .iter()
        .map(|p| p.to_string())
        .collect();
    let shard_json: Vec<String> = per_shard_s
        .iter()
        .map(|(s, secs)| format!("{{\"shards\": {s}, \"seconds\": {secs:.6}}}"))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e16_marketplace\",\n  \"crowd\": 20,\n  \
         \"items\": 3,\n  \"reps\": {REPS},\n  \
         \"runs\": [{}],\n  \"scheme_points\": [{}],\n  \
         \"platform_points\": {},\n  \"proposal_crowd\": {PROPOSAL_CROWD},\n  \
         \"base_max_load\": {},\n  \"market_max_load\": {}\n}}\n",
        shard_json.join(", "),
        scheme_points.join(", "),
        reference.platform_points,
        prop.base_max_load,
        prop.market_max_load,
    );
    std::fs::write("BENCH_marketplace.json", &json).expect("write BENCH_marketplace.json");
    println!("baseline recorded to BENCH_marketplace.json");
}

/// E15 baseline: what crash recovery costs relative to rerunning the
/// workload. Runs the E10 stream clean, then under a chaos plan that
/// kills one shard mid-answer-stream and crash-recovers it by
/// journal-slice replay. Records `BENCH_recovery.json` and exits non-zero
/// if the kill never fired, the chaos run derived different facts, or
/// recovery replay is less than 10× faster than the full workload — the
/// whole point of slice replay is paying for one shard's history, not
/// everyone's.
fn recovery_baseline() {
    use crowd4u_bench::{run_recovery_workload, run_shard_workload, ShardWorkload};
    const SHARDS: usize = 4;
    const REPS: usize = 3;
    let w = ShardWorkload::default();
    // Kill shard 1 midway through its seed stream: it owns 2 of the 8
    // projects, each contributing `items` seeds + `items` answers, so the
    // replayed slice is a quarter of one shard's history — small enough
    // that the ≥10× gate below holds with real margin.
    let kill = (1usize, w.items as u64 / 2);
    println!(
        "\n## E15 — crash-recovery latency ({} projects × {} items, {SHARDS} shards, \
         kill shard {} after {} applies)\n",
        w.projects, w.items, kill.0, kill.1
    );

    let mut clean_best = f64::MAX;
    let mut good_clean = 0usize;
    for _ in 0..REPS {
        let (elapsed, _, good) = run_shard_workload(SHARDS, &w);
        clean_best = clean_best.min(elapsed.as_secs_f64());
        good_clean = good;
    }
    let mut chaos_best = f64::MAX;
    let mut recovery_best = f64::MAX;
    for _ in 0..REPS {
        let run = run_recovery_workload(SHARDS, &w, kill);
        assert!(run.recoveries >= 1, "the planned kill never fired");
        assert_eq!(run.good, good_clean, "recovery changed derived facts");
        chaos_best = chaos_best.min(run.elapsed.as_secs_f64());
        recovery_best = recovery_best.min(run.recovery_ns as f64 / 1e9);
    }
    let ratio = clean_best / recovery_best;

    let mut t = TablePrinter::new(&["measure", "seconds"]);
    t.row(vec![
        "full workload (no fault)".into(),
        format!("{clean_best:.4}"),
    ]);
    t.row(vec![
        "full workload (kill + recover)".into(),
        format!("{chaos_best:.4}"),
    ]);
    t.row(vec![
        "recovery replay alone".into(),
        format!("{recovery_best:.4}"),
    ]);
    t.row(vec![
        "workload / recovery ratio".into(),
        format!("{ratio:.1}×"),
    ]);
    println!("{}", t.render());

    let json = format!(
        "{{\n  \"experiment\": \"e15_recovery_latency\",\n  \"shards\": {SHARDS},\n  \
         \"projects\": {},\n  \"items\": {},\n  \"reps\": {REPS},\n  \
         \"kill_shard\": {},\n  \"kill_after_applies\": {},\n  \
         \"clean_run_s\": {clean_best:.6},\n  \"chaos_run_s\": {chaos_best:.6},\n  \
         \"recovery_replay_s\": {recovery_best:.6},\n  \"workload_over_recovery\": {ratio:.2},\n  \
         \"good_facts\": {good_clean}\n}}\n",
        w.projects, w.items, kill.0, kill.1,
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("baseline recorded to BENCH_recovery.json");
    assert!(
        ratio >= 10.0,
        "recovery replay must be ≥10× faster than rerunning the workload \
         (got {ratio:.1}×: replay {recovery_best:.4}s vs workload {clean_best:.4}s)"
    );
}

/// E13 baseline: a million-worker crowd with churn through the lazy
/// affinity provider and the coordinator-owned worker service. Records
/// `BENCH_workers.json` and exits non-zero if registration stops being
/// O(1) amortised, the provider's resident affinity state outgrows its
/// `2·top_k·n` bound, p99 assignment latency scales with the population,
/// or the 4-shard runtime drops worker-version lockstep.
fn workers_baseline() {
    use crowd4u_bench::{
        assignment_p99, peak_rss_bytes, registration_deciles, run_worker_scale_runtime,
        worker_scale_project, WorkerScaleWorkload,
    };
    let mut w = WorkerScaleWorkload {
        workers: 1_000_000,
        ..WorkerScaleWorkload::default()
    };
    if let Some(n) = std::env::var("E13_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        w.workers = n;
    }
    let n = w.workers;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "## E13 — worker scale: {n} workers + {}% churn, {} eligible, top_k {}, {nproc} cores\n",
        w.churn_percent, w.eligible, w.top_k
    );

    let (first, last, events, mut platform) = registration_deciles(&w);
    let ratio = last.as_secs_f64() / first.as_secs_f64().max(1e-9);

    platform.workers.set_affinity_cache(0.0, w.top_k);
    let sample = (4 * n).min(200_000) as u64;
    for k in 0..sample {
        let a = 1 + k % n as u64;
        let b = 1 + (k * 7 + 13) % n as u64;
        platform.workers.pair_affinity(WorkerId(a), WorkerId(b));
    }
    let entries = platform.workers.cached_affinity_entries();
    let entry_bound = 2 * w.top_k * n;

    let small = WorkerScaleWorkload {
        workers: (n / 25).max(w.eligible * 2),
        ..w
    };
    let (_, _, _, mut small_platform) = registration_deciles(&small);
    let sp = worker_scale_project(&mut small_platform);
    let p99_small = assignment_p99(&mut small_platform, sp, w.eligible, 100);
    let lp = worker_scale_project(&mut platform);
    let p99_large = assignment_p99(&mut platform, lp, w.eligible, 100);
    drop(platform);
    drop(small_platform);

    let (elapsed, applied, per_shard) = run_worker_scale_runtime(4, &w);
    let churn = n * w.churn_percent / 100;
    let lockstep = per_shard
        .iter()
        .all(|(len, v)| *len == n && *v == (n + churn) as u64);
    let peak_mib = peak_rss_bytes().map(|b| b >> 20).unwrap_or(0);
    let dense_mib = ((n as u64) * (n as u64 - 1) / 2 * 8) >> 20;

    let mut t = TablePrinter::new(&["measure", "value"]);
    t.row(vec![
        "registrations (incl. churn)".into(),
        events.to_string(),
    ]);
    t.row(vec!["first decile".into(), format!("{:.1?}", first)]);
    t.row(vec![
        "last decile".into(),
        format!("{:.1?} ({ratio:.2}x)", last),
    ]);
    t.row(vec![
        "cached affinity entries".into(),
        format!("{entries} (bound {entry_bound})"),
    ]);
    t.row(vec![
        format!("p99 assignment, {} workers", small.workers),
        format!("{p99_small:.1?}"),
    ]);
    t.row(vec![
        format!("p99 assignment, {n} workers"),
        format!("{p99_large:.1?}"),
    ]);
    t.row(vec![
        "4-shard runtime (workers first)".into(),
        format!("{elapsed:.2?} / {applied} applied"),
    ]);
    t.row(vec![
        "worker lockstep across shards".into(),
        lockstep.to_string(),
    ]);
    t.row(vec![
        "peak RSS".into(),
        format!("{peak_mib} MiB (dense matrix: {dense_mib} MiB)"),
    ]);
    println!("{}", t.render());

    let json = format!(
        "{{\n  \"experiment\": \"e13_worker_scale\",\n  \"nproc\": {nproc},\n  \"workers\": {n},\n  \
         \"churn_percent\": {},\n  \"eligible\": {},\n  \"top_k\": {},\n  \
         \"registrations\": {events},\n  \"first_decile_ms\": {:.3},\n  \
         \"last_decile_ms\": {:.3},\n  \"decile_ratio\": {ratio:.2},\n  \
         \"cached_affinity_entries\": {entries},\n  \"entry_bound\": {entry_bound},\n  \
         \"p99_small_us\": {:.1},\n  \"p99_large_us\": {:.1},\n  \
         \"runtime_4_shards_ms\": {:.1},\n  \"runtime_applied\": {applied},\n  \
         \"worker_lockstep\": {lockstep},\n  \"peak_rss_mib\": {peak_mib},\n  \
         \"dense_matrix_mib\": {dense_mib}\n}}\n",
        w.churn_percent,
        w.eligible,
        w.top_k,
        first.as_secs_f64() * 1e3,
        last.as_secs_f64() * 1e3,
        p99_small.as_secs_f64() * 1e6,
        p99_large.as_secs_f64() * 1e6,
        elapsed.as_secs_f64() * 1e3,
    );
    std::fs::write("BENCH_workers.json", &json).expect("write BENCH_workers.json");
    println!("baseline recorded to BENCH_workers.json");

    assert!(
        ratio < 8.0,
        "registration is not O(1) amortised: last decile {ratio:.2}x the first"
    );
    assert!(
        entries <= entry_bound,
        "affinity cache exceeded its 2·top_k·n bound: {entries}"
    );
    assert!(
        p99_large.as_secs_f64() < 5.0 * p99_small.as_secs_f64() + 2e-3,
        "p99 assignment latency scales with population: {p99_small:.2?} → {p99_large:.2?}"
    );
    assert!(lockstep, "worker registry out of lockstep: {per_shard:?}");
}

/// E12 baseline: multi-project scenarios (one crowd driving all three
/// schemes — three projects each) recorded once and streamed through the
/// ingestion gate at 1/2/4 shards (projects span shards). Records the
/// sweep to `BENCH_scenario.json`; byte-level correctness is asserted
/// inline (streamed merged journal == serial reference at every shard
/// count). No timing gate: read the times against `nproc` — broadcasts
/// apply on every shard, so added shards only pay back on added cores
/// (see ARCHITECTURE.md §5; e10 gates the scaling).
fn scenario_baseline() {
    use crowd4u_bench::{
        best_multi_project_run, multi_project_configs, multi_project_serial_reference,
        record_multi_project_trace, run_multi_project_streamed, ScenarioStreamWorkload,
    };
    const REPS: usize = 5;
    let w = ScenarioStreamWorkload::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "## E12 — scenario streaming: {} drivers x 3 projects, {} workers, {} items, \
         {nproc} cores, best of {REPS}\n",
        w.drivers, w.crowd, w.items
    );
    let configs = multi_project_configs(&w);
    let traces: Vec<_> = configs.iter().map(record_multi_project_trace).collect();
    let serial_ref = multi_project_serial_reference(&traces);

    let mut t = TablePrinter::new(&["shards", "time"]);
    let mut runs: Vec<String> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let (ts, streamed_journal) =
            best_multi_project_run(REPS, || run_multi_project_streamed(shards, &traces));
        assert_eq!(
            streamed_journal, serial_ref,
            "streamed journal != serial reference at {shards} shards"
        );
        t.row(vec![shards.to_string(), format!("{ts:.2?}")]);
        runs.push(format!(
            "    {{ \"shards\": {shards}, \"ms\": {:.3} }}",
            ts.as_secs_f64() * 1e3
        ));
    }
    println!("{}", t.render());

    let json = format!(
        "{{\n  \"experiment\": \"e12_scenario_streaming\",\n  \"nproc\": {nproc},\n  \
         \"drivers\": {},\n  \"crowd\": {},\n  \"items\": {},\n  \
         \"journals_byte_identical\": true,\n  \"runs\": [\n{}\n  ]\n}}\n",
        w.drivers,
        w.crowd,
        w.items,
        runs.join(",\n"),
    );
    std::fs::write("BENCH_scenario.json", &json).expect("write BENCH_scenario.json");
    println!("baseline recorded to BENCH_scenario.json");
}

/// E1 (Figure 1): deployment pipeline decomposition → assignment →
/// completion, per collaboration scheme.
fn e1_pipeline() {
    println!("## E1 (Figure 1) — deployment pipeline per scheme\n");
    let mut t = TablePrinter::new(&[
        "scheme",
        "items",
        "completed",
        "quality",
        "makespan",
        "answers",
        "teams",
        "reassign",
    ]);
    let cfg = ScenarioConfig::default()
        .with_crowd(60)
        .with_items(8)
        .with_seed(42);
    for scheme in Scheme::all() {
        let r = crowd4u_scenarios::run_scheme(scheme, &cfg).expect("scenario");
        t.row(vec![
            scheme.to_string(),
            r.items_total.to_string(),
            r.items_completed.to_string(),
            format!("{:.3}", r.mean_quality),
            r.makespan.to_string(),
            r.answers.to_string(),
            r.teams_formed.to_string(),
            r.reassignments.to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// E2 (Figure 2): the 5-step assignment workflow — counts of each
/// transition over a deadline-heavy run.
fn e2_workflow() {
    println!("## E2 (Figure 2) — workflow step counts under worker churn\n");
    use crowd4u_core::prelude::*;
    use crowd4u_crowd::profile::WorkerProfile;
    use crowd4u_forms::admin::DesiredFactors;
    use crowd4u_sim::time::SimTime;

    let mut p = Crowd4U::new();
    let mut rng = SimRng::seed_from(7);
    for i in 1..=30u64 {
        p.register_worker(WorkerProfile::new(WorkerId(i), format!("w{i}")));
    }
    let proj = p
        .register_project(
            "workflow",
            "rel item(x: str).\nopen label(x: str) -> (y: str).\n\
             rel out(x: str, y: str).\nout(X, Y) :- item(X), label(X, Y).\n",
            DesiredFactors {
                min_team: 3,
                max_team: 5,
                recruitment_secs: 300,
                ..Default::default()
            },
            Scheme::Sequential,
        )
        .unwrap();
    let mut now = 0u64;
    for round in 0..10 {
        let task = p.create_collab_task(proj, format!("job {round}")).unwrap();
        for w in p.workers.ids() {
            if rng.chance(0.5) {
                let _ = p.express_interest(w, task);
            }
        }
        if let Ok(team) = p.run_assignment(task) {
            for &m in &team.members {
                if rng.chance(0.7) {
                    let _ = p.undertake(m, task);
                }
            }
        }
        now += 301;
        p.advance_to(SimTime(now)).unwrap();
        // Second chance for re-suggested teams.
        if let TaskState::Suggested { team, .. } = p.pool.get(task).unwrap().state.clone() {
            for m in team {
                let _ = p.undertake(m, task);
            }
        }
        if matches!(
            p.pool.get(task).unwrap().state,
            TaskState::InProgress { .. }
        ) {
            p.complete_collab_task(task, 0.7 + 0.3 * rng.unit())
                .unwrap();
        }
    }
    let mut t = TablePrinter::new(&["counter", "value"]);
    for (k, v) in p.counters.iter() {
        t.row(vec![k.to_string(), v.to_string()]);
    }
    println!("{}", t.render());
}

/// E3 (Figure 3): the constraint entry form — valid/invalid submissions.
fn e3_admin_form() {
    println!("## E3 (Figure 3) — admin constraint form validation matrix\n");
    let form = constraint_form(&["translation", "journalism"], &["en", "ja", "fr"]);
    let base = || {
        FormResponse::new()
            .set("language", "en")
            .set("skill", "translation")
            .set("min_quality", 0.6)
            .set("min_team", 3i64)
            .set("max_team", 5i64)
            .set("max_cost", 10.0)
            .set("recruitment_secs", 3600i64)
            .set("require_login", true)
    };
    let cases: Vec<(&str, FormResponse)> = vec![
        ("valid", base()),
        ("bad language", base().set("language", "xx")),
        ("quality out of range", base().set("min_quality", 1.5)),
        (
            "inverted team bounds",
            base().set("min_team", 6i64).set("max_team", 2i64),
        ),
        ("non-integer team size", base().set("min_team", 2.5)),
        ("zero recruitment", base().set("recruitment_secs", 0i64)),
        ("unknown field", base().set("bogus", 1i64)),
    ];
    let mut t = TablePrinter::new(&["submission", "outcome"]);
    for (name, resp) in cases {
        let outcome = match parse_constraints(&form, &resp) {
            Ok(d) => format!(
                "accepted (team {}–{}, quality ≥ {:.1})",
                d.min_team, d.max_team, d.min_quality
            ),
            Err(e) => format!("rejected: {e}"),
        };
        t.row(vec![name.to_string(), outcome]);
    }
    println!("{}", t.render());
}

/// E4 (Figure 4): worker human factors — user-provided updates plus
/// system-computed skill estimation from team history.
fn e4_worker_factors() {
    println!("## E4 (Figure 4) — worker factors & skill estimation\n");
    // Ground-truth skills; observe noisy team means; recover.
    let truth: Vec<(u64, f64)> = (0..12).map(|i| (i, 0.2 + 0.06 * i as f64)).collect();
    let mut rng = SimRng::seed_from(9);
    let mut obs = Vec::new();
    for _ in 0..400 {
        let k = 2 + rng.index(3);
        let members: Vec<u64> = rng
            .sample_indices(truth.len(), k)
            .into_iter()
            .map(|i| i as u64)
            .collect();
        let mean: f64 =
            members.iter().map(|m| truth[*m as usize].1).sum::<f64>() / members.len() as f64;
        let q = (mean + rng.normal(0.0, 0.05)).clamp(0.0, 1.0);
        obs.push(TeamObservation::new(
            members.into_iter().map(WorkerId).collect(),
            q,
        ));
    }
    let est = estimate_skills(&obs, &EstimatorConfig::default());
    let mut t = TablePrinter::new(&["worker", "true skill", "estimated", "abs err"]);
    let mut total_err = 0.0;
    for (w, s) in &truth {
        let e = est.skill(WorkerId(*w)).unwrap_or(f64::NAN);
        total_err += (e - s).abs();
        t.row(vec![
            format!("w{w}"),
            format!("{s:.3}"),
            format!("{e:.3}"),
            format!("{:.3}", (e - s).abs()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "mean abs error {:.3} over {} observations (fit rmse {:.3}, {} sweeps)\n",
        total_err / truth.len() as f64,
        obs.len(),
        est.rmse,
        est.sweeps
    );
}

/// E5 (Figure 5): simultaneous collaboration session metrics.
fn e5_simultaneous() {
    println!("## E5 (Figure 5) — simultaneous collaboration session\n");
    let mut t = TablePrinter::new(&["team affinity", "members", "merged quality"]);
    use crowd4u_collab::prelude::*;
    for &aff in &[0.1, 0.5, 0.9] {
        for &k in &[2usize, 4, 6] {
            let members: Vec<WorkerId> = (0..k as u64).map(WorkerId).collect();
            let mut s = SimultaneousSession::new("doc", members.clone(), &["a", "b"], aff);
            for &m in &members {
                s.provide_sns_id(m, format!("{m}@sns")).unwrap();
            }
            let mut rng = SimRng::seed_from(5 + k as u64);
            for (i, &m) in members.iter().enumerate() {
                s.contribute(m, i % 2, "text", 0.55 + 0.3 * rng.unit())
                    .unwrap();
            }
            let (_, q) = s.submit(members[0]).unwrap();
            t.row(vec![format!("{aff:.1}"), k.to_string(), format!("{q:.3}")]);
        }
    }
    println!("{}", t.render());
    println!("higher team affinity ⇒ higher merged quality (synergy model)\n");
}

/// E6: assignment quality — who wins, by how much.
fn e6_assignment_quality() {
    println!("## E6 — team quality (mean affinity) by algorithm [9]\n");
    let constraints = TeamConstraints::sized(3, 5).with_quality(0.3);
    let mut t = TablePrinter::new(&["n workers", "exact", "local-search", "greedy", "random"]);
    let mut ratios = TablePrinter::new(&[
        "n workers",
        "local-search mean",
        "local-search min",
        "greedy mean",
        "greedy min",
        "random mean",
        "random min",
    ]);
    for &n in &[10usize, 14, 18] {
        let mut means = [0.0f64; 4];
        // Per heuristic (greedy, local-search, random): each instance's
        // team affinity over the exact optimum's; 0 where it found none.
        let mut of_exact: [Vec<f64>; 3] = Default::default();
        let runs = 5;
        for seed in 0..runs {
            let (cands, aff) = clustered_instance(n, 3, seed);
            let mut optimum = 0.0;
            for (i, alg) in all_algorithms(seed).iter().enumerate() {
                let team = alg.form(&cands, &aff, &constraints);
                if let Some(team) = &team {
                    means[i] += team.affinity / runs as f64;
                }
                let affinity = team.map_or(0.0, |t| t.affinity);
                if i == 0 {
                    optimum = affinity;
                } else if optimum > 0.0 {
                    of_exact[i - 1].push(affinity / optimum);
                }
            }
        }
        t.row(vec![
            n.to_string(),
            format!("{:.3}", means[0]),
            format!("{:.3}", means[2]),
            format!("{:.3}", means[1]),
            format!("{:.3}", means[3]),
        ]);
        let mut row = vec![n.to_string()];
        for r in [&of_exact[1], &of_exact[0], &of_exact[2]] {
            let mean = r.iter().sum::<f64>() / r.len().max(1) as f64;
            let min = r.iter().copied().fold(f64::INFINITY, f64::min);
            row.push(format!("{mean:.3}"));
            row.push(if r.is_empty() {
                "—".into()
            } else {
                format!("{min:.3}")
            });
        }
        ratios.row(row);
    }
    // Larger pools: exact infeasible, approximations keep working.
    for &n in &[100usize, 300] {
        let mut means = [0.0f64; 4];
        let runs = 3;
        for seed in 0..runs {
            let (cands, aff) = clustered_instance(n, 8, seed);
            for (i, alg) in all_algorithms(seed).iter().enumerate() {
                if i == 0 {
                    continue; // exact skipped: infeasible (see E7)
                }
                if let Some(team) = alg.form(&cands, &aff, &constraints) {
                    means[i] += team.affinity / runs as f64;
                }
            }
        }
        t.row(vec![
            n.to_string(),
            "—".into(),
            format!("{:.3}", means[2]),
            format!("{:.3}", means[1]),
            format!("{:.3}", means[3]),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: exact ≥ local-search ≥ greedy ≫ random\n");
    println!("### E6 — each heuristic's team affinity over the exact optimum's, per instance\n");
    println!("{}", ratios.render());
    println!(
        "a measurement, not a gate: 1.000 is optimal; mean and worst over the instances above\n"
    );
}

/// E7: assignment runtime — where exact explodes (why \[9\]'s approximations
/// exist).
fn e7_assignment_runtime() {
    println!("## E7 — assignment runtime vs pool size\n");
    let constraints = TeamConstraints::sized(3, 5);
    let mut t = TablePrinter::new(&["n", "exact", "exact (no prune)", "local-search", "greedy"]);
    for &n in &[8usize, 12, 16, 20, 24] {
        let (cands, aff) = random_instance(n, 3);
        let time = |f: &dyn Fn() -> Option<Team>| -> String {
            let start = Instant::now();
            let _ = f();
            format!("{:>9.3?}", start.elapsed())
        };
        let exact = ExactBB::default();
        let noprune = ExactBB::without_pruning();
        let local = LocalSearch::default();
        let greedy = GreedyAff::default();
        t.row(vec![
            n.to_string(),
            time(&|| exact.form(&cands, &aff, &constraints)),
            if n <= 20 {
                time(&|| noprune.form(&cands, &aff, &constraints))
            } else {
                "(skipped)".into()
            },
            time(&|| local.form(&cands, &aff, &constraints)),
            time(&|| greedy.form(&cands, &aff, &constraints)),
        ]);
    }
    for &n in &[100usize, 400] {
        let (cands, aff) = random_instance(n, 3);
        let local = LocalSearch::default();
        let greedy = GreedyAff::default();
        let t0 = Instant::now();
        let _ = local.form(&cands, &aff, &constraints);
        let tl = t0.elapsed();
        let t0 = Instant::now();
        let _ = greedy.form(&cands, &aff, &constraints);
        let tg = t0.elapsed();
        t.row(vec![
            n.to_string(),
            "(infeasible)".into(),
            "(infeasible)".into(),
            format!("{tl:>9.3?}"),
            format!("{tg:>9.3?}"),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: exact cost explodes combinatorially; greedy/local stay polynomial\n");
}

/// E8: platform-scale task throughput (§2: ">600,000 tasks performed").
fn e8_scale(full: bool) {
    let n: usize = if full { 600_000 } else { 60_000 };
    println!("## E8 — platform scale: {n} micro-tasks through the CyLog pipeline\n");
    let mut engine = CylogEngine::from_source(
        "rel item(i: id).\nopen judge(i: id) -> (ok: bool).\n\
         rel good(i: id).\ngood(I) :- item(I), judge(I, OK), OK = true.\n\
         rel summary(n: int).\nsummary(count<I>) :- good(I).\n",
    )
    .unwrap();
    let start = Instant::now();
    for i in 0..n as u64 {
        engine.add_fact("item", vec![(i + 1).into()]).unwrap();
    }
    let t_seed = start.elapsed();
    let start = Instant::now();
    engine.run().unwrap();
    let t_demand = start.elapsed();
    let questions = engine.pending_requests().len();
    let start = Instant::now();
    let pending: Vec<_> = engine.pending_requests().to_vec();
    for (k, req) in pending.iter().enumerate() {
        engine
            .answer(
                &req.pred_name,
                req.inputs.clone(),
                vec![(k % 10 != 0).into()],
                Some(1 + (k % 100) as u64),
            )
            .unwrap();
    }
    let t_answer = start.elapsed();
    let start = Instant::now();
    engine.run().unwrap();
    let t_derive = start.elapsed();
    let good = engine.fact_count("good").unwrap();
    let mut t = TablePrinter::new(&["phase", "items", "time", "rate (items/s)"]);
    let rate = |n: usize, d: std::time::Duration| format!("{:.0}", n as f64 / d.as_secs_f64());
    t.row(vec![
        "seed facts".into(),
        n.to_string(),
        format!("{t_seed:.2?}"),
        rate(n, t_seed),
    ]);
    t.row(vec![
        "generate questions".into(),
        questions.to_string(),
        format!("{t_demand:.2?}"),
        rate(questions, t_demand),
    ]);
    t.row(vec![
        "ingest answers".into(),
        questions.to_string(),
        format!("{t_answer:.2?}"),
        rate(questions, t_answer),
    ]);
    t.row(vec![
        "derive results".into(),
        good.to_string(),
        format!("{t_derive:.2?}"),
        rate(good, t_derive),
    ]);
    println!("{}", t.render());
    let summary = engine.facts("summary").unwrap();
    println!("summary fact: {} good items of {n}\n", summary.rows[0][0]);
}

/// Ingest baseline: batched (`answer_batch`, one fixpoint) vs per-answer
/// (`answer` + `run` each) ingestion of 10k answers, plus the
/// many-small-batches regime (100-item waves) where cross-batch
/// incremental evaluation is compared against clear-and-rerun on a
/// byte-identical final state. Records all figures to `BENCH_ingest.json`
/// so CI and future sessions can compare against them, and exits non-zero
/// if the batched path or the incremental path is less than 5× faster
/// than its baseline.
fn ingest_baseline() {
    const N: u64 = 10_000;
    println!("## Ingest baseline — batched vs per-answer at {N} answers\n");

    let (mut engine, answers) = crowd4u_bench::ingest_workload(N);
    let start = Instant::now();
    engine.answer_batch(&answers).unwrap();
    let t_batched = start.elapsed();
    let good_batched = engine.fact_count("good").unwrap();

    let (mut engine, answers) = crowd4u_bench::ingest_workload(N);
    let start = Instant::now();
    for a in answers {
        engine
            .answer(&a.pred, a.inputs, a.outputs, a.worker)
            .unwrap();
        engine.run().unwrap();
    }
    let t_per_answer = start.elapsed();
    assert_eq!(engine.fact_count("good").unwrap(), good_batched);

    let speedup = t_per_answer.as_secs_f64() / t_batched.as_secs_f64();
    let mut t = TablePrinter::new(&["path", "fixpoint runs", "time", "answers/s"]);
    t.row(vec![
        "batched (answer_batch)".into(),
        "1".into(),
        format!("{t_batched:.2?}"),
        format!("{:.0}", N as f64 / t_batched.as_secs_f64()),
    ]);
    t.row(vec![
        "per-answer (answer + run)".into(),
        N.to_string(),
        format!("{t_per_answer:.2?}"),
        format!("{:.0}", N as f64 / t_per_answer.as_secs_f64()),
    ]);
    println!("{}", t.render());
    println!("speedup: {speedup:.1}×\n");

    // Many-small-batches regime: the same items and answers arriving in
    // `WAVE`-sized waves, each fixpointed and answered before the next.
    // Cross-batch incremental evaluation (the default mode) must beat
    // clear-and-rerun by ≥5× *and* land on byte-identical state.
    use crowd4u_cylog::eval::EvalMode;
    const WAVE: u64 = 100;
    println!(
        "## Ingest baseline — incremental vs clear-and-rerun at {N} items in {WAVE}-item waves\n"
    );

    let start = Instant::now();
    let inc = crowd4u_bench::incremental_stream_workload(N, WAVE, EvalMode::Incremental);
    let t_inc = start.elapsed();
    let start = Instant::now();
    let rerun = crowd4u_bench::incremental_stream_workload(N, WAVE, EvalMode::SemiNaive);
    let t_rerun = start.elapsed();
    assert_eq!(
        crowd4u_storage::snapshot::dump(inc.database()),
        crowd4u_storage::snapshot::dump(rerun.database()),
        "incremental and clear-and-rerun must reach byte-identical state"
    );
    assert_eq!(inc.leaderboard(), rerun.leaderboard());
    assert_eq!(inc.pending_requests(), rerun.pending_requests());
    assert_eq!(inc.fact_count("good").unwrap(), good_batched);

    let inc_speedup = t_rerun.as_secs_f64() / t_inc.as_secs_f64();
    let waves = N.div_ceil(WAVE);
    let mut t = TablePrinter::new(&["mode", "waves", "time", "items/s"]);
    t.row(vec![
        "incremental (default)".into(),
        waves.to_string(),
        format!("{t_inc:.2?}"),
        format!("{:.0}", N as f64 / t_inc.as_secs_f64()),
    ]);
    t.row(vec![
        "clear-and-rerun (SemiNaive)".into(),
        waves.to_string(),
        format!("{t_rerun:.2?}"),
        format!("{:.0}", N as f64 / t_rerun.as_secs_f64()),
    ]);
    println!("{}", t.render());
    println!("incremental speedup: {inc_speedup:.1}×\n");

    let json = format!(
        "{{\n  \"experiment\": \"e9_ingest_throughput\",\n  \"answers\": {N},\n  \
         \"batched_ms\": {:.3},\n  \"per_answer_ms\": {:.3},\n  \"speedup\": {:.1},\n  \
         \"wave_items\": {WAVE},\n  \"incremental_ms\": {:.3},\n  \
         \"clear_rerun_ms\": {:.3},\n  \"incremental_speedup\": {:.1},\n  \
         \"good_facts\": {good_batched}\n}}\n",
        t_batched.as_secs_f64() * 1e3,
        t_per_answer.as_secs_f64() * 1e3,
        speedup,
        t_inc.as_secs_f64() * 1e3,
        t_rerun.as_secs_f64() * 1e3,
        inc_speedup,
    );
    std::fs::write("BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    println!("baseline recorded to BENCH_ingest.json");
    assert!(
        speedup >= 5.0,
        "batched ingestion regressed: only {speedup:.1}× faster than per-answer"
    );
    assert!(
        inc_speedup >= 5.0,
        "cross-batch incremental evaluation regressed: only {inc_speedup:.1}× \
         faster than clear-and-rerun"
    );
}

/// E10 baseline: the mixed multi-project workload through the sharded
/// runtime at 1/2/4/8 shards (streaming mode). Records the sweep and the
/// machine's core count to `BENCH_shard.json`, and exits non-zero if one
/// shard's cost per event at the full size exceeds
/// [`SHARD_LINEARITY_MAX`]× its cost at a quarter of the items, or if 4
/// shards are slower than 1. Speed-up beyond that comes only from cores:
/// read `speedup` against `nproc`.
///
/// [`SHARD_LINEARITY_MAX`]: crowd4u_bench::SHARD_LINEARITY_MAX
fn shard_baseline() {
    use crowd4u_bench::{
        best_shard_run, shard_linearity, ShardWorkload, SHARD_LINEARITY_MAX, SHARD_NOT_SLOWER_MIN,
    };
    const REPS: usize = 3;
    let w = ShardWorkload::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "## E10 — shard scaling: {} projects x {} items, drain_every {}, {nproc} cores, best of {REPS}\n",
        w.projects, w.items, w.drain_every
    );
    let mut t = TablePrinter::new(&["shards", "time", "events/s", "speedup"]);
    let mut rows = Vec::new();
    let mut t1 = 0.0f64;
    let mut good_ref = None;
    for &shards in &[1usize, 2, 4, 8] {
        let (secs, events, good) = best_shard_run(shards, &w, REPS);
        match good_ref {
            None => good_ref = Some(good),
            Some(g) => assert_eq!(g, good, "shard counts must derive identical facts"),
        }
        if shards == 1 {
            t1 = secs;
        }
        let rate = events as f64 / secs;
        let speedup = t1 / secs;
        t.row(vec![
            shards.to_string(),
            format!("{:.2} ms", secs * 1e3),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push((shards, secs * 1e3, rate, speedup));
    }
    println!("{}", t.render());

    let (us_small, us_full) = shard_linearity(&w, 2 * REPS);
    let growth = us_full / us_small;
    println!(
        "1 shard: {us_small:.2} us/event at {} items, {us_full:.2} us/event at {} items ({growth:.2}x)\n",
        w.items / 4,
        w.items
    );

    let speedup_4 = rows
        .iter()
        .find(|(s, ..)| *s == 4)
        .map(|(_, _, _, x)| *x)
        .expect("4-shard row");
    let runs: Vec<String> = rows
        .iter()
        .map(|(s, ms, rate, x)| {
            format!(
                "    {{ \"shards\": {s}, \"ms\": {ms:.3}, \"events_per_sec\": {rate:.0}, \
                 \"speedup\": {x:.2} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e10_shard_scaling\",\n  \"nproc\": {nproc},\n  \
         \"projects\": {},\n  \"items\": {},\n  \"drain_every\": {},\n  \
         \"good_facts\": {},\n  \"runs\": [\n{}\n  ],\n  \
         \"speedup_4_shards\": {:.2},\n  \
         \"one_shard_us_per_event\": {{ \"items_{}\": {us_small:.2}, \"items_{}\": {us_full:.2}, \
         \"growth\": {growth:.2} }}\n}}\n",
        w.projects,
        w.items,
        w.drain_every,
        good_ref.unwrap_or(0),
        runs.join(",\n"),
        speedup_4,
        w.items / 4,
        w.items,
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("baseline recorded to BENCH_shard.json");
    assert!(
        growth <= SHARD_LINEARITY_MAX,
        "apply path is super-linear again: 1-shard cost per event grew {growth:.2}x \
         with 4x the items (limit {SHARD_LINEARITY_MAX}x)"
    );
    assert!(
        speedup_4 >= SHARD_NOT_SLOWER_MIN,
        "4 shards are slower than 1 ({speedup_4:.2}x)"
    );
}

/// E11 baseline: concurrent-client admission through the two front doors
/// at 4 shards, with every shard busy (the regime where door capacity
/// matters) — `submitters` client threads staging events over a channel
/// to the one permitted submitter thread (the PR 3 shape) vs the same
/// clients pushing through cloned `IngestGate` handles. Records the
/// comparison to `BENCH_gate.json` and exits non-zero if the gate is less
/// than 1.5× the single-submitter front door.
fn gate_baseline() {
    use crowd4u_bench::{best_gate_admission, FrontDoor, GateWorkload};
    const SHARDS: usize = 4;
    const REPS: usize = 5;
    let w = GateWorkload::default();
    println!(
        "## E11 — ingestion front door: {} clients, {} projects x {} items, {} shards, best of {}\n",
        w.submitters, w.shape.projects, w.shape.items, SHARDS, REPS
    );
    let mut t = TablePrinter::new(&["front door", "admission", "events/s", "speedup"]);
    let mut rows = Vec::new();
    let mut single_secs = 0.0f64;
    let mut good_ref = None;
    for door in [FrontDoor::SingleSubmitter, FrontDoor::Gate] {
        let (elapsed, events, good) = best_gate_admission(door, SHARDS, &w, REPS);
        match good_ref {
            None => good_ref = Some(good),
            Some(g) => assert_eq!(g, good, "front doors must derive identical facts"),
        }
        let secs = elapsed.as_secs_f64();
        if door == FrontDoor::SingleSubmitter {
            single_secs = secs;
        }
        let rate = events as f64 / secs;
        let speedup = single_secs / secs;
        t.row(vec![
            door.name().into(),
            format!("{elapsed:.2?}"),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push((door, secs * 1e3, rate, speedup));
    }
    println!("{}", t.render());

    let speedup = rows
        .iter()
        .find(|(d, ..)| *d == FrontDoor::Gate)
        .map(|(_, _, _, x)| *x)
        .expect("gate row");
    let runs: Vec<String> = rows
        .iter()
        .map(|(d, ms, rate, x)| {
            format!(
                "    {{ \"front_door\": \"{}\", \"ms\": {ms:.3}, \"events_per_sec\": {rate:.0}, \
                 \"speedup\": {x:.2} }}",
                d.name()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e11_gate_throughput\",\n  \"shards\": {SHARDS},\n  \
         \"submitters\": {},\n  \"projects\": {},\n  \"items\": {},\n  \"drain_every\": {},\n  \
         \"good_facts\": {},\n  \"runs\": [\n{}\n  ],\n  \"gate_speedup\": {speedup:.2}\n}}\n",
        w.submitters,
        w.shape.projects,
        w.shape.items,
        w.shape.drain_every,
        good_ref.unwrap_or(0),
        runs.join(",\n"),
    );
    std::fs::write("BENCH_gate.json", &json).expect("write BENCH_gate.json");
    println!("baseline recorded to BENCH_gate.json");
    assert!(
        speedup >= 1.5,
        "gate front door regressed: only {speedup:.2}x the single-submitter front door"
    );
}

/// E9: the three demo scenarios at demo scale, all algorithms.
fn e9_scenarios() {
    println!("## E9 (§2.5) — demo scenarios × assignment algorithms\n");
    let mut t = TablePrinter::new(&[
        "scenario",
        "algorithm",
        "completed",
        "quality",
        "affinity",
        "makespan",
    ]);
    for alg in [AlgorithmChoice::Greedy, AlgorithmChoice::LocalSearch] {
        let cfg = ScenarioConfig::default()
            .with_crowd(60)
            .with_items(6)
            .with_seed(42)
            .with_algorithm(alg);
        for (name, r) in [
            ("translation", translation::run(&cfg).unwrap()),
            ("journalism", journalism::run(&cfg).unwrap()),
            ("surveillance", surveillance::run(&cfg).unwrap()),
        ] {
            t.row(vec![
                name.to_string(),
                alg.name().to_string(),
                format!("{}/{}", r.items_completed, r.items_total),
                format!("{:.3}", r.mean_quality),
                format!("{:.3}", r.mean_team_affinity),
                r.makespan.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
}
