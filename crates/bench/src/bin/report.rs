//! Regenerate every paper figure, experiment and ablation as a text report.
//!
//! ```text
//! cargo run --release -p crowd4u-bench --bin report                # all
//! cargo run --release -p crowd4u-bench --bin report -- e6 ablations # subset
//! cargo run --release -p crowd4u-bench --bin report -- e8full      # full 600k
//! ```
//!
//! Each experiment, E1–E9 (the map is in the `crowd4u_bench` crate docs),
//! and the ablations print one or more markdown tables to stdout and write
//! no file. An unknown section name exits 2. Performance of the running
//! system is the `e2e` benchmark's job, not this binary's.

use crowd4u_assign::prelude::*;
use crowd4u_bench::{all_algorithms, clustered_instance, random_instance, TablePrinter};
use crowd4u_collab::Scheme;
use crowd4u_core::controller::AlgorithmChoice;
use crowd4u_crowd::affinity::{group_affinity, AffinityLookup, AffinityMatrix, SparseAffinity};
use crowd4u_crowd::estimate::{estimate_skills, EstimatorConfig, TeamObservation};
use crowd4u_crowd::profile::WorkerId;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_cylog::eval::EvalMode;
use crowd4u_forms::admin::{constraint_form, parse_constraints};
use crowd4u_forms::form::FormResponse;
use crowd4u_scenarios::{journalism, surveillance, translation, ScenarioConfig};
use crowd4u_sim::rng::SimRng;
use crowd4u_storage::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A report section: its name on the command line and what prints it.
type Section = (&'static str, fn());

/// Every section in print order. `e8full` is E8 at the paper's 600 000
/// items instead of 60 000; it runs only when named.
const SECTIONS: [Section; 11] = [
    ("e1", e1_pipeline),
    ("e2", e2_workflow),
    ("e3", e3_admin_form),
    ("e4", e4_worker_factors),
    ("e5", e5_simultaneous),
    ("e6", e6_assignment_quality),
    ("e7", e7_assignment_runtime),
    ("e8", || e8_scale(false)),
    ("e8full", || e8_scale(true)),
    ("e9", e9_scenarios),
    ("ablations", ablations),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = parse_args(&args).unwrap_or_else(|bad| {
        let valid: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "report: unknown section `{bad}`; valid: {}",
            valid.join(" ")
        );
        std::process::exit(2)
    });

    println!("# Crowd4U reproduction report\n");
    for (_, print) in sections {
        print();
    }
}

/// The sections `args` selects, in print order: every one but `e8full`
/// when `args` is empty, else exactly those named (`e8full` replaces
/// `e8`). An unknown name is returned as the error.
fn parse_args(args: &[String]) -> Result<Vec<Section>, String> {
    let known = |a: &String| SECTIONS.iter().any(|(name, _)| name == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        return Err(bad.clone());
    }
    let named = |s: &str| args.iter().any(|a| a == s);
    let full = named("e8full");
    Ok(SECTIONS
        .into_iter()
        .filter(|&(s, _)| match s {
            "e8full" => full,
            "e8" if full => false,
            _ => args.is_empty() || named(s),
        })
        .collect())
}

/// Mean wall time of one call of `f` over `reps` calls.
fn mean_time<T>(reps: u32, mut f: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed() / reps
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
/// exist), and Grp&Split forming three groups from the same pool.
fn e7_assignment_runtime() {
    println!("## E7 — assignment runtime vs pool size\n");
    let constraints = TeamConstraints::sized(3, 5);
    let mut t = TablePrinter::new(&[
        "n",
        "exact",
        "exact (no prune)",
        "local-search",
        "greedy",
        "grp-split",
    ]);
    let time = |d: Duration| format!("{d:>9.3?}");
    for &n in &[8usize, 12, 16, 20, 24, 100, 400] {
        let (cands, aff) = random_instance(n, 3);
        let exact = |alg: ExactBB, max_n: usize| {
            if n <= max_n {
                time(mean_time(1, || alg.form(&cands, &aff, &constraints)))
            } else if n <= 24 {
                "(skipped)".into()
            } else {
                "(infeasible)".into()
            }
        };
        let local = LocalSearch::default();
        let greedy = GreedyAff::default();
        let split = GrpSplit::new(3);
        t.row(vec![
            n.to_string(),
            exact(ExactBB::default(), 24),
            exact(ExactBB::without_pruning(), 20),
            time(mean_time(1, || local.form(&cands, &aff, &constraints))),
            time(mean_time(1, || greedy.form(&cands, &aff, &constraints))),
            time(mean_time(1, || split.split(&cands, &aff, &constraints))),
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

/// Ablations: three design choices, each timed against its alternative on
/// one fixed instance. Branch-and-bound pruning is E7's "exact (no prune)"
/// column.
fn ablations() {
    println!("## Ablations — each design choice against its alternative\n");

    // CyLog evaluation: the transitive closure of a 150-node path with a
    // chord every tenth node, then one more edge at its end.
    let src = "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
               path(X, Y) :- edge(X, Y).\n\
               path(X, Z) :- edge(X, Y), path(Y, Z).\n";
    let mut t = TablePrinter::new(&["evaluation", "fixpoint", "+1 edge", "path facts"]);
    for (name, mode) in [
        ("naive", EvalMode::Naive),
        ("semi-naive", EvalMode::SemiNaive),
        ("incremental", EvalMode::Incremental),
    ] {
        let mut e = CylogEngine::from_source(src).unwrap();
        e.set_mode(mode);
        for i in 0..150i64 {
            e.add_fact("edge", vec![i.into(), (i + 1).into()]).unwrap();
            if i % 10 == 0 {
                e.add_fact("edge", vec![i.into(), (i + 5).min(150).into()])
                    .unwrap();
            }
        }
        let full = mean_time(1, || e.run().unwrap());
        e.add_fact("edge", vec![150.into(), 151.into()]).unwrap();
        let step = mean_time(1, || e.run().unwrap());
        t.row(vec![
            name.into(),
            format!("{full:.2?}"),
            format!("{step:.2?}"),
            e.fact_count("path").unwrap().to_string(),
        ]);
    }
    println!("### CyLog evaluation: transitive closure over 150 nodes\n");
    println!("{}", t.render());

    // Affinity storage: team formation reads O(k²) pairs per candidate
    // team; 300 workers, every pair set, a 20-member group read.
    let n = 300u64;
    let mut rng = SimRng::seed_from(2);
    let mut dense = AffinityMatrix::new((0..n).map(WorkerId).collect());
    let mut sparse = SparseAffinity::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let v = rng.unit();
            dense.set(WorkerId(i), WorkerId(j), v);
            sparse.set(WorkerId(i), WorkerId(j), v);
        }
    }
    let group: Vec<WorkerId> = (0..20).map(WorkerId).collect();
    let mut t = TablePrinter::new(&["representation", "group_affinity", "value"]);
    for (name, aff) in [
        ("dense", &dense as &dyn AffinityLookup),
        ("sparse", &sparse),
    ] {
        let per = mean_time(10_000, || group_affinity(black_box(aff), black_box(&group)));
        t.row(vec![
            name.into(),
            format!("{per:.2?}"),
            format!("{:.4}", group_affinity(aff, &group)),
        ]);
    }
    println!("### Affinity storage: a 20-member group of 300 workers\n");
    println!("{}", t.render());

    // Storage point lookups, 10 000 rows over 1 000 keys: a secondary
    // index against a scan.
    let mut t = TablePrinter::new(&["relation", "point lookup", "rows per key"]);
    for (name, indexed) in [("indexed", true), ("scan", false)] {
        let mut rel = Relation::new(
            "t",
            Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]),
        );
        if indexed {
            rel.create_index(&["k"], false).unwrap();
        }
        for i in 0..10_000i64 {
            rel.insert(tuple![i % 1000, i]).unwrap();
        }
        let mut k = 0i64;
        let per = mean_time(1_000, || {
            k = (k + 7) % 1000;
            rel.lookup(&[0], &[Value::Int(k)]).len()
        });
        t.row(vec![
            name.into(),
            format!("{per:.2?}"),
            rel.lookup(&[0], &[Value::Int(7)]).len().to_string(),
        ]);
    }
    println!("### Storage: point lookups over 10 000 rows\n");
    println!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|sections| sections.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn no_arguments_select_every_section_but_the_full_e8() {
        let all = parse(&[]).unwrap();
        assert_eq!(all.len(), SECTIONS.len() - 1);
        assert!(!all.contains(&"e8full"));
        assert_eq!(all.first(), Some(&"e1"));
        assert_eq!(all.last(), Some(&"ablations"));
    }

    #[test]
    fn named_sections_print_once_in_report_order() {
        assert_eq!(
            parse(&["ablations", "e7", "e1", "e7"]).unwrap(),
            ["e1", "e7", "ablations"]
        );
        assert_eq!(parse(&["e8", "e8full"]).unwrap(), ["e8full"]);
        assert_eq!(parse(&["e8"]).unwrap(), ["e8"]);
    }

    #[test]
    fn an_unknown_name_is_an_error() {
        assert_eq!(parse(&["e6", "bogus"]), Err("bogus".to_string()));
        assert_eq!(parse(&["E6"]), Err("E6".to_string()));
    }
}
