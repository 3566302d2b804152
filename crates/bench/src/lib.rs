//! # crowd4u-bench — paper-figure support
//!
//! Team-formation instance generators and the table printer for the
//! `report` binary, which regenerates the paper's figures and experiments
//! as text tables (`cargo run -p crowd4u-bench --bin report`).
//!
//! Section map (one `report` section each): E1 = Figure 1 pipeline,
//! E2 = Figure 2 workflow, E3 = Figure 3 admin form, E4 = Figure 4 worker
//! factors, E5 = Figure 5 simultaneous session, E6/E7 = the
//! assignment-algorithm quality/runtime evaluation the demo adapts from
//! Rahman et al. \[9\] (E7 with Grp&Split beside it), E8 = platform scale
//! ("600,000 tasks performed"), E9 = the three demo scenarios, and
//! `ablations` = CyLog evaluation modes, affinity storage and indexed
//! lookups, each against its alternative. The running system's
//! performance is measured by the `e2e` benchmark (`src/bin/e2e/`), which
//! imports nothing from this library.

use crowd4u_assign::prelude::*;
use crowd4u_crowd::affinity::AffinityMatrix;
use crowd4u_crowd::profile::WorkerId;
use crowd4u_sim::rng::SimRng;

/// A random team-formation instance: `n` workers with uniform skills,
/// costs in `[0, 3)` and uniform pairwise affinities.
pub fn random_instance(n: usize, seed: u64) -> (Vec<Candidate>, AffinityMatrix) {
    let mut rng = SimRng::seed_from(seed);
    let cands: Vec<Candidate> = (0..n as u64)
        .map(|i| Candidate::new(WorkerId(i), rng.unit(), rng.range_f64(0.0, 3.0)))
        .collect();
    let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
    for i in 0..n as u64 {
        for j in (i + 1)..n as u64 {
            m.set(WorkerId(i), WorkerId(j), rng.unit());
        }
    }
    (cands, m)
}

/// A clustered instance (k clusters, high intra / low inter affinity) —
/// the regime where affinity-aware assignment visibly beats random.
pub fn clustered_instance(
    n: usize,
    clusters: usize,
    seed: u64,
) -> (Vec<Candidate>, AffinityMatrix) {
    let mut rng = SimRng::seed_from(seed);
    let cands: Vec<Candidate> = (0..n as u64)
        .map(|i| Candidate::new(WorkerId(i), 0.4 + 0.6 * rng.unit(), 0.0))
        .collect();
    let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
    let k = clusters.max(1);
    for i in 0..n {
        for j in (i + 1)..n {
            let same = (i % k) == (j % k);
            let base = if same { 0.75 } else { 0.15 };
            let v = (base + 0.15 * rng.gaussian()).clamp(0.0, 1.0);
            m.set(WorkerId(i as u64), WorkerId(j as u64), v);
        }
    }
    (cands, m)
}

/// All competing formation algorithms for E6/E7, boxed behind the trait.
pub fn all_algorithms(seed: u64) -> Vec<Box<dyn TeamFormation>> {
    vec![
        Box::new(ExactBB::default()),
        Box::new(GreedyAff::default()),
        Box::new(LocalSearch::default()),
        Box::new(RandomTeam::new(seed)),
    ]
}

/// Markdown-style table printer for experiment reports.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    pub fn new(headers: &[&str]) -> TablePrinter {
        TablePrinter {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(width) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('|');
        for w in &width {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::affinity::AffinityLookup;

    #[test]
    fn random_instance_is_seeded() {
        let (c1, m1) = random_instance(12, 5);
        let (c2, m2) = random_instance(12, 5);
        assert_eq!(c1, c2);
        assert_eq!(
            m1.affinity(WorkerId(0), WorkerId(5)),
            m2.affinity(WorkerId(0), WorkerId(5))
        );
        let (c3, _) = random_instance(12, 6);
        assert_ne!(c1, c3);
    }

    #[test]
    fn clustered_instance_has_structure() {
        let (_, m) = clustered_instance(30, 3, 7);
        let mut same = Vec::new();
        let mut cross = Vec::new();
        for i in 0..30u64 {
            for j in (i + 1)..30 {
                let a = m.affinity(WorkerId(i), WorkerId(j));
                if i % 3 == j % 3 {
                    same.push(a);
                } else {
                    cross.push(a);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&same) > mean(&cross) + 0.3);
    }

    #[test]
    fn algorithms_enumerated() {
        let algs = all_algorithms(1);
        assert_eq!(algs.len(), 4);
        let names: Vec<&str> = algs.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"exact-bb"));
        assert!(names.contains(&"random"));
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = TablePrinter::new(&["alg", "affinity"]);
        t.row(vec!["exact".into(), "0.91".into()]);
        t.row(vec!["greedy-longer-name".into(), "0.88".into()]);
        let out = t.render();
        assert!(out.contains("| alg"));
        assert!(out.lines().count() == 4);
        assert!(out.contains("|---"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_bad_arity() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
