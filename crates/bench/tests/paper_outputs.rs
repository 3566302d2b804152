//! The paper outputs are an oracle: `report`'s deterministic sections —
//! E1–E6 and E9, every cell a count, a score or a seeded simulation's
//! result — must print exactly `docs/paper_outputs.txt`, and the
//! translation example (demo scenario 1) with its default arguments
//! exactly `docs/translation_output.txt`. E7, E8 and the ablations print
//! wall-clock timings and are not compared.
//!
//! A change that moves a paper number regenerates the file in the same
//! commit and says which cells moved and why:
//!
//! ```text
//! cargo run --release -q -p crowd4u-bench --bin report -- e1 e2 e3 e4 e5 e6 e9 \
//!     > docs/paper_outputs.txt
//! cargo run --release -q --example translation > docs/translation_output.txt
//! ```

use std::process::Command;

/// The example's own output code, compiled into this test.
#[path = "../../../examples/translation/demo.rs"]
mod translation_demo;

/// The checked-in file `docs/<name>`.
fn golden(name: &str) -> String {
    let path = format!("{}/../../docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} is checked in: {e}"))
}

/// Panic at the first line where `got` and `want` differ.
fn assert_same(what: &str, file: &str, got: &str, want: &str) {
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{what} differs from docs/{file} from line {}:\n  got:  {:?}\n  want: {:?}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first),
        );
    }
}

const SECTIONS: [&str; 7] = ["e1", "e2", "e3", "e4", "e5", "e6", "e9"];

#[test]
fn deterministic_report_sections_match_the_checked_in_outputs() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(SECTIONS)
        .output()
        .expect("report runs");
    assert!(
        out.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("report prints UTF-8");
    let what = format!("report {}", SECTIONS.join(" "));
    let file = "paper_outputs.txt";
    assert_same(&what, file, &got, &golden(file));
}

#[test]
fn translation_example_matches_the_checked_in_output() {
    let got = translation_demo::output(60, 12, 42);
    let file = "translation_output.txt";
    assert_same("examples/translation", file, &got, &golden(file));
}
