//! The paper outputs are an oracle: `report`'s deterministic sections —
//! E1–E6 and E9, every cell a count, a score or a seeded simulation's
//! result — must print exactly `docs/paper_outputs.txt`. E7, E8 and the
//! ablations print wall-clock timings and are not compared.
//!
//! A change that moves a paper number regenerates the file in the same
//! commit and says which cells moved and why:
//!
//! ```text
//! cargo run --release -q -p crowd4u-bench --bin report -- e1 e2 e3 e4 e5 e6 e9 \
//!     > docs/paper_outputs.txt
//! ```

use std::process::Command;

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
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/paper_outputs.txt");
    let want = std::fs::read_to_string(path).expect("docs/paper_outputs.txt is checked in");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "report {} differs from docs/paper_outputs.txt from line {}:\n  got:  {:?}\n  want: {:?}",
            SECTIONS.join(" "),
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first),
        );
    }
}
