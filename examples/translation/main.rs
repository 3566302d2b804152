//! Demo scenario 1 (§2.5): video subtitle generation and translation with
//! **sequential** collaboration — workers improve each other's
//! contributions through dynamically generated follow-up tasks
//! (transcribe → translate → review).
//!
//! Run with: `cargo run --example translation [crowd] [items] [seed]`
//!
//! The default arguments' output is pinned in
//! `docs/translation_output.txt` (the bench package's `paper_outputs`
//! test compares it).

mod demo;

fn main() {
    let mut args = std::env::args().skip(1);
    let crowd: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);
    let items: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    print!("{}", demo::output(crowd, items, seed));
}
