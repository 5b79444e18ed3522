//! Smoke test: every example binary must compile and run to completion.
//!
//! The examples exercise the facade crate's re-exports (`pipeinfer::prelude`,
//! `pipeinfer::metrics`, direct `pi_model` paths), so running them guards the
//! public API surface against drift.  `PIPEINFER_SMOKE=1` makes each example
//! generate only a handful of tokens so the whole suite stays fast.

use std::process::Command;

const EXAMPLES: [&str; 4] = ["quickstart", "serving", "trace_viz", "chaos"];

fn run_example(name: &str) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["run", "--quiet", "--offline", "--example", name])
        .env("PIPEINFER_SMOKE", "1")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} failed with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        !output.stdout.is_empty(),
        "example {name} printed nothing to stdout"
    );
}

#[test]
fn quickstart_example_runs() {
    run_example(EXAMPLES[0]);
}

#[test]
fn serving_example_runs() {
    run_example(EXAMPLES[1]);
}

#[test]
fn trace_viz_example_runs() {
    run_example(EXAMPLES[2]);
}

#[test]
fn chaos_example_runs() {
    run_example(EXAMPLES[3]);
}
