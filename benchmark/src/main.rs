//! Wall-clock Real-path benchmark of the PipeInfer reproduction.
//!
//! ```text
//! pi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Without it every
//! workload runs, each in a fresh child process of this same executable, and
//! the last line collects the children's objects.  See `benchmark/README.md`.

mod adapter;
mod layers;
mod metrics;
mod pair;
mod rng;
mod run;
mod spans;
mod sys;
mod workloads;

use std::process::{Command, Stdio};

/// Default `--seconds`: the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
/// `--seconds` under `--smoke` unless given.
const SMOKE_SECONDS: f64 = 0.4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke]\n\nworkloads:"
    );
    for w in &workloads::ALL {
        eprintln!("  {:<22} {}", w.name, w.why);
    }
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")),
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value("a number").parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                args.seconds = Some(s);
            }
            "--trace" => match value("0 or 1").as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                _ => usage(),
            },
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    args
}

/// Runs every workload in its own child process and prints each child's
/// report followed by one collected JSON line.
fn run_all(args: &Args, seconds: f64) -> i32 {
    let exe = std::env::current_exe().expect("own path");
    let mut collected = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for w in &workloads::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child, so none outlives this loop.
        let out = cmd.output().expect("spawn workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !last.starts_with("{\"correct\"") {
            print!("{stdout}");
            eprintln!("workload {} failed ({})", w.name, out.status);
            return 1;
        }
        println!("== {} ==", w.name);
        for line in stdout.lines().filter(|l| *l != last) {
            println!("{line}");
        }
        let field = |key: &str| -> u64 {
            let at = last.find(key).expect("field present") + key.len();
            last[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("number")
        };
        attempted += field("\"attempted\": ");
        failed += field("\"failed\": ");
        correct &= last.starts_with("{\"correct\": true");
        collected.push(format!("\"{}\": {last}", w.name));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        collected.join(", ")
    );
    i32::from(!correct)
}

fn main() {
    let args = parse_args();
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let code = match &args.workload {
        None => run_all(&args, seconds),
        Some(name) => {
            let Some(workload) = workloads::by_name(name) else {
                eprintln!("unknown workload {name}");
                usage();
            };
            run::run(
                workload,
                &run::Options {
                    seed: args.seed,
                    seconds,
                    traced: args.traced,
                    smoke: args.smoke,
                },
            );
            0
        }
    };
    std::process::exit(code);
}
