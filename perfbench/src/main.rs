//! End-to-end benchmark of the divisible-load scheduler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, checks the program's
//! outputs against the slow oracles, repeats its unit of work until
//! `--seconds` have elapsed, and prints one JSON object as the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The workloads and metrics are
//! described in `perfbench/README.md`.

mod fleet;
mod online;
mod plan;
mod report;
mod watch;

use report::Outcome;
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use watch::Watch;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "online-steady",
    "online-drift",
    "plan-k1000",
    "service-fleet",
];

/// A run that has not printed its result by now is stopped and reported
/// as failed, so it ends well inside the 180 s a run may take.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Print the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

const USAGE: &str =
    "usage: dls-perfbench --workload <online-steady|online-drift|plan-k1000|service-fleet> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds `{value}` (0 < s <= 120)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(args: &Args, watch: &Watch) -> Outcome {
    match args.workload.as_str() {
        "online-steady" => online::run(args, watch, false),
        "online-drift" => online::run(args, watch, true),
        "plan-k1000" => plan::run(args, watch),
        "service-fleet" => fleet::run(args, watch),
        other => unreachable!("workload `{other}` passed argument validation"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dls-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let watch = Arc::new(Watch::new(args.workload.as_str()));
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let worker = {
        let (args, watch) = (args.clone(), watch.clone());
        std::thread::Builder::new()
            .name("perfbench-workload".into())
            .spawn(move || {
                let _ = tx.send(run_workload(&args, &watch));
            })
            .expect("spawn the workload thread")
    };
    // The watchdog: poll until the workload reports, a unit of work
    // (epoch, sweep or daemon op) overruns its limit, or the run limit
    // is reached. A wedged unit counts as failed instead of hanging the
    // benchmark; the process exit then ends the stuck thread.
    let outcome = loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(outcome) => {
                worker
                    .join()
                    .expect("the workload thread has already reported");
                break outcome;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The workload thread panicked: its message is on stderr.
                let _ = worker.join();
                let mut outcome = watch.abandoned("the workload panicked");
                outcome.panicked = true;
                break outcome;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(stuck) = watch.overrun() {
                    break watch.abandoned(&stuck);
                }
                if started.elapsed() > RUN_LIMIT {
                    break watch.abandoned("the run limit was reached");
                }
            }
        }
    };
    outcome.print(&args, &watch);
    if outcome.panicked {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload plan-k1000 --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "plan-k1000");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload plan-k1000 --trace 2",
            "--workload plan-k1000 --seconds 0",
            "--workload plan-k1000 --seed",
            "--workload plan-k1000 --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
