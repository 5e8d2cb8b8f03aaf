//! The repository benchmark: times calls into the crates' public
//! functions from outside, checks every output, and prints one line
//! per metric followed by a one-line JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|artifacts|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of the named workload;
//! `--trace 1` makes a separate run of all three workloads that records
//! spans around each layer call and reports the per-layer metrics. See `README.md` for what each metric means
//! and which end-to-end metric each layer moves.

mod artifacts;
mod common;
mod serve;
mod suite;

use common::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["suite", "artifacts", "serve"];

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match workload {
        "suite" => suite::run(seed, seconds, trace),
        "artifacts" => artifacts::run(seed, seconds, trace),
        "serve" => serve::run(seed, seconds, trace),
        _ => unreachable!("unknown workload {workload}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {:?} (suite, artifacts, serve, all)",
            args.workload
        );
        std::process::exit(2);
    }
    if args.trace {
        // The per-layer run covers every layer whichever workload is
        // named: it runs the three traced loops in turn, a third of the
        // time each, and reports all their layer metrics together.
        let mut all = Outcome::default();
        for w in WORKLOADS {
            all.merge(w, run(w, args.seed, args.seconds / 3.0, true));
        }
        all.print(&args.workload);
        return;
    }
    if args.workload == "all" {
        // Every workload in turn, metric names prefixed by workload.
        let mut all = Outcome::default();
        for w in WORKLOADS {
            let mut o = run(w, args.seed, args.seconds, false);
            o.print(w);
            for m in o.metrics.iter_mut().chain(o.details.iter_mut()) {
                m.name = format!("{w}.{}", m.name);
            }
            all.merge(w, o);
        }
        all.print("all");
        return;
    }
    run(&args.workload, args.seed, args.seconds, false).print(&args.workload);
}
