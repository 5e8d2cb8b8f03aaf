//! The `artifacts` workload: the paper artifacts in quick mode, one
//! artifact regenerated per op through its public `run_traced` with
//! an in-memory trace sink, as the `sz-bench` runners do.

use std::collections::BTreeMap;

use sz_harness::experiments::{anova, bias, fig5, fig6, fig7, nist, table1};
use sz_harness::report::{fmt_verdict, render_table};
use sz_harness::{ExperimentOptions, Json, TraceSink};
use sz_opt::{optimize, OptLevel};
use sz_stats::VerdictConfig;
use sz_workloads::Scale;

use crate::common::{
    derive, guarded, median, op_geomean_ms, paired_median, raw, scaled, Budget, HostClock, Kind,
    Outcome, Sample, SetupTimes, Spans,
};

pub const ARTIFACTS: [&str; 5] = ["table1", "fig6", "fig7", "nist", "bias"];

/// The artifacts `op_geomean_ms` summarises. nist is left out: it draws
/// from the allocators and runs no program, so the calibration kernel,
/// which slows like the simulator under interference, over-corrects
/// it (ten runs spread by 17% of their median scaled, 14% measured).
/// Its median is printed with the run's notes and reported by the
/// traced run as `nist_s.p50`.
const GATED: [&str; 4] = ["table1", "fig6", "fig7", "bias"];

/// `sec32_nist` quick-mode draw count and shuffle sizes.
const NIST_DRAWS: usize = 8_192;
const NIST_SIZES: [usize; 4] = [2, 16, 64, 256];
/// `sec5_bias` quick-mode sweep widths.
const BIAS_ORDERS: usize = 8;
const BIAS_ENV_SIZES: usize = 6;

fn options(seed: u64, threads: usize) -> ExperimentOptions {
    ExperimentOptions {
        threads,
        seed_base: derive(seed, 3, 0),
        ..ExperimentOptions::quick()
    }
}

/// Regenerates one artifact and returns its rendered text.
fn render(artifact: &str, opts: &ExperimentOptions, sink: Option<&TraceSink>) -> String {
    match artifact {
        "table1" => {
            let rows = table1::run_traced(opts, sink);
            let mut text = table1::render(&rows);
            for panel in fig5::from_table1_traced(&rows, sink) {
                text.push_str(&fig5::render_panel(&panel));
            }
            text
        }
        "fig6" => fig6::render(&fig6::run_traced(opts, sink)),
        "fig7" => {
            let rows = fig7::run_traced(opts, sink);
            let mut text = fig7::render(&rows);
            text.push_str(&analyse_fig7(&rows, sink));
            text
        }
        "nist" => nist::render(&nist::run_traced(NIST_DRAWS, &NIST_SIZES, sink)),
        "bias" => {
            let rows: Vec<Vec<String>> = opts
                .selected_suite()
                .iter()
                .map(|spec| {
                    let link = bias::link_order_sweep_traced(opts, spec.name, BIAS_ORDERS, sink);
                    let env = bias::env_size_sweep_traced(opts, spec.name, BIAS_ENV_SIZES, sink);
                    vec![
                        spec.name.to_string(),
                        format!("{:+.1}%", link.swing * 100.0),
                        format!("{:+.1}%", env.swing * 100.0),
                    ]
                })
                .collect();
            render_table(&["Benchmark", "link-order swing", "env-size swing"], &rows)
        }
        other => unreachable!("unknown artifact {other}"),
    }
}

/// The §6.1 ANOVA and the suite reduction over Figure 7's rows.
fn analyse_fig7(rows: &[fig7::Fig7Row], sink: Option<&TraceSink>) -> String {
    let mut text = match anova::run_traced(rows, sink) {
        Ok(result) => anova::render(&result),
        Err(e) => format!("ANOVA unavailable: {e}\n"),
    };
    match fig7::suite_reduction(rows, &VerdictConfig::default()) {
        Ok(r) => text.push_str(&format!(
            "reduced suite: {} ({:.0}% fewer)\nfull: {}\nreduced: {}\n",
            r.selected.join(","),
            r.savings() * 100.0,
            fmt_verdict(&r.full),
            fmt_verdict(&r.reduced)
        )),
        Err(e) => text.push_str(&format!("suite reduction unavailable: {e}\n")),
    }
    text
}

/// What every op of an artifact must reproduce byte for byte.
struct Reference {
    text: String,
    trace: String,
}

/// Regenerates one artifact with an in-memory sink, as the runners do;
/// returns the rendered text and the captured trace.
fn render_captured(artifact: &str, opts: &ExperimentOptions) -> (String, String) {
    let (sink, buffer) = TraceSink::in_memory();
    let text = render(artifact, opts, Some(&sink));
    drop(sink);
    (text, buffer.contents())
}

/// The reference renders: untimed, at the default thread count, with
/// a sink so the traces can be compared and read back.
fn references(seed: u64) -> BTreeMap<&'static str, Reference> {
    let opts = options(seed, ExperimentOptions::paper().threads);
    ARTIFACTS
        .iter()
        .map(|&artifact| {
            let (text, trace) = render_captured(artifact, &opts);
            (artifact, Reference { text, trace })
        })
        .collect()
}

/// Host times of each op, per artifact.
type Times = BTreeMap<&'static str, Vec<Sample>>;

/// One op: regenerate `artifact` (with an in-memory sink, or none),
/// check its output, and record its host time.
fn op(
    artifact: &'static str,
    opts: &ExperimentOptions,
    with_sink: bool,
    reference: &Reference,
    times: &mut Times,
    clock: &mut HostClock,
    out: &mut Outcome,
) {
    out.attempted += 1;
    let (result, sample) = clock.time(|| {
        guarded(|| {
            if with_sink {
                render_captured(artifact, opts)
            } else {
                (render(artifact, opts, None), String::new())
            }
        })
    });
    match result {
        Ok((text, _)) if text != reference.text => out.fail(format!(
            "{artifact}: rendered text differs from the reference render"
        )),
        Ok((_, trace)) if with_sink && trace != reference.trace => out.fail(format!(
            "{artifact}: trace differs from the reference render's"
        )),
        Ok(_) => times.entry(artifact).or_default().push(sample),
        Err(e) => out.fail(format!("{artifact}: {e}")),
    }
}

/// Set-up: build the Tiny suite every quick-mode artifact starts from.
fn setup() {
    for spec in sz_workloads::suite() {
        std::hint::black_box(spec.program(Scale::Tiny));
    }
}

/// Set-ups repeated before each round.
const SETUP_REPS: usize = 3;

fn samples<'a>(times: &'a Times, artifact: &str) -> &'a [Sample] {
    times.get(artifact).map_or(&[][..], Vec::as_slice)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let mut setup_times = SetupTimes::default();
    setup_times.time(&mut clock, setup);
    let references = references(seed);
    let opts = options(seed, 1);
    if trace {
        traced_run(&opts, seconds, &references, &mut clock, &mut out);
        let (kernel_ms, kernels) = clock.kernel_ms();
        out.metric(
            "host.calib_kernel_ms.artifacts",
            kernel_ms,
            "ms",
            kernels,
            Kind::Host,
        );
        return out;
    }
    let budget = Budget::new(seconds);
    let mut times = Times::new();
    let mut rounds = 0;
    while budget.another(rounds, 3) {
        for _ in 0..SETUP_REPS {
            setup_times.time(&mut clock, setup);
        }
        for artifact in ARTIFACTS {
            op(
                artifact,
                &opts,
                true,
                &references[artifact],
                &mut times,
                &mut clock,
                &mut out,
            );
        }
        rounds += 1;
    }
    let kinds: Vec<f64> = GATED
        .iter()
        .map(|artifact| median(&scaled(samples(&times, artifact))))
        .collect();
    op_geomean_ms(&mut out, &kinds, rounds * GATED.len());
    let (setup_s, setup_n) = setup_times.median_s();
    out.metric("setup_s", setup_s, "s", setup_n, Kind::Host);
    let mut measured = Vec::new();
    for artifact in ARTIFACTS {
        let t = samples(&times, artifact);
        measured.push(format!("{artifact} {:.4}", median(&raw(t)) / 1e3));
        if !GATED.contains(&artifact) {
            continue;
        }
        out.detail(
            format!("{artifact}_s"),
            median(&scaled(t)) / 1e3,
            "s",
            t.len(),
            Kind::Host,
        );
    }
    let (kernel_ms, kernels) = clock.kernel_ms();
    out.notes.push(format!(
        "{rounds} rounds; op_geomean_ms is the geometric mean over table1, fig6, fig7 and bias of each one's median scaled time; each <artifact>_s is the median of {rounds} scaled op times (measured medians, s: {}); calibration kernel median {kernel_ms:.3} ms over {kernels} runs; set-up measured median {:.3} ms",
        measured.join(", "),
        setup_times.raw_median_ms()
    ));
    out
}

/// Simulated instructions in a trace's `run` records.
fn sim_instructions(trace: &str) -> Result<u64, String> {
    let mut total = 0;
    for line in trace.lines().filter(|l| l.starts_with("{\"type\":\"run\"")) {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        total += v
            .get("counters")
            .and_then(|c| c.get("instructions"))
            .and_then(Json::as_u64)
            .ok_or("run record without counters.instructions")?;
    }
    Ok(total)
}

/// Per-layer run: each artifact with and without a sink, alternating,
/// plus the optimizer and the fig7 statistics on their own.
fn traced_run(
    opts: &ExperimentOptions,
    seconds: f64,
    references: &BTreeMap<&str, Reference>,
    clock: &mut HostClock,
    out: &mut Outcome,
) {
    let mut spans = Spans::new();
    let mut with = Times::new();
    let mut without = Times::new();
    let mut optimize_ms = Vec::new();
    let mut anova_ms = Vec::new();
    let tiny: Vec<_> = sz_workloads::suite()
        .iter()
        .map(|s| s.program(Scale::Tiny))
        .collect();
    let fig7_rows = fig7::run(opts);
    let budget = Budget::new(seconds);
    let mut rounds = 0;
    while budget.another(rounds, 2) {
        for artifact in ARTIFACTS {
            // Alternate which side of each pair runs first, so a drift
            // in host speed over the run favours neither.
            let pair = if rounds % 2 == 0 {
                [(true, &mut with), (false, &mut without)]
            } else {
                [(false, &mut without), (true, &mut with)]
            };
            for (with_sink, times) in pair {
                spans.next_op();
                let id = spans.enter(format!(
                    "artifact.{artifact}.{}",
                    if with_sink { "sink" } else { "nosink" }
                ));
                op(
                    artifact,
                    opts,
                    with_sink,
                    &references[artifact],
                    times,
                    clock,
                    out,
                );
                spans.exit(id);
            }
        }
        spans.next_op();
        let (_, took) = clock.time(|| {
            spans.span("szopt.optimize", || {
                for p in &tiny {
                    for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                        std::hint::black_box(optimize(p, level));
                    }
                }
            })
        });
        optimize_ms.push(took);
        spans.next_op();
        let (_, took) = clock.time(|| {
            spans.span("szstats.anova_reduce", || {
                std::hint::black_box(anova::run(&fig7_rows).ok());
                std::hint::black_box(
                    fig7::suite_reduction(&fig7_rows, &VerdictConfig::default()).ok(),
                );
            })
        });
        anova_ms.push(took);
        rounds += 1;
    }

    for artifact in ARTIFACTS {
        let (w, wo) = (samples(&with, artifact), samples(&without, artifact));
        if GATED.contains(&artifact) {
            out.metric(
                format!("{artifact}_s"),
                median(&scaled(w)) / 1e3,
                "s",
                w.len(),
                Kind::Host,
            );
        }
        out.metric(
            format!("{artifact}_s.p50"),
            median(&raw(w)) / 1e3,
            "s",
            w.len(),
            Kind::Host,
        );
        match sim_instructions(&references[artifact].trace) {
            // nist simulates no program: it draws from allocators.
            Ok(0) => {}
            Ok(instr) => {
                out.metric(
                    format!("artifact.{artifact}.sim_minstr"),
                    instr as f64 / 1e6,
                    "Minstr",
                    1,
                    Kind::Sim,
                );
                let ns = median(&scaled(w)) * 1e6 / instr as f64;
                out.metric(
                    format!("artifact.{artifact}.ns_per_instr"),
                    ns,
                    "ns",
                    w.len(),
                    Kind::Host,
                );
            }
            Err(e) => out.fail(format!("{artifact}: unreadable trace: {e}")),
        }
        out.metric(
            format!("harness.trace_jsonl_ms.{artifact}"),
            paired_median(&raw(w), &raw(wo)),
            "ms",
            w.len().min(wo.len()),
            Kind::Host,
        );
    }
    out.metric(
        "szopt.optimize_ms",
        median(&scaled(&optimize_ms)),
        "ms",
        optimize_ms.len(),
        Kind::Host,
    );
    out.metric(
        "szstats.anova_reduce_ms",
        median(&scaled(&anova_ms)),
        "ms",
        anova_ms.len(),
        Kind::Host,
    );
    if let Some(path) = spans.write("artifacts-spans.jsonl") {
        out.notes.push(format!(
            "{} spans written to {}",
            spans.all().len(),
            path.display()
        ));
    }
}
