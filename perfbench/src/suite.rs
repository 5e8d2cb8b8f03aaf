//! The `suite` workload: the 18 benchmarks at `Scale::Small` under
//! each layout engine, one (benchmark, engine) run per op.
//!
//! Ops run in passes over all 54 (benchmark, engine) cases. The
//! STABILIZER cases use one run seed per case, derived from the
//! workload seed, so every pass repeats the same simulated work and
//! each distinct case is checked once against `run_reference`.

use std::time::Duration;

use stabilizer::{prepare_program, Config, Stabilizer, Stats};
use sz_harness::runner::stabilized_reports;
use sz_harness::ExperimentOptions;
use sz_ir::Program;
use sz_machine::{MachineConfig, PerfCounters};
use sz_rng::{Rng, SplitMix64};
use sz_vm::{run_reference, LayoutEngine, RunLimits, RunReport, SimpleLayout, Vm};
use sz_workloads::Scale;

use crate::common::{
    derive, geomean, guarded, median, ms, op_geomean_ms, Budget, HostClock, Kind, Outcome,
    SetupTimes, Spans,
};

pub const ENGINES: [&str; 3] = ["simple", "stab_once", "stab_rerand"];

/// One benchmark with its run seeds (index 0, SimpleLayout, is unused).
struct Case {
    name: &'static str,
    program: Program,
    seeds: [u64; 3],
}

fn options(seed_base: u64) -> ExperimentOptions {
    ExperimentOptions {
        threads: 1,
        seed_base,
        ..ExperimentOptions::paper()
    }
}

fn config(engine: usize) -> Config {
    if engine == 1 {
        Config::one_time()
    } else {
        Config::default()
    }
}

fn build_suite(seed: u64) -> Vec<Case> {
    sz_workloads::suite()
        .iter()
        .enumerate()
        .map(|(b, spec)| Case {
            name: spec.name,
            program: spec.program(Scale::Small),
            seeds: [0, derive(seed, 1, b as u64), derive(seed, 2, b as u64)],
        })
        .collect()
}

/// One op as a user runs it: SimpleLayout through `Vm::run`,
/// STABILIZER through `runner::stabilized_reports`.
fn run_op(case: &Case, engine: usize) -> RunReport {
    let machine = MachineConfig::core_i3_550();
    if engine == 0 {
        return Vm::new(&case.program)
            .run(&mut SimpleLayout::new(), machine, RunLimits::default())
            .expect("benchmark programs terminate");
    }
    let mut reports = stabilized_reports(
        &case.program,
        &options(case.seeds[engine]),
        config(engine),
        1,
    );
    reports.pop().expect("one run requested")
}

/// The engine `stabilized_reports` builds for run 0 of a case: the
/// runner mixes the seed with a structural fingerprint of the program
/// and substitutes the experiment interval for the library default.
///
/// This mirrors private code of `sz_harness::runner`
/// (`stabilized_reports_range` and `parallel_reports_range`, which
/// give run `i` the seed `seed_base + i`) because the runner does not
/// expose its per-run engine constructor. It must follow any change
/// there: if the two drift apart, `check` reports every STABILIZER op
/// as differing from `run_reference`, and the traced split path no
/// longer reproduces the untraced op.
fn stabilizer_for(case: &Case, engine: usize, info: &stabilizer::TransformInfo) -> Stabilizer {
    let opts = options(case.seeds[engine]);
    let mut mix = SplitMix64::new(opts.seed_base ^ program_fingerprint(&case.program));
    let config = config(engine);
    let config = if config.interval == Config::default().interval {
        config.with_interval(opts.interval)
    } else {
        config
    };
    Stabilizer::new(config.with_seed(mix.next_u64()), &opts.machine, info)
}

/// Mirror of `sz_harness::runner::program_fingerprint` (private there;
/// it reads only public fields of the program).
fn program_fingerprint(p: &Program) -> u64 {
    let mut h = SplitMix64::new(p.code_size());
    let mut acc = h.next_u64();
    for f in &p.functions {
        let mut g = SplitMix64::new(
            f.code_size() ^ (u64::from(f.num_regs) << 40) ^ (u64::from(f.num_slots) << 20),
        );
        acc = acc.rotate_left(7) ^ g.next_u64();
    }
    let mut g = SplitMix64::new(p.global_size() ^ (p.instr_count() as u64) << 13);
    acc ^ g.next_u64()
}

/// The reference interpreter's report for a case: the oracle every op
/// output must equal bit for bit.
fn reference(case: &Case, engine: usize) -> RunReport {
    let machine = MachineConfig::core_i3_550();
    let limits = RunLimits::default();
    let result = if engine == 0 {
        run_reference(&case.program, &mut SimpleLayout::new(), machine, limits)
    } else {
        let (prepared, info) = prepare_program(&case.program);
        let mut engine = stabilizer_for(case, engine, &info);
        run_reference(
            &prepared,
            &mut engine as &mut dyn LayoutEngine,
            machine,
            limits,
        )
    };
    result.expect("benchmark programs terminate")
}

/// Host time of one op (measured, and scaled by the host clock), and
/// whether its report equals the first report of its case.
#[derive(Debug, Clone, Copy)]
struct OpTime {
    took: Duration,
    scaled_ms: f64,
    instructions: u64,
    repeats: bool,
}

/// One pass, indexed `[benchmark][engine]`.
type Pass = Vec<[OpTime; 3]>;

/// The first report of each case. Later ops are compared with it as
/// they finish, so the process holds the same reports whatever the
/// run length.
type Firsts = Vec<[Option<RunReport>; 3]>;

fn untraced_pass(
    cases: &[Case],
    firsts: &mut Firsts,
    clock: &mut HostClock,
    out: &mut Outcome,
) -> Pass {
    cases
        .iter()
        .zip(firsts.iter_mut())
        .map(|(case, first)| {
            std::array::from_fn(|engine| {
                out.attempted += 1;
                let (report, sample) = clock.time(|| guarded(|| run_op(case, engine)));
                let (took, scaled_ms) = (sample.took, sample.scaled_ms);
                let report = match report {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("{} {}: {e}", case.name, ENGINES[engine]));
                        return OpTime {
                            took,
                            scaled_ms,
                            instructions: 0,
                            repeats: false,
                        };
                    }
                };
                let repeats = match &first[engine] {
                    Some(f) => *f == report,
                    None => {
                        first[engine] = Some(report.clone());
                        true
                    }
                };
                if !repeats {
                    out.fail(format!(
                        "{} {}: report differs from the case's first",
                        case.name, ENGINES[engine]
                    ));
                }
                OpTime {
                    took,
                    scaled_ms,
                    instructions: report.instructions,
                    repeats,
                }
            })
        })
        .collect()
}

/// Checks the first report of each case against `run_reference`; a
/// mismatch fails every op that reproduced it.
fn check(cases: &[Case], passes: &[Pass], firsts: &Firsts, out: &mut Outcome) {
    for (b, case) in cases.iter().enumerate() {
        for engine in 0..3 {
            let Some(first) = &firsts[b][engine] else {
                continue;
            };
            if *first != reference(case, engine) {
                for _ in passes.iter().filter(|p| p[b][engine].repeats) {
                    out.fail(format!(
                        "{} {}: report differs from run_reference",
                        case.name, ENGINES[engine]
                    ));
                }
            }
        }
    }
}

/// Median host ns per simulated instruction of each case over the
/// passes, from the scaled or the measured op times.
fn ns_per_instr(cases: &[Case], passes: &[Pass], scaled: bool) -> Vec<[f64; 3]> {
    (0..cases.len())
        .map(|b| {
            std::array::from_fn(|engine| {
                let per: Vec<f64> = passes
                    .iter()
                    .map(|p| p[b][engine])
                    .filter(|op| op.repeats)
                    .map(|op| {
                        let ns = if scaled {
                            op.scaled_ms * 1e6
                        } else {
                            op.took.as_nanos() as f64
                        };
                        ns / op.instructions as f64
                    })
                    .collect();
                median(&per)
            })
        })
        .collect()
}

fn pass_ms(pass: &Pass) -> f64 {
    pass.iter()
        .flat_map(|ops| ops.iter().map(|op| ms(op.took)))
        .sum()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let mut setup = SetupTimes::default();
    let cases = setup.time(&mut clock, || build_suite(seed));
    let mut firsts: Firsts = vec![[None, None, None]; cases.len()];
    let mut passes = Vec::new();
    let mut traced = Traced::new(cases.len());
    let budget = Budget::new(seconds);
    // A traced run alternates untraced and traced passes, so both see
    // the same host conditions.
    while budget.another(passes.len(), 3) {
        for _ in 0..SETUP_REPS {
            setup.time(&mut clock, || build_suite(seed));
        }
        // Every other pair runs its traced pass first, so a drift in
        // host speed over the run favours neither side.
        let traced_first = trace && passes.len() % 2 == 1;
        if traced_first {
            traced.pass(&cases, &firsts, &mut clock, &mut out);
        }
        passes.push(untraced_pass(&cases, &mut firsts, &mut clock, &mut out));
        if trace && !traced_first {
            traced.pass(&cases, &firsts, &mut clock, &mut out);
        }
    }
    check(&cases, &passes, &firsts, &mut out);
    if !trace {
        let kinds: Vec<f64> = (0..cases.len())
            .flat_map(|b| (0..3).map(move |engine| (b, engine)))
            .map(|(b, engine)| {
                let per: Vec<f64> = passes
                    .iter()
                    .map(|p| &p[b][engine])
                    .filter(|op| op.repeats)
                    .map(|op| op.scaled_ms)
                    .collect();
                median(&per)
            })
            .collect();
        op_geomean_ms(&mut out, &kinds, passes.len() * cases.len() * 3);
        let (setup_s, setup_n) = setup.median_s();
        out.metric("setup_s", setup_s, "s", setup_n, Kind::Host);
        let per = ns_per_instr(&cases, &passes, true);
        for (engine, name) in ENGINES.iter().enumerate() {
            let values: Vec<f64> = per.iter().map(|p| p[engine]).collect();
            out.detail(
                format!("ns_per_instr.{name}"),
                geomean(&values),
                "ns",
                passes.len() * cases.len(),
                Kind::Host,
            );
        }
        let measured = ns_per_instr(&cases, &passes, false);
        let measured: Vec<f64> = (0..3)
            .map(|e| geomean(&measured.iter().map(|p| p[e]).collect::<Vec<_>>()))
            .collect();
        let (kernel_ms, kernels) = clock.kernel_ms();
        out.notes.push(format!(
            "{} passes of {} ops; op_geomean_ms is the geometric mean over the {} (benchmark, engine) kinds of each one's median scaled op time; ns_per_instr is the geometric mean over the {} benchmarks of each one's median of {} scaled op times (measured: {:.3}, {:.3}, {:.3} ns); calibration kernel median {kernel_ms:.3} ms over {kernels} runs; set-up measured median {:.3} ms",
            passes.len(),
            cases.len() * 3,
            cases.len() * 3,
            cases.len(),
            passes.len(),
            measured[0],
            measured[1],
            measured[2],
            setup.raw_median_ms()
        ));
        return out;
    }
    traced.report(&cases, &passes, &firsts, &setup, &mut out);
    let (kernel_ms, kernels) = clock.kernel_ms();
    out.metric(
        "host.calib_kernel_ms.suite",
        kernel_ms,
        "ms",
        kernels,
        Kind::Host,
    );
    out
}

/// Set-ups repeated before each pass.
const SETUP_REPS: usize = 3;

/// The traced passes: each op split into its layer calls, one span
/// per call, plus per-pass self time of each layer.
struct Traced {
    spans: Spans,
    prepare: Vec<f64>,
    decode: Vec<f64>,
    run: [Vec<f64>; 3],
    op_self: Vec<f64>,
    total: Vec<f64>,
    stats: Vec<[Option<Stats>; 3]>,
}

/// One traced op: the same work as [`run_op`], split into its layer
/// calls so each gets a span. Returns the report and, for STABILIZER
/// engines, the runtime's activity counters.
fn traced_op(case: &Case, engine: usize, spans: &mut Spans) -> (RunReport, Option<Stats>) {
    let machine = MachineConfig::core_i3_550();
    let root = spans.enter(format!("suite.op.{}", ENGINES[engine]));
    let result = if engine == 0 {
        let vm = spans.span("szvm.decode", || Vm::new(&case.program));
        let report = spans.span("szvm.run.simple", || {
            vm.run(&mut SimpleLayout::new(), machine, RunLimits::default())
        });
        (report.expect("benchmark programs terminate"), None)
    } else {
        let (prepared, info) = spans.span("core.prepare", || prepare_program(&case.program));
        let vm = spans.span("szvm.decode", || Vm::new(&prepared));
        let (report, stats) = spans.span(format!("szvm.run.{}", ENGINES[engine]), || {
            let mut engine = stabilizer_for(case, engine, &info);
            let report = vm.run(&mut engine, machine, RunLimits::default());
            (report, engine.stats())
        });
        (report.expect("benchmark programs terminate"), Some(stats))
    };
    spans.exit(root);
    result
}

impl Traced {
    fn new(cases: usize) -> Traced {
        Traced {
            spans: Spans::new(),
            prepare: Vec::new(),
            decode: Vec::new(),
            run: Default::default(),
            op_self: Vec::new(),
            total: Vec::new(),
            stats: vec![[None; 3]; cases],
        }
    }

    /// One traced pass. Its ops are bracketed by calibration kernel
    /// runs like the untraced ones, though their times are not scaled,
    /// so that both passes of a pair run with the kernel's cache
    /// footprint between ops.
    fn pass(&mut self, cases: &[Case], firsts: &Firsts, clock: &mut HostClock, out: &mut Outcome) {
        let from = self.spans.all().len();
        for (b, case) in cases.iter().enumerate() {
            for engine in 0..3 {
                out.attempted += 1;
                self.spans.next_op();
                let spans = &mut self.spans;
                let (op, _) = clock.time(|| guarded(|| traced_op(case, engine, spans)));
                let (report, stats) = match op {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("{} {} (traced): {e}", case.name, ENGINES[engine]));
                        continue;
                    }
                };
                // Counts repeat exactly at one seed, and the split path
                // reproduces the untraced op's report.
                let seen = &mut self.stats[b][engine];
                if seen.is_some() && *seen != stats {
                    out.fail(format!(
                        "{} {}: Stabilizer::stats() changed between passes",
                        case.name, ENGINES[engine]
                    ));
                }
                *seen = stats;
                if firsts[b][engine].as_ref() != Some(&report) {
                    out.fail(format!(
                        "{} {}: traced report differs from the untraced op",
                        case.name, ENGINES[engine]
                    ));
                }
            }
        }
        let own = self.spans.self_times();
        let spans = &self.spans.all()[from..];
        let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
            spans
                .iter()
                .zip(&own[from..])
                .filter(|(s, _)| pred(&s.name))
                .map(|(_, d)| ms(*d))
                .sum()
        };
        self.prepare.push(sum(&|n| n == "core.prepare"));
        self.decode.push(sum(&|n| n == "szvm.decode"));
        for (e, name) in ENGINES.iter().enumerate() {
            let span = format!("szvm.run.{name}");
            self.run[e].push(sum(&|n| n == span));
        }
        self.op_self.push(sum(&|n| n.starts_with("suite.op.")));
        self.total.push(sum(&|_| true));
    }

    fn report(
        self,
        cases: &[Case],
        passes: &[Pass],
        firsts: &Firsts,
        setup: &SetupTimes,
        out: &mut Outcome,
    ) {
        let (build_s, builds) = setup.median_s();
        out.metric(
            "szworkloads.build_ms",
            build_s * 1e3,
            "ms",
            builds,
            Kind::Host,
        );

        // Layer accounting uses one adjacent (untraced, traced) pair of
        // passes: the pair whose residual is the median. Its layer self
        // times plus the residual add up to its untraced total exactly,
        // and its two passes ran under the same host conditions.
        let untraced: Vec<f64> = passes.iter().map(pass_ms).collect();
        let layers = |i: usize| {
            self.prepare[i]
                + self.decode[i]
                + self.run.iter().map(|r| r[i]).sum::<f64>()
                + self.op_self[i]
        };
        let mut order: Vec<usize> = (0..self.total.len()).collect();
        order.sort_by(|&a, &b| (untraced[a] - layers(a)).total_cmp(&(untraced[b] - layers(b))));
        let pair = order[order.len() / 2];
        let n = self.total.len();
        let run: [f64; 3] = std::array::from_fn(|e| self.run[e][pair]);
        out.metric("core.prepare_ms", self.prepare[pair], "ms", n, Kind::Host);
        out.metric("szvm.decode_ms", self.decode[pair], "ms", n, Kind::Host);
        for (e, name) in ENGINES.iter().enumerate() {
            out.metric(format!("szvm.run_ms.{name}"), run[e], "ms", n, Kind::Host);
        }
        out.metric(
            "core.runtime_share",
            1.0 - run[0] / run[2],
            "ratio",
            n,
            Kind::Host,
        );
        let layers = layers(pair);
        out.metric(
            "suite.untraced_pass_ms",
            untraced[pair],
            "ms",
            n,
            Kind::Host,
        );
        out.metric(
            "suite.traced_pass_ms",
            self.total[pair],
            "ms",
            n,
            Kind::Host,
        );
        out.metric("suite.op_self_ms", self.op_self[pair], "ms", n, Kind::Host);
        out.metric(
            "suite.residual_ms",
            untraced[pair] - layers,
            "ms",
            n,
            Kind::Host,
        );
        out.metric(
            "suite.trace_overhead_ms",
            self.total[pair] - untraced[pair],
            "ms",
            n,
            Kind::Host,
        );

        let scaled = ns_per_instr(cases, passes, true);
        let mid = ns_per_instr(cases, passes, false);
        for (e, name) in ENGINES.iter().enumerate() {
            for (suffix, per) in [("", &scaled), (".p50", &mid)] {
                let values: Vec<f64> = per.iter().map(|p| p[e]).collect();
                out.metric(
                    format!("ns_per_instr.{name}{suffix}"),
                    geomean(&values),
                    "ns",
                    passes.len() * cases.len(),
                    Kind::Host,
                );
            }
        }
        for (e, name) in [(0, "simple"), (2, "stab_rerand")] {
            for (b, case) in cases.iter().enumerate() {
                out.metric(
                    format!("ns_per_instr.{name}.{}", case.name),
                    scaled[b][e],
                    "ns",
                    passes.len(),
                    Kind::Host,
                );
            }
        }

        sim_counts(cases, firsts, &self.stats, out);
        if let Some(path) = self.spans.write("suite-spans.jsonl") {
            out.notes.push(format!(
                "{} spans written to {}",
                self.spans.all().len(),
                path.display()
            ));
        }
    }
}

/// Simulated counters and STABILIZER runtime counts of one pass.
fn sim_counts(
    cases: &[Case],
    reports: &[[Option<RunReport>; 3]],
    stats: &[[Option<Stats>; 3]],
    out: &mut Outcome,
) {
    let n = cases.len();
    let mut all = PerfCounters::default();
    for (e, name) in ENGINES.iter().enumerate() {
        let mut c = PerfCounters::default();
        for r in reports.iter().filter_map(|r| r[e].as_ref()) {
            add(&mut c, &r.counters);
        }
        out.metric(
            format!("szmachine.cpi.{name}"),
            c.cycles as f64 / c.instructions as f64,
            "cycles/instr",
            n,
            Kind::Sim,
        );
        add(&mut all, &c);
    }
    let kilo = all.instructions as f64 / 1e3;
    out.metric(
        "szmachine.sim_minstr_per_pass",
        all.instructions as f64 / 1e6,
        "Minstr",
        3 * n,
        Kind::Sim,
    );
    for (name, misses) in [
        ("l1i", all.l1i_misses),
        ("l1d", all.l1d_misses),
        ("l2", all.l2_misses),
        ("l3", all.l3_misses),
        ("itlb", all.itlb_misses),
        ("dtlb", all.dtlb_misses),
    ] {
        out.metric(
            format!("szmachine.{name}_mpki"),
            misses as f64 / kilo,
            "1/kinstr",
            3 * n,
            Kind::Sim,
        );
    }
    out.metric(
        "szmachine.mispredict_pki",
        all.branch_mispredicts as f64 / kilo,
        "1/kinstr",
        3 * n,
        Kind::Sim,
    );

    let mut total = Stats::default();
    for s in stats.iter().flat_map(|s| s.iter().flatten()) {
        total.rerandomizations += s.rerandomizations;
        total.code.relocations += s.code.relocations;
        total.stack_refills += s.stack_refills;
        total.heap_ops.0 += s.heap_ops.0;
        total.heap_ops.1 += s.heap_ops.1;
    }
    for (name, v) in [
        ("core.rerandomizations", total.rerandomizations),
        ("core.relocations", total.code.relocations),
        ("core.stack_refills", total.stack_refills),
        ("szheap.mallocs", total.heap_ops.0),
        ("szheap.frees", total.heap_ops.1),
    ] {
        out.metric(name, v as f64, "count", 2 * n, Kind::Sim);
    }
}

fn add(acc: &mut PerfCounters, c: &PerfCounters) {
    acc.instructions += c.instructions;
    acc.cycles += c.cycles;
    acc.l1i_misses += c.l1i_misses;
    acc.l1d_misses += c.l1d_misses;
    acc.l2_misses += c.l2_misses;
    acc.l3_misses += c.l3_misses;
    acc.itlb_misses += c.itlb_misses;
    acc.dtlb_misses += c.dtlb_misses;
    acc.branches += c.branches;
    acc.branch_mispredicts += c.branch_mispredicts;
}
