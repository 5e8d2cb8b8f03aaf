//! The parallel differential fuzz loop.
//!
//! Seeds `base..base+programs` are checked in batches on
//! `sz_harness::pool`. Determinism is positional: every seed's outcome
//! is computed independently, the pool reassembles outcomes in seed
//! order, and the driver takes the *first* failure in seed order — so
//! the summary (and any reproducer) is bit-identical at any thread
//! count. The optional wall-clock cap is only consulted at batch
//! boundaries, which keeps the per-seed work schedule-independent;
//! runs with a cap may stop early (`capped`), but the seeds that did
//! run report identically.
//!
//! On divergence the driver re-records the failing seed's choice
//! tapes, shrinks the program while the divergence class reproduces,
//! and packages a [`Reproducer`].

use crate::artifact::Reproducer;
use crate::diff::{check_program, ArchResult, Divergence, ProgramVerdict, ARCH_CLASSES};
use crate::gen::{base_seed, Generator, DEFAULT_PROGRAMS};
use std::cell::RefCell;
use std::time::{Duration, Instant};
use sz_harness::{pool, Json};
use sz_ir::{Instr, Program};

/// Static instruction-kind histogram width (one bucket per [`Instr`]
/// variant).
pub const OP_KINDS: usize = 14;

/// Bucket names, index-aligned with [`op_kind_index`].
pub const OP_KIND_NAMES: [&str; OP_KINDS] = [
    "alu",
    "fp-const",
    "int-to-fp",
    "fp-to-int",
    "load-slot",
    "store-slot",
    "load-global",
    "store-global",
    "load-ptr",
    "store-ptr",
    "malloc",
    "free",
    "call",
    "nop",
];

fn op_kind_index(ins: &Instr) -> usize {
    match ins {
        Instr::Alu { .. } => 0,
        Instr::FpConst { .. } => 1,
        Instr::IntToFp { .. } => 2,
        Instr::FpToInt { .. } => 3,
        Instr::LoadSlot { .. } => 4,
        Instr::StoreSlot { .. } => 5,
        Instr::LoadGlobal { .. } => 6,
        Instr::StoreGlobal { .. } => 7,
        Instr::LoadPtr { .. } => 8,
        Instr::StorePtr { .. } => 9,
        Instr::Malloc { .. } => 10,
        Instr::Free { .. } => 11,
        Instr::Call { .. } => 12,
        Instr::Nop { .. } => 13,
    }
}

/// Fuzz-run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// First seed; seeds are consecutive from here.
    pub seed_base: u64,
    /// How many programs to check.
    pub programs: u64,
    /// Worker threads for the differential matrix.
    pub threads: usize,
    /// Seeds per pool dispatch (the time cap is checked between
    /// batches).
    pub batch: usize,
    /// Arm the deliberately broken engine (negative control).
    pub inject_global_alias: bool,
    /// Re-run each cleanly terminating program at up to four reduced fuel
    /// budgets and require both interpreters to cut identically
    /// ([`crate::diff::fuel_sweep_check`]).
    pub fuel_sweep: bool,
    /// Shrink the failing program and build a reproducer on failure.
    pub shrink: bool,
    /// Stop (cleanly, `capped = true`) once a batch boundary passes
    /// this wall-clock budget. `None` in determinism-sensitive runs.
    pub time_cap: Option<Duration>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed_base: base_seed(),
            programs: DEFAULT_PROGRAMS,
            threads: 1,
            batch: 256,
            inject_global_alias: false,
            fuel_sweep: false,
            shrink: true,
            time_cap: None,
        }
    }
}

/// Why a fuzz run stopped before its budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzFailure {
    /// An engine or interpreter disagreed.
    Divergence(Divergence),
    /// The baseline engine ran out of fuel: the generator's
    /// termination-by-construction contract is broken.
    TerminationExceeded {
        /// The offending seed.
        seed: u64,
    },
}

/// Per-run generator-health counters: what the checked programs
/// actually looked like and did. A collapsing histogram here flags a
/// generator regression even while every program still passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diversity {
    /// Architectural-result class counts ([`ArchResult::class_index`]).
    pub arch_classes: [u64; ARCH_CLASSES],
    /// How many clean runs returned `Ok(Some(_))`.
    pub returns_value: u64,
    /// How many programs were re-run through the reduced-fuel sweep.
    pub fuel_sweeps: u64,
    /// Static instruction-kind counts across all generated programs.
    pub op_mix: [u64; OP_KINDS],
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Programs fully checked (clean ones; a failing seed is reported
    /// in `failure`, not counted here).
    pub programs_run: u64,
    /// Generator-health counters over the clean programs.
    pub diversity: Diversity,
    /// Largest baseline instruction count observed — headroom against
    /// [`crate::diff::FUZZ_LIMITS`].
    pub max_instructions: u64,
    /// The first failure in seed order, if any.
    pub failure: Option<FuzzFailure>,
    /// Shrunk, self-contained artifact for a divergence failure.
    pub reproducer: Option<Reproducer>,
    /// Whether the wall-clock cap stopped the run early.
    pub capped: bool,
    /// Wall-clock duration (excluded from equality: everything else is
    /// bit-identical across thread counts, elapsed time is not).
    pub elapsed: Duration,
}

impl PartialEq for FuzzSummary {
    /// Everything except `elapsed`: a fuzz run's *results* are
    /// bit-identical across thread counts; its wall-clock time is not.
    fn eq(&self, other: &FuzzSummary) -> bool {
        self.programs_run == other.programs_run
            && self.diversity == other.diversity
            && self.max_instructions == other.max_instructions
            && self.failure == other.failure
            && self.reproducer == other.reproducer
            && self.capped == other.capped
    }
}

/// One seed's outcome, as computed on a worker.
struct SeedOutcome {
    verdict: Result<ProgramVerdict, Divergence>,
    op_mix: [u64; OP_KINDS],
    /// Whether the reduced-fuel sweep ran for this seed.
    swept: bool,
}

thread_local! {
    // Per-worker generator so tape arenas are reused across the many
    // programs each worker instantiates.
    static GENERATOR: RefCell<Generator> = RefCell::new(Generator::new());
}

fn run_seed(seed: u64, inject: bool, fuel_sweep: bool) -> SeedOutcome {
    let program = GENERATOR.with(|g| g.borrow_mut().generate(seed));
    let mut op_mix = [0u64; OP_KINDS];
    for f in &program.functions {
        for b in &f.blocks {
            for ins in &b.instrs {
                op_mix[op_kind_index(ins)] += 1;
            }
        }
    }
    let mut verdict = check_program(&program, seed, inject);
    let mut swept = false;
    if fuel_sweep {
        // Sweep only programs the matrix already certified clean, at
        // budgets that genuinely cut the run short (count > 1).
        if let Ok(v) = &verdict {
            if let Some(n) = v.baseline_instructions.filter(|&n| n > 1) {
                swept = true;
                if let Some(d) = crate::diff::fuel_sweep_check(&program, seed, n) {
                    verdict = Err(d);
                }
            }
        }
    }
    SeedOutcome {
        verdict,
        op_mix,
        swept,
    }
}

/// Runs the fuzz loop to completion, first failure, or the time cap.
pub fn run(config: &FuzzConfig) -> FuzzSummary {
    let start = Instant::now();
    let mut summary = FuzzSummary {
        programs_run: 0,
        diversity: Diversity::default(),
        max_instructions: 0,
        failure: None,
        reproducer: None,
        capped: false,
        elapsed: Duration::ZERO,
    };
    let batch = config.batch.max(1);
    let mut offset = 0u64;
    'batches: while offset < config.programs {
        if let Some(cap) = config.time_cap {
            if start.elapsed() >= cap {
                summary.capped = true;
                break;
            }
        }
        let n = ((config.programs - offset) as usize).min(batch);
        let base = config.seed_base.wrapping_add(offset);
        let inject = config.inject_global_alias;
        let fuel_sweep = config.fuel_sweep;
        let outcomes = pool::run_indexed(config.threads, n, |i| {
            run_seed(base.wrapping_add(i as u64), inject, fuel_sweep)
        });
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let seed = base.wrapping_add(i as u64);
            match outcome.verdict {
                Ok(verdict) => {
                    if verdict.arch == ArchResult::OutOfFuel {
                        summary.failure = Some(FuzzFailure::TerminationExceeded { seed });
                        break 'batches;
                    }
                    summary.programs_run += 1;
                    summary.diversity.arch_classes[verdict.arch.class_index()] += 1;
                    if matches!(verdict.arch, ArchResult::Ok(Some(_))) {
                        summary.diversity.returns_value += 1;
                    }
                    if outcome.swept {
                        summary.diversity.fuel_sweeps += 1;
                    }
                    for (k, c) in outcome.op_mix.iter().enumerate() {
                        summary.diversity.op_mix[k] += c;
                    }
                    if let Some(instrs) = verdict.baseline_instructions {
                        summary.max_instructions = summary.max_instructions.max(instrs);
                    }
                }
                Err(divergence) => {
                    summary.failure = Some(FuzzFailure::Divergence(divergence));
                    if config.shrink {
                        summary.reproducer = Some(shrink_to_reproducer(divergence, inject));
                    }
                    break 'batches;
                }
            }
        }
        offset += n as u64;
    }
    summary.elapsed = start.elapsed();
    summary
}

fn shrink_to_reproducer(divergence: Divergence, _inject: bool) -> Reproducer {
    let mut generator = Generator::new();
    let program = generator.generate(divergence.seed);
    let tapes = generator.record(divergence.seed).clone();
    let seed = divergence.seed;
    let class = divergence.class();
    // Shrinking only needs the failing comparison, not the full
    // matrix — `recheck_class` is the cheap focused re-run.
    let outcome = crate::shrink::shrink(&program, class, &mut |p: &Program| {
        crate::diff::recheck_class(p, seed, class)
    });
    Reproducer::new(divergence, tapes, program.instr_count(), &outcome)
}

impl FuzzSummary {
    /// The machine-readable run record printed by `sz-fuzz --json`.
    pub fn to_json(&self) -> Json {
        let arch = Json::Obj(
            self.diversity
                .arch_classes
                .iter()
                .enumerate()
                .map(|(i, &c)| (ArchResult::class_name(i).to_string(), Json::U64(c)))
                .collect(),
        );
        let ops = Json::Obj(
            OP_KIND_NAMES
                .iter()
                .zip(self.diversity.op_mix.iter())
                .map(|(name, &c)| (name.to_string(), Json::U64(c)))
                .collect(),
        );
        let failure = match &self.failure {
            None => Json::Null,
            Some(FuzzFailure::Divergence(d)) => Json::obj([
                ("kind", Json::Str("divergence".into())),
                ("detail", Json::Str(d.render())),
            ]),
            Some(FuzzFailure::TerminationExceeded { seed }) => Json::obj([
                ("kind", Json::Str("termination-exceeded".into())),
                ("seed", Json::U64(*seed)),
            ]),
        };
        Json::obj([
            ("type", Json::Str("fuzz-summary".into())),
            ("programs_run", Json::U64(self.programs_run)),
            ("arch_classes", arch),
            ("returns_value", Json::U64(self.diversity.returns_value)),
            ("fuel_sweeps", Json::U64(self.diversity.fuel_sweeps)),
            ("op_mix", ops),
            ("max_instructions", Json::U64(self.max_instructions)),
            ("capped", Json::Bool(self.capped)),
            ("elapsed_ms", Json::U64(self.elapsed.as_millis() as u64)),
            ("failure", failure),
        ])
    }

    /// The human-readable run summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "checked {} programs in {:.1}s{}\n",
            self.programs_run,
            self.elapsed.as_secs_f64(),
            if self.capped { " (time cap hit)" } else { "" }
        ));
        let classes: Vec<String> = self
            .diversity
            .arch_classes
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("{} {}", ArchResult::class_name(i), c))
            .collect();
        s.push_str(&format!(
            "arch classes: {} (with value: {})\n",
            classes.join(", "),
            self.diversity.returns_value
        ));
        let total_ops: u64 = self.diversity.op_mix.iter().sum();
        let mix: Vec<String> = OP_KIND_NAMES
            .iter()
            .zip(self.diversity.op_mix.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(name, &c)| format!("{name} {c}"))
            .collect();
        s.push_str(&format!(
            "op mix ({total_ops} instrs): {}\n",
            mix.join(", ")
        ));
        s.push_str(&format!(
            "max baseline instructions: {}\n",
            self.max_instructions
        ));
        if self.diversity.fuel_sweeps > 0 {
            s.push_str(&format!(
                "fuel sweeps: {} programs re-cut at reduced budgets\n",
                self.diversity.fuel_sweeps
            ));
        }
        match &self.failure {
            None => s.push_str("no divergence\n"),
            Some(FuzzFailure::Divergence(d)) => {
                s.push_str(&format!("FAILURE: {}\n", d.render()));
            }
            Some(FuzzFailure::TerminationExceeded { seed }) => {
                s.push_str(&format!(
                    "FAILURE: seed {seed:#x} exceeded the termination bound\n"
                ));
            }
        }
        s
    }
}
