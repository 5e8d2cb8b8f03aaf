//! Shared plumbing: metrics, run outcomes, summary statistics, the
//! closed-loop clock and the in-memory span recorder.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sz_rng::{Rng, SplitMix64};

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time (or a rate or share derived from it).
    Host,
    /// Simulated quantity: a deterministic count or ratio of counts.
    Sim,
    /// A count or ratio observed on the host (server counters, bytes).
    Count,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

/// One reported number with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub kind: Kind,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but left out of the JSON
    /// result: the per-kind medians an end-to-end metric summarises.
    pub details: Vec<Metric>,
    /// Human-readable lines printed before the result (check notes,
    /// bases of ratios, trace file location).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        kind: Kind,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            kind,
        });
    }

    /// Records a figure that is printed but not part of the result.
    pub fn detail(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        kind: Kind,
    ) {
        self.details.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            kind,
        });
    }

    /// Adds another workload's outcome to this one.
    pub fn merge(&mut self, workload: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.details.extend(other.details);
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("[{workload}] {n}")));
    }

    /// Records one failed check as a failed op, with a note saying why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// Prints one line per metric, then the one-line JSON result the
    /// benchmark ends with (always the last line of standard output).
    pub fn print(&self, workload: &str) {
        let mut out = std::io::stdout().lock();
        for note in &self.notes {
            let _ = writeln!(out, "# {workload}: {note}");
        }
        let details = self.details.iter().map(|m| (m, " (detail)"));
        for (m, detail) in self.metrics.iter().map(|m| (m, "")).chain(details) {
            let _ = writeln!(
                out,
                "{workload:<10} {:<40} {:>16.6} {:<6} n={:<6} {}{detail}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.kind.label()
            );
        }
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.failed == 0 && finite && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median of a non-empty sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    sz_stats::median(values).unwrap_or(f64::NAN)
}

/// Median of the differences `a[i] - b[i]` of samples taken side by
/// side, so that both sides of each difference saw the same host
/// conditions.
pub fn paired_median(a: &[f64], b: &[f64]) -> f64 {
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&diffs)
}

/// Linear-interpolated quantile `q` of a sample (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    sz_stats::quantile(values, q).unwrap_or(f64::NAN)
}

/// Geometric mean of positive values (NaN when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    sz_stats::geometric_mean(values)
}

/// Records the end-to-end host-time metric every workload reports:
/// the geometric mean, over the workload's kinds of op, of each kind's
/// median scaled time in ms. Each median is taken over ops of one kind
/// only, so ops of very different lengths are never pooled, and a
/// change that slows every kind by a share slows this by that share.
pub fn op_geomean_ms(out: &mut Outcome, kind_medians_ms: &[f64], samples: usize) {
    let value = geomean(kind_medians_ms);
    out.metric("op_geomean_ms", value, "ms", samples, Kind::Host);
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Host time of one timed call: as measured, and scaled to the
/// reference host speed by the calibration kernel runs next to it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub took: Duration,
    pub scaled_ms: f64,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        ms(self.took)
    }
}

/// Scaled times of one kind of timed call, in ms.
pub fn scaled(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.scaled_ms).collect()
}

/// Measured times of one kind of timed call, in ms.
pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::ms).collect()
}

/// Reference time of one calibration kernel run, in ms. A scaled time
/// reads as the call would have taken on a host where the kernel takes
/// this long; it is close to the kernel's typical time on the 2-vCPU
/// KVM guest (Intel Xeon) this benchmark was built on.
pub const CALIB_REF_MS: f64 = 2.0;

/// A kernel run that ended less than this long before a timed call
/// starts also serves as that call's "before" calibration.
const CALIB_FRESH: Duration = Duration::from_micros(500);

/// The host-speed clock. On a shared virtual machine the speed of an
/// interpreter moves by up to 2x from one op to the next and over whole
/// stretches of a run, as other tenants' work comes and goes, while a
/// dependent arithmetic loop barely moves. So each timed call is
/// bracketed by runs of a fixed calibration kernel that belongs to this
/// benchmark and shares no code with the system under test: a register
/// machine dispatching over a fixed random program, with each memory
/// access looked up in a set-associative cache model and each branch in
/// a predictor table, which slows under the same interference as the
/// simulator does. A call's scaled time is its measured time times
/// `CALIB_REF_MS` over the mean of the kernel runs just before and just
/// after it. A change to the system under test moves the measured time
/// and not the kernel's, so it shows in the scaled time in full.
pub struct HostClock {
    kernel: Kernel,
    last: Option<(f64, Instant)>,
    kernel_ms: Vec<f64>,
}

impl HostClock {
    pub fn new() -> HostClock {
        let mut kernel = Kernel::new();
        // The first runs touch the kernel's tables; they are not kept.
        for _ in 0..3 {
            kernel.run();
        }
        HostClock {
            kernel,
            last: None,
            kernel_ms: Vec::new(),
        }
    }

    fn calibrate(&mut self) -> f64 {
        let (_, took) = timed(|| self.kernel.run());
        let t = ms(took);
        self.kernel_ms.push(t);
        self.last = Some((t, Instant::now()));
        t
    }

    /// Times one call between two kernel runs.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Sample) {
        let before = match self.last {
            Some((t, at)) if at.elapsed() < CALIB_FRESH => t,
            _ => self.calibrate(),
        };
        let (r, took) = timed(f);
        let after = self.calibrate();
        let scaled_ms = ms(took) * CALIB_REF_MS / ((before + after) / 2.0);
        (r, Sample { took, scaled_ms })
    }

    /// Median kernel time in ms, and the number of kernel runs.
    pub fn kernel_ms(&self) -> (f64, usize) {
        (median(&self.kernel_ms), self.kernel_ms.len())
    }
}

/// Steps per calibration kernel run: about 2 ms on the host named at
/// [`CALIB_REF_MS`].
const KERNEL_STEPS: u64 = 400_000;
const KERNEL_SETS: usize = 256;
const KERNEL_WAYS: usize = 8;

/// The calibration kernel's state: a fixed program, its data, and the
/// cache and predictor tables it models.
struct Kernel {
    program: Vec<(u8, u8, u8)>,
    regs: [u64; 16],
    memory: Vec<u64>,
    tags: Vec<u64>,
    ages: Vec<u8>,
    predictor: Vec<u8>,
    events: u64,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = SplitMix64::new(0x5EED_CA11_B8A7_E000);
        let program = (0..4096)
            .map(|_| {
                let r = rng.next_u64();
                ((r % 16) as u8, (r >> 8) as u8 & 15, (r >> 16) as u8 & 15)
            })
            .collect();
        let memory = (0..1 << 16).map(|_| rng.next_u64()).collect();
        Kernel {
            program,
            regs: [3; 16],
            memory,
            tags: vec![u64::MAX; KERNEL_SETS * KERNEL_WAYS],
            ages: vec![0; KERNEL_SETS * KERNEL_WAYS],
            predictor: vec![0; 4096],
            events: 0,
        }
    }

    /// Looks an address up in the modelled cache (LRU replacement).
    fn access(&mut self, address: u64) {
        let line = address >> 6;
        let set = (line as usize % KERNEL_SETS) * KERNEL_WAYS;
        let ways = set..set + KERNEL_WAYS;
        if let Some(w) = ways.clone().find(|&w| self.tags[w] == line) {
            self.ages[w] = 0;
            self.events += 1;
            return;
        }
        let mut victim = set;
        for w in ways {
            self.ages[w] = self.ages[w].saturating_add(1);
            if self.ages[w] > self.ages[victim] {
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.ages[victim] = 0;
    }

    fn run(&mut self) {
        let n = self.program.len();
        let mask = self.memory.len() - 1;
        let mut pc = 0;
        for _ in 0..KERNEL_STEPS {
            let (op, a, b) = self.program[pc];
            let (a, b) = (a as usize, b as usize);
            let mut next = pc + 1;
            match op {
                0 | 1 => self.regs[a] = self.regs[a].wrapping_add(self.regs[b]),
                2 => self.regs[a] ^= self.regs[b].rotate_left(7),
                3 => self.regs[a] = self.regs[a].wrapping_mul(self.regs[b] | 1),
                4 | 5 => {
                    let at = self.regs[b] as usize & mask;
                    self.access(at as u64 * 8);
                    self.regs[a] = self.memory[at];
                }
                6 => {
                    let at = self.regs[b] as usize & mask;
                    self.access(at as u64 * 8);
                    self.memory[at] = self.regs[a];
                }
                7 | 8 => {
                    let taken = self.regs[a] & 1 == 1;
                    let counter = &mut self.predictor[pc];
                    if (*counter >= 2) != taken {
                        self.events += 1;
                    }
                    *counter = if taken {
                        (*counter + 1).min(3)
                    } else {
                        counter.saturating_sub(1)
                    };
                    if taken {
                        next = (pc + n - 13) % n;
                    }
                }
                9 => self.regs[a] = self.regs[b] >> 3,
                10 => self.regs[a] = self.regs[a].wrapping_sub(self.regs[b]),
                11 => self.regs[a] = (self.regs[a] << 1) | 1,
                12 => self.regs[b] = self.regs[a].wrapping_add(pc as u64),
                13 => next = (pc + (self.regs[a] as usize & 31)) % n,
                14 => self.regs[a] = u64::from(self.regs[a].count_ones()) ^ self.regs[b],
                _ => self.regs[a] = self.regs[b].wrapping_add(17),
            }
            pc = if next >= n { 0 } else { next };
        }
        std::hint::black_box((self.events, self.regs[0]));
    }
}

/// Times of a workload's set-up. The set-up is repeated through the
/// run (the first result is the one the workload uses), so its median
/// is taken over the same host conditions as the ops'.
#[derive(Default)]
pub struct SetupTimes(Vec<Sample>);

impl SetupTimes {
    pub fn time<R>(&mut self, clock: &mut HostClock, setup: impl FnOnce() -> R) -> R {
        let (r, sample) = clock.time(setup);
        self.0.push(sample);
        r
    }

    /// Median scaled set-up time in seconds, and the number of set-ups.
    pub fn median_s(&self) -> (f64, usize) {
        (median(&scaled(&self.0)) / 1e3, self.0.len())
    }

    /// Median measured set-up time in ms.
    pub fn raw_median_ms(&self) -> f64 {
        median(&raw(&self.0))
    }
}

/// The closed loop's clock: a new round starts only while the budget
/// lasts, so every kind of op gets the same number of rounds.
pub struct Budget {
    start: Instant,
    length: Duration,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    /// Whether another round may start (the first one always may).
    pub fn another(&self, rounds_done: usize, min_rounds: usize) -> bool {
        rounds_done < min_rounds || self.start.elapsed() < self.length
    }
}

/// Derives the `i`-th input seed of a workload from its seed.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut rng =
        SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.rotate_left(32));
    rng.next_u64()
}

/// Runs `f`, turning a panic into an error message (a failed op).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One recorded span: a call into a layer, made from benchmark code.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder. Spans are kept until the run ends and
/// then written out as JSONL.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Writes every span as one JSON line under the build directory
    /// and returns the path.
    pub fn write(&self, file: &str) -> Option<PathBuf> {
        let dir =
            PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
                .join("perfbench");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(file);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).ok()?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            )
            .ok()?;
        }
        out.flush().ok()?;
        Some(path)
    }
}
