//! The `serve` workload: an in-process `sz-serve` (one event loop, one
//! worker, one exec thread) driven by one client connection in a
//! closed loop. Each round sends one cold request with a fresh
//! `seed_base`, then replays earlier cold specs as cached requests.
//! The cold/cached mix is synthetic, not taken from logs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sz_harness::Json;
use sz_sentinel::{Sentinel, SentinelConfig};
use sz_serve::cache::{cache_key, fnv1a_128};
use sz_serve::exec;
use sz_serve::scheduler::SchedulerConfig;
use sz_serve::{Experiment, FederationConfig, Request, RunRequest, Server, ServerConfig};
use sz_workloads::Scale;

use crate::common::{
    derive, median, ms, op_geomean_ms, paired_median, quantile, raw, scaled, Budget, HostClock,
    Kind, Outcome, Sample, SetupTimes, Spans,
};

/// Cached requests per cold one. The number is an arbitrary choice, not
/// taken from logs or from another tool. It also shapes `cold_ms`: the
/// worker feeds each finished job's trace to the sentinel after the
/// reply, and the next cold request waits behind whatever of that feed
/// the cached replays in between have not covered.
const CACHED_PER_ROUND: usize = 4;
/// Runs per arm of the cold `evaluate` request.
const RUNS: usize = 10;

/// The cold request shape: `evaluate` gobmk at Tiny scale, traced.
fn cold_spec(seed_base: u64) -> RunRequest {
    RunRequest {
        benchmarks: Some(vec!["gobmk".to_string()]),
        scale: Scale::Tiny,
        runs: RUNS,
        seed_base,
        trace: true,
        ..RunRequest::quick(Experiment::Evaluate)
    }
}

fn request_line(spec: &RunRequest) -> String {
    Request::Run(spec.clone()).to_json().to_string()
}

/// A running server and the benchmark's one client connection.
struct Client {
    handle: JoinHandle<()>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn start() -> std::io::Result<Client> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 1,
                queue_capacity: 32,
                exec_threads: 1,
                cache_budget: 256 << 20,
            },
            loops: 1,
            federation: FederationConfig::default(),
        })?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || {
            let _ = server.serve();
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            handle,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one line and reads the reply up to its terminal line;
    /// the time runs from the send to the last reply byte.
    fn call(&mut self, line: &str) -> std::io::Result<(Vec<String>, Duration)> {
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::other("server closed the connection"));
            }
            let trace_record =
                buf.starts_with("{\"type\":\"run\"") || buf.starts_with("{\"type\":\"summary\"");
            lines.push(buf);
            if !trace_record {
                return Ok((lines, start.elapsed()));
            }
        }
    }

    fn stats(&mut self) -> std::io::Result<Json> {
        let (lines, _) = self.call(r#"{"type":"stats"}"#)?;
        Json::parse(lines.last().expect("terminal line")).map_err(std::io::Error::other)
    }

    /// Stops the server and joins its thread.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.call(r#"{"type":"shutdown"}"#);
        drop(self.reader);
        drop(self.writer);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let (lines, _) = reply.map_err(|e| format!("shutdown request: {e}"))?;
        match lines.last() {
            Some(line) if line.starts_with(r#"{"type":"shutdown""#) => Ok(()),
            other => Err(format!("shutdown answered with {other:?}")),
        }
    }
}

/// A reply reduced to what a cached replay must reproduce: the trace
/// bytes and the result line without `cached` and `job`.
#[derive(Debug, Clone, PartialEq)]
struct Reply {
    trace_hash: u128,
    result: Json,
    cached: bool,
}

fn reduce(lines: &[String]) -> Result<Reply, String> {
    let (last, trace) = lines.split_last().ok_or("empty reply")?;
    let v = Json::parse(last.trim_end()).map_err(|e| e.to_string())?;
    let ty = v.get("type").and_then(Json::as_str).unwrap_or("");
    if ty != "result" {
        return Err(format!("terminal line of type {ty:?}: {}", last.trim_end()));
    }
    let cached = v
        .get("cached")
        .and_then(Json::as_bool)
        .ok_or("result without cached")?;
    let Json::Obj(fields) = v else {
        unreachable!("typed object")
    };
    let result = Json::Obj(
        fields
            .into_iter()
            .filter(|(k, _)| k != "cached" && k != "job")
            .collect(),
    );
    let text: String = trace.concat();
    Ok(Reply {
        trace_hash: fnv1a_128(text.as_bytes()),
        result,
        cached,
    })
}

/// Client-side latencies of one phase, and the replies seen.
#[derive(Default)]
struct Phase {
    cold_ms: Vec<Sample>,
    cached_ms: Vec<Sample>,
    cached_kb: Vec<f64>,
    rounds: usize,
}

/// State carried across rounds: the cold specs sent so far with their
/// reduced replies, and the full replies kept for the direct check.
struct Stream {
    seed: u64,
    colds: Vec<(RunRequest, Reply)>,
    /// Cold replies number 1, 2, 4, 8, … (a bounded sample).
    sampled: Vec<(RunRequest, Vec<String>)>,
    replays: u64,
}

/// Sends one request, as its own op and span when tracing. The
/// latency is the client's (send to last reply byte), scaled by the
/// host clock's kernel runs around the call.
fn call(
    client: &mut Client,
    clock: &mut HostClock,
    line: &str,
    spans: &mut Option<&mut Spans>,
    name: &str,
) -> Result<(Vec<String>, Sample), String> {
    let (result, sample) = clock.time(|| match spans.as_deref_mut() {
        Some(s) => {
            s.next_op();
            s.span(name, || client.call(line))
        }
        None => client.call(line),
    });
    result
        .map(|(lines, took)| {
            let scaled_ms = sample.scaled_ms * ms(took) / sample.ms();
            (lines, Sample { took, scaled_ms })
        })
        .map_err(|e| e.to_string())
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            seed,
            colds: Vec::new(),
            sampled: Vec::new(),
            replays: 0,
        }
    }

    /// One closed-loop round: a cold request, then cached replays of
    /// earlier cold specs. Returns the cold spec and its full reply.
    fn round(
        &mut self,
        client: &mut Client,
        clock: &mut HostClock,
        phase: &mut Phase,
        out: &mut Outcome,
        mut spans: Option<&mut Spans>,
    ) -> Option<(RunRequest, Vec<String>)> {
        let spec = cold_spec(derive(self.seed, 4, self.colds.len() as u64));
        out.attempted += 1;
        let cold = call(
            client,
            clock,
            &request_line(&spec),
            &mut spans,
            "serve.cold",
        )
        .and_then(|(lines, took)| Ok((reduce(&lines)?, lines, took)));
        let sent = match cold {
            Ok((reply, _, _)) if reply.cached => {
                out.fail("cold request answered from the cache");
                None
            }
            Ok((reply, lines, took)) => {
                phase.cold_ms.push(took);
                self.colds.push((spec.clone(), reply));
                if self.colds.len().is_power_of_two() {
                    self.sampled.push((spec.clone(), lines.clone()));
                }
                Some((spec, lines))
            }
            Err(e) => {
                out.fail(format!("cold request: {e}"));
                None
            }
        };
        if self.colds.is_empty() {
            return sent;
        }
        for _ in 0..CACHED_PER_ROUND {
            let pick = (derive(self.seed, 5, self.replays) % self.colds.len() as u64) as usize;
            self.replays += 1;
            let (spec, cold) = &self.colds[pick];
            out.attempted += 1;
            let cached = call(
                client,
                clock,
                &request_line(spec),
                &mut spans,
                "serve.cached",
            )
            .and_then(|(lines, took)| {
                let bytes = lines.iter().map(String::len).sum::<usize>();
                Ok((reduce(&lines)?, bytes, took))
            });
            match cached {
                Ok((reply, bytes, took))
                    if reply.cached
                        && reply
                            == Reply {
                                cached: true,
                                ..cold.clone()
                            } =>
                {
                    phase.cached_ms.push(took);
                    phase.cached_kb.push(bytes as f64 / 1e3);
                }
                Ok(_) => out.fail("cached reply differs from its cold reply"),
                Err(e) => out.fail(format!("cached request: {e}")),
            }
        }
        phase.rounds += 1;
        sent
    }
}

/// Checks a cold reply against a direct `exec::execute` of its spec.
fn check_direct(spec: &RunRequest, lines: &[String], out: &mut Outcome) -> Option<exec::JobOutput> {
    let direct = match exec::execute(spec, 1, &AtomicBool::new(false), None) {
        Ok(o) => o,
        Err(e) => {
            out.fail(format!("direct execute failed: {}", e.reason()));
            return None;
        }
    };
    let (last, trace) = lines.split_last()?;
    let summary = Json::parse(last.trim_end())
        .ok()
        .and_then(|v| v.get("summary").cloned());
    if summary.as_ref() != Some(&direct.summary) || trace.concat() != direct.trace {
        out.fail(format!(
            "cold reply for seed_base {} differs from exec::execute",
            spec.seed_base
        ));
    }
    Some(direct)
}

/// Set-up: bind and start a server, connect, and make one `stats`
/// round trip. No experiment runs here, so `setup_s` does not repeat
/// what `cold_ms` measures.
fn setup() -> std::io::Result<Client> {
    let mut client = Client::start()?;
    client.stats()?;
    Ok(client)
}

fn server_stats(client: &mut Client, out: &mut Outcome, report: bool) {
    let stats = match client.stats() {
        Ok(s) => s,
        Err(e) => return out.fail(format!("stats request: {e}")),
    };
    let count = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX);
    for key in ["rejected", "conn_errors", "write_errors"] {
        if count(&stats, key) != 0 {
            out.fail(format!("server stats: {key} = {}", count(&stats, key)));
        }
    }
    if !report {
        return;
    }
    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    let hits = count(&cache, "hits");
    let lookups = hits + count(&cache, "misses");
    out.metric(
        "szserve.cache_hit_ratio",
        hits as f64 / lookups as f64,
        "ratio",
        lookups as usize,
        Kind::Count,
    );
    out.metric("szserve.cache_hits", hits as f64, "count", 1, Kind::Count);
    out.metric(
        "szserve.cache_lookups",
        lookups as f64,
        "count",
        1,
        Kind::Count,
    );
    for key in ["rejected", "conn_errors", "write_errors", "sentinel_runs"] {
        out.metric(
            format!("szserve.{key}"),
            count(&stats, key) as f64,
            "count",
            1,
            Kind::Count,
        );
    }
}

/// Rounds between two repeated set-ups.
const SETUP_EVERY: usize = 8;

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let mut setup_times = SetupTimes::default();
    let mut client = match setup_times.time(&mut clock, setup) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("server set-up: {e}"));
            return out;
        }
    };
    let mut stream = Stream::new(seed);
    let mut untraced = Phase::default();
    let mut layers = Layers::default();
    let budget = Budget::new(seconds);
    // A traced run alternates untraced and traced rounds, so both see
    // the same host conditions.
    let mut iteration = 0;
    while budget.another(untraced.rounds, 5) {
        if iteration % SETUP_EVERY == SETUP_EVERY - 1 {
            let again = setup_times.time(&mut clock, setup);
            if let Err(e) = again.map_err(|e| e.to_string()).and_then(Client::shutdown) {
                out.fail(format!("repeated server set-up: {e}"));
            }
        }
        // Every other iteration runs its traced round first, so a drift
        // in host speed over the run favours neither side.
        let traced_first = trace && iteration % 2 == 1;
        if !traced_first {
            stream.round(&mut client, &mut clock, &mut untraced, &mut out, None);
        }
        if trace {
            layers.round(&mut client, &mut clock, &mut stream, &mut out);
            // While the layers were called directly, the server finished
            // its sentinel feed. An unmeasured round restores the wait
            // the next cold request sees in an untraced run.
            stream.round(
                &mut client,
                &mut clock,
                &mut Phase::default(),
                &mut out,
                None,
            );
        }
        if traced_first {
            stream.round(&mut client, &mut clock, &mut untraced, &mut out, None);
        }
        iteration += 1;
    }
    // Sampled cold replies against direct execution, outside timing.
    for (spec, lines) in &stream.sampled {
        check_direct(spec, lines, &mut out);
    }
    if trace {
        layers.report(&untraced, &mut out);
        let (kernel_ms, kernels) = clock.kernel_ms();
        out.metric(
            "host.calib_kernel_ms.serve",
            kernel_ms,
            "ms",
            kernels,
            Kind::Host,
        );
    } else {
        // Cold latency is left out of the end-to-end metric: it crosses
        // the server's worker thread, which runs on whichever CPU the
        // scheduler picks, while the calibration kernel runs on the
        // client's. Over ten runs its scaled median spread by 16% of the
        // median (measured: 130-213 ms). The traced run reports it.
        let cached = median(&scaled(&untraced.cached_ms));
        op_geomean_ms(&mut out, &[cached], untraced.cached_ms.len());
        let (setup_s, setup_n) = setup_times.median_s();
        out.metric("setup_s", setup_s, "s", setup_n, Kind::Host);
        out.detail(
            "cached_ms",
            cached,
            "ms",
            untraced.cached_ms.len(),
            Kind::Host,
        );
        let (kernel_ms, kernels) = clock.kernel_ms();
        out.notes.push(format!(
            "{} rounds; op_geomean_ms is cached_ms, the one kind of op it summarises here; cached_ms is the median of {} scaled latencies (measured p50 {:.3} ms); cold p50 over {} requests {:.3} ms scaled, {:.3} ms measured; calibration kernel median {kernel_ms:.3} ms over {kernels} runs; set-up measured median {:.3} ms",
            untraced.rounds,
            untraced.cached_ms.len(),
            median(&raw(&untraced.cached_ms)),
            untraced.cold_ms.len(),
            median(&scaled(&untraced.cold_ms)),
            median(&raw(&untraced.cold_ms)),
            setup_times.raw_median_ms()
        ));
    }
    server_stats(&mut client, &mut out, trace);
    if let Err(e) = client.shutdown() {
        out.fail(e);
    }
    out
}

/// The traced rounds and the layer calls made beside them.
#[derive(Default)]
struct Layers {
    spans: Option<Spans>,
    phase: Phase,
    parse: Vec<Sample>,
    key: Vec<Sample>,
    execute: Vec<Sample>,
    json_mb_s: Vec<f64>,
    ingest: Vec<Sample>,
    sentinel: Option<Sentinel>,
}

impl Layers {
    /// One traced round, then the layers its cold request crossed,
    /// called directly on its spec while the server is idle.
    fn round(
        &mut self,
        client: &mut Client,
        clock: &mut HostClock,
        stream: &mut Stream,
        out: &mut Outcome,
    ) {
        let spans = self.spans.get_or_insert_with(Spans::new);
        let Some((spec, lines)) = stream.round(client, clock, &mut self.phase, out, Some(spans))
        else {
            return;
        };
        let line = request_line(&spec);
        spans.next_op();
        let (parsed, took) = clock.time(|| spans.span("szserve.parse", || Request::parse(&line)));
        self.parse.push(took);
        if parsed.as_ref() != Ok(&Request::Run(spec.clone())) {
            out.fail("Request::parse does not invert Request::to_json");
        }
        let (_, took) = clock.time(|| {
            spans.span("szserve.cache_key", || {
                std::hint::black_box(cache_key(&spec))
            })
        });
        self.key.push(took);
        let (direct, took) =
            clock.time(|| spans.span("szserve.execute", || check_direct(&spec, &lines, out)));
        self.execute.push(took);
        let Some(direct) = direct else { return };
        let (parsed, took) = clock.time(|| {
            spans.span("szharness.json_parse", || {
                direct.trace.lines().all(|l| Json::parse(l).is_ok())
            })
        });
        if !parsed {
            out.fail("trace line does not parse");
        }
        self.json_mb_s
            .push(direct.trace.len() as f64 / 1e3 / took.scaled_ms);
        let sentinel = self
            .sentinel
            .get_or_insert_with(|| Sentinel::new(SentinelConfig::default()));
        let (ingested, took) = clock.time(|| {
            spans.span("szsentinel.ingest", || {
                direct
                    .trace
                    .lines()
                    .all(|l| sentinel.ingest_line(l).is_ok())
            })
        });
        if !ingested {
            out.fail("sentinel rejects a trace line");
        }
        self.ingest.push(took);
    }

    fn report(self, untraced: &Phase, out: &mut Outcome) {
        let (n_cold, n_cached) = (untraced.cold_ms.len(), untraced.cached_ms.len());
        let cold = raw(&untraced.cold_ms);
        let cached = raw(&untraced.cached_ms);
        let traced_cold = raw(&self.phase.cold_ms);
        out.metric(
            "szserve.parse_us",
            median(&scaled(&self.parse)) * 1e3,
            "us",
            self.parse.len(),
            Kind::Host,
        );
        out.metric(
            "szserve.cache_key_us",
            median(&scaled(&self.key)) * 1e3,
            "us",
            self.key.len(),
            Kind::Host,
        );
        out.metric(
            "szserve.reply_kb",
            median(&untraced.cached_kb),
            "KB",
            untraced.cached_kb.len(),
            Kind::Count,
        );
        out.metric(
            "szserve.execute_ms",
            median(&scaled(&self.execute)),
            "ms",
            self.execute.len(),
            Kind::Host,
        );
        out.metric(
            "szharness.json_parse_mb_s",
            median(&self.json_mb_s),
            "MB/s",
            self.json_mb_s.len(),
            Kind::Host,
        );
        out.metric(
            "szsentinel.ingest_ms",
            median(&scaled(&self.ingest)),
            "ms",
            self.ingest.len(),
            Kind::Host,
        );
        out.metric(
            "szserve.cold_residual_ms",
            paired_median(&cold, &raw(&self.execute)),
            "ms",
            n_cold,
            Kind::Host,
        );
        out.metric(
            "cold_ms.scaled_p50",
            median(&scaled(&untraced.cold_ms)),
            "ms",
            n_cold,
            Kind::Host,
        );
        out.metric("cold_ms.p50", median(&cold), "ms", n_cold, Kind::Host);
        out.metric(
            "cold_ms.p90",
            quantile(&cold, 0.9),
            "ms",
            n_cold,
            Kind::Host,
        );
        out.metric(
            "cached_ms",
            median(&scaled(&untraced.cached_ms)),
            "ms",
            n_cached,
            Kind::Host,
        );
        out.metric("cached_ms.p50", median(&cached), "ms", n_cached, Kind::Host);
        out.metric(
            "cached_ms.p99",
            quantile(&cached, 0.99),
            "ms",
            n_cached,
            Kind::Host,
        );
        out.metric(
            "serve.traced_cold_ms",
            median(&traced_cold),
            "ms",
            self.phase.cold_ms.len(),
            Kind::Host,
        );
        out.metric(
            "serve.trace_overhead_ms",
            paired_median(&traced_cold, &cold),
            "ms",
            self.phase.cold_ms.len(),
            Kind::Host,
        );
        if let Some(path) = self
            .spans
            .as_ref()
            .and_then(|s| s.write("serve-spans.jsonl"))
        {
            out.notes
                .push(format!("spans written to {}", path.display()));
        }
    }
}
