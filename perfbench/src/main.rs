//! End-to-end benchmark of the SPF measurement system.
//!
//! ```text
//! perfbench --workload census|spoof-study|verdict-service --seed N \
//!           --seconds S --trace 0|1 [--fingerprint key=value ...]
//! ```
//!
//! Every workload runs in this one process: it sets up its world, runs
//! timed passes until `--seconds` have gone by, checks each pass's
//! outputs outside the timed region, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics of the traced ones, plus the tracing
//! overhead and the wall time no span covers. See `perfbench/README.md`.

mod calib;
mod census;
mod dnsprobe;
mod layers;
mod loadgen;
mod spoofstudy;
mod trace;
mod verdict;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trace::{median, Tracer};

/// At least this many set-ups are timed per run (extra ones after the
/// passes when few passes fit in `--seconds`), so `setup_s` is a median
/// of enough samples to be steady; a set-up takes well under a second.
const MIN_SETUPS: usize = 15;

/// End-to-end metrics (`--trace 0`), with units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Times the calls of one pass by stage name and keeps the checks'
/// time out of the pass's wall time.
pub struct PassClock<'t> {
    tracer: &'t Arc<Tracer>,
    stages: BTreeMap<&'static str, f64>,
    excluded_s: f64,
}

impl<'t> PassClock<'t> {
    fn new(tracer: &'t Arc<Tracer>) -> Self {
        PassClock {
            tracer,
            stages: BTreeMap::new(),
            excluded_s: 0.0,
        }
    }

    /// The tracer, for spans nested inside a stage.
    pub fn tracer(&self) -> &'t Arc<Tracer> {
        self.tracer
    }

    /// Run `f` as the stage `name` (a `layer.call` span when tracing).
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, took) = self.tracer.stage(name, f);
        *self.stages.entry(name).or_default() += took.as_secs_f64();
        out
    }

    /// Run an output check; its time is excluded from `wall_s`.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.outside("bench.check", f)
    }

    /// Run `f` as the span `name` but keep its time out of `wall_s`:
    /// checks, teardown (`bench.teardown`), and probes whose results are
    /// per-layer only.
    pub fn outside<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, took) = self.tracer.stage(name, f);
        self.excluded_s += took.as_secs_f64();
        out
    }

    /// Seconds spent in stage `name` so far.
    pub fn secs(&self, name: &str) -> f64 {
        self.stages.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload's timed pass reports besides its wall time.
#[derive(Debug, Default)]
pub struct Measured {
    /// The workload's throughput figure (see README.md).
    pub rate_per_s: f64,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Per-layer values read from the program's own `Stats` structs and
    /// the benchmark's counters.
    pub layer: BTreeMap<&'static str, f64>,
}

/// One workload: a seeded set-up and a timed pass over what it built.
pub trait Workload {
    /// Everything the set-up builds.
    type World;
    /// Whether set-up and pass are CPU-bound, so that their end-to-end
    /// times and rates are reported at the reference host speed (see
    /// `calib.rs`) rather than at whatever speed the host ran.
    const CPU_BOUND: bool;
    /// Generate inputs, spawn servers, warm up.
    fn setup(&self, seed: u64, clock: &mut PassClock) -> Self::World;
    /// The timed work plus its checks.
    fn run(&self, world: Self::World, seed: u64, clock: &mut PassClock) -> Measured;
}

/// One pass's results.
struct PassResult {
    setup_s: f64,
    wall_s: f64,
    measured: Measured,
    stages: BTreeMap<&'static str, f64>,
    uncovered_s: f64,
    spans: Vec<trace::Span>,
    leaves: Vec<(trace::LeafKey, trace::LeafTotals)>,
    answered_ns: Vec<u32>,
}

fn one_pass<W: Workload>(workload: &W, seed: u64, run: u32, tracer: &Arc<Tracer>) -> PassResult {
    tracer.set_run(run);
    let mut clock = PassClock::new(tracer);
    let started = Instant::now();
    let world = workload.setup(seed, &mut clock);
    let setup_s = started.elapsed().as_secs_f64();
    let (measured, pass) = tracer.stage("bench.pass", || workload.run(world, seed, &mut clock));
    let wall_s = pass.as_secs_f64() - clock.excluded_s;
    let spans = tracer.spans_of(run);
    let uncovered_s = layers::uncovered_s(&spans);
    PassResult {
        setup_s,
        wall_s,
        measured,
        stages: clock.stages,
        uncovered_s,
        spans,
        leaves: tracer.leaves_of(run),
        answered_ns: tracer.durations_of(run, dnsprobe::ANSWER),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprint: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fingerprint: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--fingerprint" => {
                let kv = value()?;
                let (k, v) = kv.split_once('=').ok_or("--fingerprint takes key=value")?;
                args.fingerprint.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "census" => drive(&census::Census, &args),
        "spoof-study" => drive(&spoofstudy::SpoofStudy, &args),
        "verdict-service" => drive(&verdict::VerdictServiceLoad, &args),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (census, spoof-study, verdict-service)"
            );
            std::process::exit(2);
        }
    };
    print_result(&args, &outcome);
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn drive<W: Workload>(workload: &W, args: &Args) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let tracer = Arc::new(Tracer::new(args.trace));
    let untraced = Arc::new(Tracer::new(false));
    let mut plain: Vec<PassResult> = Vec::new();
    let mut traced: Vec<PassResult> = Vec::new();
    let mut first_pass_rss = None;
    // Kernel rounds timed after each untraced pass and extra set-up.
    let calibrate = W::CPU_BOUND && !args.trace;
    let mut host_rounds: Vec<f64> = Vec::new();
    let mut run = 0u32;
    // Start another pass only while it is expected to end within the
    // budget, so a run lasts about `--seconds` however long passes are.
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        run += 1;
        let result = one_pass(workload, args.seed, run, &untraced);
        log_pass("untraced", run, &result);
        if run == 1 {
            // Peak memory of one set-up plus pass; later passes would
            // add allocator fragmentation from their predecessors.
            first_pass_rss = trace::peak_rss_mib();
        }
        plain.push(result);
        if calibrate {
            host_rounds.extend(calib::round_s());
        }
        if args.trace {
            run += 1;
            let result = one_pass(workload, args.seed, run, &tracer);
            log_pass("traced", run, &result);
            traced.push(result);
        }
        let per_iteration = started.elapsed() / iterations;
        if started.elapsed() + per_iteration > budget {
            break;
        }
    }
    let mut setups: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
    while !args.trace && setups.len() < MIN_SETUPS {
        let mut clock = PassClock::new(&untraced);
        let t = Instant::now();
        let world = workload.setup(args.seed, &mut clock);
        setups.push(t.elapsed().as_secs_f64());
        drop(world);
        if calibrate {
            host_rounds.extend(calib::round_s());
        }
    }
    // How many times slower than the reference speed the host ran; 1 for
    // workloads reported as measured, or when no calibration could run.
    let slowdown = if host_rounds.is_empty() {
        if calibrate {
            eprintln!("[perfbench] no calibration ran: other threads stayed alive between passes");
        }
        1.0
    } else {
        median(&host_rounds) / calib::REFERENCE_S
    };

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|p| p.measured.attempted).sum();
    let failed: u64 = all.map(|p| p.measured.failed).sum();
    eprintln!(
        "[perfbench] {} passes, error_rate={} ({failed}/{attempted})",
        plain.len() + traced.len(),
        failed as f64 / attempted.max(1) as f64,
    );

    let metrics = if args.trace {
        let per_pass: Vec<BTreeMap<&'static str, f64>> = traced
            .iter()
            .map(|p| {
                let trace = layers::PassTrace {
                    spans: &p.spans,
                    leaves: &p.leaves,
                    answered_ns: &p.answered_ns,
                };
                layers::per_layer(&trace, &p.stages, &p.measured.layer, p.uncovered_s)
            })
            .collect();
        let overhead = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>())
            - median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_s" {
                    overhead
                } else {
                    median(
                        &per_pass
                            .iter()
                            .map(|m| m.get(name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    )
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let value = |name: &str| -> f64 {
            match name {
                "setup_s" => median(&setups),
                "wall_s" => median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
                "rate_per_s" => median(
                    &plain
                        .iter()
                        .map(|p| p.measured.rate_per_s)
                        .collect::<Vec<_>>(),
                ),
                "peak_rss_mib" => first_pass_rss.unwrap_or(0.0),
                other => unreachable!("unknown end-to-end metric {other}"),
            }
        };
        if calibrate {
            println!(
                "# host_slowdown = {slowdown} ({} calibrations)",
                host_rounds.len()
            );
        }
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let measured = value(name);
                let reported = match name {
                    "setup_s" | "wall_s" => measured / slowdown,
                    "rate_per_s" => measured * slowdown,
                    _ => measured,
                };
                println!("# measured {name} = {measured} {unit}");
                (name, reported, unit)
            })
            .collect()
    };

    if args.trace {
        write_trace(args, &tracer);
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn log_pass(kind: &str, run: u32, p: &PassResult) {
    eprintln!(
        "[perfbench] pass {run} ({kind}): setup {:.3} s, wall {:.3} s, rate {:.1}/s, checks {}/{} failed",
        p.setup_s, p.wall_s, p.measured.rate_per_s, p.measured.failed, p.measured.attempted
    );
}

fn fingerprint_json(args: &Args) -> String {
    let mut fields: Vec<(String, String)> = args.fingerprint.clone();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    fields.push(("nproc".into(), nproc.to_string()));
    fields.push(("workload".into(), args.workload.clone()));
    fields.push(("seed".into(), args.seed.to_string()));
    fields.push(("scale".into(), scale_of(&args.workload).to_string()));
    fields.push(("seconds".into(), args.seconds.to_string()));
    fields.push(("trace".into(), u8::from(args.trace).to_string()));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn scale_of(workload: &str) -> String {
    match workload {
        "census" => format!("1:{}", census::SCALE),
        "spoof-study" => format!("1:{}", spoofstudy::SCALE),
        "verdict-service" => format!("1:{}", verdict::SCALE),
        _ => "-".into(),
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

/// Spans go to `.bench_trace/<workload>.tsv` under the working
/// directory, written once the run has ended.
fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}.tsv", args.workload));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out, &fingerprint_json(args))
    });
    match written {
        Ok(()) => eprintln!(
            "[perfbench] wrote {} spans to {}",
            tracer.span_count(),
            path.display()
        ),
        Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
    }
}

fn print_result(args: &Args, outcome: &Outcome) {
    println!("# fingerprint {}", fingerprint_json(args));
    for (name, value, unit) in &outcome.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "# error_rate = {} ({} failed / {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}

/// Full-precision JSON number; non-finite values (never expected) print
/// as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
