//! One closed-loop benchmark run of one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <construct|repair|burst|fleet> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Repetitions run one at a time on one thread until `--seconds` have passed.
//! Each regenerates its inputs from the seed (`setup`), runs its one operation
//! (`op`) and checks the result (untimed). The last line of standard output is
//! the JSON result; the lines before it are diagnostics, one per repetition
//! and one for the run. README.md describes the workloads and the metrics.

// Reading the clock is what a wall-clock benchmark is for. The workspace's
// clippy.toml bans `Instant::now` to keep wall-clock out of fingerprinted
// output, and nothing this package prints is fingerprinted.
#![allow(clippy::disallowed_methods)]

mod probe;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::Value;

use trace::Tracer;
use workloads::{Checked, Kind};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// The metric names and units this benchmark declares.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");
/// Simulated costs and exact counts recorded at the default seed.
const EXPECTED: &str = include_str!("../expected.json");

/// Repetitions a run makes however short `--seconds` is: a traced run needs
/// an untraced and a traced one.
const MIN_REPS: usize = 2;

const USAGE: &str = "usage: kkt-perfbench --workload <construct|repair|burst|fleet> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String], default_seed: u64) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, default_seed, 10.0, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let found = Kind::ALL.into_iter().find(|k| k.name() == value);
                kind = Some(found.ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = ["0", "1"].iter().position(|v| v == value).ok_or_else(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args { kind: kind.ok_or("--workload is required")?, seed, seconds, trace })
}

fn json(text: &str, what: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e:?}"))
}

fn to_u64(v: &Value, what: &str) -> u64 {
    match v {
        Value::UInt(x) => u64::try_from(*x).unwrap_or_else(|_| panic!("{what} overflows")),
        other => panic!("{what} is not a count: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(contract: &Value, list: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = contract.get(list) else { panic!("no {list} list") };
    let field = |m: &Value, key: &str| match m.get(key) {
        Some(Value::String(s)) => s.clone(),
        other => panic!("{list}: expected a string at {key}, got {other:?}"),
    };
    items.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

/// Median time of one call to `Graph::max_weight` on the first construct
/// graph, in microseconds: the O(m) scan each FindMin-C pays.
fn max_weight_us(seed: u64) -> f64 {
    let g = workloads::base_graph(workloads::construct_seed(seed, 0));
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(std::hint::black_box(&g).max_weight());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// One repetition as measured.
struct Rep {
    traced: bool,
    setup_s: f64,
    op_s: f64,
    /// Simulated messages of the operation (0 if it failed).
    messages: u64,
}

impl Rep {
    fn ns_per_msg(&self) -> Option<f64> {
        (self.messages > 0).then(|| self.op_s * 1e9 / self.messages as f64)
    }
}

/// Everything one run collects.
#[derive(Default)]
struct Run {
    reps: Vec<Rep>,
    failures: Vec<String>,
    /// The first repetition's anchor, and the first traced repetition's
    /// exact counts.
    anchor: Option<Value>,
    exact: Option<BTreeMap<String, u64>>,
    /// What `expected.json` records, at the default seed only. Every
    /// repetition must reproduce it, or else the first repetition's values.
    recorded_anchor: Option<Value>,
    recorded_exact: Option<BTreeMap<String, u64>>,
    /// Per-layer times and ratios, one sample per traced repetition.
    samples: BTreeMap<String, Vec<f64>>,
}

impl Run {
    fn ops(&self, traced: bool) -> Vec<f64> {
        self.reps.iter().filter(|r| r.traced == traced).filter_map(Rep::ns_per_msg).collect()
    }

    fn same_anchor(&mut self, got: Value) -> Result<(), String> {
        let anchor = self.anchor.get_or_insert(got.clone());
        let want = self.recorded_anchor.as_ref().unwrap_or(anchor);
        if *want == got {
            return Ok(());
        }
        Err(format!(
            "simulated result {} differs from {}",
            serde_json::to_string(&got).unwrap_or_default(),
            serde_json::to_string(want).unwrap_or_default()
        ))
    }

    fn same_exact(&mut self, got: BTreeMap<String, u64>) -> Result<(), String> {
        let exact = self.exact.get_or_insert(got.clone());
        let want = self.recorded_exact.as_ref().unwrap_or(exact);
        let keys: std::collections::BTreeSet<&String> = want.keys().chain(got.keys()).collect();
        let diff: Vec<String> = keys
            .into_iter()
            .filter(|k| want.get(*k) != got.get(*k))
            .map(|k| format!("{k}={:?} (want {:?})", got.get(k), want.get(k)))
            .collect();
        if diff.is_empty() {
            Ok(())
        } else {
            Err(format!("exact counts differ: {}", diff.join(", ")))
        }
    }

    /// Records a traced repetition's per-layer values; returns the share of
    /// its duration the layer spans cover, and its exact counts.
    fn record_layers(&mut self, t: &Tracer, rep: u32) -> (f64, BTreeMap<String, u64>) {
        let spans: Vec<_> = t.spans_of(rep).collect();
        let mut times: BTreeMap<String, f64> = BTreeMap::new();
        let mut exact: BTreeMap<String, u64> = t
            .counts()
            .iter()
            .filter(|(k, _)| !k.starts_with("sim."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let (mut root_s, mut glue_s) = (0.0, 0.0);
        for &(id, span) in &spans {
            let children: f64 =
                spans.iter().filter(|(_, c)| c.parent == Some(id)).map(|(_, c)| c.seconds()).sum();
            let self_s = span.seconds() - children;
            *times.entry(format!("self.{}_s", span.layer())).or_default() += self_s;
            if span.layer() == "perfbench" {
                root_s += span.seconds();
                glue_s += self_s;
                continue;
            }
            *times.entry(span.name.to_string()).or_default() += self_s;
            if let Some(call) = span.name.strip_prefix("core.").and_then(|n| n.strip_suffix("_s")) {
                *exact.entry(format!("alloc.{call}.count")).or_default() += span.allocs;
                *exact.entry(format!("alloc.{call}.bytes")).or_default() += span.alloc_bytes;
            }
        }
        for (name, &msgs) in &exact {
            if let Some(call) = name.strip_prefix("congest.").and_then(|n| n.strip_suffix(".msgs"))
            {
                let span_s = times.get(&format!("core.{call}_s")).copied().unwrap_or(0.0);
                times.insert(
                    format!("congest.{call}.ns_per_msg"),
                    span_s * 1e9 / msgs.max(1) as f64,
                );
            }
        }
        let coverage = if root_s > 0.0 { 1.0 - glue_s / root_s } else { 0.0 };
        times.insert("trace.coverage_pct".into(), coverage * 100.0);
        for (name, v) in times {
            self.samples.entry(name).or_default().push(v);
        }
        (coverage, exact)
    }
}

/// Runs one repetition: set up, operate (timed), check (untimed).
fn repetition(
    args: &Args,
    rep: u32,
    traced: bool,
    t: &mut Tracer,
) -> (Rep, Result<Checked, String>) {
    t.begin_rep(rep, traced);
    let clock = Instant::now();
    let root = t.enter("perfbench.setup");
    let inputs = workloads::setup(args.kind, args.seed, t);
    t.exit(root);
    let setup_s = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let root = t.enter("perfbench.op");
    let done = catch_unwind(AssertUnwindSafe(|| workloads::op(args.kind, inputs, t)))
        .unwrap_or_else(|_| Err("the operation panicked".to_string()));
    t.exit(root);
    let op_s = clock.elapsed().as_secs_f64();

    let checked = done.and_then(|done| workloads::check(done, t));
    let messages = checked.as_ref().map_or(0, |c| c.messages);
    (Rep { traced, setup_s, op_s, messages }, checked)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--probe") {
        probe::run_child();
        return ExitCode::SUCCESS;
    }
    let contract = json(CONTRACT, "BENCHMARK.json");
    let expected = json(EXPECTED, "expected.json");
    let default_seed = to_u64(expected.get("seed").unwrap_or(&Value::Null), "expected.json seed");
    let args = match parse_args(&raw, default_seed) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut run = Run::default();
    if let Some(recorded) = expected.get(args.kind.name()).filter(|_| args.seed == default_seed) {
        run.recorded_anchor = recorded.get("anchor").cloned();
        if let Some(Value::Object(fields)) = recorded.get("exact") {
            let exact = fields.iter().map(|(k, v)| (k.clone(), to_u64(v, k)));
            run.recorded_exact = Some(exact.collect());
        }
    }

    let probe_start = probe::measure();
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while run.reps.len() < MIN_REPS || start.elapsed() < budget {
        let rep = run.reps.len() as u32;
        // A traced run alternates untraced and traced repetitions, so the
        // tracing overhead is measured inside the run.
        let traced = args.trace && rep % 2 == 1;
        let (measured, checked) = repetition(&args, rep, traced, &mut tracer);
        let mut outcome = checked.and_then(|c| run.same_anchor(c.anchor));
        let mut coverage = None;
        if traced && outcome.is_ok() {
            let (covered, exact) = run.record_layers(&tracer, rep);
            if args.kind == Kind::Construct {
                let scan = max_weight_us(args.seed);
                run.samples.entry("graphs.max_weight_us".into()).or_default().push(scan);
            }
            coverage = Some(covered * 100.0);
            outcome = run.same_exact(exact);
        }
        let line = Value::Object(vec![
            ("rep".into(), Value::UInt(rep.into())),
            ("traced".into(), Value::Bool(traced)),
            ("setup_s".into(), Value::Float(measured.setup_s)),
            ("op_s".into(), Value::Float(measured.op_s)),
            ("op_ns_per_msg".into(), measured.ns_per_msg().map_or(Value::Null, Value::Float)),
            ("span_coverage_pct".into(), coverage.map_or(Value::Null, Value::Float)),
            ("ok".into(), Value::Bool(outcome.is_ok())),
        ]);
        println!("{}", serde_json::to_string(&line).unwrap_or_default());
        if let Err(e) = outcome {
            run.failures.push(format!("rep {rep}: {e}"));
        }
        run.reps.push(measured);
    }
    let probe_end = probe::measure();
    let rss = peak_rss_mib();

    let ops = run.ops(false);
    let untraced = || run.reps.iter().filter(|r| !r.traced);
    let setups: Vec<f64> = untraced().map(|r| r.setup_s).collect();
    let raw_ops: Vec<f64> = untraced().map(|r| r.op_s).collect();
    let mut computed: BTreeMap<String, f64> = BTreeMap::new();
    let list = if args.trace {
        for (name, values) in &run.samples {
            computed.insert(name.clone(), median(values));
        }
        for (name, &v) in run.exact.iter().flatten() {
            match name.strip_suffix(".bytes") {
                Some(call) => computed.insert(format!("{call}.mib"), v as f64 / f64::from(1 << 20)),
                None => computed.insert(name.clone(), v as f64),
            };
        }
        let overhead = (min(&run.ops(true)) / min(&ops) - 1.0) * 100.0;
        computed.insert("trace.overhead_pct".into(), overhead);
        let probes: Vec<probe::Probe> =
            [&probe_start, &probe_end].into_iter().flatten().copied().collect();
        let compute: Vec<f64> = probes.iter().map(|p| p.compute_ms).collect();
        let memory: Vec<f64> = probes.iter().map(|p| p.memory_ms).collect();
        computed.insert("host.compute_probe_ms".into(), median(&compute));
        computed.insert("host.memory_probe_ms".into(), median(&memory));
        declared(&contract, "per_layer")
    } else {
        computed.insert("op_ns_per_msg".into(), min(&ops));
        computed.insert("setup_s".into(), median(&setups));
        computed.insert("peak_rss_mib".into(), rss);
        declared(&contract, "end_to_end")
    };

    let probe_value = |p: &Result<probe::Probe, String>| match p {
        Ok(p) => Value::Array(vec![Value::Float(p.compute_ms), Value::Float(p.memory_ms)]),
        Err(e) => Value::String(e.clone()),
    };
    let exact = run.exact.iter().flatten().map(|(k, v)| (k.clone(), Value::UInt((*v).into())));
    let failures = run.failures.iter().take(5).cloned().map(Value::String).collect();
    let summary = Value::Object(vec![
        ("workload".into(), Value::String(args.kind.name().into())),
        ("seed".into(), Value::UInt(args.seed.into())),
        ("reps".into(), Value::UInt(run.reps.len() as u128)),
        ("untraced_reps".into(), Value::UInt(raw_ops.len() as u128)),
        ("op_s_min".into(), Value::Float(min(&raw_ops))),
        ("op_s_median".into(), Value::Float(median(&raw_ops))),
        ("op_ns_per_msg_median".into(), Value::Float(median(&ops))),
        ("setup_s_min".into(), Value::Float(min(&setups))),
        ("peak_rss_mib".into(), Value::Float(rss)),
        ("host_probe_start_ms".into(), probe_value(&probe_start)),
        ("host_probe_end_ms".into(), probe_value(&probe_end)),
        ("anchor".into(), run.anchor.clone().unwrap_or(Value::Null)),
        ("exact".into(), Value::Object(exact.collect())),
        ("failures".into(), Value::Array(failures)),
    ]);
    println!("{}", serde_json::to_string(&summary).unwrap_or_default());

    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-{}.jsonl", args.kind.name(), args.seed);
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.jsonl()));
        if let Err(e) = written {
            eprintln!("could not write {path}: {e}");
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in list {
        // A layer the workload does not exercise reads 0.
        let value = computed.remove(&name).unwrap_or(0.0);
        let metric =
            vec![("value".into(), Value::Float(value)), ("unit".into(), Value::String(unit))];
        metrics.push((name, Value::Object(metric)));
    }
    for name in computed.keys() {
        eprintln!("note: {name} is measured but not declared in BENCHMARK.json");
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(run.failures.is_empty())),
        ("attempted".into(), Value::UInt(run.reps.len() as u128)),
        ("failed".into(), Value::UInt(run.failures.len() as u128)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    ExitCode::SUCCESS
}
