//! The repository's benchmark: every run serves images over a socket,
//! runs the Table 3 pipeline and simulates an RSFQ mesh, at one of two
//! seeded scales (the workloads), and reports end-to-end metrics from an
//! untraced pass or per-layer metrics from a traced one. See `README.md`
//! beside this package.
//!
//! ```text
//! sushi-perfbench --workload <paper|small> --seed <n> --seconds <s>
//!                 --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it describes the host and the correctness gates. The
//! spans of a traced run are written to `benchmark/out/`.

mod pins;
mod serve;
mod sim;
mod table3;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The seed later performance claims must also hold on.
pub const HELD_OUT_SEED: u64 = 7919;

/// Workload scale. `Paper` runs the paper's sizes, where compute
/// dominates; `Small` runs small nets and a small mesh, where the fixed
/// costs per request, per pipeline repetition and per simulation window
/// dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Paper,
    Small,
}

/// Rounds of the `table3` and `sim_mesh` phases per pass: each runs a
/// slice in every round, so its metrics sample the host across the run
/// rather than one stretch of it.
const ROUNDS: usize = 3;
/// Shares of `--seconds` for the three phases.
const SERVE_SHARE: f64 = 0.3;
const TABLE3_SHARE: f64 = 0.45;
const SIM_SHARE: f64 = 0.25;

/// Run parameters of one pass.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub cpus: usize,
}

/// Correctness-gate tally: how many checks ran and how many failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gate {
    pub checked: u64,
    pub failed: u64,
}

/// Everything one phase (or, merged, one pass) measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Median set-up time of the phase in seconds.
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub gates: BTreeMap<&'static str, Gate>,
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layer: Vec<(&'static str, f64, &'static str)>,
    /// The wall-time quantity the traced and untraced passes are
    /// compared on for `trace.overhead`.
    pub overhead_basis: f64,
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation sent to the program and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records one correctness check; a failed check is a failed
    /// operation.
    pub fn check(&mut self, gate: &'static str, ok: bool) {
        let g = self.gates.entry(gate).or_default();
        g.checked += 1;
        if !ok {
            g.failed += 1;
            self.failed += 1;
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push((name, value, unit));
    }

    /// Adds another phase's (or pass's) operations, checks, metrics and
    /// set-up time to this one.
    pub fn absorb(&mut self, other: Report) {
        self.setup_s += other.setup_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (g, v) in other.gates {
            let e = self.gates.entry(g).or_default();
            e.checked += v.checked;
            e.failed += v.failed;
        }
        self.e2e.extend(other.e2e);
        self.layer.extend(other.layer);
        self.notes.extend(other.notes);
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() as f64 * p).ceil() as usize).clamp(1, s.len()) - 1;
    s[idx]
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Runs `setup` `reps` times, returning the last result and the median
/// set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (value, t) = secs(&mut setup);
        last = Some(value);
        times.push(t);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// 64-bit FNV-1a, for pinning digests of exact outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on `--seed` and never on a crate under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A digest of the workspace sources the benchmark was built from, so a
/// result can be matched to its code when the checkout carries no git
/// metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor", "benchmark/src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = Digest::default();
    for f in &files {
        h.bytes(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.value())
}

/// The commit, read from `.git` when the checkout is a git work tree,
/// else "unknown" (the source digest then identifies the code).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split_whitespace().next().unwrap_or_default().to_owned())
        })
        .map_or_else(|| "unknown".to_owned(), |c| c.trim().to_owned())
}

fn has_vpopcntdq() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The workload's scale and the name of its root span.
fn workload(name: &str) -> Option<(Size, &'static str)> {
    match name {
        "paper" => Some((Size::Paper, "paper")),
        "small" => Some((Size::Small, "small")),
        _ => None,
    }
}

/// One pass: set up the three phases, serve, run `ROUNDS` rounds of the
/// other two, and report. Returns the phases' reports in order.
fn pass(cfg: &RunCfg, tracer: &mut Tracer) -> Vec<Report> {
    let (mut rs, mut rt, mut rm) = (Report::default(), Report::default(), Report::default());
    let mut serve = tracer.span("bench.serve_socket", |t| {
        serve::Serve::setup(cfg, t, &mut rs)
    });
    let mut table3 = tracer.span("bench.table3", |t| table3::Table3::setup(cfg, t, &mut rt));
    let mut sim = tracer.span("bench.sim_mesh", |t| sim::Sim::setup(cfg, t, &mut rm));
    // Serving runs as one block: its tail-latency windows need unbroken
    // time.
    tracer.span("bench.serve_socket", |t| {
        serve.run(cfg, cfg.seconds * SERVE_SHARE, t, &mut rs);
    });
    let round = cfg.seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        tracer.span("bench.table3", |t| {
            table3.round(cfg, round * TABLE3_SHARE, t, &mut rt);
        });
        tracer.span("bench.sim_mesh", |t| {
            sim.round(cfg, round * SIM_SHARE, t, &mut rm);
        });
    }
    tracer.span("bench.serve_socket", |t| serve.finish(t, &mut rs));
    tracer.span("bench.table3", |t| table3.finish(t, &mut rt));
    tracer.span("bench.sim_mesh", |t| sim.finish(cfg, t, &mut rm));
    vec![rs, rt, rm]
}

/// Merges the phases' reports of one pass into one.
fn merged(phases: Vec<Report>) -> Report {
    let mut all = Report::default();
    for r in phases {
        all.absorb(r);
    }
    all
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sushi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((size, root_span)) = workload(&args.workload) else {
        eprintln!("sushi-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from("benchmark/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("sushi-perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    // End-to-end metrics always come from an untraced pass. The traced
    // run repeats the pass with spans on and reports the layers; its two
    // passes split `--seconds` so it takes about as long as an untraced
    // run.
    let cfg = RunCfg {
        seed: args.seed,
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        size,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };

    let mut untraced_tracer = Tracer::new(false, Instant::now());
    let untraced = untraced_tracer.span(root_span, |t| pass(&cfg, t));
    let (report, metrics) = if args.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = tracer.span(root_span, |t| pass(&cfg, t));
        // Mean over the phases of traced over untraced, each on its
        // phase's own time basis.
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&untraced)
            .filter(|(_, u)| u.overhead_basis > 0.0)
            .map(|(t, u)| t.overhead_basis / u.overhead_basis)
            .collect();
        let overhead = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let mut traced = merged(traced);
        traced.layer("trace.overhead", overhead, "ratio");
        traced.layer("trace.coverage", tracer.coverage(root_span), "ratio");
        let trace_path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&trace_path, tracer.to_json()) {
            eprintln!(
                "sushi-perfbench: cannot write {}: {e}",
                trace_path.display()
            );
        }
        for (name, t) in tracer.layer_times() {
            eprintln!(
                "span {name:<34} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        // Both passes' checks count: the traced pass runs the same gates.
        // The untraced pass's metrics are not reported.
        let mut untraced = merged(untraced);
        untraced.e2e.clear();
        untraced.layer.clear();
        untraced.setup_s = 0.0;
        traced.absorb(untraced);
        let mut metrics = traced.layer.clone();
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
        (traced, metrics)
    } else {
        let untraced = merged(untraced);
        let mut metrics = vec![("setup_s", untraced.setup_s, "s")];
        metrics.extend(untraced.e2e.iter().copied());
        (untraced, metrics)
    };

    for n in &report.notes {
        eprintln!("note: {n}");
    }
    // A gate is only listed once it has checked something.
    let correct = report.failed == 0 && report.attempted > 0 && !report.gates.is_empty();

    let mut host = format!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"simd_tier\": \"{}\", \"avx512_vpopcntdq\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\"}}, \"gates\": {{",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.cpus,
        sushi_snn::tensor::simd_tier(),
        has_vpopcntdq(),
        commit(),
        source_digest(Path::new(".")),
    );
    for (i, (g, v)) in report.gates.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            host,
            "{sep}\"{g}\": {{\"checked\": {}, \"failed\": {}}}",
            v.checked, v.failed
        );
    }
    host.push_str("}}");

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    line.push_str("}}");

    let result_path = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&result_path, format!("{host}\n{line}\n")) {
        eprintln!(
            "sushi-perfbench: cannot write {}: {e}",
            result_path.display()
        );
    }
    println!("{host}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
