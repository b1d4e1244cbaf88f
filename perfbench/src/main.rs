//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced pass and reports the per-layer metrics. Both check the
//! program's outputs. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a failed check exits 1
//! after printing it. See `perfbench/README.md` for the metric table.

mod sim;
mod store;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// What a measured pass reports to the parent process.
const PASS_METRICS: &[&str] = &[
    "pass.wall_s",
    "pass.cpu_s",
    "pass.steal_s",
    "pass.ops",
    "pass.rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1` (zero
/// where the workload does not reach the layer).
const PER_LAYER: &[(&str, &str)] = &[
    // Workload outcomes that no single layer owns; the store's latencies
    // are modelled (virtual) time, deterministic for a seed.
    ("steady_p99_us", "virtual_us"),
    ("rebuild_p99_us", "virtual_us"),
    ("rebuild_window_s", "virtual_s"),
    ("fig08_sim_s", "s"),
    ("fig10_sim_s", "s"),
    ("fig05_s", "s"),
    // gf
    ("gf.mul_add.mbs", "MB/s"),
    ("gf.mul_add.bytes", "bytes"),
    // ec
    ("ec.encode.calls", "count"),
    ("ec.encode.busy_s", "s"),
    ("ec.encode.mbs", "MB/s"),
    ("ec.read_degraded.calls", "count"),
    ("ec.read_degraded.us.p50", "us"),
    ("ec.read_degraded.us.p99", "us"),
    // store
    ("store.setup.busy_s", "s"),
    ("store.prepare.busy_s", "s"),
    ("store.put.calls", "count"),
    ("store.put.busy_s", "s"),
    ("store.put.wall_us.p50", "us"),
    ("store.put.wall_us.p99", "us"),
    ("store.get.calls", "count"),
    ("store.get.busy_s", "s"),
    ("store.get.wall_us.p50", "us"),
    ("store.get.wall_us.p99", "us"),
    ("store.get.degraded", "count"),
    ("store.get.degraded.wall_us.p50", "us"),
    ("store.get.degraded.wall_us.p99", "us"),
    ("store.delete.calls", "count"),
    ("store.delete.busy_s", "s"),
    ("store.pump_repairs.calls", "count"),
    ("store.pump_repairs.busy_s", "s"),
    ("store.cache.hit_rate", "ratio"),
    ("store.cache.gets", "count"),
    ("store.repair.stripes", "count"),
    ("store.repair.network_chunks", "count"),
    ("store.repair.local_chunks", "count"),
    ("store.arbiter.fg_bytes", "bytes"),
    ("store.arbiter.fg_ios", "count"),
    ("store.arbiter.repair_bytes", "bytes"),
    ("store.epoch.serial_ops", "count"),
    ("store.apply.shard_speedup", "ratio"),
    ("store.apply.serial_wall_s", "s"),
    ("store.apply.sharded_wall_s", "s"),
    ("store.saturation.p99_growth", "ratio"),
    ("store.saturation.flagged", "count"),
    // sim
    ("sim.system_mission.calls", "count"),
    ("sim.system_mission.busy_s", "s"),
    ("sim.system_mission.ms.p50", "ms"),
    ("sim.system_mission.ms.p99", "ms"),
    ("sim.system_mission.catastrophic_pools", "count"),
    ("sim.pool_trial.calls", "count"),
    ("sim.pool_trial.busy_s", "s"),
    ("sim.pool_trial.us.p50", "us"),
    ("sim.pool_trial.us.p99", "us"),
    ("sim.pool_trial.events", "count"),
    // analysis
    ("analysis.burst_sample.calls", "count"),
    ("analysis.burst_sample.busy_s", "s"),
    ("analysis.stage2_pdl.calls", "count"),
    ("analysis.stage2_pdl.busy_s", "s"),
    // runner
    ("runner.trials", "count"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.campaign_wall_s", "s"),
    ("runner.threads", "count"),
    // core
    ("core.render.busy_s", "s"),
    // Per-layer self time of the traced pass; the shares sum to its wall.
    ("self_s.bench", "s"),
    ("self_s.ec", "s"),
    ("self_s.store", "s"),
    ("self_s.sim", "s"),
    ("self_s.analysis", "s"),
    ("self_s.runner", "s"),
    // The traced pass against the same pass with tracing off.
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Host steal above this share of the cores' time during a pass is
/// reported with the result.
const STEAL_WARN: f64 = 0.05;

/// Prepare- and apply-phase threads: the two cores the sizing assumes.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in the child process that runs one measured pass.
    pub pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut vals: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--pass" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        vals.insert(key, value);
    }
    let get = |k: &str| vals.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        pass: vals.contains_key("--pass"),
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly for a seed, one `name=value` each.
    pub counts: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn count(&mut self, name: &str, value: impl std::fmt::Display) {
        self.counts.push(format!("{name}={value}"));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The line protocol a pass uses to report to the parent process.
    fn to_lines(&self) -> String {
        let mut s = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (name, ok, detail) in &self.checks {
            let _ = writeln!(s, "check {} {name}\t{detail}", u8::from(*ok));
        }
        for (name, value) in &self.metrics {
            let _ = writeln!(s, "metric {name} {value}");
        }
        for c in &self.counts {
            let _ = writeln!(s, "count {c}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "note {n}");
        }
        s
    }

    fn from_lines(text: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed pass line `{line}`");
            match tag {
                "attempted" => out.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => out.failed = rest.parse().map_err(|_| bad())?,
                "check" => {
                    let (ok, rest) = rest.split_once(' ').ok_or_else(bad)?;
                    let (name, detail) = rest.split_once('\t').ok_or_else(bad)?;
                    out.check(name, ok == "1", detail);
                }
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    let name = PASS_METRICS.iter().find(|n| **n == name).ok_or_else(bad)?;
                    out.set(name, value.parse().map_err(|_| bad())?);
                }
                "count" => out.counts.push(rest.to_string()),
                "note" => out.note(rest),
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// Nearest-rank quantile of nanosecond durations, in `unit_ns` units.
pub fn quantile(durations_ns: &[u64], q: f64, unit_ns: f64) -> f64 {
    if durations_ns.is_empty() {
        return 0.0;
    }
    let mut v = durations_ns.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / unit_ns
}

/// Clock ticks per second of the `/proc` CPU-time counters (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU time this process has used, user plus system, over all threads
/// (live and exited), from `/proc/self/stat`, in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 12th and 13th fields after the
    // parenthesised command name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs,
/// from the `steal` column of `/proc/stat`, in clock ticks.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Time `f`: its wall, this process's CPU time and the host's steal time
/// over the call, in seconds.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64, f64) {
    let (cpu0, steal0) = (cpu_ticks(), steal_ticks());
    let t = Instant::now();
    let v = f();
    let wall = t.elapsed().as_secs_f64();
    let cpu = cpu_ticks().saturating_sub(cpu0) as f64 / TICKS_PER_S;
    let steal = steal_ticks().saturating_sub(steal0) as f64 / TICKS_PER_S;
    (v, wall, cpu, steal)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the benchmark keeps run state between invocations: under the
/// Cargo target directory, which is inside the checkout.
pub fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join("perfbench")
}

/// Cores, dispatched GF kernel, compiler and build profile.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    format!(
        "cores={cores} kernel={} rustc=\"{}\" profile={}",
        mlec_gf::simd::kernel_name(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

/// FNV-1a over the running executable, so recorded counts are compared
/// only against runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compare this run's host fingerprint with the first one recorded in the
/// checkout; results from another host are not comparable.
fn check_host(fingerprint: &str) -> Option<String> {
    let path = state_dir().join("host.txt");
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded.trim() == fingerprint => None,
        Ok(recorded) => Some(format!(
            "host differs from the first run in this checkout ({}): results are not comparable",
            recorded.trim()
        )),
        Err(_) => {
            let _ = std::fs::create_dir_all(state_dir());
            let _ = std::fs::write(&path, format!("{fingerprint}\n"));
            None
        }
    }
}

/// Counts must repeat exactly across every run of one seed with one build:
/// the first run records them, later runs compare.
fn check_counts_record(args: &Args, mode: &str, counts: &[String]) -> Result<(), String> {
    let dir = state_dir().join("counts");
    let path = dir.join(format!(
        "{}-{mode}-seed{}-{}.txt",
        args.workload,
        args.seed,
        build_id()
    ));
    let text = counts.join("\n") + "\n";
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == text => Ok(()),
        Ok(recorded) => {
            let drift: Vec<String> = recorded
                .lines()
                .zip(text.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{a} -> {b}"))
                .collect();
            Err(format!(
                "counts drifted from {}: {}",
                path.display(),
                drift.join(", ")
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())
        }
    }
}

/// The traced pass's wall, its untraced twin, and per-layer self time.
pub fn set_trace_metrics(out: &mut Outcome, spans: &[trace::Span], traced_s: f64, untraced_s: f64) {
    let self_times = trace::self_time_by_layer(spans);
    let mut sum = 0.0;
    for (layer, secs) in &self_times {
        sum += secs;
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("self_s.") == Some(layer));
        if let Some(name) = name {
            out.set(name, *secs);
        }
    }
    out.note(format!(
        "per-layer self times sum to {sum:.6} s of the {traced_s:.6} s traced wall"
    ));
    out.set("trace.wall_s", traced_s);
    out.set("trace.untraced_wall_s", untraced_s);
    out.set("trace.overhead_s", traced_s - untraced_s);
    out.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    out.set("trace.spans", spans.len() as f64);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

enum Workload {
    Store(&'static store::StoreWorkload),
    Sim,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "store-zipf-rebuild" => Some(Workload::Store(&store::ZIPF_REBUILD)),
            "store-put-heavy" => Some(Workload::Store(&store::PUT_HEAVY)),
            "sim-campaign" => Some(Workload::Sim),
            _ => None,
        }
    }

    /// Set-ups timed per end-to-end run; the median is reported. The
    /// simulation set-up takes microseconds, so it is repeated more.
    fn setup_reps(&self) -> usize {
        match self {
            Workload::Store(_) => 5,
            Workload::Sim => 501,
        }
    }

    fn setup_once(&self, seed: u64) -> Result<f64, String> {
        match self {
            Workload::Store(w) => store::setup_once(w, seed),
            Workload::Sim => sim::setup_once(seed),
        }
    }

    fn pass(&self, seed: u64) -> Outcome {
        match self {
            Workload::Store(w) => store::pass(w, seed),
            Workload::Sim => sim::pass(seed),
        }
    }

    fn traced(&self, seed: u64) -> Outcome {
        match self {
            Workload::Store(w) => store::run_traced(w, seed),
            Workload::Sim => sim::run_traced(seed),
        }
    }
}

/// Run one measured pass in a child process, so each pass starts from a
/// fresh heap and reports its own peak resident memory.
fn spawn_pass(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--pass", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("pass exited with {}", output.status));
    }
    Outcome::from_lines(&String::from_utf8_lossy(&output.stdout))
}

/// The end-to-end run: timed set-ups, then measured passes until the run's
/// seconds are spent; every metric is the median over set-ups or passes.
fn end_to_end(w: &Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(w.setup_reps());
    for _ in 0..w.setup_reps() {
        match w.setup_once(args.seed) {
            Ok(secs) => setups.push(secs),
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.check("set-up", false, e);
                return out;
            }
        }
    }
    let started = Instant::now();
    let mut passes: Vec<Outcome> = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        match spawn_pass(args) {
            Ok(p) => passes.push(p),
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.check("pass completes", false, e);
                return out;
            }
        }
    }
    let metric = |name: &str| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.metrics.get(name).copied().unwrap_or(f64::NAN))
            .collect()
    };
    let walls = metric("pass.wall_s");
    let rates: Vec<f64> = metric("pass.ops")
        .iter()
        .zip(&walls)
        .map(|(o, w)| o / w)
        .collect();
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.set("ops_per_s", median(&rates));
    out.set("cpu_s", median(&metric("pass.cpu_s")));
    out.set("peak_rss_mb", median(&metric("pass.rss_mb")));

    // Checks: one verdict per check, failing if any pass failed it.
    for p in &passes {
        out.attempted += p.attempted;
        out.failed += p.failed;
        for (name, ok, detail) in &p.checks {
            match out.checks.iter_mut().find(|c| c.0 == *name) {
                Some(c) if c.1 && !ok => *c = (name.clone(), false, detail.clone()),
                Some(_) => {}
                None => out.check(name, *ok, detail.clone()),
            }
        }
    }
    let first = &passes[0];
    out.check(
        "passes of one seed repeat exactly",
        passes.iter().all(|p| p.counts == first.counts),
        format!("{} passes", passes.len()),
    );
    out.counts.clone_from(&first.counts);
    out.notes.clone_from(&first.notes);
    out.note(format!("pass walls {walls:?}"));
    out.note(format!("pass cpu {:?}", metric("pass.cpu_s")));
    let steal = median(&metric("pass.steal_s"));
    out.note(format!("pass host steal {:?}", metric("pass.steal_s")));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if steal > STEAL_WARN * median(&walls) * cores as f64 {
        out.note(format!(
            "WARNING: the host took {steal:.2} s of CPU from this guest during a median pass: wall times are inflated"
        ));
    }
    out.note(format!("pass peak rss {:?}", metric("pass.rss_mb")));
    out.note(format!(
        "set-ups: median {:.6} s of {}",
        median(&setups),
        setups.len()
    ));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.pass {
        print!("{}", workload.pass(args.seed).to_lines());
        return ExitCode::SUCCESS;
    }
    let fingerprint = host_fingerprint();
    let mut out = if args.trace {
        workload.traced(args.seed)
    } else {
        end_to_end(&workload, &args)
    };
    let mode = if args.trace { "traced" } else { "e2e" };
    if let Err(e) = check_counts_record(&args, mode, &out.counts) {
        out.check("counts repeat across runs of this seed", false, e);
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(report, "host: {fingerprint}");
    if let Some(warning) = check_host(&fingerprint) {
        let _ = writeln!(report, "WARNING: {warning}");
    }
    for line in &out.notes {
        let _ = writeln!(report, "  {line}");
    }
    for (name, ok, detail) in &out.checks {
        let verdict = if *ok { "ok" } else { "FAILED" };
        let _ = writeln!(report, "check {verdict:6} {name}: {detail}");
    }
    let mut json_metrics = Vec::new();
    let mut finite = true;
    for &(name, unit) in catalogue {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        finite &= value.is_finite();
        let _ = writeln!(report, "{name:42} {value:>18.6} {unit}");
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = finite && out.checks.iter().all(|c| c.1);
    print!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const WORKLOADS: [&str; 3] = ["store-zipf-rebuild", "store-put-heavy", "sim-campaign"];
