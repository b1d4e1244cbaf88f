//! The paper-reproduction workload: fig08 (`mode=sim method=all`), fig10
//! (`mode=sim trials=16384`) and fig05 at their defaults, each with
//! `threads=2`, run through the experiment registry.
//!
//! The end-to-end pass times the three `run_experiment` calls, repeated
//! until the run's seconds are spent. The traced pass runs the same three
//! campaigns from the benchmark: each trial goes through a benchmark-side
//! [`Trial`] wrapper that records a span, and the results must equal the
//! experiments' artifacts.

use crate::trace::{self, SpanId, Tracer, NO_PARENT};
use crate::{quantile, state_dir, Outcome, THREADS};
use mlec_analysis::burst::mlec_burst_sample;
use mlec_analysis::markov::nines;
use mlec_analysis::splitting::{stage1_analytic, stage2_pdl, Stage1};
use mlec_core::registry::{find, run_experiment, ExperimentCtx};
use mlec_runner::{run_with, trial_rng, GridOrder, GridTrial, Json, RunSpec, StopRule, Trial};
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::repair::{inject_catastrophic, plan_catastrophic_repair, RepairMethod};
use mlec_sim::system_sim::SystemSimOptions;
use mlec_sim::trials::{PoolTrial, SystemTrial};
use mlec_topology::MlecScheme;
use mlec_units::Duration;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// fig08 `mode=sim` defaults: AFR 75%, 2-year missions, 8 per cell.
const FIG08_AFR: f64 = 0.75;
const FIG08_YEARS: f64 = 2.0;
const FIG08_TRIALS: u64 = 8;
/// fig10 `mode=sim` defaults, with the trial count the workload sets.
const FIG10_AFR: f64 = 0.01;
const FIG10_YEARS: f64 = 20.0;
const FIG10_TRIALS: u64 = 16_384;
/// fig05 heatmap defaults: grid up to 60 in steps of 6, 60 samples a cell.
const FIG05_MAX: u32 = 60;
const FIG05_STEP: u32 = 6;
const FIG05_SAMPLES: u64 = 60;

const FIGS: [&str; 3] = ["fig08", "fig10", "fig05"];
const ARTIFACTS: [&str; 3] = ["fig08_sim", "fig10_sim", "fig05"];

fn experiment_args(fig: &str, seed: u64, out_dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = match fig {
        "fig08" => vec!["mode=sim".into(), "method=all".into()],
        "fig10" => vec![
            "mode=sim".into(),
            format!("trials={FIG10_TRIALS}"),
            "require_events=1".into(),
        ],
        _ => Vec::new(),
    };
    args.push(format!("threads={THREADS}"));
    args.push(format!("seed={seed}"));
    args.push(format!("out={}", out_dir.display()));
    args
}

/// Deployment and context construction: the deployments, failure biases
/// and analytic repair plans the campaigns start from, and the parsed
/// experiment contexts.
fn setup(seed: u64, out_dir: &Path) -> Result<(), String> {
    for scheme in MlecScheme::ALL {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = FIG08_AFR;
        for method in RepairMethod::EXTENDED {
            std::hint::black_box(plan_catastrophic_repair(&dep, method));
        }
        dep.config.afr = FIG10_AFR;
        let model = FailureModel::Exponential { afr: FIG10_AFR };
        std::hint::black_box(FailureBias::auto(&dep, &model));
    }
    for fig in FIGS {
        let exp = find(fig).ok_or_else(|| format!("{fig} is not registered"))?;
        let ctx = ExperimentCtx::parse(exp.info(), &experiment_args(fig, seed, out_dir))
            .map_err(|e| format!("{fig}: {e}"))?;
        std::hint::black_box(&ctx);
    }
    Ok(())
}

/// One pass of the three experiments.
struct Pass {
    walls: [f64; 3],
    artifacts: Vec<Json>,
    gate_failures: Vec<String>,
}

fn run_pass(seed: u64, out_dir: &Path) -> Result<Pass, String> {
    let mut walls = [0.0; 3];
    let mut artifacts = Vec::new();
    let mut gate_failures = Vec::new();
    for (i, fig) in FIGS.iter().enumerate() {
        let args = experiment_args(fig, seed, out_dir);
        let t = Instant::now();
        let outcome = run_experiment(fig, &args).map_err(|e| format!("{fig}: {e}"))?;
        walls[i] = t.elapsed().as_secs_f64();
        gate_failures.extend(outcome.gate_failures.iter().map(|g| format!("{fig}: {g}")));
        let path = out_dir.join(format!("{}.json", ARTIFACTS[i]));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        artifacts.push(Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?);
    }
    Ok(Pass {
        walls,
        artifacts,
        gate_failures,
    })
}

fn cells(j: &Json) -> &[Json] {
    j.as_arr().unwrap_or(&[])
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn count(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn same(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Runner trials in one pass: missions, pool trials and burst samples.
fn pass_trials(p: &Pass) -> u64 {
    let missions: u64 = cells(&p.artifacts[0])
        .iter()
        .map(|c| count(c, "missions"))
        .sum();
    let schemes = cells(&p.artifacts[1]).len() as u64 / RepairMethod::PAPER.len() as u64;
    let samples: u64 = cells(&p.artifacts[2])
        .iter()
        .map(|h| count(h, "trials"))
        .sum();
    missions + schemes * FIG10_TRIALS + samples
}

/// Outcome checks on one pass; returns the number of experiments failing.
fn check_pass(p: &Pass, out: &mut Outcome) -> u64 {
    let mut failed = [false; 3];
    for g in &p.gate_failures {
        let i = FIGS.iter().position(|f| g.starts_with(f)).unwrap_or(0);
        failed[i] = true;
    }
    out.check(
        "no gate failures",
        p.gate_failures.is_empty(),
        if p.gate_failures.is_empty() {
            "fig08, fig10 (require_events=1), fig05".to_string()
        } else {
            p.gate_failures.join("; ")
        },
    );

    let fig08 = cells(&p.artifacts[0]);
    let observed: Vec<&Json> = fig08
        .iter()
        .filter(|c| count(c, "catastrophic_pools") > 0)
        .collect();
    let off_plan: Vec<String> = observed
        .iter()
        .filter(|c| {
            let (sim, plan) = (num(c, "sim_cross_rack_tb"), num(c, "plan_cross_rack_tb"));
            (sim - plan).abs() > 1e-9 * plan.abs().max(1e-12)
        })
        .map(|c| format!("{:?}", c.get("method").and_then(Json::as_str)))
        .collect();
    let fig08_ok = fig08.len() == 4 * RepairMethod::EXTENDED.len()
        && !observed.is_empty()
        && off_plan.is_empty();
    out.check(
        "fig08 sim TB/pool equals the analytic plan",
        fig08_ok,
        format!(
            "{} of {} cells observed catastrophic pools; off plan: {off_plan:?}",
            observed.len(),
            fig08.len()
        ),
    );
    failed[0] |= !fig08_ok;

    let fig10 = cells(&p.artifacts[1]);
    let min_events = fig10.iter().map(|c| count(c, "events")).min().unwrap_or(0);
    let fig10_ok = fig10.len() == 4 * RepairMethod::PAPER.len() && min_events >= 1;
    out.check(
        "fig10 every scheme observed an event",
        fig10_ok,
        format!("fewest events in a cell: {min_events}"),
    );
    failed[1] |= !fig10_ok;

    let fig05 = cells(&p.artifacts[2]);
    let pdl_ok = fig05.iter().all(|h| {
        count(h, "trials") > 0
            && h.get("pdl").and_then(Json::as_arr).is_some_and(|rows| {
                rows.iter()
                    .flat_map(|r| r.as_arr().unwrap_or(&[]))
                    .all(|v| v.as_f64().is_none_or(|x| (0.0..=1.0).contains(&x)))
            })
    });
    let fig05_ok = fig05.len() == 4 && pdl_ok;
    out.check(
        "fig05 heatmaps hold probabilities",
        fig05_ok,
        format!("{} heatmaps", fig05.len()),
    );
    failed[2] |= !fig05_ok;
    failed.iter().filter(|f| **f).count() as u64
}

fn pass_counts(p: &Pass) -> String {
    let prints: Vec<String> = p
        .artifacts
        .iter()
        .map(|a| format!("{:016x}", a.fingerprint()))
        .collect();
    format!("artifacts={} trials={}", prints.join(","), pass_trials(p))
}

fn out_dir() -> PathBuf {
    state_dir().join(format!("figures-{}", std::process::id()))
}

fn describe(seed: u64, out: &mut Outcome) {
    out.note(format!(
        "fig08 mode=sim method=all, fig10 mode=sim trials={FIG10_TRIALS} require_events=1, fig05; threads={THREADS} seed={seed}"
    ));
}

/// One timed set-up.
pub fn setup_once(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    setup(seed, &out_dir())?;
    Ok(t.elapsed().as_secs_f64())
}

/// One measured pass: the three experiments through the registry, checked.
pub fn pass(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    describe(seed, &mut out);
    out.attempted = FIGS.len() as u64;
    let dir = out_dir();
    let (res, wall, cpu, steal) = crate::measure(|| run_pass(seed, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match res {
        Ok(p) => {
            out.failed = check_pass(&p, &mut out);
            for (fig, w) in FIGS.iter().zip(p.walls) {
                out.note(format!("{fig} wall {w:.4} s"));
            }
            out.count("pass", pass_counts(&p));
            out.set("pass.ops", pass_trials(&p) as f64);
        }
        Err(e) => {
            out.failed = FIGS.len() as u64;
            out.check("experiments complete", false, e);
        }
    }
    out.set("pass.wall_s", wall);
    out.set("pass.cpu_s", cpu);
    out.set("pass.steal_s", steal);
    out.set("pass.rss_mb", crate::peak_rss_mb());
    out
}

/// The traced pass: the experiments once for their walls and artifacts,
/// then the benchmark's own campaigns with and without spans.
pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    describe(seed, &mut out);
    let dir = out_dir();
    traced(seed, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// A benchmark-side trial wrapper: one span per trial.
struct Timed<'a, T> {
    inner: T,
    tracer: &'a Tracer,
    parent: SpanId,
    name: &'static str,
}

impl<T: Trial> Trial for Timed<'_, T> {
    type Acc = T::Acc;

    fn run(&self, index: u64, seed: u64, acc: &mut T::Acc) {
        self.tracer
            .span(self.name, self.parent, |_| self.inner.run(index, seed, acc));
    }
}

/// What the benchmark's own run of the three campaigns produced.
#[derive(Default)]
struct Mirror {
    wall_s: f64,
    /// `(catastrophic_pools, missions, sim TB per pool)` per fig08 cell.
    fig08: Vec<(u64, u64, f64)>,
    /// `(events, sim-stage-1 nines)` per fig10 cell.
    fig10: Vec<(u64, f64)>,
    /// `(trials, pdl)` per fig05 heatmap.
    fig05: Vec<(u64, Vec<Vec<f64>>)>,
    trials: u64,
}

fn heatmap_axis() -> Vec<u32> {
    let mut v: Vec<u32> = (1..=6.min(FIG05_MAX)).collect();
    let mut x = 6 + FIG05_STEP;
    while x < FIG05_MAX {
        v.push(x);
        x += FIG05_STEP;
    }
    if v.last() != Some(&FIG05_MAX) {
        v.push(FIG05_MAX);
    }
    v
}

fn mirror(seed: u64, tracer: &Tracer) -> std::io::Result<Mirror> {
    let started = Instant::now();
    let root = tracer.open(NO_PARENT);
    let result = mirror_inner(seed, tracer, root.id());
    tracer.close(&root, "bench.sim_campaign");
    let wall_s = started.elapsed().as_secs_f64();
    result.map(|m| Mirror { wall_s, ..m })
}

fn mirror_inner(seed: u64, tracer: &Tracer, root: SpanId) -> std::io::Result<Mirror> {
    let mut m = Mirror::default();
    let campaign = |f: &mut dyn FnMut(SpanId) -> std::io::Result<u64>| -> std::io::Result<u64> {
        tracer.span("runner.campaign", root, f)
    };

    for scheme in MlecScheme::ALL {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = FIG08_AFR;
        let model = FailureModel::Exponential { afr: FIG08_AFR };
        for method in RepairMethod::EXTENDED {
            let label = format!("fig08/{}-{}", scheme.name().replace('/', ""), method.name());
            let spec = RunSpec::new(&label, seed, StopRule::fixed(FIG08_TRIALS)).threads(THREADS);
            let mut acc = None;
            m.trials += campaign(&mut |cid| {
                let trial = Timed {
                    inner: SystemTrial {
                        dep: &dep,
                        model: &model,
                        strategy: method.strategy(),
                        years: FIG08_YEARS,
                        opts: SystemSimOptions::default(),
                        event_log: None,
                        log_label: "",
                    },
                    tracer,
                    parent: cid,
                    name: "sim.system_mission",
                };
                let report = mlec_runner::run(&trial, &spec)?;
                acc = Some(report.acc);
                Ok(report.trials)
            })?;
            let acc = acc.unwrap_or_default();
            let missions = acc.loss.trials();
            let cat = acc.catastrophic_pools;
            let tb = if cat > 0 {
                acc.cross_rack_traffic_tb.mean() * missions as f64 / cat as f64
            } else {
                f64::NAN
            };
            m.fig08.push((cat, missions, tb));
        }
    }

    for scheme in MlecScheme::ALL {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = FIG10_AFR;
        let model = FailureModel::Exponential { afr: FIG10_AFR };
        let bias = FailureBias::auto(&dep, &model);
        let label = format!("fig10/{}", scheme.name().replace('/', ""));
        let spec = RunSpec::new(&label, seed, StopRule::fixed(FIG10_TRIALS)).threads(THREADS);
        let mut acc = None;
        m.trials += campaign(&mut |cid| {
            let trial = Timed {
                inner: PoolTrial {
                    dep: &dep,
                    model: &model,
                    years_per_trial: FIG10_YEARS,
                    bias,
                    event_log: None,
                    log_label: &label,
                },
                tracer,
                parent: cid,
                name: "sim.pool_trial",
            };
            let report = mlec_runner::run(&trial, &spec)?;
            acc = Some(report.acc);
            Ok(report.trials)
        })?;
        let acc = acc.unwrap_or_default();
        // Stage 1 from the campaign, as `stage1_via_runner` builds it.
        let injected = inject_catastrophic(&dep);
        let unobserved = acc.events() == 0;
        let s1 = Stage1 {
            cat_rate_per_pool_year: if unobserved {
                acc.rate.zero_event_upper_95()
            } else {
                acc.rate_per_pool_year()
            },
            lost_stripes: if unobserved {
                injected.lost_stripes
            } else {
                acc.mean_lost_stripes()
            },
            stripes_per_pool: injected.total_stripes,
            unobserved,
        };
        let s1_analytic = tracer.span("analysis.stage1_analytic", root, |_| stage1_analytic(&dep));
        for method in RepairMethod::PAPER {
            let pdl = |s: &Stage1| {
                tracer.span("analysis.stage2_pdl", root, |_| {
                    stage2_pdl(&dep, method, s, Duration::from_years(1.0))
                })
            };
            let sim_nines = nines(pdl(&s1).max(1e-300));
            std::hint::black_box(nines(pdl(&s1_analytic).max(1e-300)));
            m.fig10.push((acc.events(), sim_nines));
        }
    }

    let axis = heatmap_axis();
    let grid: Vec<(u32, u32)> = axis
        .iter()
        .flat_map(|&y| axis.iter().filter(move |&&x| y >= x).map(move |&x| (y, x)))
        .collect();
    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        let label = format!("fig05/{}", scheme.name().replace('/', ""));
        let mut means = Vec::new();
        let trials = campaign(&mut |cid| {
            let trial = GridTrial {
                cells: grid.len(),
                samples_per_cell: FIG05_SAMPLES,
                order: GridOrder::Blocked,
                f: |cell: usize, seed: u64| {
                    let (y, x) = grid[cell];
                    let mut rng = trial_rng(seed);
                    tracer.span("analysis.burst_sample", cid, |_| {
                        mlec_burst_sample(&dep, y, x, &mut rng)
                    })
                },
            };
            let spec =
                RunSpec::new(&label, seed, StopRule::fixed(trial.total_trials())).threads(THREADS);
            let report = run_with(&trial, &spec, trial.empty())?;
            means = (0..grid.len()).map(|c| report.acc.cell(c).mean()).collect();
            Ok(report.trials)
        })?;
        m.trials += trials;
        let mut pdl = vec![vec![f64::NAN; axis.len()]; axis.len()];
        for (&(y, x), mean) in grid.iter().zip(&means) {
            let yi = axis.iter().position(|&a| a == y).unwrap_or(0);
            let xi = axis.iter().position(|&a| a == x).unwrap_or(0);
            pdl[yi][xi] = *mean;
        }
        m.fig05.push((trials, pdl));
    }
    Ok(m)
}

/// Does the benchmark's own campaign run reproduce the artifacts?
fn mirror_matches(m: &Mirror, p: &Pass) -> Result<(), String> {
    let fig08 = cells(&p.artifacts[0]);
    if fig08.len() != m.fig08.len() {
        return Err(format!("fig08: {} cells vs {}", m.fig08.len(), fig08.len()));
    }
    for (i, (c, &(cat, missions, tb))) in fig08.iter().zip(&m.fig08).enumerate() {
        if count(c, "catastrophic_pools") != cat
            || count(c, "missions") != missions
            || !same(num(c, "sim_cross_rack_tb"), tb)
        {
            return Err(format!(
                "fig08 cell {i}: ({cat}, {missions}, {tb}) vs {c:?}"
            ));
        }
    }
    let fig10 = cells(&p.artifacts[1]);
    if fig10.len() != m.fig10.len() {
        return Err(format!("fig10: {} cells vs {}", m.fig10.len(), fig10.len()));
    }
    for (i, (c, &(events, n))) in fig10.iter().zip(&m.fig10).enumerate() {
        if count(c, "events") != events || !same(num(c, "nines_sim_stage1"), n) {
            return Err(format!("fig10 cell {i}: ({events}, {n}) vs {c:?}"));
        }
    }
    let fig05 = cells(&p.artifacts[2]);
    if fig05.len() != m.fig05.len() {
        return Err(format!(
            "fig05: {} heatmaps vs {}",
            m.fig05.len(),
            fig05.len()
        ));
    }
    for (i, (h, (trials, pdl))) in fig05.iter().zip(&m.fig05).enumerate() {
        let rows = h.get("pdl").and_then(Json::as_arr).unwrap_or(&[]);
        let values_match = rows.len() == pdl.len()
            && rows.iter().zip(pdl).all(|(r, mine)| {
                let r = r.as_arr().unwrap_or(&[]);
                r.len() == mine.len()
                    && r.iter()
                        .zip(mine)
                        .all(|(v, &x)| same(v.as_f64().unwrap_or(f64::NAN), x))
            });
        if count(h, "trials") != *trials || !values_match {
            return Err(format!("fig05 heatmap {i} differs"));
        }
    }
    Ok(())
}

fn traced(seed: u64, dir: &Path, out: &mut Outcome) {
    out.attempted += FIGS.len() as u64;
    let pass = match run_pass(seed, dir) {
        Ok(p) => p,
        Err(e) => {
            out.failed += FIGS.len() as u64;
            out.check("experiments complete", false, e);
            return;
        }
    };
    out.failed += check_pass(&pass, out);
    // Untraced campaigns before and after the traced ones, so a drift in
    // host speed cancels out of the tracing overhead.
    let before = mirror(seed, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let spanned = mirror(seed, &tracer);
    let spans = tracer.into_spans();
    let after = mirror(seed, &Tracer::new(false));
    let (before, spanned, after) = match (before, spanned, after) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            for r in [a, b, c] {
                if let Err(e) = r {
                    out.check("benchmark campaigns complete", false, e.to_string());
                }
            }
            return;
        }
    };
    let plain_wall = f64::midpoint(before.wall_s, after.wall_s);
    for (name, m) in [
        ("untraced", &before),
        ("traced", &spanned),
        ("second untraced", &after),
    ] {
        let verdict = mirror_matches(m, &pass);
        out.check(
            &format!("{name} benchmark campaigns reproduce the artifacts"),
            verdict.is_ok(),
            verdict
                .err()
                .unwrap_or_else(|| "fig08, fig10 and fig05 results".into()),
        );
    }
    let spans_path = state_dir().join("spans-sim-campaign.txt");
    if let Err(e) = trace::write_spans(&spans_path, &spans) {
        out.check("spans written", false, e.to_string());
    }
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        spans_path.display()
    ));
    out.count("pass", pass_counts(&pass));
    out.count("runner.trials", spanned.trials);

    out.set("fig08_sim_s", pass.walls[0]);
    out.set("fig10_sim_s", pass.walls[1]);
    out.set("fig05_s", pass.walls[2]);

    let missions = trace::durations(&spans, "sim.system_mission");
    let missions_busy = missions.iter().sum::<u64>() as f64 * 1e-9;
    out.set("sim.system_mission.calls", missions.len() as f64);
    out.set("sim.system_mission.busy_s", missions_busy);
    out.set("sim.system_mission.ms.p50", quantile(&missions, 0.5, 1e6));
    out.set("sim.system_mission.ms.p99", quantile(&missions, 0.99, 1e6));
    out.set(
        "sim.system_mission.catastrophic_pools",
        spanned.fig08.iter().map(|c| c.0).sum::<u64>() as f64,
    );
    let pool = trace::durations(&spans, "sim.pool_trial");
    let pool_busy = pool.iter().sum::<u64>() as f64 * 1e-9;
    out.set("sim.pool_trial.calls", pool.len() as f64);
    out.set("sim.pool_trial.busy_s", pool_busy);
    out.set("sim.pool_trial.us.p50", quantile(&pool, 0.5, 1e3));
    out.set("sim.pool_trial.us.p99", quantile(&pool, 0.99, 1e3));
    out.set(
        "sim.pool_trial.events",
        spanned
            .fig10
            .iter()
            .step_by(RepairMethod::PAPER.len())
            .map(|c| c.0)
            .sum::<u64>() as f64,
    );
    let burst = trace::durations(&spans, "analysis.burst_sample");
    let burst_busy = burst.iter().sum::<u64>() as f64 * 1e-9;
    out.set("analysis.burst_sample.calls", burst.len() as f64);
    out.set("analysis.burst_sample.busy_s", burst_busy);
    out.set(
        "analysis.stage2_pdl.calls",
        trace::durations(&spans, "analysis.stage2_pdl").len() as f64,
    );
    out.set(
        "analysis.stage2_pdl.busy_s",
        trace::busy_s(&spans, "analysis.stage2_pdl"),
    );

    let campaign_wall = trace::busy_s(&spans, "runner.campaign");
    out.set("runner.trials", spanned.trials as f64);
    out.set("runner.threads", THREADS as f64);
    out.set("runner.campaign_wall_s", campaign_wall);
    out.set(
        "runner.parallel_efficiency",
        (missions_busy + pool_busy + burst_busy) / (campaign_wall * THREADS as f64),
    );
    let experiments: f64 = pass.walls.iter().sum();
    out.set("core.render.busy_s", (experiments - plain_wall).max(0.0));
    out.note(format!(
        "core.render.busy_s = experiment walls {experiments:.4} s - benchmark campaigns {plain_wall:.4} s"
    ));

    crate::set_trace_metrics(out, &spans, spanned.wall_s, plain_wall);
}
