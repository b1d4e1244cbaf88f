//! The store workloads.
//!
//! The end-to-end pass times `run_store_bench` on the sharded engine
//! (`shards=2 threads=2`), repeated until the run's seconds are spent, and
//! times the store's set-up (`MlecStore::new` plus the preload of every
//! object) on its own. The traced pass replays the same trace through the
//! store's public operations in trace order, with a span around each call,
//! and checks that this replay reproduces `run_store_bench`'s report.

use crate::trace::{self, SpanId, Tracer, NO_PARENT};
use crate::{quantile, state_dir, Outcome, THREADS};
use mlec_ec::mlec::MlecStripe;
use mlec_ec::MlecCodec;
use mlec_runner::SeedStream;
use mlec_store::iocore::{batches, par_map};
use mlec_store::{
    payload_for, run_store_bench, BackendChoice, BenchSpec, KillSpec, LatencyHistogram, LoadGen,
    LoadSpec, MemBackend, MlecStore, OpKind, StoreBenchReport, StoreConfig, StoreError,
};
use mlec_topology::objectmap::ObjectMapper;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

pub struct StoreWorkload {
    pub name: &'static str,
    pub load: LoadSpec,
    pub kill: Option<KillSpec>,
}

/// Read-path workload: a 128 MiB working set against a 16 MiB chunk
/// cache, one rack killed, at 5k ops/s (below saturation).
pub const ZIPF_REBUILD: StoreWorkload = StoreWorkload {
    name: "store-zipf-rebuild",
    load: LoadSpec {
        ops: 200_000,
        objects: 4096,
        zipf_s: 1.0,
        put_pct: 10,
        delete_pct: 0,
        ops_per_sec: 5_000,
    },
    kill: Some(KillSpec {
        at_op: 60_000,
        racks: 1,
        disks: 0,
    }),
};

/// Write-path workload: 8 MiB of data that fits the cache, half puts,
/// no failure, at 3k ops/s (4k ops/s already lifts the p99 past 1 ms).
pub const PUT_HEAVY: StoreWorkload = StoreWorkload {
    name: "store-put-heavy",
    load: LoadSpec {
        ops: 150_000,
        objects: 256,
        zipf_s: 0.9,
        put_pct: 50,
        delete_pct: 5,
        ops_per_sec: 3_000,
    },
    kill: None,
};

/// Preload batch of `run_store_bench`, so set-up is timed the same way.
const PRELOAD_BATCH: u64 = 512;
/// `store_bench`'s default inline verification stride.
const VERIFY_EVERY: u64 = 64;
/// A steady-phase p99 that grows by more than this from the first half of
/// the steady ops to the second marks a saturated (backlogged) workload.
const SATURATION_GROWTH: f64 = 1.5;
/// Bytes pushed through the GF kernel rung: 16384 chunks of 4 KiB.
const GF_CHUNK: usize = 4096;
const GF_CHUNKS: usize = 16_384;

fn bench_spec(w: &StoreWorkload, seed: u64, shards: usize, threads: usize) -> BenchSpec {
    BenchSpec {
        store: StoreConfig::small_test(),
        load: w.load,
        kill: w.kill,
        threads,
        shards,
        batch: 1024,
        verify_every: VERIFY_EVERY,
        seed,
        backend: BackendChoice::Mem,
        oplog: None,
        trace_text: None,
        timing: false,
    }
}

fn encode(codec: &MlecCodec, payload: &[u8], chunk_bytes: usize) -> Result<MlecStripe, StoreError> {
    let chunks: Vec<&[u8]> = payload.chunks(chunk_bytes).collect();
    Ok(codec.encode(&chunks)?)
}

/// `MlecStore::new` plus the preload of every object at version 0, as
/// `run_store_bench` does it before the trace starts.
fn build_store(
    spec: &BenchSpec,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<MlecStore<MemBackend>, StoreError> {
    let mut store = MlecStore::new(spec.store, |_| Ok(MemBackend::new()))?;
    let pay = SeedStream::new(spec.seed, "store/payload");
    let plen = spec.store.payload_bytes();
    let codec = store.codec().clone();
    for (lo, hi) in batches(spec.load.objects, PRELOAD_BATCH) {
        let objs: Vec<u64> = (lo..hi).collect();
        let encoded = par_map(&objs, spec.threads, |&obj| {
            let payload = payload_for(&pay, obj, 0, plen);
            tracer.span("ec.encode_preload", parent, |_| {
                encode(&codec, &payload, spec.store.chunk_bytes)
            })
        });
        for (obj, stripe) in objs.iter().zip(encoded) {
            store.preload_encoded(*obj, &stripe?)?;
        }
    }
    Ok(store)
}

/// Objects live at the end of the trace, from the trace alone.
fn expected_live(spec: &BenchSpec) -> Result<u64, StoreError> {
    let gen = LoadGen::synthetic(spec.load, SeedStream::new(spec.seed, "store/trace"))?;
    let mut live: BTreeSet<u64> = (0..spec.load.objects).collect();
    for index in 0..gen.len() {
        let op = gen.op(index);
        match op.kind {
            OpKind::Put => {
                live.insert(op.object);
            }
            OpKind::Delete => {
                live.remove(&op.object);
            }
            OpKind::Get => {}
        }
    }
    Ok(live.len() as u64)
}

fn describe(w: &StoreWorkload, spec: &BenchSpec, out: &mut Outcome) {
    out.note(format!(
        "{} ops, {} objects x {} B, zipf {}, {}% puts, {}% deletes, {} ops/s virtual, kill {:?}, shards={} threads={}",
        w.load.ops,
        w.load.objects,
        spec.store.payload_bytes(),
        w.load.zipf_s,
        w.load.put_pct,
        w.load.delete_pct,
        w.load.ops_per_sec,
        w.kill,
        spec.shards,
        spec.threads
    ));
}

/// One timed set-up: `MlecStore::new` plus the preload of every object.
pub fn setup_once(w: &StoreWorkload, seed: u64) -> Result<f64, String> {
    let spec = bench_spec(w, seed, THREADS, THREADS);
    let t = Instant::now();
    let store = build_store(&spec, &Tracer::new(false), NO_PARENT).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    drop(store);
    Ok(secs)
}

/// One measured pass: `run_store_bench` on the sharded engine, checked.
pub fn pass(w: &StoreWorkload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let spec = bench_spec(w, seed, THREADS, THREADS);
    describe(w, &spec, &mut out);
    out.attempted = w.load.ops;
    let live = match expected_live(&spec) {
        Ok(n) => n,
        Err(e) => {
            out.failed = w.load.ops;
            out.check("trace generation", false, e.to_string());
            return out;
        }
    };
    let (res, wall, cpu, steal) = crate::measure(|| run_store_bench(&spec));
    match res {
        Ok(r) => {
            out.failed = r.failed_gets + r.unrecoverable_stripes;
            check_report(w, &r, live, &mut out);
            note_report(&r, &mut out);
            out.count("report", format!("{r:?}"));
        }
        Err(e) => {
            out.failed = w.load.ops;
            out.check("replay completes", false, e.to_string());
        }
    }
    out.set("pass.wall_s", wall);
    out.set("pass.cpu_s", cpu);
    out.set("pass.steal_s", steal);
    out.set("pass.ops", w.load.ops as f64);
    out.set("pass.rss_mb", crate::peak_rss_mb());
    out
}

/// The traced pass: engine comparison, saturation guard, GF rung, and the
/// benchmark's own replay with and without spans.
pub fn run_traced(w: &StoreWorkload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let spec = bench_spec(w, seed, THREADS, THREADS);
    describe(w, &spec, &mut out);
    match expected_live(&spec) {
        Ok(live) => traced(w, &spec, live, &mut out),
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("trace generation", false, e.to_string());
        }
    }
    out
}

/// Outcome checks on one `run_store_bench` report.
fn check_report(w: &StoreWorkload, r: &StoreBenchReport, live: u64, out: &mut Outcome) {
    out.check(
        "no failed gets",
        r.failed_gets == 0,
        format!("{} failed of {} gets", r.failed_gets, r.gets),
    );
    out.check(
        "no unrecoverable stripes",
        r.unrecoverable_stripes == 0,
        format!("{} unrecoverable", r.unrecoverable_stripes),
    );
    out.check(
        "final sweep verifies every live object",
        r.verified_final == live,
        format!(
            "verified_final {} vs {live} live in the trace",
            r.verified_final
        ),
    );
    if w.load.delete_pct == 0 {
        out.check(
            "no misses without deletes",
            r.misses == 0,
            format!("{} misses", r.misses),
        );
    }
    if w.kill.is_some() {
        out.check(
            "the kill causes degraded reads",
            r.degraded_reads > 0,
            format!("{} degraded reads", r.degraded_reads),
        );
        out.check(
            "the rebuild finishes",
            r.rebuild_done_us.is_some(),
            format!("rebuild_done_us {:?}", r.rebuild_done_us),
        );
    }
}

fn p99(r: &StoreBenchReport, phase: &str) -> f64 {
    r.phase(phase).map_or(0.0, |p| p.p99_us as f64)
}

fn rebuild_window_s(r: &StoreBenchReport) -> f64 {
    match (r.kill_time_us, r.rebuild_done_us) {
        (Some(kill), Some(done)) => done.saturating_sub(kill) as f64 * 1e-6,
        _ => 0.0,
    }
}

fn note_report(r: &StoreBenchReport, out: &mut Outcome) {
    for p in &r.phases {
        out.note(format!(
            "phase {:9} {:7} ops  p50 {:6} us  p99 {:6} us  p999 {:7} us (virtual)",
            p.phase, p.count, p.p50_us, p.p99_us, p.p999_us
        ));
    }
    out.note(format!(
        "steady_p99_us {}  rebuild_p99_us {}  rebuild_window_s {}  degraded reads {}  cache hit rate {:.4}",
        p99(r, "steady"),
        p99(r, "rebuild"),
        rebuild_window_s(r),
        r.degraded_reads,
        r.cache_hit_rate
    ));
}

/// Deterministic outcome of a replay, comparable between `run_store_bench`
/// and the traced replay.
#[derive(Debug, PartialEq)]
struct Tally {
    degraded_reads: u64,
    failed_gets: u64,
    misses: u64,
    verified_inline: u64,
    verified_final: u64,
    repaired_stripes: u64,
    unrecoverable_stripes: u64,
    local_chunks: u64,
    network_chunks: u64,
    fg: (u64, u64),
    repair: (u64, u64),
    cache_hit_rate: f64,
    rebuild_done_us: Option<u64>,
    /// `(phase, count, p50, p99, p999, max)`.
    phases: Vec<(&'static str, u64, u64, u64, u64, u64)>,
}

impl Tally {
    fn of_report(r: &StoreBenchReport) -> Tally {
        Tally {
            degraded_reads: r.degraded_reads,
            failed_gets: r.failed_gets,
            misses: r.misses,
            verified_inline: r.verified_inline,
            verified_final: r.verified_final,
            repaired_stripes: r.repaired_stripes,
            unrecoverable_stripes: r.unrecoverable_stripes,
            local_chunks: r.repaired_local_chunks,
            network_chunks: r.repaired_network_chunks,
            fg: (r.foreground_ios, r.foreground_bytes),
            repair: (r.repair_ios, r.repair_bytes),
            cache_hit_rate: r.cache_hit_rate,
            rebuild_done_us: r.rebuild_done_us,
            phases: r
                .phases
                .iter()
                .map(|p| (p.phase, p.count, p.p50_us, p.p99_us, p.p999_us, p.max_us))
                .collect(),
        }
    }
}

/// What the traced replay observed besides its [`Tally`].
struct Mirror {
    tally: Tally,
    serial_ops: u64,
    cache_gets: u64,
    read_degraded_mismatches: u64,
    wall_s: f64,
}

fn phase_of(kill_time_us: Option<u64>, done_at: Option<u64>, at_us: u64) -> &'static str {
    match (kill_time_us, done_at) {
        (None, _) => "steady",
        (Some(_), Some(done)) if done <= at_us => "recovered",
        (Some(_), _) => "rebuild",
    }
}

/// One object read degraded by the store, for the codec rung.
struct DegradedRead<'a> {
    codec: &'a MlecCodec,
    mapper: &'a ObjectMapper,
    cfg: &'a StoreConfig,
    obj: u64,
    /// Racks `0..killed_racks` were killed.
    killed_racks: u32,
}

/// The codec rung: erase every chunk of `payload`'s stripe that the
/// killed racks held, then decode each erased data chunk straight from
/// the codec. Returns how many decoded chunks differ from the written ones.
fn codec_degraded_reads(
    read: &DegradedRead,
    payload: &[u8],
    tracer: &Tracer,
    root: SpanId,
) -> Result<u64, StoreError> {
    let DegradedRead {
        codec,
        mapper,
        cfg,
        obj,
        killed_racks,
    } = *read;
    let full = encode(codec, payload, cfg.chunk_bytes)?;
    let grid: Vec<Vec<Option<Vec<u8>>>> = full
        .iter()
        .enumerate()
        .map(|(row, cells)| {
            cells
                .iter()
                .enumerate()
                .map(|(col, chunk)| {
                    let disk = mapper.chunk_at(obj, row as u32, col as u32).disk;
                    (cfg.geometry.rack_of(disk) >= killed_racks).then(|| chunk.clone())
                })
                .collect()
        })
        .collect();
    let (kn, kl) = (cfg.code.kn as usize, cfg.code.kl as usize);
    let mut mismatches = 0;
    for row in 0..kn {
        for col in 0..kl {
            if grid[row][col].is_some() {
                continue;
            }
            let (bytes, _) = tracer.span("ec.read_degraded", root, |_| {
                codec.read_degraded(&grid, row, col)
            })?;
            if bytes != full[row][col] {
                mismatches += 1;
            }
        }
    }
    Ok(mismatches)
}

/// Replay the trace through `MlecStore`'s public operations in trace
/// order, as `run_store_bench` does on its monolithic path, with a span
/// around every call into the store and the codec.
fn mirror_replay(spec: &BenchSpec, tracer: &Tracer) -> Result<Mirror, StoreError> {
    let started = Instant::now();
    let root = tracer.open(NO_PARENT);
    let result = mirror_inner(spec, tracer, root.id());
    tracer.close(&root, "bench.store_replay");
    let wall_s = started.elapsed().as_secs_f64();
    result.map(|m| Mirror { wall_s, ..m })
}

#[allow(clippy::too_many_lines)]
fn mirror_inner(spec: &BenchSpec, tracer: &Tracer, root: SpanId) -> Result<Mirror, StoreError> {
    let mut store = tracer.span("store.setup", root, |id| build_store(spec, tracer, id))?;
    let cfg = *store.config();
    let mapper = ObjectMapper::new(
        cfg.geometry,
        cfg.code,
        cfg.scheme,
        cfg.chunk_bytes as u64,
        cfg.placement_seed,
    );
    let codec = store.codec().clone();
    let pay = SeedStream::new(spec.seed, "store/payload");
    let gen = LoadGen::synthetic(spec.load, SeedStream::new(spec.seed, "store/trace"))?;
    let (plen, overhead) = (cfg.payload_bytes(), cfg.overhead_us);

    let mut versions: BTreeMap<u64, u64> = (0..spec.load.objects).map(|o| (o, 0)).collect();
    let mut hists: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    let (mut failed_gets, mut misses, mut verified_inline) = (0u64, 0u64, 0u64);
    let (mut serial_ops, mut cache_gets, mut mismatches) = (0u64, 0u64, 0u64);
    let mut kill_time_us: Option<u64> = None;
    let mut serial_window = false;

    for index in 0..gen.len() {
        let (op, stripe, expected) = tracer.span("store.prepare", root, |pid| {
            let op = gen.op(index);
            let prepared = match op.kind {
                OpKind::Put => {
                    let v = versions.get(&op.object).map_or(0, |v| v + 1);
                    versions.insert(op.object, v);
                    let payload = payload_for(&pay, op.object, v, plen);
                    let stripe = tracer.span("ec.encode", pid, |_| {
                        encode(&codec, &payload, cfg.chunk_bytes)
                    })?;
                    (op, Some(stripe), None)
                }
                OpKind::Get => {
                    let sampled = spec.verify_every > 0 && index % spec.verify_every == 0;
                    let expected = versions
                        .get(&op.object)
                        .filter(|_| sampled)
                        .map(|&v| payload_for(&pay, op.object, v, plen));
                    (op, None, expected)
                }
                OpKind::Delete => {
                    versions.remove(&op.object);
                    (op, None, None)
                }
            };
            Ok::<_, StoreError>(prepared)
        })?;

        if let Some(kill) = spec
            .kill
            .filter(|k| kill_time_us.is_none() && k.at_op == op.index)
        {
            tracer.span("store.kill", root, |_| {
                store.kill_racks(kill.racks, op.at_us);
                if kill.disks > 0 {
                    let rack = kill.racks.min(cfg.geometry.racks.saturating_sub(1));
                    let disks: Vec<u32> = cfg
                        .geometry
                        .disks_in_rack(rack)
                        .take(kill.disks as usize)
                        .collect();
                    store.kill_disks(&disks, op.at_us);
                }
            });
            kill_time_us = Some(op.at_us);
            serial_window = true;
        }
        if serial_window {
            serial_ops += 1;
        }
        tracer.span("store.pump_repairs", root, |_| store.pump_repairs(op.at_us));
        let phase = phase_of(kill_time_us, store.repair().done_at(), op.at_us);
        let latency_us = match op.kind {
            OpKind::Put => {
                let stripe = stripe
                    .as_ref()
                    .ok_or(StoreError::BadSpec("unprepared put".into()))?;
                tracer
                    .span("store.put", root, |_| {
                        store.put_encoded(op.object, stripe, op.at_us)
                    })?
                    .latency_us
            }
            OpKind::Get => {
                let open = tracer.open(root);
                let res = store.get(op.object, op.at_us);
                let degraded = matches!(&res, Ok(g) if g.degraded);
                tracer.close(
                    &open,
                    if degraded {
                        "store.get_degraded"
                    } else {
                        "store.get"
                    },
                );
                match res {
                    Ok(got) => {
                        cache_gets += 1;
                        if let Some(e) = &expected {
                            if &got.payload != e {
                                return Err(StoreError::CorruptPayload(op.object));
                            }
                            verified_inline += 1;
                        }
                        if got.degraded {
                            let version = versions.get(&op.object).copied().unwrap_or(0);
                            let payload = payload_for(&pay, op.object, version, plen);
                            let killed = spec.kill.map_or(0, |k| k.racks);
                            mismatches += codec_degraded_reads(
                                &DegradedRead {
                                    codec: &codec,
                                    mapper: &mapper,
                                    cfg: &cfg,
                                    obj: op.object,
                                    killed_racks: killed,
                                },
                                &payload,
                                tracer,
                                root,
                            )?;
                        }
                        got.latency_us
                    }
                    Err(StoreError::UnknownObject(_)) => {
                        misses += 1;
                        overhead
                    }
                    Err(StoreError::Unrecoverable { .. }) => {
                        cache_gets += 1;
                        failed_gets += 1;
                        overhead
                    }
                    Err(e) => return Err(e),
                }
            }
            OpKind::Delete => {
                match tracer.span("store.delete", root, |_| store.delete(op.object, op.at_us)) {
                    Ok(latency) => latency,
                    Err(StoreError::UnknownObject(_)) => {
                        misses += 1;
                        overhead
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        hists.entry(phase).or_default().record(latency_us);
        if serial_window && store.repair().pending() == 0 && store.lost_chunks() == 0 {
            serial_window = false;
        }
    }

    tracer.span("store.pump_repairs", root, |_| store.pump_repairs(u64::MAX));
    let end_of_time = gen
        .len()
        .saturating_mul(1_000_000 / spec.load.ops_per_sec.max(1))
        .max(store.repair().done_at().unwrap_or(0))
        + 1;
    let verified_final = tracer.span("store.verify_final", root, |_| {
        let mut verified = 0u64;
        for (&obj, &version) in &versions {
            let got = store.get(obj, end_of_time)?;
            if got.payload != payload_for(&pay, obj, version, plen) {
                return Err(StoreError::CorruptPayload(obj));
            }
            verified += 1;
        }
        Ok::<_, StoreError>(verified)
    })?;
    cache_gets += verified_final;

    let (local_chunks, network_chunks) = store.repaired_chunks();
    let phases = ["steady", "rebuild", "recovered"]
        .into_iter()
        .filter_map(|name| {
            let h = hists.get(name)?;
            Some((
                name,
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max(),
            ))
        })
        .collect();
    Ok(Mirror {
        tally: Tally {
            degraded_reads: store.degraded_reads(),
            failed_gets,
            misses,
            verified_inline,
            verified_final,
            repaired_stripes: store.repair().repaired_stripes,
            unrecoverable_stripes: store.repair().unrecoverable_stripes,
            local_chunks,
            network_chunks,
            fg: store.arbiter().foreground_totals(),
            repair: store.arbiter().repair_totals(),
            cache_hit_rate: store.cache_hit_rate(),
            rebuild_done_us: store.repair().done_at().filter(|_| kill_time_us.is_some()),
            phases,
        },
        serial_ops,
        cache_gets,
        read_degraded_mismatches: mismatches,
        wall_s: 0.0,
    })
}

/// Steady-phase p99 of the first and second half of the steady ops in an
/// op log, in trace order.
fn steady_halves_p99(path: &std::path::Path) -> Result<(f64, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"').to_string())
    };
    let mut steady: Vec<u64> = Vec::new();
    for line in text.lines() {
        if field(line, "\"phase\":").as_deref() == Some("steady") {
            let lat = field(line, "\"lat_us\":")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed op-log line: {line}"))?;
            steady.push(lat);
        }
    }
    if steady.len() < 200 {
        return Err(format!("only {} steady ops in the op log", steady.len()));
    }
    let (a, b) = steady.split_at(steady.len() / 2);
    Ok((quantile(a, 0.99, 1.0), quantile(b, 0.99, 1.0)))
}

/// Throughput of `mul_add_slice` on 4 KiB chunks, MB/s.
fn gf_rung() -> (f64, f64) {
    let src: Vec<u8> = (0..GF_CHUNK).map(|i| (i * 131 + 7) as u8).collect();
    let mut dst = vec![0u8; GF_CHUNK];
    let t = Instant::now();
    for i in 0..GF_CHUNKS {
        let c = (i % 254 + 2) as u8;
        mlec_gf::slice::mul_add_slice(c, std::hint::black_box(&src), &mut dst);
    }
    std::hint::black_box(&dst);
    let secs = t.elapsed().as_secs_f64();
    let bytes = (GF_CHUNK * GF_CHUNKS) as f64;
    (bytes / secs / 1e6, bytes)
}

#[allow(clippy::too_many_lines)]
fn traced(w: &StoreWorkload, spec: &BenchSpec, live: u64, out: &mut Outcome) {
    // The sharded replay, the monolithic engine on one thread, and the
    // sharded replay again with its op log: same trace, same report.
    let (sharded, sharded_wall, _, _) = crate::measure(|| run_store_bench(spec));
    let serial_spec = bench_spec(w, spec.seed, 0, 1);
    let (serial, serial_wall, _, _) = crate::measure(|| run_store_bench(&serial_spec));
    let oplog = state_dir().join(format!("oplog-{}-{}.jsonl", w.name, std::process::id()));
    let mut logged_spec = spec.clone();
    logged_spec.oplog = Some(oplog.clone());
    let logged = run_store_bench(&logged_spec);
    let halves = steady_halves_p99(&oplog);
    let _ = std::fs::remove_file(&oplog);
    out.attempted += 3 * w.load.ops;
    let (sharded, serial, logged) = match (sharded, serial, logged) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            for (name, r) in [("sharded", a), ("serial", b), ("op-logged", c)] {
                if let Err(e) = r {
                    out.check(&format!("{name} replay completes"), false, e.to_string());
                }
            }
            out.failed += w.load.ops;
            return;
        }
    };
    for r in [&sharded, &serial, &logged] {
        out.failed += r.failed_gets + r.unrecoverable_stripes;
    }
    check_report(w, &sharded, live, out);
    out.check(
        "monolithic and sharded engines agree",
        serial == sharded,
        "shards=0 threads=1 vs shards=2 threads=2",
    );
    out.check(
        "op logging leaves the report unchanged",
        StoreBenchReport {
            oplog_records: 0,
            ..logged.clone()
        } == sharded
            && logged.oplog_records == w.load.ops,
        format!("{} op-log records", logged.oplog_records),
    );
    let (growth, flagged) = match halves {
        Ok((first, second)) => {
            let growth = second / first.max(1.0);
            out.note(format!(
                "saturation guard: steady p99 {first} us over the first half of steady ops, {second} us over the second"
            ));
            (growth, growth > SATURATION_GROWTH)
        }
        Err(e) => {
            out.check("op log readable", false, e);
            (0.0, false)
        }
    };
    out.check(
        "steady tail does not grow with trace length",
        !flagged,
        format!("second-half / first-half steady p99 = {growth:.3} (limit {SATURATION_GROWTH})"),
    );
    note_report(&sharded, out);

    let (gf_mbs, gf_bytes) = gf_rung();

    // Untraced replays before and after the traced one, so a drift in
    // host speed cancels out of the tracing overhead.
    let before = mirror_replay(spec, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let spanned = mirror_replay(spec, &tracer);
    let spans = tracer.into_spans();
    let after = mirror_replay(spec, &Tracer::new(false));
    let (before, spanned, after) = match (before, spanned, after) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            for r in [a, b, c] {
                if let Err(e) = r {
                    out.check("traced replay completes", false, e.to_string());
                }
            }
            return;
        }
    };
    let expected = Tally::of_report(&sharded);
    out.check(
        "the traced replay reproduces run_store_bench",
        [&before, &spanned, &after]
            .iter()
            .all(|m| m.tally == expected),
        "every count, virtual latency quantile and the cache hit rate",
    );
    if spanned.tally != expected {
        out.note(format!("traced replay: {:?}", spanned.tally));
        out.note(format!("run_store_bench: {expected:?}"));
    }
    out.check(
        "codec degraded reads return the written bytes",
        spanned.read_degraded_mismatches == 0,
        format!("{} mismatched chunks", spanned.read_degraded_mismatches),
    );
    let spans_path = state_dir().join(format!("spans-{}.txt", w.name));
    if let Err(e) = trace::write_spans(&spans_path, &spans) {
        out.check("spans written", false, e.to_string());
    }
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        spans_path.display()
    ));

    out.count("report", format!("{sharded:?}"));
    out.count("serial_ops", spanned.serial_ops);
    out.count("cache_gets", spanned.cache_gets);
    let count = |name: &str| trace::durations(&spans, name).len() as f64;
    out.count("ec.read_degraded.calls", count("ec.read_degraded"));
    out.count("ec.encode.calls", count("ec.encode"));

    out.set("steady_p99_us", p99(&sharded, "steady"));
    out.set("rebuild_p99_us", p99(&sharded, "rebuild"));
    out.set("rebuild_window_s", rebuild_window_s(&sharded));
    out.set("gf.mul_add.mbs", gf_mbs);
    out.set("gf.mul_add.bytes", gf_bytes);
    out.note(format!("gf kernel {}", mlec_gf::simd::kernel_name()));

    let encode_busy = trace::busy_s(&spans, "ec.encode");
    out.set("ec.encode.calls", count("ec.encode"));
    out.set("ec.encode.busy_s", encode_busy);
    if encode_busy > 0.0 {
        out.set(
            "ec.encode.mbs",
            count("ec.encode") * spec.store.payload_bytes() as f64 / encode_busy / 1e6,
        );
    }
    let rd = trace::durations(&spans, "ec.read_degraded");
    out.set("ec.read_degraded.calls", rd.len() as f64);
    out.set("ec.read_degraded.us.p50", quantile(&rd, 0.5, 1e3));
    out.set("ec.read_degraded.us.p99", quantile(&rd, 0.99, 1e3));

    out.set("store.setup.busy_s", trace::busy_s(&spans, "store.setup"));
    out.set(
        "store.prepare.busy_s",
        trace::busy_s(&spans, "store.prepare"),
    );
    let puts = trace::durations(&spans, "store.put");
    out.set("store.put.calls", puts.len() as f64);
    out.set("store.put.busy_s", puts.iter().sum::<u64>() as f64 * 1e-9);
    out.set("store.put.wall_us.p50", quantile(&puts, 0.5, 1e3));
    out.set("store.put.wall_us.p99", quantile(&puts, 0.99, 1e3));
    let mut gets = trace::durations(&spans, "store.get");
    gets.extend(trace::durations(&spans, "store.get_degraded"));
    out.set("store.get.calls", gets.len() as f64);
    out.set("store.get.busy_s", gets.iter().sum::<u64>() as f64 * 1e-9);
    out.set("store.get.wall_us.p50", quantile(&gets, 0.5, 1e3));
    out.set("store.get.wall_us.p99", quantile(&gets, 0.99, 1e3));
    let degraded = trace::durations(&spans, "store.get_degraded");
    out.set("store.get.degraded", degraded.len() as f64);
    out.set(
        "store.get.degraded.wall_us.p50",
        quantile(&degraded, 0.5, 1e3),
    );
    out.set(
        "store.get.degraded.wall_us.p99",
        quantile(&degraded, 0.99, 1e3),
    );
    out.set("store.delete.calls", count("store.delete"));
    out.set("store.delete.busy_s", trace::busy_s(&spans, "store.delete"));
    out.set("store.pump_repairs.calls", count("store.pump_repairs"));
    out.set(
        "store.pump_repairs.busy_s",
        trace::busy_s(&spans, "store.pump_repairs"),
    );
    out.set("store.cache.hit_rate", spanned.tally.cache_hit_rate);
    out.set("store.cache.gets", spanned.cache_gets as f64);
    out.set("store.repair.stripes", sharded.repaired_stripes as f64);
    out.set(
        "store.repair.network_chunks",
        sharded.repaired_network_chunks as f64,
    );
    out.set(
        "store.repair.local_chunks",
        sharded.repaired_local_chunks as f64,
    );
    out.set("store.arbiter.fg_bytes", sharded.foreground_bytes as f64);
    out.set("store.arbiter.fg_ios", sharded.foreground_ios as f64);
    out.set("store.arbiter.repair_bytes", sharded.repair_bytes as f64);
    out.set("store.epoch.serial_ops", spanned.serial_ops as f64);
    out.set("store.apply.shard_speedup", serial_wall / sharded_wall);
    out.set("store.apply.serial_wall_s", serial_wall);
    out.set("store.apply.sharded_wall_s", sharded_wall);
    out.set("store.saturation.p99_growth", growth);
    out.set("store.saturation.flagged", f64::from(u8::from(flagged)));

    crate::set_trace_metrics(
        out,
        &spans,
        spanned.wall_s,
        f64::midpoint(before.wall_s, after.wall_s),
    );
}
