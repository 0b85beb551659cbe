//! The two workloads. A job loads the generated edge list, builds the
//! host on it (its set-up), runs (its run), and has its output checked.
//! `pagerank-engine`'s traced run also runs two ungated side jobs on a
//! small graph: the serving job and the 64-worker simulation.

use crate::harness::{
    check_history, counter_layers, graph_layers, load, overhead_layers, serial_layers, set_up,
    span_median, timed_jobs, Ctx, Measured, Timing,
};
use crate::input::{generate, Shape};
use crate::metrics::{bringup_teardown_s, ratio, Layers};
use crate::spans::Tracer;
use crate::stats::{median, LogHistogram};
use sg_algos::pagerank::DeltaPageRank;
use sg_algos::validate;
use sg_engine::{Context, Engine, EngineConfig, SumCombiner, TechniqueKind, VertexProgram};
use sg_graph::{Graph, VertexId};
use sg_metrics::critical_path::{self, Category};
use sg_metrics::MetricsSnapshot;
use sg_net::{run_cluster, ClusterConfig, ClusterOutcome, Workload};
use sg_serial::History;
use sg_sim::{simulate, SimOptions};
use sg_store::GraphReader;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process engine, delta PageRank, partition-lock, sender combiner.
    PagerankEngine,
    /// `sg-net` loopback cluster, greedy coloring, partition-lock.
    ColoringTcp,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::PagerankEngine, Kind::ColoringTcp];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PagerankEngine => "pagerank-engine",
            Kind::ColoringTcp => "coloring-tcp",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The input graph: TW-sim's shape for the engine's PageRank and a
    /// symmetrized scale-14 graph for coloring.
    pub fn shape(self) -> Shape {
        match self {
            Kind::PagerankEngine => Shape {
                scale: 15,
                edges: 1_150_000,
                symmetric: false,
            },
            Kind::ColoringTcp => Shape {
                scale: 14,
                edges: 100_000,
                symmetric: true,
            },
        }
    }
}

/// The symmetrized scale-12 graph of the vertex-lock side jobs in
/// `pagerank-engine`'s traced run: the serving job and the simulation.
const SMALL: Shape = Shape {
    scale: 12,
    edges: 32_768,
    symmetric: true,
};

/// Delta PageRank's forwarding threshold (the paper's OR/AR setting).
const PR_THRESHOLD: f64 = 0.01;
/// Largest share of the total PageRank mass the thresholded run may leave
/// unpropagated against the converged reference, in the engine and in the
/// simulator. At threshold 0.01, seeds 1–35 left 9.64–9.80% behind in the
/// engine (2 workers, partition-lock) and 10.13–10.46% in the simulator
/// (64 workers, vertex-lock); a run that loses more mass fails.
const PR_MAX_GAP_ENGINE: f64 = 0.105;
const PR_MAX_GAP_SIM: f64 = 0.11;
/// Rounds the churn writer runs.
const CHURN_ROUNDS: u64 = 20;
/// Vertices one serving query reads from its snapshot.
const QUERY_READS: usize = 64;
/// Serving jobs timed for the store layer.
const SERVE_JOBS: usize = 3;
/// Simulations timed for the sim layer.
const SIM_JOBS: usize = 3;
/// Per-worker trace ring for the traced TCP jobs: large enough that the
/// critical-path walk sees every event.
const NET_TRACE_CAPACITY: u64 = 1 << 20;

/// Run workload `kind` on the edge list at `input`.
pub fn run(kind: Kind, ctx: &mut Ctx, input: &Path) -> Result<Measured, String> {
    match kind {
        Kind::PagerankEngine => pagerank_engine(ctx, input),
        Kind::ColoringTcp => coloring_tcp(ctx, input),
    }
}

/// The converged power-iteration PageRank of the input, from an untimed
/// load that is dropped again before any job runs.
fn pagerank_reference(input: &Path) -> Result<Vec<f64>, String> {
    let g = load(&mut Tracer::new(false), input)?;
    Ok(validate::pagerank_reference(&g, 1e-10, 1_000))
}

/// Check delta PageRank against the converged reference and return the
/// share of the total rank mass it left unpropagated. Thresholding only
/// ever drops residual mass, so no vertex may exceed its reference, and
/// the dropped share must stay within `max_gap`.
fn pagerank_gap(
    converged: bool,
    values: &[f64],
    reference: &[f64],
    max_gap: f64,
) -> Result<f64, String> {
    if !converged {
        return Err("did not converge".into());
    }
    if values.len() != reference.len() {
        return Err(format!(
            "{} values for {} vertices",
            values.len(),
            reference.len()
        ));
    }
    let mut gap = 0.0;
    for (v, (&got, &want)) in values.iter().zip(reference).enumerate() {
        if !(got > 0.0 && got <= want * (1.0 + 1e-9)) {
            return Err(format!("vertex {v}: rank {got} outside (0, {want}]"));
        }
        gap += want - got;
    }
    let share = gap / reference.iter().sum::<f64>();
    if share > max_gap {
        return Err(format!("{share:.4} of the rank mass missing"));
    }
    Ok(share)
}

/// The largest dropped-mass share a run's checked jobs left, as a report
/// line.
fn gap_note(gap: f64) -> String {
    format!(
        "PageRank mass left unpropagated: at most {:.2}% (check fails above {:.1}%)",
        gap * 100.0,
        PR_MAX_GAP_ENGINE * 100.0
    )
}

/// Time `f` as the job's run: wall seconds, also recorded as span `name`.
fn run_timed<T>(ctx: &mut Ctx, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = ctx.tracer.time(name, f);
    let run_s = t.elapsed().as_secs_f64();
    ctx.end_of_run();
    (out, run_s)
}

fn pagerank_engine(ctx: &mut Ctx, input: &Path) -> Result<Measured, String> {
    let cfg = EngineConfig {
        workers: 2,
        threads_per_worker: 1,
        technique: TechniqueKind::PartitionLock,
        max_supersteps: 10_000,
        ..EngineConfig::default()
    };
    let reference = pagerank_reference(input)?;
    let mut max_gap = 0.0_f64;
    let mut last: Option<(MetricsSnapshot, Arc<Graph>)> = None;
    let times = timed_jobs(ctx, |ctx, traced| {
        let (g, engine, setup_s) = set_up(ctx, input, |tracer, g| {
            tracer
                .time("engine.build", || {
                    Engine::new(Arc::clone(g), DeltaPageRank::new(PR_THRESHOLD), cfg.clone())
                })
                .map(|e| e.with_combiner(Box::new(SumCombiner)))
                .map_err(|e| format!("engine config: {e}"))
        })?;
        let (out, run_s) = run_timed(ctx, "engine.run", || engine.run());
        match ctx.tracer.time("check", || {
            pagerank_gap(out.converged, &out.values, &reference, PR_MAX_GAP_ENGINE)
        }) {
            Ok(gap) => max_gap = max_gap.max(gap),
            Err(e) => ctx.check(false, || format!("pagerank-engine: {e}")),
        }
        if traced {
            last = Some((out.metrics, g));
        }
        Ok(Timing { setup_s, run_s })
    })?;
    let mut l = Layers::default();
    let mut notes = vec![gap_note(max_gap)];
    if let Some((m, g)) = last {
        graph_layers(ctx, &g, cfg.workers, cfg.effective_ppw(), &mut l);
        let run_s = span_median(&ctx.tracer, "engine.run");
        l.set("engine.build_s", span_median(&ctx.tracer, "engine.build"));
        l.set("engine.run_s", run_s);
        counter_layers(&mut l, &m, run_s);
        overhead_layers(&mut l, &times);
        notes.extend(side_jobs(ctx, input, &mut l)?);
    }
    Ok(Measured::new(&times, l, notes))
}

/// The side jobs of `pagerank-engine`'s traced run, on a symmetric
/// scale-12 graph generated from the workload seed: the serving job
/// (store layer) and the 64-worker simulation (sim layer). Both are
/// single computing threads, whose wall time follows the host's speed
/// phases too closely to gate on a shared host, so they are traced only.
/// They run after every metric of the main job is read, and their spans
/// carry names of their own.
fn side_jobs(ctx: &mut Ctx, input: &Path, l: &mut Layers) -> Result<Vec<String>, String> {
    let path = input.with_extension("small.txt");
    let generated = generate(SMALL, ctx.seed, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
        .and_then(|()| load(&mut Tracer::new(false), &path));
    let _ = std::fs::remove_file(&path);
    let g = generated?;
    let mut notes = serve_layers(ctx, &g, l)?;
    notes.push(sim_layers(ctx, &g, l)?);
    Ok(notes)
}

/// The serving side job's writer: every vertex folds its inbox into its
/// value and floods the result to its neighbors each round, for
/// `CHURN_ROUNDS` rounds. No combiner, so every message is stored.
struct Churn;

impl VertexProgram for Churn {
    type Value = u64;
    type Message = u64;

    fn init(&self, v: VertexId, _g: &Graph) -> u64 {
        u64::from(v.raw())
    }

    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
        let folded = msgs
            .iter()
            .fold(*ctx.value(), |acc, &m| acc.rotate_left(7).wrapping_add(m));
        ctx.set_value(folded.wrapping_add(1));
        if ctx.superstep() + 1 >= CHURN_ROUNDS {
            // Silent last round: a message now would wake its receiver
            // and the flood would never quiesce.
            ctx.vote_to_halt();
        } else {
            let out = *ctx.value();
            ctx.send_to_all(out);
        }
    }
}

/// What the closed-loop reader saw over one job.
#[derive(Default)]
struct ReaderStats {
    queries: u64,
    /// Queries with any read that returned nothing.
    failed_queries: u64,
    failed_reads: u64,
    service: LogHistogram,
    snapshot_open: LogHistogram,
}

/// Closed loop: one query after another until `stop`. A query opens a
/// snapshot and reads `QUERY_READS` pseudo-random vertices; its service
/// time runs from the open to the snapshot's release, and the open is also
/// timed on its own.
fn reader_loop(reader: &GraphReader<u64>, stop: &AtomicBool, seed: u64) -> ReaderStats {
    let n = reader.store().len() as u64;
    let mut st = ReaderStats::default();
    let mut state = seed;
    let mut ids = [VertexId::new(0); QUERY_READS];
    while !stop.load(Ordering::Relaxed) {
        for id in &mut ids {
            // LCG step; the high bits pick the vertex.
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *id = VertexId::new(((state >> 33) % n) as u32);
        }
        let t = Instant::now();
        let snap = reader.snapshot();
        st.snapshot_open.record(t.elapsed().as_nanos() as u64);
        let failed_reads = ids
            .iter()
            .filter(|&&v| std::hint::black_box(snap.get(v)).is_none())
            .count() as u64;
        drop(snap);
        st.service.record(t.elapsed().as_nanos() as u64);
        st.queries += 1;
        st.failed_reads += failed_reads;
        st.failed_queries += u64::from(failed_reads > 0);
    }
    st
}

/// Percentile `q` of a nanosecond histogram, in microseconds.
fn us(h: &LogHistogram, q: f64) -> f64 {
    h.percentile(q).map_or(0.0, |p| p.value / 1e3)
}

/// The serving job: the uncombined `Churn` writer on the in-process
/// engine (1 worker x 1 thread x 4 partitions, vertex-lock, history on)
/// beside one closed-loop reader thread, `SERVE_JOBS` times on `g`. Every
/// job's reads must return `Some`, its history must be 1SR with one
/// transaction per vertex and round, and the final snapshot must equal
/// the outcome's values.
fn serve_layers(ctx: &mut Ctx, g: &Arc<Graph>, l: &mut Layers) -> Result<Vec<String>, String> {
    let cfg = EngineConfig {
        workers: 1,
        partitions_per_worker: Some(4),
        threads_per_worker: 1,
        technique: TechniqueKind::VertexLock,
        max_supersteps: CHURN_ROUNDS + 1,
        record_history: true,
        ..EngineConfig::default()
    };
    let mut reads = ReaderStats::default();
    let mut last = None;
    for job in 0..SERVE_JOBS {
        let engine = Engine::new(Arc::clone(g), Churn, cfg.clone())
            .map_err(|e| format!("serving engine config: {e}"))?;
        let reader = engine.reader();
        let stop = AtomicBool::new(false);
        let seed = ctx.seed.wrapping_add(job as u64);
        let (out, job_reads) = std::thread::scope(|s| {
            let handle = s.spawn(|| reader_loop(&reader, &stop, seed));
            let out = ctx.tracer.time("serve.run", || engine.run());
            stop.store(true, Ordering::Relaxed);
            (out, handle.join().expect("reader thread panicked"))
        });
        let failures = ctx.failures.len();
        ctx.attempted += 1 + job_reads.queries;
        ctx.failed += job_reads.failed_queries;
        ctx.check(job_reads.failed_reads == 0, || {
            format!(
                "serving job: {} reads returned None",
                job_reads.failed_reads
            )
        });
        reads.queries += job_reads.queries;
        reads.failed_reads += job_reads.failed_reads;
        reads.service.merge(&job_reads.service);
        reads.snapshot_open.merge(&job_reads.snapshot_open);

        let final_view = reader.snapshot().values();
        let served = final_view.len() == out.values.len()
            && final_view
                .iter()
                .zip(&out.values)
                .all(|(s, v)| s.as_ref() == Some(v));
        ctx.check(out.converged, || "serving job: did not converge".into());
        ctx.check(served, || {
            "serving job: final snapshot differs from the outcome's values".into()
        });
        let txns = out.history.as_ref().map_or(0, History::len);
        let expected = g.num_vertices() as usize * CHURN_ROUNDS as usize;
        ctx.check(txns == expected, || {
            format!("serving job: {txns} txns recorded, expected {expected}")
        });
        check_history(ctx, out.history.as_ref(), g, "serving job");
        if ctx.failures.len() > failures {
            ctx.failed += 1;
        }
        last = Some((out.metrics, reader.store().stats(), txns));
    }
    let (m, st, txns) = last.expect("SERVE_JOBS > 0");
    let (service, opens) = (&reads.service, &reads.snapshot_open);
    l.set_all(&[
        ("serve.job_s", span_median(&ctx.tracer, "serve.run")),
        ("serve.fork_transfers", m.fork_transfers as f64),
        ("store.installs", st.installs as f64),
        ("store.gc_freed", st.gc_freed as f64),
        ("store.live_versions_end", st.live_versions as f64),
        ("store.snapshot_open_p50_us", us(opens, 50.0)),
        ("store.snapshot_open_p99_us", us(opens, 99.0)),
        ("store.queries", reads.queries as f64),
        ("store.failed_reads", reads.failed_reads as f64),
        ("store.query_p50_us", us(service, 50.0)),
        ("store.query_p99_us", us(service, 99.0)),
    ]);
    serial_layers(l, &ctx.tracer, txns);
    let p99 = service.percentile(99.0);
    Ok(vec![
        format!(
            "serving job: {SERVE_JOBS} churn jobs of {CHURN_ROUNDS} rounds (vertex-lock, history \
             on) on a symmetric R-MAT scale-{} graph ({} directed edges), each beside 1 \
             closed-loop reader; serve.job_s {:.4} s, {} fork transfers per job",
            SMALL.scale,
            SMALL.file_edges(),
            span_median(&ctx.tracer, "serve.run"),
            m.fork_transfers,
        ),
        format!(
            "query service time ({QUERY_READS} reads per snapshot, histogram error <= {:.2}%): \
             query_p50_us {:.3} us, query_p99_us {:.3} us over {} queries ({} beyond p99), \
             {} failed reads; snapshot open p50 {:.3} us, p99 {:.3} us",
            LogHistogram::MAX_RELATIVE_ERROR * 100.0,
            us(service, 50.0),
            us(service, 99.0),
            service.count(),
            p99.map_or(0, |p| p.beyond),
            reads.failed_reads,
            us(opens, 50.0),
            us(opens, 99.0),
        ),
    ])
}

/// Critical-path shares of a traced cluster job.
fn critical_path_layers(l: &mut Layers, out: &ClusterOutcome) {
    // Worker trace stamps count from the coordinator's epoch, which comes
    // before the makespan window opens, so the analysed window runs to
    // the last event.
    let window = out
        .trace_events
        .iter()
        .map(|e| e.end_ns())
        .max()
        .unwrap_or(0)
        .max(out.makespan_ns);
    let a = critical_path::analyze(&out.trace_events, window).attribution;
    let share = |c| ratio(a.get(c) as f64, a.total() as f64);
    l.set_all(&[
        ("net.cp.compute_share", share(Category::Compute)),
        ("net.cp.comm_share", share(Category::Comm)),
        ("net.cp.fork_wait_share", share(Category::ForkWait)),
        ("net.cp.barrier_share", share(Category::Barrier)),
        ("net.cp.idle_share", share(Category::Idle)),
    ]);
}

fn coloring_tcp(ctx: &mut Ctx, input: &Path) -> Result<Measured, String> {
    let base = ClusterConfig {
        record_history: true,
        ..ClusterConfig::new(2, TechniqueKind::PartitionLock, Workload::Coloring)
    };
    let (mut makespans, mut bringup) = (Vec::new(), Vec::new());
    let mut last: Option<(ClusterOutcome, Arc<Graph>, f64)> = None;
    let times = timed_jobs(ctx, |ctx, traced| {
        let (g, (), setup_s) = set_up(ctx, input, |_, _| Ok(()))?;
        let cfg = ClusterConfig {
            trace_capacity: if traced { NET_TRACE_CAPACITY } else { 0 },
            ..base.clone()
        };
        let (out, run_s) = run_timed(ctx, "net.run_cluster", || run_cluster(&g, &cfg));
        let out = out.map_err(|e| format!("coloring-tcp: cluster run failed: {e}"))?;
        let colors: Vec<u32> = out.typed_values();
        let conflicts = validate::coloring_conflicts(&g, &colors);
        ctx.check(out.converged, || "coloring-tcp: did not converge".into());
        ctx.check(conflicts == 0 && validate::all_colored(&colors), || {
            format!("coloring-tcp: {conflicts} conflicts or uncolored vertices")
        });
        check_history(ctx, out.history.as_ref(), &g, "coloring-tcp");
        if traced {
            last = Some((out, g, run_s));
        } else {
            makespans.push(out.makespan_ns as f64 / 1e9);
            bringup.push(bringup_teardown_s(run_s, out.makespan_ns));
        }
        Ok(Timing { setup_s, run_s })
    })?;
    let mut l = Layers::default();
    let mut notes = Vec::new();
    if let Some((out, g, run_s)) = last {
        graph_layers(ctx, &g, base.workers, base.partitions_per_worker, &mut l);
        l.set("net.makespan_s", median(&makespans).unwrap_or(0.0));
        l.set("net.bringup_teardown_s", median(&bringup).unwrap_or(0.0));
        let m = out.metrics;
        counter_layers(&mut l, &m, run_s);
        l.set("net.remote_batches", m.remote_batches as f64);
        l.set("net.fork_transfers_remote", m.fork_transfers_remote as f64);
        critical_path_layers(&mut l, &out);
        serial_layers(
            &mut l,
            &ctx.tracer,
            out.history.as_ref().map_or(0, History::len),
        );
        overhead_layers(&mut l, &times);
        notes.push(
            "net.cp.* shares come from traced jobs, which the program's own tracing slows \
             (see trace.overhead_share)"
                .to_string(),
        );
    }
    Ok(Measured::new(&times, l, notes))
}

/// The sim layer: the same delta PageRank on `sg-sim` at the paper's 16×4
/// shape (64 workers × 4 partitions, vertex-lock) on `g`. Every simulation
/// must give the first one's digest and values, and the first must match
/// the reference.
fn sim_layers(ctx: &mut Ctx, g: &Arc<Graph>, l: &mut Layers) -> Result<String, String> {
    let cfg = EngineConfig {
        workers: 64,
        partitions_per_worker: Some(4),
        threads_per_worker: 1,
        technique: TechniqueKind::VertexLock,
        max_supersteps: 10_000,
        ..EngineConfig::default()
    };
    let reference = validate::pagerank_reference(g, 1e-10, 1_000);
    let mut first: Option<(u64, Vec<f64>)> = None;
    let mut last = None;
    let mut gap = 0.0;
    for _ in 0..SIM_JOBS {
        let report = ctx
            .tracer
            .time("sim.simulate", || {
                simulate(
                    Arc::clone(g),
                    DeltaPageRank::new(PR_THRESHOLD),
                    Some(Box::new(SumCombiner)),
                    &cfg,
                    &SimOptions::default(),
                )
            })
            .map_err(|e| format!("pagerank-engine: simulation failed: {e}"))?;
        let out = &report.outcome;
        ctx.attempted += 1;
        let failures = ctx.failures.len();
        match &first {
            None => {
                match pagerank_gap(out.converged, &out.values, &reference, PR_MAX_GAP_SIM) {
                    Ok(share) => gap = share,
                    Err(e) => ctx.check(false, || format!("pagerank-engine, simulated: {e}")),
                }
                first = Some((report.digest, out.values.clone()));
            }
            Some((digest, values)) => {
                let same = *digest == report.digest
                    && values.len() == out.values.len()
                    && values
                        .iter()
                        .zip(&out.values)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                ctx.check(same, || {
                    format!(
                        "pagerank-engine, simulated: digest {:016x} or values differ from the \
                         first simulation's (digest {digest:016x})",
                        report.digest
                    )
                });
            }
        }
        if ctx.failures.len() > failures {
            ctx.failed += 1;
        }
        last = Some((report.events, out.makespan_ns));
    }
    let (events, makespan_ns) = last.expect("SIM_JOBS > 0");
    let sim_s = span_median(&ctx.tracer, "sim.simulate");
    l.set_all(&[
        ("sim.simulate_s", sim_s),
        ("sim.events", events as f64),
        ("sim.events_per_s", ratio(events as f64, sim_s)),
        ("sim.virtual_makespan_s", makespan_ns as f64 / 1e9),
    ]);
    Ok(format!(
        "sim.*: {SIM_JOBS} simulations at 64 workers x 4 partitions on a symmetric R-MAT \
         scale-{} graph ({} directed edges); mass left unpropagated {:.2}% (check fails above \
         {:.1}%); sim.virtual_makespan_s is virtual time",
        SMALL.scale,
        SMALL.file_edges(),
        gap * 100.0,
        PR_MAX_GAP_SIM * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_gap_is_the_dropped_share_of_the_mass() {
        let reference = [0.5, 0.3, 0.2];
        assert_eq!(pagerank_gap(true, &reference, &reference, 0.0), Ok(0.0));
        let dropped: Vec<f64> = reference.iter().map(|r| r * 0.9).collect();
        let share = pagerank_gap(true, &dropped, &reference, 0.105).unwrap();
        assert!((share - 0.1).abs() < 1e-12);
        // Losing more than the allowed share, exceeding the reference, a
        // zero rank or no convergence all fail.
        assert!(pagerank_gap(true, &dropped, &reference, 0.05).is_err());
        assert!(pagerank_gap(true, &[0.6, 0.3, 0.2], &reference, 0.5).is_err());
        assert!(pagerank_gap(true, &[0.5, 0.3, 0.0], &reference, 0.5).is_err());
        assert!(pagerank_gap(false, &reference, &reference, 0.5).is_err());
        assert!(pagerank_gap(true, &reference[..2], &reference, 0.5).is_err());
    }
}
