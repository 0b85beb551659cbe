//! The timing loop every workload shares, and the per-layer readings that
//! more than one workload takes.

use crate::metrics::{peak_rss_mib, ratio, reset_peak_rss, trim_heap, Layers};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use sg_graph::partition::HashPartitioner;
use sg_graph::{ClusterLayout, Graph, PartitionMap};
use sg_metrics::MetricsSnapshot;
use sg_serial::History;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest timed jobs per kind (untraced, and traced in the traced run),
/// whatever the time budget.
const MIN_JOBS: usize = 3;
/// `PartitionMap::build` repetitions timed for `graph.partition_s`.
const PARTITION_REPS: usize = 5;
/// Least wall time one job's set-up sample covers.
const SETUP_SAMPLE_S: f64 = 0.2;
/// Partition seed shared by the engine, cluster and simulator defaults.
pub const PARTITION_SEED: u64 = 0xC0FFEE;

/// State shared by everything one run does.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Time to spend on timed jobs.
    pub budget: Duration,
    /// The traced run: spans on, per-layer metrics out.
    pub traced: bool,
    /// Span recorder, enabled for traced jobs only.
    pub tracer: Tracer,
    /// Operations attempted: jobs (warm-up included) and serving queries.
    pub attempted: u64,
    /// Operations that failed: jobs with any failed output check, and
    /// serving queries with a read that returned nothing.
    pub failed: u64,
    /// Every failed output check, with its reason.
    pub failures: Vec<String>,
    /// Peak resident set when the current job's timed call returned
    /// (before the output check); `None` when it could not be read.
    run_peak_mib: Option<f64>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, budget: Duration, traced: bool) -> Self {
        Self {
            seed,
            budget,
            traced,
            tracer: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            run_peak_mib: None,
        }
    }

    /// Record a failed output check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record the job's peak memory; call right after its timed call.
    pub fn end_of_run(&mut self) {
        self.run_peak_mib = peak_rss_mib();
    }
}

/// One job's wall times, in seconds.
pub struct Timing {
    /// Loading the input and building the host (the user's set-up).
    pub setup_s: f64,
    /// The job's run call.
    pub run_s: f64,
}

/// Wall times of the timed jobs, and the warm-up job's peak memory.
#[derive(Default)]
pub struct JobTimes {
    /// Set-up times of untraced jobs.
    pub setup: Vec<f64>,
    /// Run times of untraced jobs.
    pub untraced: Vec<f64>,
    /// Run times of traced jobs (traced run only).
    pub traced: Vec<f64>,
    /// Peak resident set of the warm-up job, the process's first, in MiB.
    pub first_peak_mib: f64,
}

/// Run one untimed warm-up job, then timed jobs until the budget is spent.
/// The traced run alternates untraced and traced jobs so both medians see
/// the same host conditions. `job` returns its times, or an error when it
/// could not run at all; a wrong output is a failed check instead, and the
/// loop goes on.
///
/// The warm-up job is the process's first and starts from a trimmed heap
/// with the peak resident set reset, so its peak is what one job costs in
/// a fresh process. Later jobs' peaks would also count thread stacks and
/// heap the allocator keeps from earlier jobs, which grow with the number
/// of jobs a run fits in. A peak that cannot be reset or read is an error:
/// the run cannot measure `peak_rss_mib`.
pub fn timed_jobs(
    ctx: &mut Ctx,
    mut job: impl FnMut(&mut Ctx, bool) -> Result<Timing, String>,
) -> Result<JobTimes, String> {
    let mut counted = |ctx: &mut Ctx, traced: bool| {
        let failures = ctx.failures.len();
        ctx.attempted += 1;
        let timing = job(ctx, traced);
        if timing.is_err() || ctx.failures.len() > failures {
            ctx.failed += 1;
        }
        timing
    };
    let mut n = 1;
    ctx.tracer.set_job(n);
    ctx.tracer.set_enabled(false);
    reset_peak_rss()?;
    counted(ctx, false)?;
    let first_peak_mib = ctx
        .run_peak_mib
        .ok_or("cannot read the peak resident set (VmHWM in /proc/self/status)")?;
    let deadline = Instant::now() + ctx.budget;
    let mut times = JobTimes {
        first_peak_mib,
        ..JobTimes::default()
    };
    loop {
        let short =
            times.untraced.len() < MIN_JOBS || (ctx.traced && times.traced.len() < MIN_JOBS);
        if !short && Instant::now() >= deadline {
            break;
        }
        n += 1;
        let traced = ctx.traced && n % 2 == 1;
        ctx.tracer.set_job(n);
        ctx.tracer.set_enabled(traced);
        let t = counted(ctx, traced)?;
        if traced {
            times.traced.push(t.run_s);
        } else {
            times.setup.push(t.setup_s);
            times.untraced.push(t.run_s);
        }
    }
    ctx.tracer.set_job(0);
    ctx.tracer.set_enabled(ctx.traced);
    Ok(times)
}

/// Read the input's edge list into a graph.
pub fn load(tracer: &mut Tracer, input: &Path) -> Result<Arc<Graph>, String> {
    tracer
        .time("graph.load", || sg_graph::io::read_edge_list_file(input))
        .map(Arc::new)
        .map_err(|e| format!("loading {}: {e}", input.display()))
}

/// A job's set-up: load the input and `build` the host on it, from a
/// trimmed heap. Set-ups shorter than `SETUP_SAMPLE_S` repeat until they
/// fill it, and the job's set-up time is their mean, so a millisecond
/// set-up is not timed in a single slice of the host's speed. Returns the
/// last set-up's graph and host.
pub fn set_up<B>(
    ctx: &mut Ctx,
    input: &Path,
    mut build: impl FnMut(&mut Tracer, &Arc<Graph>) -> Result<B, String>,
) -> Result<(Arc<Graph>, B, f64), String> {
    let (mut total_s, mut reps) = (0.0, 0);
    loop {
        trim_heap();
        let t = Instant::now();
        let span = ctx.tracer.open("setup");
        let built =
            load(&mut ctx.tracer, input).and_then(|g| build(&mut ctx.tracer, &g).map(|b| (g, b)));
        ctx.tracer.close(span);
        total_s += t.elapsed().as_secs_f64();
        reps += 1;
        let (g, b) = built?;
        if total_s >= SETUP_SAMPLE_S {
            return Ok((g, b, total_s / f64::from(reps)));
        }
    }
}

/// Median duration in seconds of the spans named `name`, 0 when none.
pub fn span_median(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_s(name)).unwrap_or(0.0)
}

/// Traced-run graph metrics: load time, partitioning time on its own, and
/// the share of vertices with a neighbor on another worker.
pub fn graph_layers(ctx: &mut Ctx, g: &Graph, workers: u32, ppw: u32, l: &mut Layers) {
    let layout = ClusterLayout::new(workers, ppw);
    let mut pm = None;
    for _ in 0..PARTITION_REPS {
        pm = Some(ctx.tracer.time("graph.partition", || {
            PartitionMap::build(g, layout, &HashPartitioner::new(PARTITION_SEED))
        }));
    }
    let pm = pm.expect("PARTITION_REPS > 0");
    let boundary = g.vertices().filter(|&v| pm.is_m_boundary(v)).count();
    l.set("graph.load_s", span_median(&ctx.tracer, "graph.load"));
    l.set(
        "graph.partition_s",
        span_median(&ctx.tracer, "graph.partition"),
    );
    l.set(
        "graph.m_boundary_share",
        ratio(boundary as f64, f64::from(g.num_vertices())),
    );
}

/// Engine and sync counters, which every host reports in the same
/// vocabulary. `run_s` is the run time the counters were taken over.
pub fn counter_layers(l: &mut Layers, m: &MetricsSnapshot, run_s: f64) {
    let f = |c: u64| c as f64;
    l.set_all(&[
        ("engine.supersteps", f(m.supersteps)),
        ("engine.vertex_executions", f(m.vertex_executions)),
        ("engine.halted_skips", f(m.halted_skips)),
        ("engine.local_messages", f(m.local_messages)),
        ("engine.remote_messages", f(m.remote_messages)),
        ("engine.remote_batches", f(m.remote_batches)),
        (
            "engine.msgs_per_batch",
            ratio(f(m.remote_messages), f(m.remote_batches)),
        ),
        ("engine.sender_combines", f(m.sender_combines)),
        (
            "engine.combine_ratio",
            ratio(f(m.sender_combines), f(m.remote_messages)),
        ),
        ("engine.staging_flushes", f(m.staging_flushes)),
        ("engine.execs_per_s", ratio(f(m.vertex_executions), run_s)),
        ("sync.fork_transfers", f(m.fork_transfers)),
        ("sync.fork_transfers_remote", f(m.fork_transfers_remote)),
        ("sync.request_tokens", f(m.request_tokens)),
        ("sync.global_token_passes", f(m.global_token_passes)),
        ("sync.local_token_passes", f(m.local_token_passes)),
        (
            "sync.forks_per_exec",
            ratio(f(m.fork_transfers), f(m.vertex_executions)),
        ),
    ]);
}

/// Tracing overhead: the traced jobs' median against the untraced ones'.
pub fn overhead_layers(l: &mut Layers, times: &JobTimes) {
    let untraced = median(&times.untraced).unwrap_or(0.0);
    let traced = median(&times.traced).unwrap_or(0.0);
    l.set("trace.untraced_job_s", untraced);
    l.set("trace.traced_job_s", traced);
    l.set("trace.overhead_share", ratio(traced, untraced) - 1.0);
}

/// The 1SR check on one job's history, timed as `serial.check`.
pub fn check_history(ctx: &mut Ctx, history: Option<&History>, g: &Graph, job: &str) {
    let Some(h) = history else {
        ctx.failures.push(format!("{job}: no history recorded"));
        return;
    };
    let ok = ctx
        .tracer
        .time("serial.check", || h.is_one_copy_serializable(g));
    ctx.check(ok, || {
        format!("{job}: history of {} txns is not 1SR", h.len())
    });
}

/// Recorder volume and what checking it costs.
pub fn serial_layers(l: &mut Layers, tracer: &Tracer, txns: usize) {
    let check_s = span_median(tracer, "serial.check");
    l.set("serial.txns", txns as f64);
    l.set("serial.check_s", check_s);
    l.set("serial.check_txns_per_s", ratio(txns as f64, check_s));
}

/// What one workload measured.
pub struct Measured {
    /// Median set-up wall time of the untraced jobs.
    pub setup_s: f64,
    /// Median run wall time of the untraced jobs.
    pub job_s: f64,
    /// Untraced jobs timed.
    pub jobs: usize,
    /// Peak resident set of the warm-up job.
    pub peak_rss_mib: f64,
    /// Per-layer values (traced run only).
    pub layers: Layers,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Measured {
    /// Summarise `times`, with the workload's layers and notes.
    pub fn new(times: &JobTimes, layers: Layers, mut notes: Vec<String>) -> Self {
        let q = |p| percentile(&times.untraced, p).map_or(0.0, |p| p.value);
        notes.insert(
            0,
            format!(
                "job_s over {} untraced jobs: min {:.4}, q1 {:.4}, q3 {:.4}, max {:.4} s",
                times.untraced.len(),
                q(1.0),
                q(25.0),
                q(75.0),
                q(100.0)
            ),
        );
        Self {
            setup_s: median(&times.setup).expect("MIN_JOBS > 0"),
            job_s: median(&times.untraced).expect("MIN_JOBS > 0"),
            jobs: times.untraced.len(),
            peak_rss_mib: times.first_peak_mib,
            layers,
            notes,
        }
    }
}
