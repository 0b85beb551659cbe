//! The metric catalogue (the same names and units `BENCHMARK.json`
//! declares) and the per-layer value map the workloads fill in.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("job_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed by the traced run of every workload. A layer
/// a workload does not run reports 0. Virtual time carries the unit
/// `virtual_s` and is never compared with wall time.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sg-graph
    ("graph.load_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.m_boundary_share", "ratio"),
    // sg-engine (counters come from whichever host ran the job)
    ("engine.build_s", "s"),
    ("engine.run_s", "s"),
    ("engine.supersteps", "count"),
    ("engine.vertex_executions", "count"),
    ("engine.halted_skips", "count"),
    ("engine.local_messages", "count"),
    ("engine.remote_messages", "count"),
    ("engine.remote_batches", "count"),
    ("engine.msgs_per_batch", "msg/batch"),
    ("engine.sender_combines", "count"),
    ("engine.combine_ratio", "ratio"),
    ("engine.staging_flushes", "count"),
    ("engine.execs_per_s", "1/s"),
    // sg-sync
    ("sync.fork_transfers", "count"),
    ("sync.fork_transfers_remote", "count"),
    ("sync.request_tokens", "count"),
    ("sync.global_token_passes", "count"),
    ("sync.local_token_passes", "count"),
    ("sync.forks_per_exec", "ratio"),
    // the serving side job in `pagerank-engine`'s traced run: the vertex-lock
    // churn writer's wall time and Chandy–Misra fork transfers
    ("serve.job_s", "s"),
    ("serve.fork_transfers", "count"),
    // sg-store
    ("store.installs", "count"),
    ("store.gc_freed", "count"),
    ("store.live_versions_end", "count"),
    ("store.snapshot_open_p50_us", "us"),
    ("store.snapshot_open_p99_us", "us"),
    ("store.queries", "count"),
    ("store.failed_reads", "count"),
    ("store.query_p50_us", "us"),
    ("store.query_p99_us", "us"),
    // sg-serial
    ("serial.txns", "count"),
    ("serial.check_s", "s"),
    ("serial.check_txns_per_s", "1/s"),
    // sg-net
    ("net.makespan_s", "s"),
    ("net.bringup_teardown_s", "s"),
    ("net.remote_batches", "count"),
    ("net.fork_transfers_remote", "count"),
    ("net.cp.compute_share", "ratio"),
    ("net.cp.comm_share", "ratio"),
    ("net.cp.fork_wait_share", "ratio"),
    ("net.cp.barrier_share", "ratio"),
    ("net.cp.idle_share", "ratio"),
    // sg-sim
    ("sim.simulate_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.virtual_makespan_s", "virtual_s"),
    // sg-metrics: what tracing costs
    ("trace.untraced_job_s", "s"),
    ("trace.traced_job_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Per-layer values one workload measured, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Set several counters at once.
    pub fn set_all(&mut self, values: &[(&'static str, f64)]) {
        for &(name, value) in values {
            self.set(name, value);
        }
    }

    /// Value of `name`, 0 when the workload did not run that layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Time a cluster job spends outside the coordinator's makespan window:
/// listener bind, worker spawn and handshakes before the first superstep,
/// and result upload, history merge and joins after the halt.
pub fn bringup_teardown_s(job_s: f64, makespan_ns: u64) -> f64 {
    (job_s - makespan_ns as f64 / 1e9).max(0.0)
}

extern "C" {
    /// glibc: return free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the heap's free memory to the kernel, so what follows starts
/// from live memory only, as in a fresh process, not from whatever earlier
/// jobs and checks left in the heap.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Trim the heap, then reset the process's peak resident set to its
/// current size (Linux `clear_refs` mode 5). An error where the kernel
/// does not allow the reset: the peak would then count everything the
/// process did before.
pub fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set (/proc/self/clear_refs): {e}"))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bringup_teardown_is_job_time_outside_the_makespan() {
        assert!((bringup_teardown_s(0.27, 130_000_000) - 0.14).abs() < 1e-12);
        assert_eq!(bringup_teardown_s(0.5, 500_000_000), 0.0);
        // A makespan longer than the job is a clock mismatch, not negative
        // bring-up time.
        assert_eq!(bringup_teardown_s(0.1, 200_000_000), 0.0);
    }

    #[test]
    fn ratio_over_no_work_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn absent_layers_read_zero_and_unknown_names_are_refused() {
        let mut l = Layers::default();
        l.set("sim.events", 5.0);
        assert_eq!(l.get("sim.events"), 5.0);
        assert_eq!(l.get("net.makespan_s"), 0.0);
        assert!(std::panic::catch_unwind(move || l.set("nope", 1.0)).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let mut declared = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            declared += 1;
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            declared,
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }
}
