//! `perfbench` — whole-job wall-clock benchmark of serigraph, with a
//! separate traced run that splits the time by layer. See `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the metrics (the
//! end-to-end ones untraced, the per-layer ones traced). The exit code is
//! 0 only when every output check passed.

mod harness;
mod input;
mod metrics;
mod spans;
mod stats;
mod workloads;

use harness::Ctx;
use metrics::{END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Kind;

/// Where inputs and span files go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// `--key value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value.as_str());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &HashMap<&str, &str>, key: &str) -> Result<T, String> {
    let raw = flags.get(key).ok_or_else(|| format!("missing --{key}"))?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot parse {raw:?}"))
}

fn workload(flags: &HashMap<&str, &str>) -> Result<Kind, String> {
    let name: String = flag(flags, "workload")?;
    Kind::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let kind = workload(&flags)?;
    let seed: u64 = flag(&flags, "seed")?;
    let seconds: u64 = flag(&flags, "seconds")?;
    let traced = match flag::<u8>(&flags, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds must be 1..=120, not {seconds}"));
    }
    if !Path::new("perfbench").is_dir() {
        return Err("run from the repository root (no perfbench/ here)".into());
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;

    let shape = kind.shape();
    let pid = std::process::id();
    let input = Path::new(OUT_DIR).join(format!("input-{}-{seed}-{pid}.txt", kind.name()));
    // Generated before the warm-up job resets the peak resident set, so
    // the generator's memory stays out of `peak_rss_mib`.
    input::generate(shape, seed, &input)
        .map_err(|e| format!("writing {}: {e}", input.display()))?;
    let mut ctx = Ctx::new(seed, Duration::from_secs(seconds), traced);
    let measured = workloads::run(kind, &mut ctx, &input);
    // A leftover input only costs disk space: it is named by pid, and git
    // ignores `perfbench/out`.
    let _ = std::fs::remove_file(&input);
    let measured = measured?;

    println!(
        "perfbench {} seed {seed}: R-MAT scale {} with {} directed edges, {} jobs timed in {seconds} s, \
         nproc {}",
        kind.name(),
        shape.scale,
        shape.file_edges(),
        measured.jobs,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let end_to_end = [
        ("setup_s", measured.setup_s),
        ("job_s", measured.job_s),
        ("peak_rss_mib", measured.peak_rss_mib),
    ];
    for (name, value) in end_to_end {
        println!("  {name:<28} {value:>14.6} {}", unit(END_TO_END, name));
    }
    for note in &measured.notes {
        println!("  {note}");
    }
    let printed: Vec<(&str, f64)> = if traced {
        let spans_path = Path::new(OUT_DIR).join(format!("spans-{}-{seed}.json", kind.name()));
        let run_id = format!("{}-{seed}-{pid}", kind.name());
        ctx.tracer
            .write_json(&spans_path, &run_id)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        println!(
            "  {} spans written to {}",
            ctx.tracer.spans().len(),
            spans_path.display()
        );
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, _)| (name, measured.layers.get(name)))
            .collect();
        for &(name, value) in &layers {
            println!("  {name:<28} {value:>14.6} {}", unit(PER_LAYER, name));
        }
        layers
    } else {
        end_to_end.to_vec()
    };
    for f in &ctx.failures {
        eprintln!("perfbench: FAILED CHECK: {f}");
    }
    let correct = ctx.failures.is_empty() && ctx.failed == 0;
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_json(correct, ctx.attempted, ctx.failed, catalogue, &printed)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn unit(catalogue: &[(&str, &'static str)], name: &str) -> &'static str {
    catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line the harness parses.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &'static str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, value)) in values.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            unit(catalogue, name)
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_harness_keys() {
        let line = result_json(
            true,
            12,
            0,
            END_TO_END,
            &[("job_s", 1.25), ("setup_s", 0.5)],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"job_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, END_TO_END, &[("job_s", f64::NAN)]).is_err());
    }

    #[test]
    fn flags_parse_as_pairs() {
        let args: Vec<String> = ["--workload", "coloring-tcp", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(workload(&flags).unwrap(), Kind::ColoringTcp);
        assert_eq!(flag::<u64>(&flags, "seed").unwrap(), 7);
        assert!(flag::<u64>(&flags, "seconds").is_err());
        assert!(parse_flags(&args[..1]).is_err());
    }
}
