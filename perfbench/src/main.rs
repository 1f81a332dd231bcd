//! The benchmark of the biglittle simulator and its sweep stack.
//!
//! ```sh
//! perfbench --workload paper-warm --seed 1 --seconds 30 --trace 0 \
//!     --state <dir> [--repro <path to repro>] [--trace-out <file>]
//! ```
//!
//! Runs one workload in-process through the library's public API (and,
//! for `serve-closed`, against a `repro serve` child process), checks its
//! outputs, and prints one JSON line: the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a traced run (`--trace 1`), with the
//! operations attempted and failed. `perfbench/run.py` builds and runs it;
//! see `perfbench/README.md`.

mod common;
mod ladder;
mod paper;
mod serve;

use std::path::PathBuf;

use serde_json::Value;

/// Every per-layer metric a traced run prints, in print order.
const PER_LAYER: [&str; 42] = [
    "experiments.compute_s",
    "experiments.render_s",
    "sweep.calls",
    "sweep.scenarios",
    "sweep.simulated",
    "sweep.cache_hits",
    "sweep.cache_hit_ratio",
    "sweep.run_s",
    "sweep.overhead_s",
    "sweep.hit_p50_ms",
    "sweep.miss_p50_ms",
    "journal.records",
    "journal.kb",
    "journal.append_p50_us",
    "journal.append_s",
    "io.write_mb",
    "io.write_calls",
    "io.read_mb",
    "cache.entries",
    "cache.mb",
    "snapstore.trunk_runs",
    "snapstore.published",
    "snapstore.hydrated",
    "snapstore.forks",
    "snapstore.mb",
    "snapstore.load_p50_us",
    "snapstore.decode_p50_us",
    "snapstore.encode_p50_us",
    "snapstore.fork_p50_us",
    "sim.events",
    "sim.sim_s",
    "sim.run_s",
    "sim.ns_per_event",
    "served.connect_to_admit_p50_ms",
    "served.admit_to_done_p50_ms",
    "served.inproc_p50_ms",
    "served.overhead_p50_ms",
    "served.heartbeats",
    "served.rejections",
    "served.reconnects",
    "served.journal_kb",
    "served.latency_drift",
];

/// Every end-to-end metric an untraced run prints, in print order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "wall_s",
    "scenarios_per_s",
    "batch_p50_ms",
    "batch_p90_ms",
    "peak_rss_mb",
    "table3_tlp_rho",
    "table3_big_rho",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repro: Option<PathBuf>,
    pub state: PathBuf,
    pub trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let get = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} takes a value"))
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut repro, mut state, mut trace_out) = (None, None, None);
    while let Some(flag) = it.next() {
        let v = get(&flag, &mut it)?;
        let num = || {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes an integer"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            "--repro" => repro = Some(PathBuf::from(&v)),
            "--state" => state = Some(PathBuf::from(&v)),
            "--trace-out" => trace_out = Some(PathBuf::from(&v)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let state: PathBuf = state.ok_or("--state <dir> is required")?;
    let abs = |p: PathBuf| std::path::absolute(p).map_err(|e| e.to_string());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        repro: repro.map(abs).transpose()?,
        trace_out: abs(trace_out.unwrap_or_else(|| state.join("trace.json")))?,
        state: abs(state)?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every workload keeps its state in fresh directories under --state.
    common::fresh_dir(&args.state);
    std::env::set_current_dir(&args.state).expect("enter the state directory");
    let rep = match args.workload.as_str() {
        "paper-warm" => paper::run(&args),
        "whatif-ladder" => ladder::run(&args),
        "serve-closed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for name in wanted {
        let (_, value, unit) = rep
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("workload {} did not measure {name}", args.workload));
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Float(*value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]),
        ));
    }
    for e in &rep.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let out = Value::Object(vec![
        ("correct".to_string(), Value::Bool(rep.errors.is_empty())),
        ("attempted".to_string(), Value::UInt(rep.attempted)),
        ("failed".to_string(), Value::UInt(rep.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{}", common::to_text(&out));
}
