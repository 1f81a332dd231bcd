//! Helpers shared by every workload: statistics, the independent Table III
//! reference, process counters read from `/proc`, state directories and
//! the in-memory span recorder of traced runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use biglittle::{SimSnapshot, Simulation};
use bl_simcore::snapstore::SnapStore;
use serde_json::Value;

// ---- statistics --------------------------------------------------------------

/// Quantile by linear interpolation between closest ranks (the same rule
/// as Python's `statistics.quantiles(..., method="inclusive")`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Spearman rank correlation with average ranks for ties, written here
/// rather than taken from the program so the accuracy check does not
/// trust the code it checks.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(xs: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut r = vec![0.0; xs.len()];
        let mut k = 0;
        while k < idx.len() {
            let mut end = k;
            while end + 1 < idx.len() && xs[idx[end + 1]] == xs[idx[k]] {
                end += 1;
            }
            let avg = (k + end) as f64 / 2.0 + 1.0;
            for &i in &idx[k..=end] {
                r[i] = avg;
            }
            k = end + 1;
        }
        r
    }
    assert_eq!(a.len(), b.len(), "spearman needs paired samples");
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va * vb).sqrt()
}

// ---- Table III reference -------------------------------------------------------

/// Table III of the paper (Seo et al., IISWC 2015), transcribed for this
/// benchmark: app, idle %, big % of active time, TLP. LITTLE-only time is
/// the rest of the active time.
pub const PAPER_TABLE3: [(&str, f64, f64, f64); 12] = [
    ("PDF Reader", 16.14, 13.05, 2.06),
    ("Video Editor", 19.44, 10.44, 2.25),
    ("Photo Editor", 9.06, 7.50, 1.40),
    ("BBench", 0.10, 47.83, 3.95),
    ("Virus Scanner", 2.93, 22.74, 2.44),
    ("Browser", 52.94, 5.41, 1.86),
    ("Encoder", 0.55, 62.19, 1.78),
    ("Angry Bird", 4.41, 0.11, 2.34),
    ("Eternity Warriors 2", 3.65, 27.35, 2.85),
    ("FIFA 15", 9.27, 14.37, 2.37),
    ("Video Player", 14.22, 0.61, 2.29),
    ("Youtube", 12.72, 0.07, 2.29),
];

/// Lowest accepted rank correlation with the paper, for TLP and for the
/// big-core share. Recorded in the README.
pub const TLP_RHO_FLOOR: f64 = 0.5;
pub const BIG_RHO_FLOOR: f64 = 0.5;

/// One measured Table III row: idle %, LITTLE %, big %, TLP.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub idle: f64,
    pub little: f64,
    pub big: f64,
    pub tlp: f64,
}

impl Row {
    /// Reads the row from a serialized `RunResult` (`tlp` object).
    pub fn from_result_json(v: &Value) -> Option<Row> {
        let t = v.get("tlp")?;
        let f = |k: &str| t.get(k).and_then(Value::as_f64);
        Some(Row {
            idle: f("idle_pct")?,
            little: f("little_pct")?,
            big: f("big_pct")?,
            tlp: f("tlp")?,
        })
    }

    /// The properties every Table III row must have.
    pub fn check(&self) -> Result<(), String> {
        let pct = |x: f64| (0.0..=100.0).contains(&x);
        if !(pct(self.idle) && pct(self.little) && pct(self.big)) {
            return Err(format!("share outside [0, 100]: {self:?}"));
        }
        if (self.little + self.big - 100.0).abs() > 1e-6 {
            return Err(format!("LITTLE + big != 100: {self:?}"));
        }
        if !(0.0..=8.0).contains(&self.tlp) {
            return Err(format!("TLP outside [0, 8]: {self:?}"));
        }
        Ok(())
    }
}

/// Checks the 12 rows of one baseline batch (app name → serialized
/// result) and returns `(tlp rho, big rho)` against the paper.
pub fn table3_rhos(rows: &[(String, Value)]) -> Result<(f64, f64), String> {
    let mut paper_tlp = Vec::new();
    let mut paper_big = Vec::new();
    let mut sim_tlp = Vec::new();
    let mut sim_big = Vec::new();
    for (app, _, big, tlp) in PAPER_TABLE3 {
        let (_, v) = rows
            .iter()
            .find(|(name, _)| name == app)
            .ok_or_else(|| format!("no baseline run of {app}"))?;
        let row = Row::from_result_json(v).ok_or_else(|| format!("{app}: no tlp stats"))?;
        row.check().map_err(|e| format!("{app}: {e}"))?;
        paper_tlp.push(tlp);
        paper_big.push(big);
        sim_tlp.push(row.tlp);
        sim_big.push(row.big);
    }
    let rhos = (
        spearman(&paper_tlp, &sim_tlp),
        spearman(&paper_big, &sim_big),
    );
    if rhos.0 < TLP_RHO_FLOOR || rhos.1 < BIG_RHO_FLOOR {
        return Err(format!("Table III rank correlation below floor: {rhos:?}"));
    }
    Ok(rhos)
}

// ---- inputs --------------------------------------------------------------------

/// The `i`-th seed a run with `--seed base` gives its inputs.
pub fn derived_seed(base: u64, i: u64) -> u64 {
    base.wrapping_mul(1_000_003).wrapping_add(i)
}

/// The Table III batch: the 12 paper apps at the baseline configuration,
/// labelled as the paper experiments label them.
pub fn table3_batch(seed: u64) -> Vec<biglittle::Scenario> {
    bl_workloads::apps::mobile_apps()
        .into_iter()
        .map(|app| {
            biglittle::Scenario::app(
                format!("default/{}", app.name),
                app,
                biglittle::SystemConfig::baseline().with_seed(seed),
            )
        })
        .collect()
}

pub fn to_json<T: serde::Serialize>(v: &T) -> Value {
    serde_json::to_value(v).expect("benchmark values serialize")
}

pub fn to_text(v: &Value) -> String {
    serde_json::to_string(v).expect("benchmark values serialize")
}

// ---- process counters -----------------------------------------------------------

fn proc_file(pid: Option<u32>, name: &str) -> String {
    let path = match pid {
        Some(p) => format!("/proc/{p}/{name}"),
        None => format!("/proc/self/{name}"),
    };
    fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    proc_file(pid, "status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Read/write counters of a process (`/proc/<pid>/io`): bytes passed to
/// read and write calls, and the number of write calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub read_bytes: f64,
    pub write_bytes: f64,
    pub write_calls: f64,
}

impl Io {
    pub fn read(pid: Option<u32>) -> Io {
        let text = proc_file(pid, "io");
        let field = |k: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(k))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Io {
            read_bytes: field("rchar:"),
            write_bytes: field("wchar:"),
            write_calls: field("syscw:"),
        }
    }

    pub fn since(self, before: Io) -> Io {
        Io {
            read_bytes: self.read_bytes - before.read_bytes,
            write_bytes: self.write_bytes - before.write_bytes,
            write_calls: self.write_calls - before.write_calls,
        }
    }

    pub fn add(&mut self, d: Io) {
        self.read_bytes += d.read_bytes;
        self.write_bytes += d.write_bytes;
        self.write_calls += d.write_calls;
    }
}

// ---- state directories -----------------------------------------------------------

/// Files directly under `dir` whose name ends with `suffix`, sorted.
pub fn files_with(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.to_string_lossy().ends_with(suffix))
        .collect();
    out.sort();
    out
}

/// `(files, bytes)` directly under `dir`.
pub fn dir_usage(dir: &Path) -> (f64, f64) {
    let files = files_with(dir, "");
    let bytes: u64 = files
        .iter()
        .filter_map(|p| fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    (files.len() as f64, bytes as f64)
}

pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = fs::remove_dir_all(path);
    fs::create_dir_all(path).expect("create a benchmark state directory");
    path.to_path_buf()
}

/// Replays journal records through `Journal::append` into a scratch
/// journal under `scratch`, one fresh file per source journal, and returns
/// the time of every append in microseconds.
pub fn replay_journals(sources: &[PathBuf], scratch: &Path) -> Vec<f64> {
    let runs: Vec<Vec<String>> = sources
        .iter()
        .map(|src| bl_simcore::journal::Journal::load(src).expect("read a journal the run left"))
        .collect();
    replay_records(&runs, scratch)
}

/// Replays each record list through `Journal::append` into a fresh scratch
/// journal under `scratch` and returns the time of every append in
/// microseconds.
pub fn replay_records(runs: &[Vec<String>], scratch: &Path) -> Vec<f64> {
    use bl_simcore::journal::Journal;
    let mut times = Vec::new();
    for (i, records) in runs.iter().enumerate() {
        let mut j = Journal::open(scratch.join(format!("replay-{i}.jsonl")), false)
            .expect("open a scratch journal");
        for r in records {
            let t0 = Instant::now();
            j.append(r).expect("append to the scratch journal");
            times.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    times
}

// ---- tracing -----------------------------------------------------------------------

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// Spans of a traced run, kept in memory and written out once when the
/// run ends. A disabled tracer records nothing. Counts are taken where the
/// work happens and reported as per-layer metrics.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; returns its id (`usize::MAX` when tracing is off).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.on {
            let now = self.now_us();
            self.spans[id].end_us = now;
        }
    }

    /// Records a closed interval measured elsewhere, e.g. from event
    /// timestamps seen by a client.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Instant, end: Instant) {
        if self.on {
            let base = self.t0;
            let us = |t: Instant| t.saturating_duration_since(base).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                start_us: us(start),
                end_us: us(end),
            });
        }
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) {
        if !self.on {
            return;
        }
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut f = vec![
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("start_us".to_string(), Value::Float(s.start_us)),
                    ("end_us".to_string(), Value::Float(s.end_us)),
                ];
                if let Some(p) = s.parent {
                    f.push(("parent".to_string(), Value::UInt(p as u64)));
                }
                Value::Object(f)
            })
            .collect();
        let doc = Value::Object(vec![("spans".to_string(), Value::Array(spans))]);
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        fs::write(path, to_text(&doc)).expect("write the trace file");
    }
}

// ---- layers measured after the run ---------------------------------------------------

/// Host time of the simulation engine over scenarios run one by one
/// through `Scenario::run`, which builds each simulation with
/// `SimulationBuilder`.
#[derive(Default)]
pub struct SimTally {
    events: f64,
    sim_s: f64,
    run_s: f64,
}

impl SimTally {
    /// Runs `batch` and returns each result serialized.
    pub fn run_all(&mut self, batch: &[biglittle::Scenario]) -> Vec<String> {
        batch
            .iter()
            .map(|sc| {
                let t0 = Instant::now();
                let r = sc.run().expect("reference scenario runs");
                self.run_s += t0.elapsed().as_secs_f64();
                self.events += r.events_processed as f64;
                self.sim_s += r.sim_time.as_millis_f64() / 1e3;
                to_text(&to_json(&r))
            })
            .collect()
    }

    /// Reports the totals divided by `per`, the number of scenario sets
    /// the workload counts them over.
    pub fn report(&self, rep: &mut Report, per: f64) {
        rep.metric("sim.events", self.events / per, "count");
        rep.metric("sim.sim_s", self.sim_s / per, "s");
        rep.metric("sim.run_s", self.run_s / per, "s");
        let ns = if self.events > 0.0 {
            self.run_s * 1e9 / self.events
        } else {
            0.0
        };
        rep.metric("sim.ns_per_event", ns, "ns");
    }
}

/// Times the snapshot layer's four calls on every entry of `store`:
/// `SnapStore::load` from disk, `SimSnapshot::from_payload`,
/// `SimSnapshot::to_payload` and `Simulation::fork`. An empty store
/// reports zeros.
pub fn snapstore_timings(rep: &mut Report, store: &Path) {
    let platform = biglittle::PlatformPreset::default().build();
    let (mut load, mut decode, mut encode, mut fork) = (vec![], vec![], vec![], vec![]);
    for path in files_with(store, ".snap") {
        let key = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let t0 = Instant::now();
        let entry = SnapStore::open(store)
            .load(&key)
            .expect("a stored rung loads");
        let t1 = Instant::now();
        let snap = SimSnapshot::from_payload(&platform, &entry.state, entry.fingerprint)
            .expect("a stored rung decodes");
        let t2 = Instant::now();
        let _ = std::hint::black_box(snap.to_payload().expect("a decoded rung encodes"));
        let t3 = Instant::now();
        let _ = std::hint::black_box(Simulation::fork(&snap).expect("a decoded rung forks"));
        let t4 = Instant::now();
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        load.push(us(t0, t1));
        decode.push(us(t1, t2));
        encode.push(us(t2, t3));
        fork.push(us(t3, t4));
    }
    rep.metric("snapstore.load_p50_us", median(&load), "us");
    rep.metric("snapstore.decode_p50_us", median(&decode), "us");
    rep.metric("snapstore.encode_p50_us", median(&encode), "us");
    rep.metric("snapstore.fork_p50_us", median(&fork), "us");
}

// ---- results -------------------------------------------------------------------------

/// What one run reports: its metrics plus operation accounting.
#[derive(Default)]
pub struct Report {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric; a value that is not a finite number (a ratio over
    /// nothing) is recorded as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The end-to-end timing metrics shared by every workload, taken over
    /// every round of the run, so a cost that grows during a run shows.
    pub fn timings(&mut self, setup: &[f64], rounds: &Rounds) {
        let batches: Vec<f64> = rounds.batches_ms.concat();
        eprintln!(
            "perfbench: {} rounds, {} batches, wall_s {:.4} s",
            rounds.secs.len(),
            batches.len(),
            median(&rounds.secs)
        );
        self.metric("setup_s", median(setup), "s");
        self.metric("wall_s", median(&rounds.secs), "s");
        self.metric(
            "scenarios_per_s",
            rounds.scenarios.iter().sum::<f64>() / rounds.secs.iter().sum::<f64>(),
            "1/s",
        );
        self.metric("batch_p50_ms", median(&batches), "ms");
        self.metric("batch_p90_ms", quantile(&batches, 0.9), "ms");
    }

    pub fn rhos(&mut self, rhos: &[(f64, f64)]) {
        let tlp: Vec<f64> = rhos.iter().map(|r| r.0).collect();
        let big: Vec<f64> = rhos.iter().map(|r| r.1).collect();
        self.metric("table3_tlp_rho", median(&tlp), "rho");
        self.metric("table3_big_rho", median(&big), "rho");
    }
}

/// The timed rounds of a run: each round's host time, the scenarios it
/// delivered and the time of every batch in it.
#[derive(Default)]
pub struct Rounds {
    pub secs: Vec<f64>,
    pub scenarios: Vec<f64>,
    pub batches_ms: Vec<Vec<f64>>,
}

impl Rounds {
    pub fn push(&mut self, secs: f64, scenarios: f64, batches_ms: Vec<f64>) {
        self.secs.push(secs);
        self.scenarios.push(scenarios);
        self.batches_ms.push(batches_ms);
    }

    pub fn batches(&self) -> usize {
        self.batches_ms.iter().map(Vec::len).sum()
    }

    pub fn len(&self) -> usize {
        self.secs.len()
    }
}

/// Keeps running whole rounds until `seconds` have passed and at least
/// `MIN_BATCHES` batches were timed.
pub struct Clock {
    start: Instant,
    seconds: f64,
}

impl Clock {
    pub fn new(seconds: u64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds: seconds as f64,
        }
    }

    pub fn more(&self, rounds: &Rounds) -> bool {
        rounds.batches() < MIN_BATCHES || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Enough batches that at least ten lie beyond their 90th percentile.
pub const MIN_BATCHES: usize = 100;
