//! `paper-warm`: the full 23-experiment suite at paper scale, run cold
//! in set-up as `repro` runs it by default (one job; result cache, journal
//! and snapshot store on), then re-run against the state those passes
//! filled as `repro --no-journal` runs it.
//!
//! The measured re-runs leave the journal off because on a shared disk its
//! cost is the disk's: every append rewrites and fsyncs the whole batch
//! file, about 62 MiB per warm pass, and warm-pass medians of such runs
//! moved between 0.9 s and 1.7 s from run to run with the disk's load. The
//! journal is measured where it runs in set-up (`setup_s`, and the
//! `journal.*` metrics of the traced cold passes) and in `serve-closed`.

use std::collections::HashMap;
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use biglittle::experiments::{ablation, appchar, arch, coreconfig, dvfs, resilience, tables};
use biglittle::{sweep, SweepOptions, SweepStats};
use bl_bench::{run_experiment_with, EXPERIMENTS};
use bl_simcore::journal::Journal;
use bl_simcore::time::SimDuration;

use crate::common::*;
use crate::Args;

/// Suite seeds per run; set-up runs one cold pass of each.
const SEEDS: u64 = 3;

/// The options `repro` uses by default, with its state under `state`.
fn cold_opts(state: &Path) -> SweepOptions {
    rerun_opts(state)
        .journaled(state.join("journal"))
        .resuming(false)
}

/// The options of `repro --no-journal`.
fn rerun_opts(state: &Path) -> SweepOptions {
    SweepOptions::with_jobs(1)
        .cached(state.join("cache"))
        .snap_stored(state.join("snapshots"))
}

/// Creates a state directory and runs the start-up hygiene `repro` runs.
fn open_state(path: &Path) -> PathBuf {
    let dir = fresh_dir(path);
    bl_simcore::snapstore::clean_stale_snapshots(
        &dir.join("snapshots"),
        Duration::from_secs(24 * 3600),
    );
    dir
}

/// One experiment split into its data and `render_*` calls, with the
/// arguments `run_experiment_with` passes at paper scale. Returns the
/// report and the instants the data call started, the render call
/// started and the render call ended.
fn split_experiment(id: &str, seed: u64, opts: &SweepOptions) -> (String, [Instant; 3]) {
    let two_s = SimDuration::from_secs(2);
    let apps = bl_workloads::apps::mobile_apps;
    let little = bl_platform::ids::CoreKind::Little;
    let big = bl_platform::ids::CoreKind::Big;
    fn timed<D>(
        data: impl FnOnce() -> D,
        render: impl FnOnce(&D) -> String,
    ) -> (String, [Instant; 3]) {
        let t0 = Instant::now();
        let d = data();
        let t1 = Instant::now();
        let text = render(&d);
        (text, [t0, t1, Instant::now()])
    }
    match id {
        "table1" => timed(|| (), |_| tables::table1()),
        "table2" => timed(|| (), |_| tables::table2()),
        "fig2" => timed(
            || arch::fig2_spec_speedup(two_s, seed, opts),
            arch::render_fig2,
        ),
        "fig3" => timed(
            || arch::fig3_spec_power(two_s, seed, opts),
            arch::render_fig3,
        ),
        "fig4" => timed(
            || appchar::fig4_latency_big_vs_little(seed, opts),
            |d| appchar::render_fig4(d),
        ),
        "fig5" => timed(
            || appchar::fig5_fps_big_vs_little(seed, opts),
            |d| appchar::render_fig5(d),
        ),
        "fig6" => timed(
            || arch::fig6_power_vs_utilization(two_s, seed, opts),
            arch::render_fig6,
        ),
        "table3" => timed(
            || appchar::default_runs(seed, opts),
            |d| appchar::render_table3(d),
        ),
        "table3-compare" => timed(
            || appchar::default_runs(seed, opts),
            |d| appchar::render_table3_comparison(d),
        ),
        "table4" => timed(
            || appchar::default_runs(seed, opts),
            |d| appchar::render_table4(d),
        ),
        "fig7" => timed(
            || coreconfig::fig7_performance(seed, opts),
            |d| coreconfig::render_fig7(d),
        ),
        "fig8" => timed(
            || coreconfig::fig8_power_saving(seed, opts),
            |d| coreconfig::render_fig8(d),
        ),
        "fig9" => timed(
            || appchar::default_runs(seed, opts),
            |d| dvfs::render_residency(d, little),
        ),
        "fig10" => timed(
            || appchar::default_runs(seed, opts),
            |d| dvfs::render_residency(d, big),
        ),
        "table5" => timed(
            || appchar::default_runs(seed, opts),
            |d| dvfs::render_table5(d),
        ),
        "fig11-13" => timed(
            || dvfs::fig11_12_13_parameter_sweep(seed, opts),
            |s| {
                format!(
                    "{}\n{}\n{}",
                    dvfs::render_fig11(s),
                    dvfs::render_fig12(s),
                    dvfs::render_fig13(s)
                )
            },
        ),
        "ablation-tiny" => timed(
            || ablation::tiny_floor_full(seed, opts),
            |d| ablation::render_tiny_floor(d),
        ),
        "ablation-cache" => timed(
            || ablation::equal_l2_ablation(two_s, seed, opts),
            |d| ablation::render_equal_l2(d),
        ),
        "ablation-governors" => timed(
            || ablation::governor_comparison(apps(), seed, opts),
            |d| ablation::render_governor_comparison(d),
        ),
        "ablation-schedulers" => timed(
            || ablation::scheduler_comparison(apps(), seed, opts),
            |d| ablation::render_scheduler_comparison(d),
        ),
        "ablation-cpuidle" => timed(
            || ablation::cpuidle_ablation(apps(), seed, opts),
            |d| ablation::render_cpuidle(d),
        ),
        "resilience-outage" => timed(
            || resilience::outage_comparison(apps(), seed, opts),
            |d| resilience::render_outage(d),
        ),
        "resilience-thermal" => timed(
            || resilience::thermal_throttle(SimDuration::from_secs(60), seed, opts),
            resilience::render_throttle,
        ),
        other => panic!("experiment {other:?} is not part of the suite"),
    }
}

/// The record stream a pass writes to its batch journals. A sweep opens
/// its batch's journal afresh, so a batch run again by a later experiment
/// rewrites the file the earlier one left: after each experiment, every
/// journal file that was (re)written since the last look is read and kept
/// as one run of appends.
#[derive(Default)]
struct JournalStream {
    seen: HashMap<PathBuf, (u64, SystemTime)>,
    runs: Vec<Vec<String>>,
}

impl JournalStream {
    fn capture(&mut self, dir: &Path) {
        for path in files_with(dir, ".jsonl") {
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            let id = (meta.ino(), meta.modified().expect("file times"));
            if self.seen.get(&path) != Some(&id) {
                self.seen.insert(path.clone(), id);
                let records = Journal::load(&path).expect("read a batch journal");
                self.runs.push(records);
            }
        }
    }
}

/// Everything one suite pass produced and cost.
struct Pass {
    reports: Vec<String>,
    wall_s: f64,
    batches_ms: Vec<f64>,
    stats: SweepStats,
    compute_s: f64,
    render_s: f64,
    io: Io,
}

/// Runs the 23 experiments once. Untraced passes call
/// `run_experiment_with`, as `repro` does; traced passes call the data and
/// render halves separately and record a span for each. With `stream`,
/// the journals each experiment writes are captured into it (the reads
/// this takes are not counted in the pass's I/O).
fn suite_pass(
    seed: u64,
    opts: &SweepOptions,
    tracer: &mut Tracer,
    mut stream: Option<&mut JournalStream>,
) -> Pass {
    let _ = sweep::take_stats();
    let io0 = Io::read(None);
    let round = tracer.begin("round", None);
    let t0 = Instant::now();
    let mut pass = Pass {
        reports: Vec::new(),
        wall_s: 0.0,
        batches_ms: Vec::new(),
        stats: SweepStats::default(),
        compute_s: 0.0,
        render_s: 0.0,
        io: Io::default(),
    };
    let mut capture_io = Io::default();
    for id in EXPERIMENTS {
        let span = tracer.begin("experiment", Some(round));
        let b0 = Instant::now();
        let text = if tracer.on() {
            let (text, [t0, t1, t2]) = split_experiment(id, seed, opts);
            tracer.record("compute", Some(span), t0, t1);
            tracer.record("render", Some(span), t1, t2);
            pass.compute_s += (t1 - t0).as_secs_f64();
            pass.render_s += (t2 - t1).as_secs_f64();
            text
        } else {
            run_experiment_with(id, seed, false, opts)
        };
        pass.batches_ms.push(b0.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        pass.reports.push(text);
        if let (Some(st), Some(dir)) = (stream.as_deref_mut(), &opts.journal_dir) {
            let c0 = Io::read(None);
            st.capture(dir);
            capture_io.add(Io::read(None).since(c0));
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    tracer.end(round);
    pass.io = Io::read(None).since(io0).since(capture_io);
    pass.stats = sweep::take_stats();
    pass
}

/// The Table III rows of `seed`, read back through the experiments' own
/// data call (cache hits against the pass's state), plus their rhos.
fn baseline_rhos(seed: u64, opts: &SweepOptions) -> Result<(f64, f64), String> {
    let rows: Vec<(String, serde_json::Value)> = appchar::default_runs(seed, opts)
        .into_iter()
        .map(|(app, r)| (app.name, to_json(&r)))
        .collect();
    let _ = sweep::take_stats();
    table3_rhos(&rows)
}

/// Per-layer totals accumulated over the measured passes.
#[derive(Default)]
struct Layers {
    passes: f64,
    scenarios: f64,
    hits: f64,
    quarantined: f64,
    scenario_s: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    compute_s: f64,
    render_s: f64,
    io: Io,
    trunk_runs: f64,
    published: f64,
    hydrated: f64,
    forks: f64,
}

impl Layers {
    fn add(&mut self, p: &Pass) {
        self.passes += 1.0;
        self.scenarios += p.stats.scenarios as f64;
        self.hits += p.stats.cache_hits as f64;
        self.quarantined += p.stats.quarantined as f64;
        self.compute_s += p.compute_s;
        self.render_s += p.render_s;
        for s in &p.stats.per_scenario {
            self.scenario_s += s.wall_ms / 1e3;
            if s.cache_hit {
                self.hit_ms.push(s.wall_ms);
            } else {
                self.miss_ms.push(s.wall_ms);
            }
        }
        self.io.add(p.io);
        self.trunk_runs += p.stats.snapshot.trunk_runs as f64;
        self.published += p.stats.snapshot.published as f64;
        self.hydrated += p.stats.snapshot.hydrated as f64;
        self.forks += p.stats.snapshot.forks as f64;
    }
}

pub fn run(args: &Args) -> Report {
    let mut tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    let seeds: Vec<u64> = (0..SEEDS).map(|i| derived_seed(args.seed, i)).collect();

    // ---- set-up: the cold pass of every seed fills the state the measured
    // passes re-run against. Traced runs capture its journal record stream
    // and its cache misses.
    let state = open_state(Path::new("state"));
    let opts = rerun_opts(&state);
    let mut layers = Layers::default();
    let mut stream = JournalStream::default();
    let mut setup_s = Vec::new();
    let mut cold_reports = Vec::new();
    let mut rhos = Vec::new();
    for &seed in &seeds {
        let capture = args.trace.then_some(&mut stream);
        let pass = suite_pass(seed, &cold_opts(&state), &mut Tracer::new(false), capture);
        setup_s.push(pass.wall_s);
        let misses = pass.stats.per_scenario.iter().filter(|s| !s.cache_hit);
        layers.miss_ms.extend(misses.map(|s| s.wall_ms));
        rep.check(pass.reports.iter().all(|t| !t.trim().is_empty()), || {
            format!("an experiment of seed {seed} rendered nothing")
        });
        cold_reports.push(pass.reports);
        match baseline_rhos(seed, &opts) {
            Ok(x) => rhos.push(x),
            Err(e) => rep.errors.push(e),
        }
    }

    // ---- measured passes
    let clock = Clock::new(args.seconds);
    let mut rounds = Rounds::default();
    let mut r = 0usize;
    while clock.more(&rounds) {
        let k = r % seeds.len();
        let seed = seeds[k];
        let pass = suite_pass(seed, &opts, &mut tracer, None);
        rounds.push(
            pass.wall_s,
            pass.stats.scenarios as f64,
            pass.batches_ms.clone(),
        );
        rep.attempted += pass.stats.scenarios;
        rep.failed += pass.stats.quarantined;
        layers.add(&pass);
        rep.check(pass.reports == cold_reports[k], || {
            format!("warm reports of seed {seed} differ from its cold pass")
        });
        rep.check(pass.stats.cache_hits == pass.stats.scenarios, || {
            format!("warm pass of seed {seed} missed the cache")
        });
        r += 1;
    }

    // End-to-end metrics; printed by untraced runs only.
    rep.timings(&setup_s, &rounds);
    rep.metric("peak_rss_mb", peak_rss_mb(None), "MiB");
    rep.rhos(&rhos);
    if !args.trace {
        return rep;
    }

    // ---- per-layer metrics, per suite pass (or per seed for state sizes)
    let per = layers.passes;
    let seeds_in_state = seeds.len() as f64;
    rep.metric("experiments.compute_s", layers.compute_s / per, "s");
    rep.metric("experiments.render_s", layers.render_s / per, "s");
    rep.metric(
        "sweep.calls",
        stream.runs.len() as f64 / seeds_in_state,
        "count",
    );
    rep.metric("sweep.scenarios", layers.scenarios / per, "count");
    rep.metric(
        "sweep.simulated",
        (layers.scenarios - layers.hits) / per,
        "count",
    );
    rep.metric("sweep.cache_hits", layers.hits / per, "count");
    rep.metric(
        "sweep.cache_hit_ratio",
        layers.hits / layers.scenarios,
        "ratio",
    );
    // The suite calls the engine from inside the experiments' data calls,
    // so the engine's run time is the experiments' compute time.
    rep.metric("sweep.run_s", layers.compute_s / per, "s");
    rep.metric(
        "sweep.overhead_s",
        (layers.compute_s - layers.scenario_s) / per,
        "s",
    );
    rep.metric("sweep.hit_p50_ms", median(&layers.hit_ms), "ms");
    rep.metric("sweep.miss_p50_ms", median(&layers.miss_ms), "ms");

    // Every append of the cold set-up passes, replayed in the order they
    // made them, per seed; the size is what a pass leaves on disk.
    let (_, journal_bytes) = dir_usage(&state.join("journal"));
    let appends = replay_records(&stream.runs, &fresh_dir(Path::new("journal-replay")));
    eprintln!(
        "perfbench: replayed {} journal runs, {} appends, of {} cold passes",
        stream.runs.len(),
        appends.len(),
        seeds.len()
    );
    rep.metric(
        "journal.records",
        appends.len() as f64 / seeds_in_state,
        "count",
    );
    rep.metric("journal.kb", journal_bytes / 1024.0 / seeds_in_state, "KiB");
    rep.metric("journal.append_p50_us", median(&appends), "us");
    rep.metric(
        "journal.append_s",
        appends.iter().sum::<f64>() / 1e6 / seeds_in_state,
        "s",
    );

    rep.metric(
        "io.write_mb",
        layers.io.write_bytes / per / 1048576.0,
        "MiB",
    );
    rep.metric("io.write_calls", layers.io.write_calls / per, "count");
    rep.metric("io.read_mb", layers.io.read_bytes / per / 1048576.0, "MiB");

    let (entries, cache_bytes) = dir_usage(&state.join("cache"));
    rep.metric("cache.entries", entries / seeds_in_state, "count");
    rep.metric("cache.mb", cache_bytes / 1048576.0 / seeds_in_state, "MiB");

    let (_, snap_bytes) = dir_usage(&state.join("snapshots"));
    rep.metric("snapstore.trunk_runs", layers.trunk_runs / per, "count");
    rep.metric("snapstore.published", layers.published / per, "count");
    rep.metric("snapstore.hydrated", layers.hydrated / per, "count");
    rep.metric("snapstore.forks", layers.forks / per, "count");
    rep.metric(
        "snapstore.mb",
        snap_bytes / 1048576.0 / seeds_in_state,
        "MiB",
    );
    snapstore_timings(&mut rep, &state.join("snapshots"));

    // The simulation engine on the suite's Table III batches, run one by
    // one; each must equal what the suite's sweeps returned.
    let mut sim = SimTally::default();
    for &seed in &seeds {
        let expected: Vec<String> = appchar::default_runs(seed, &opts)
            .iter()
            .map(|(_, r)| to_text(&to_json(r)))
            .collect();
        let _ = sweep::take_stats();
        let got = sim.run_all(&table3_batch(seed));
        rep.check(got == expected, || {
            format!("Table III runs of seed {seed} differ from the suite's")
        });
    }
    sim.report(&mut rep, seeds_in_state);
    crate::serve::absent(&mut rep);
    tracer.write(&args.trace_out);
    rep
}
