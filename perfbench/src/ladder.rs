//! `whatif-ladder`: a what-if grid over the 12 paper apps that crosses
//! nested warm-up ladders with late-bound governor and fault variants,
//! re-explored against a snapshot store its set-up filled. Result cache
//! and journal are off.

use std::path::{Path, PathBuf};
use std::time::Instant;

use biglittle::{sweep, LateBindings, Scenario, StopWhen, SweepOptions};
use bl_governor::GovernorConfig;
use bl_simcore::fault::{FaultKind, FaultPlan};
use bl_simcore::time::{SimDuration, SimTime};

use crate::common::*;
use crate::Args;

/// Warm-up rungs of every app's ladder, in simulated milliseconds.
pub const RUNGS_MS: [u64; 6] = [200, 400, 600, 800, 1000, 1200];
/// Simulated length of every point after its warm-up.
pub const TAIL_MS: u64 = 100;
/// Publish passes timed in set-up.
const PUBLISH_PASSES: usize = 5;

fn governor_variants() -> Vec<Option<Vec<GovernorConfig>>> {
    vec![
        None,
        Some(vec![
            GovernorConfig::Performance,
            GovernorConfig::Performance,
        ]),
        Some(vec![GovernorConfig::Powersave, GovernorConfig::Powersave]),
    ]
}

fn fault_variants(at: SimTime) -> Vec<FaultPlan> {
    vec![
        FaultPlan::new(),
        FaultPlan::new().with(
            at,
            FaultKind::ThermalSpike {
                cluster: 0,
                delta_c: 8.0,
            },
        ),
        FaultPlan::new().with_outage(at, SimDuration::from_millis(50), &[1]),
        FaultPlan::new().with(
            at,
            FaultKind::GovernorStall {
                cluster: 1,
                missed_samples: 3,
            },
        ),
    ]
}

/// One batch per app: every rung of its ladder crossed with every
/// governor and fault variant, bound at that rung.
pub fn grid(seed: u64) -> Vec<Vec<Scenario>> {
    bl_workloads::apps::mobile_apps()
        .into_iter()
        .enumerate()
        .map(|(a, app)| {
            let cfg = biglittle::SystemConfig::baseline().with_seed(derived_seed(seed, a as u64));
            let mut batch = Vec::new();
            for (level, &ms) in RUNGS_MS.iter().enumerate() {
                let warm = SimDuration::from_millis(ms);
                let via: Vec<SimDuration> = RUNGS_MS[..level]
                    .iter()
                    .map(|&m| SimDuration::from_millis(m))
                    .collect();
                for (g, govs) in governor_variants().into_iter().enumerate() {
                    for (f, faults) in fault_variants(SimTime::ZERO + warm).into_iter().enumerate()
                    {
                        batch.push(
                            Scenario::app(
                                format!("{}/w{ms}/g{g}/f{f}", app.name),
                                app.clone(),
                                cfg.clone(),
                            )
                            .with_stop(StopWhen::Deadline(warm + SimDuration::from_millis(TAIL_MS)))
                            .with_warmup(warm)
                            .with_warmup_via(via.clone())
                            .with_late(LateBindings {
                                governors: govs.clone(),
                                faults,
                            }),
                        );
                    }
                }
            }
            batch
        })
        .collect()
}

fn store_opts(store: &Path) -> SweepOptions {
    SweepOptions::serial().snap_stored(store)
}

fn serialized(out: &biglittle::SweepOutcome) -> Result<Vec<String>, String> {
    out.results
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|r| to_text(&to_json(r)))
                .map_err(|e| e.to_string())
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    let batches = grid(args.seed);
    let points: usize = batches.iter().map(Vec::len).sum();

    // ---- set-up, untimed: the cold reference of every point, run one by
    // one with no prefix sharing, and the 12 apps' Table III baseline.
    let mut sim = SimTally::default();
    let reference: Vec<Vec<String>> = batches.iter().map(|b| sim.run_all(b)).collect();
    let baseline = sweep::run_with(&table3_batch(args.seed), &SweepOptions::serial());
    let rows: Vec<(String, serde_json::Value)> = bl_workloads::apps::mobile_apps()
        .into_iter()
        .zip(&baseline.results)
        .filter_map(|(app, r)| Some((app.name, to_json(r.as_ref().ok()?))))
        .collect();
    let rhos = match table3_rhos(&rows) {
        Ok(x) => vec![x],
        Err(e) => {
            rep.errors.push(e);
            Vec::new()
        }
    };

    // ---- set-up, timed: explore the grid once against an empty store,
    // which publishes every app's trunk rungs.
    let mut setup_s = Vec::new();
    let mut store = PathBuf::new();
    let _ = sweep::take_stats();
    for i in 0..PUBLISH_PASSES {
        if i > 0 {
            let _ = std::fs::remove_dir_all(&store);
        }
        store = fresh_dir(Path::new(&format!("store-{i}")));
        let t0 = Instant::now();
        let outs: Vec<_> = batches
            .iter()
            .map(|b| sweep::run_with(b, &store_opts(&store)))
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        for (out, want) in outs.iter().zip(&reference) {
            rep.check(serialized(out).as_ref() == Ok(want), || {
                "a publish-pass point differs from its cold run".to_string()
            });
        }
    }
    let _ = sweep::take_stats();
    let stored = files_with(&store, ".snap").len() as u64;
    rep.check(stored == (batches.len() * RUNGS_MS.len()) as u64, || {
        format!("store holds {stored} rungs, expected one per app and rung")
    });

    // ---- measured rounds: re-explore the grid against the store
    let clock = Clock::new(args.seconds);
    let mut rounds = Rounds::default();
    let mut totals = biglittle::SweepStats::default();
    let mut miss_ms = Vec::new();
    let mut io = Io::default();
    while clock.more(&rounds) {
        let io0 = Io::read(None);
        let round = tracer.begin("round", None);
        let t0 = Instant::now();
        let mut outs = Vec::with_capacity(batches.len());
        let mut batches_ms = Vec::with_capacity(batches.len());
        for b in &batches {
            let span = tracer.begin("batch", Some(round));
            let b0 = Instant::now();
            outs.push(sweep::run_with(b, &store_opts(&store)));
            batches_ms.push(b0.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
        }
        rounds.push(t0.elapsed().as_secs_f64(), points as f64, batches_ms);
        tracer.end(round);
        io.add(Io::read(None).since(io0));
        let stats = sweep::take_stats();
        rep.check(stats.snapshot.trunk_runs == 0, || {
            format!(
                "{} trunks simulated against a full store",
                stats.snapshot.trunk_runs
            )
        });
        rep.check(stats.snapshot.hydrated == stored, || {
            format!(
                "hydrated {} of {stored} stored rungs",
                stats.snapshot.hydrated
            )
        });
        for (out, want) in outs.iter().zip(&reference) {
            rep.attempted += out.results.len() as u64;
            rep.failed += out.results.iter().filter(|r| r.is_err()).count() as u64;
            rep.check(serialized(out).as_ref() == Ok(want), || {
                "a re-explored point differs from its cold run".to_string()
            });
        }
        totals.scenarios += stats.scenarios;
        totals.cache_hits += stats.cache_hits;
        totals.snapshot.trunk_runs += stats.snapshot.trunk_runs;
        totals.snapshot.published += stats.snapshot.published;
        totals.snapshot.hydrated += stats.snapshot.hydrated;
        totals.snapshot.forks += stats.snapshot.forks;
        miss_ms.extend(stats.per_scenario.iter().map(|s| s.wall_ms));
    }

    // End-to-end metrics; printed by untraced runs only.
    rep.timings(&setup_s, &rounds);
    rep.metric("peak_rss_mb", peak_rss_mb(None), "MiB");
    rep.rhos(&rhos);
    if !args.trace {
        return rep;
    }

    // ---- per-layer metrics, per round
    let per = rounds.len() as f64;
    let run_s: f64 = rounds.secs.iter().sum();
    rep.metric("experiments.compute_s", 0.0, "s");
    rep.metric("experiments.render_s", 0.0, "s");
    rep.metric("sweep.calls", batches.len() as f64, "count");
    rep.metric("sweep.scenarios", totals.scenarios as f64 / per, "count");
    rep.metric(
        "sweep.simulated",
        (totals.scenarios - totals.cache_hits) as f64 / per,
        "count",
    );
    rep.metric("sweep.cache_hits", totals.cache_hits as f64 / per, "count");
    rep.metric(
        "sweep.cache_hit_ratio",
        totals.cache_hits as f64 / totals.scenarios as f64,
        "ratio",
    );
    rep.metric("sweep.run_s", run_s / per, "s");
    let scenario_s: f64 = miss_ms.iter().sum::<f64>() / 1e3;
    rep.metric("sweep.overhead_s", (run_s - scenario_s) / per, "s");
    rep.metric("sweep.hit_p50_ms", 0.0, "ms");
    rep.metric("sweep.miss_p50_ms", median(&miss_ms), "ms");
    for name in ["journal.records", "journal.kb"] {
        rep.metric(
            name,
            0.0,
            if name.ends_with("kb") { "KiB" } else { "count" },
        );
    }
    rep.metric("journal.append_p50_us", 0.0, "us");
    rep.metric("journal.append_s", 0.0, "s");
    rep.metric("io.write_mb", io.write_bytes / per / 1048576.0, "MiB");
    rep.metric("io.write_calls", io.write_calls / per, "count");
    rep.metric("io.read_mb", io.read_bytes / per / 1048576.0, "MiB");
    rep.metric("cache.entries", 0.0, "count");
    rep.metric("cache.mb", 0.0, "MiB");
    let snap = totals.snapshot;
    rep.metric(
        "snapstore.trunk_runs",
        snap.trunk_runs as f64 / per,
        "count",
    );
    rep.metric("snapstore.published", snap.published as f64 / per, "count");
    rep.metric("snapstore.hydrated", snap.hydrated as f64 / per, "count");
    rep.metric("snapstore.forks", snap.forks as f64 / per, "count");
    rep.metric("snapstore.mb", dir_usage(&store).1 / 1048576.0, "MiB");
    snapstore_timings(&mut rep, &store);
    sim.report(&mut rep, 1.0);
    crate::serve::absent(&mut rep);
    tracer.write(&args.trace_out);
    rep
}
