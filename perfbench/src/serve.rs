//! `serve-closed`: a `repro serve --jobs 1` daemon fed Table III batches
//! by one closed-loop client connection. Every batch carries a new seed,
//! so no batch attaches to another run or hits a cache.

use std::io::{Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use biglittle::{sweep, SweepOptions};
use bl_served::proto::{self, Event, SubmitOptions};
use serde_json::Value;

use crate::common::*;
use crate::Args;

/// Daemon starts timed in set-up; the last one serves the run.
const STARTS: usize = 15;
/// Batches per round.
const ROUND_BATCHES: usize = 10;
/// Sweep journals replayed for the journal layer's append timings.
const REPLAYED_JOURNALS: usize = 20;
/// Batches re-run one by one for the simulation layer.
const SIM_BATCHES: usize = 3;

/// A running daemon, killed and reaped when dropped.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    fn socket(&self) -> PathBuf {
        self.dir.join("serve.sock")
    }

    /// Starts `repro serve` in a fresh directory and returns once it
    /// answers a ping, with the seconds that took.
    fn start(repro: &Path, dir: &Path) -> (Daemon, f64) {
        let dir = fresh_dir(dir);
        let log = std::fs::File::create(dir.join("serve.log")).expect("create the daemon log");
        let t0 = Instant::now();
        let child = Command::new(repro)
            .args([
                "serve",
                "--socket",
                "serve.sock",
                "--serve-dir",
                ".",
                "--jobs",
                "1",
            ])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn repro serve");
        let daemon = Daemon { child, dir };
        let deadline = t0 + Duration::from_secs(20);
        while bl_served::control(&daemon.socket(), "ping").is_err() {
            assert!(
                Instant::now() < deadline,
                "the daemon did not answer within 20 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        (daemon, t0.elapsed().as_secs_f64())
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) {
        let _ = bl_served::control(&self.socket(), "drain");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the client saw of one submit.
struct Submitted {
    connected: Instant,
    admitted: Option<Instant>,
    done: Option<Instant>,
    results: Vec<Option<Result<Value, String>>>,
    stats: Value,
    heartbeats: u64,
    rejected: bool,
}

/// Submits one batch over a fresh connection and reads events until the
/// run is done, refused, or the connection breaks.
fn submit(socket: &Path, scenarios: &[Value]) -> Submitted {
    let line = proto::submit_line("perfbench", scenarios, &SubmitOptions::default());
    let mut s = Submitted {
        connected: Instant::now(),
        admitted: None,
        done: None,
        results: vec![None; scenarios.len()],
        stats: Value::Null,
        heartbeats: 0,
        rejected: false,
    };
    let Ok(mut stream) = UnixStream::connect(socket) else {
        return s;
    };
    let sent = stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .and_then(|_| stream.write_all(format!("{line}\n").as_bytes()));
    if sent.is_err() {
        return s;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 65536];
    loop {
        while let Some(nl) = buf.iter().position(|b| *b == b'\n') {
            let raw: Vec<u8> = buf.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            match proto::parse_event(text.trim()) {
                Ok(Event::Admitted { .. }) => s.admitted = Some(Instant::now()),
                Ok(Event::Heartbeat { .. }) => s.heartbeats += 1,
                Ok(Event::ResultSlot { index, outcome, .. }) => {
                    if let Some(slot) = s.results.get_mut(index as usize) {
                        *slot = Some(outcome);
                    }
                }
                Ok(Event::Done { stats, .. }) => {
                    s.done = Some(Instant::now());
                    s.stats = stats;
                    return s;
                }
                Ok(Event::Rejected { .. }) => {
                    s.rejected = true;
                    return s;
                }
                Ok(Event::RunQuarantined { .. }) | Ok(Event::Draining) | Err(_) => return s,
                Ok(_) => {}
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return s,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    let repro = args
        .repro
        .as_deref()
        .expect("serve-closed needs --repro <path>");

    // ---- set-up: start the daemon several times, keep the last one
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for i in 0..STARTS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let (d, secs) = Daemon::start(repro, Path::new(&format!("serve-{i}")));
        setup_s.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("STARTS > 0");
    let socket = daemon.socket();
    let pid = daemon.child.id();

    // ---- measured rounds
    let clock = Clock::new(args.seconds);
    let io0 = Io::read(Some(pid));
    let mut rounds = Rounds::default();
    let mut rhos = Vec::new();
    let (mut heartbeats, mut rejections, mut reconnects) = (0u64, 0u64, 0u64);
    let (mut to_admit, mut to_done, mut inproc, mut overhead) = (vec![], vec![], vec![], vec![]);
    let mut daemon_sweep_s = 0.0;
    let mut scenarios = 0u64;
    let mut hits = 0u64;
    let mut b = 0u64;
    while clock.more(&rounds) {
        let inputs: Vec<(u64, Vec<Value>)> = (0..ROUND_BATCHES as u64)
            .map(|i| {
                let seed = derived_seed(args.seed, b + i);
                (seed, table3_batch(seed).iter().map(to_json).collect())
            })
            .collect();
        b += ROUND_BATCHES as u64;
        let round = tracer.begin("round", None);
        let t0 = Instant::now();
        let mut seen = Vec::with_capacity(ROUND_BATCHES);
        for (seed, batch) in inputs {
            let span = tracer.begin("submit", Some(round));
            let s = submit(&socket, &batch);
            tracer.end(span);
            if let (Some(a), Some(d)) = (s.admitted, s.done) {
                tracer.record("connect_to_admit", Some(span), s.connected, a);
                tracer.record("admit_to_done", Some(span), a, d);
            }
            seen.push((seed, s));
        }
        let round_s = t0.elapsed().as_secs_f64();
        tracer.end(round);

        let mut batches_ms = Vec::with_capacity(ROUND_BATCHES);
        let mut delivered = 0.0;
        for (seed, s) in seen {
            rep.attempted += 1;
            heartbeats += s.heartbeats;
            let Some(done) = s.done else {
                rep.failed += 1;
                if s.rejected {
                    rejections += 1;
                } else {
                    reconnects += 1;
                }
                continue;
            };
            let latency_ms = (done - s.connected).as_secs_f64() * 1e3;
            batches_ms.push(latency_ms);
            let stat = |k: &str| s.stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            daemon_sweep_s += stat("wall_ms") / 1e3;
            delivered += stat("scenarios");
            scenarios += stat("scenarios") as u64;
            hits += stat("cache_hits") as u64;
            let results: Vec<Value> = s
                .results
                .iter()
                .filter_map(|r| r.as_ref().and_then(|r| r.as_ref().ok()).cloned())
                .collect();
            rep.check(results.len() == 12, || {
                format!(
                    "batch of seed {seed} returned {} of 12 results",
                    results.len()
                )
            });
            let rows: Vec<(String, Value)> = bl_workloads::apps::mobile_apps()
                .into_iter()
                .map(|a| a.name)
                .zip(results.iter().cloned())
                .collect();
            match table3_rhos(&rows) {
                Ok(x) => rhos.push(x),
                Err(e) => rep.errors.push(format!("batch of seed {seed}: {e}")),
            }
            if args.trace {
                if let Some(a) = s.admitted {
                    to_admit.push((a - s.connected).as_secs_f64() * 1e3);
                    to_done.push((done - a).as_secs_f64() * 1e3);
                }
                // The same batch in-process must give the same bytes.
                let t = Instant::now();
                let local = sweep::run_with(&table3_batch(seed), &SweepOptions::serial());
                let local_ms = t.elapsed().as_secs_f64() * 1e3;
                let _ = sweep::take_stats();
                inproc.push(local_ms);
                overhead.push(latency_ms - local_ms);
                let want: Vec<String> = local
                    .results
                    .iter()
                    .filter_map(|r| r.as_ref().ok().map(|r| to_text(&to_json(r))))
                    .collect();
                let got: Vec<String> = results.iter().map(to_text).collect();
                rep.check(got == want, || {
                    format!("served batch of seed {seed} differs from the in-process sweep")
                });
            }
        }
        rounds.push(round_s, delivered, batches_ms);
    }
    rep.check(rejections == 0, || {
        format!("{rejections} submits were rejected")
    });
    let io = Io::read(Some(pid)).since(io0);
    let peak = peak_rss_mb(Some(pid));
    let dir = daemon.dir.clone();
    daemon.stop();

    // End-to-end metrics; printed by untraced runs only.
    rep.timings(&setup_s, &rounds);
    rep.metric("peak_rss_mb", peak, "MiB");
    rep.rhos(&rhos);
    if !args.trace {
        return rep;
    }

    // ---- per-layer metrics, per round of ROUND_BATCHES batches
    let per = rounds.len() as f64;
    rep.metric("experiments.compute_s", 0.0, "s");
    rep.metric("experiments.render_s", 0.0, "s");

    // The daemon's sweep journals: one per run, with a `done` record
    // carrying each scenario's wall time.
    let journals = files_with(&dir.join("journal"), ".jsonl");
    let mut scenario_ms = Vec::new();
    let mut records = 0usize;
    for j in &journals {
        let lines = bl_simcore::journal::Journal::load(j).expect("read a daemon journal");
        records += lines.len();
        for l in lines {
            let v: Value = serde_json::from_str(&l).expect("journal records are JSON");
            if v.get("ev").and_then(Value::as_str) == Some("done") {
                scenario_ms.push(v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0));
            }
        }
    }
    let scenario_s: f64 = scenario_ms.iter().sum::<f64>() / 1e3;
    rep.metric("sweep.calls", ROUND_BATCHES as f64, "count");
    rep.metric("sweep.scenarios", scenarios as f64 / per, "count");
    rep.metric("sweep.simulated", (scenarios - hits) as f64 / per, "count");
    rep.metric("sweep.cache_hits", hits as f64 / per, "count");
    rep.metric(
        "sweep.cache_hit_ratio",
        hits as f64 / scenarios as f64,
        "ratio",
    );
    rep.metric("sweep.run_s", daemon_sweep_s / per, "s");
    rep.metric("sweep.overhead_s", (daemon_sweep_s - scenario_s) / per, "s");
    rep.metric("sweep.hit_p50_ms", 0.0, "ms");
    rep.metric("sweep.miss_p50_ms", median(&scenario_ms), "ms");

    let (_, journal_bytes) = dir_usage(&dir.join("journal"));
    let runs = journals.len().max(1) as f64;
    let sample = &journals[..journals.len().min(REPLAYED_JOURNALS)];
    let appends = replay_journals(sample, &fresh_dir(Path::new("journal-replay")));
    let replayed_s = appends.iter().sum::<f64>() / 1e6;
    let batches_per_round = ROUND_BATCHES as f64;
    rep.metric(
        "journal.records",
        records as f64 / runs * batches_per_round,
        "count",
    );
    rep.metric(
        "journal.kb",
        journal_bytes / 1024.0 / runs * batches_per_round,
        "KiB",
    );
    rep.metric("journal.append_p50_us", median(&appends), "us");
    rep.metric(
        "journal.append_s",
        replayed_s / sample.len().max(1) as f64 * batches_per_round,
        "s",
    );

    rep.metric("io.write_mb", io.write_bytes / per / 1048576.0, "MiB");
    rep.metric("io.write_calls", io.write_calls / per, "count");
    rep.metric("io.read_mb", io.read_bytes / per / 1048576.0, "MiB");
    rep.metric("cache.entries", 0.0, "count");
    rep.metric("cache.mb", 0.0, "MiB");
    let snaps = dir.join("results/.snapshots");
    for name in ["trunk_runs", "published", "hydrated", "forks"] {
        rep.metric(&format!("snapstore.{name}"), 0.0, "count");
    }
    rep.metric("snapstore.mb", dir_usage(&snaps).1 / 1048576.0, "MiB");
    snapstore_timings(&mut rep, &snaps);

    let mut sim = SimTally::default();
    for i in 0..SIM_BATCHES as u64 {
        sim.run_all(&table3_batch(derived_seed(args.seed, i)));
    }
    sim.report(&mut rep, SIM_BATCHES as f64);

    let batches_ms: Vec<f64> = rounds.batches_ms.concat();
    let tenth = (batches_ms.len() / 10).max(1);
    rep.metric("served.connect_to_admit_p50_ms", median(&to_admit), "ms");
    rep.metric("served.admit_to_done_p50_ms", median(&to_done), "ms");
    rep.metric("served.inproc_p50_ms", median(&inproc), "ms");
    rep.metric("served.overhead_p50_ms", median(&overhead), "ms");
    rep.metric("served.heartbeats", heartbeats as f64 / per, "count");
    rep.metric("served.rejections", rejections as f64, "count");
    rep.metric("served.reconnects", reconnects as f64, "count");
    rep.metric(
        "served.journal_kb",
        std::fs::metadata(dir.join("serve.runs.jsonl")).map_or(0.0, |m| m.len() as f64 / 1024.0),
        "KiB",
    );
    rep.metric(
        "served.latency_drift",
        median(&batches_ms[batches_ms.len() - tenth..]) / median(&batches_ms[..tenth]),
        "ratio",
    );
    tracer.write(&args.trace_out);
    rep
}

/// The `served` layer's metrics on a workload that does not use the
/// daemon: no work, so zeros.
pub fn absent(rep: &mut Report) {
    for (name, unit) in [
        ("served.connect_to_admit_p50_ms", "ms"),
        ("served.admit_to_done_p50_ms", "ms"),
        ("served.inproc_p50_ms", "ms"),
        ("served.overhead_p50_ms", "ms"),
        ("served.heartbeats", "count"),
        ("served.rejections", "count"),
        ("served.reconnects", "count"),
        ("served.journal_kb", "KiB"),
        ("served.latency_drift", "ratio"),
    ] {
        rep.metric(name, 0.0, unit);
    }
}
