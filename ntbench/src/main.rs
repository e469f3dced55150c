//! `ntbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! ntbench --workload hot|durable --seed N --seconds S --trace 0|1
//!         --serve-bin PATH --root DIR [--stamp JSON]
//! ntbench --self-test --serve-bin PATH --root DIR [--stamp JSON]
//! ```
//!
//! One run starts the shipped `nt-serve` as a separate process from the
//! workload's `ntbench/config/<name>.server.net.json`, drives it from
//! this process over `nt_net::Conn` for `S` seconds, checks the output
//! (see [`check`]), stops the server and prints one JSON result line
//! last. With `--trace 0` the result carries the end-to-end metrics;
//! with `--trace 1` the run is split into an untraced and a traced half,
//! followed by in-process replays through the layer APIs, and the result
//! carries the per-layer metrics of the cost ledger (see [`ledger`]).
//! `ntbench/run.py` builds both binaries and supplies `--serve-bin`,
//! `--root` and `--stamp`.

mod check;
mod drive;
mod ledger;
mod selftest;
mod serve;
mod stats;
mod workload;

use check::{cert_problems, check_history, fetch_history, fetch_json};
use drive::{run_phase, PhaseOpts, Tally};
use nt_net::LoadConfig;
use serve::Server;
use stats::{median, metric, quote, ratio, result_line, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Untimed closed-loop warm-up before the timed phase, seconds.
const WARMUP_S: f64 = 0.5;

/// The untraced timed phase runs in chunks of at most this many seconds.
const CHUNK_S: f64 = 2.5;

/// A chunk during which the host stole more than this share of the
/// machine's CPU time is set aside (see [`timed_phase`]).
const STEAL_MAX: f64 = 0.02;

/// Kernel clock ticks per second in `/proc/stat` (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Server starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 9;

/// Seed of the `durable` warm phase's templates. It is fixed, so every
/// run recovers the same history and `setup_s` does not move with
/// `--seed` (different warm histories recovered in 0.41–0.56 s).
const WARM_SEED: u64 = 0x5741_524d;

/// Where a run happens: binaries, checkout root, output directory.
pub struct Ctx {
    /// The `nt-serve` binary built from this checkout.
    pub serve_bin: PathBuf,
    /// `ntbench/config` in the checkout.
    pub config_dir: PathBuf,
    /// `.bench_out` in the checkout: data dirs, spans, ledgers.
    pub out_dir: PathBuf,
    /// Build stamp from `run.py` (JSON object text).
    pub stamp: String,
}

/// One run's request.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Timed-phase length, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

/// One run's result.
pub struct Outcome {
    /// Did every output check pass?
    pub correct: bool,
    /// Tops attempted in the timed phase (chunks set aside included).
    pub attempted: u64,
    /// Tops that never committed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Every output-check violation.
    pub problems: Vec<String>,
}

/// The server after set-up, with what set-up measured.
struct Setup {
    server: Server,
    samples: Vec<f64>,
    warm_dir: Option<PathBuf>,
    warm: Tally,
    data_dir: Option<PathBuf>,
    problems: Vec<String>,
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let src = entry.path();
        if !src.is_file() {
            return Err(format!("unexpected non-file {}", src.display()));
        }
        std::fs::copy(&src, to.join(entry.file_name()))
            .map_err(|e| format!("{}: {e}", src.display()))?;
    }
    Ok(())
}

/// Bytes under `dir` (flat), 0 when it does not exist.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Set-up: for `durable`, an untimed warm phase leaves a data dir behind;
/// then the server is started [`SETUP_STARTS`] times (each `durable` start on a
/// fresh copy of the warm dir, so each pays the same recovery), and the
/// last one is kept for the timed phase.
fn set_up(ctx: &Ctx, wl: &Workload, run_dir: &Path) -> Result<Setup, String> {
    let mut problems = Vec::new();
    let mut warm = Tally::default();
    let warm_dir = if wl.warm_tops > 0 {
        let dir = run_dir.join("warm");
        let s = Server::spawn(&ctx.serve_bin, &wl.server_path, Some(&dir))?;
        let pool = wl.templates(WARM_SEED);
        // One connection: with no interleaving, the seed fixes the history,
        // so every run recovers the very same one.
        let load = LoadConfig {
            connections: 1,
            ..wl.load.clone()
        };
        let opts = PhaseOpts {
            seconds: 120.0,
            max_tops: wl.warm_tops,
            trace: false,
        };
        warm = run_phase(&s.addr, &load, &pool, 0, opts);
        if let Some(e) = &warm.error {
            return Err(format!("warm phase: {e}"));
        }
        s.shutdown()?;
        Some(dir)
    } else {
        None
    };
    let mut samples = Vec::with_capacity(SETUP_STARTS);
    for i in 0..SETUP_STARTS {
        let data_dir = match &warm_dir {
            Some(w) => {
                let d = run_dir.join(format!("data{i}"));
                copy_dir(w, &d)?;
                Some(d)
            }
            None => None,
        };
        let s = Server::spawn(&ctx.serve_bin, &wl.server_path, data_dir.as_deref())?;
        samples.push(s.setup_s);
        if let Some(rep) = &s.recovery {
            if !rep.contains("\"certified\":true") {
                problems.push(format!("recovery did not re-certify: {rep}"));
            }
        } else if data_dir.is_some() {
            problems.push("no recovery report from a durable restart".to_string());
        }
        if i + 1 < SETUP_STARTS {
            s.shutdown()?;
            if let Some(d) = &data_dir {
                let _ = std::fs::remove_dir_all(d);
            }
        } else {
            return Ok(Setup {
                server: s,
                samples,
                warm_dir,
                warm,
                data_dir,
                problems,
            });
        }
    }
    unreachable!("SETUP_STARTS >= 1")
}

/// CPU time the hypervisor has stolen from this machine so far, in clock
/// ticks summed over its CPUs (`/proc/stat`; 0 where it is not reported).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The untraced timed phase: `seconds` of load, measured as equal chunks
/// of at most [`CHUNK_S`], closed loop and back to back.
///
/// On a shared virtual machine the hypervisor at times takes a large
/// share of the CPUs away (`steal` in `/proc/stat`): a chunk that lost
/// more than [`STEAL_MAX`] of the machine's CPU time measures the host,
/// not the program. Such a chunk is set aside and another one run, up to
/// three times as many chunks as needed. The figures come from the needed
/// number of chunks with the least steal, over every committed top of
/// each; the choice looks at steal only, never at the program's figures.
/// Returns the kept chunks and the set-aside ones, each merged, and the
/// server's peak RSS (MiB) after the first `seconds` of load: the server
/// keeps its history in memory, so its footprint grows with every chunk
/// run, set aside or not.
fn timed_phase(
    run: &dyn Fn(f64, usize) -> Tally,
    server: &Server,
    seconds: f64,
    mut offset: usize,
    conns: usize,
) -> Result<(Tally, Tally, f64), String> {
    let need = (seconds / CHUNK_S).ceil().max(1.0) as usize;
    let chunk_s = seconds / need as f64;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let limit = STEAL_MAX * chunk_s * cpus * USER_HZ;
    let mut chunks: Vec<(u64, Tally)> = Vec::new();
    let mut rss_mb = 0.0;
    while chunks.len() < 3 * need
        && chunks.iter().filter(|(st, _)| *st as f64 <= limit).count() < need
    {
        let s0 = steal_ticks();
        let t = run(chunk_s, offset);
        offset += t.tops as usize / conns;
        chunks.push((steal_ticks().saturating_sub(s0), t));
        if chunks.len() == need {
            rss_mb = server.peak_rss_mb()?;
        }
    }
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by_key(|&i| chunks[i].0);
    let mut keep = vec![false; chunks.len()];
    for &i in order.iter().take(need) {
        keep[i] = true;
    }
    println!(
        "ntbench timed phase: chunks of {chunk_s:.2} s, steal ticks {:?} (limit {limit:.0}), kept {keep:?}",
        chunks.iter().map(|(st, _)| *st).collect::<Vec<_>>()
    );
    let (mut kept, mut aside) = (Tally::default(), Tally::default());
    for ((_, t), k) in chunks.into_iter().zip(keep) {
        let into = if k { &mut kept } else { &mut aside };
        into.wall_s += t.wall_s;
        into.absorb(t);
    }
    Ok((kept, aside, rss_mb))
}

/// The filesystem type `path` lives on, from `/proc/self/mounts`.
fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload once.
pub fn run(ctx: &Ctx, spec: RunSpec<'_>) -> Result<Outcome, String> {
    let wl = Workload::load(&ctx.config_dir, spec.workload)?;
    let run_dir = ctx.out_dir.join(format!(
        "run-{}-s{}-{}",
        wl.name,
        spec.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let out = run_in(ctx, &wl, spec, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    out
}

fn run_in(ctx: &Ctx, wl: &Workload, spec: RunSpec<'_>, run_dir: &Path) -> Result<Outcome, String> {
    let stamp = format!(
        "{{\"build\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"durability\": {}, \"data_dir_fs\": {}}}",
        ctx.stamp,
        quote(&wl.name),
        spec.seed,
        spec.seconds,
        spec.trace,
        quote(wl.server.durability.tag()),
        quote(&fs_type(run_dir)),
    );
    println!("ntbench stamp {stamp}");
    let t_start = std::time::Instant::now();
    let pool = wl.templates(spec.seed);
    let setup = set_up(ctx, wl, run_dir)?;
    let t_setup = t_start.elapsed().as_secs_f64();
    let addr = setup.server.addr.clone();
    let phase = |seconds: f64, offset: usize, trace: bool| {
        let opts = PhaseOpts {
            seconds,
            max_tops: 0,
            trace,
        };
        run_phase(&addr, &wl.load, &pool, offset, opts)
    };
    let conns = wl.load.connections.max(1);
    let warmup = phase(WARMUP_S, 0, false);
    let mut offset = warmup.tops as usize / conns;
    let mut traced = None;
    let mut aside = Tally::default();
    let mut rss_mb = 0.0;
    let timed = if spec.trace {
        let reference = phase(spec.seconds / 2.0, offset, false);
        offset += reference.tops as usize / conns;
        let before = ledger::Probe::take(&addr, wl, setup.data_dir.as_deref())?;
        let t = phase(spec.seconds / 2.0, offset, true);
        let after = ledger::Probe::take(&addr, wl, setup.data_dir.as_deref())?;
        traced = Some((t, before, after));
        reference
    } else {
        let (kept, set_aside, rss) = timed_phase(
            &|s, o| phase(s, o, false),
            &setup.server,
            spec.seconds,
            offset,
            conns,
        )?;
        aside = set_aside;
        rss_mb = rss;
        kept
    };
    let t_load = t_start.elapsed().as_secs_f64();

    let last = traced.as_ref().map_or(&timed, |(t, ..)| t);
    let mut problems = setup.problems.clone();
    if last.committed() == 0 {
        problems.push("no top committed in the timed phase".to_string());
    }
    if wl.server.live_certify {
        problems.extend(cert_problems(&fetch_json(&addr, true)?));
    }
    let t_cert = t_start.elapsed().as_secs_f64();
    let history = fetch_history(&addr)?;
    // Warm-phase acks name the warm server's history, which recovery
    // carried over: the restarted server's history must still hold them.
    let mut acked = setup.warm.acked.clone();
    for t in [&warmup, &timed, &aside]
        .into_iter()
        .chain(traced.as_ref().map(|(t, ..)| t))
    {
        acked.extend(&t.acked);
        if let Some(e) = &t.error {
            println!("ntbench note: client error: {e}");
        }
    }
    let verdict = check_history(&history, &acked, true);
    problems.extend(verdict.problems.iter().cloned());
    let ping_rtt_us = if spec.trace {
        ledger::ping_rtt_us(&addr)?
    } else {
        0.0
    };
    let Setup {
        server,
        samples,
        warm_dir,
        ..
    } = setup;
    server.shutdown()?;
    println!(
        "ntbench time: set-up {:.2} s (starts {:?} s), load {:.2} s, CERT {:.2} s, check {:.2} s",
        t_setup,
        samples
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        t_load - t_setup,
        t_cert - t_load,
        t_start.elapsed().as_secs_f64() - t_cert
    );

    let fail_frac = ratio(last.failed_attempts() as f64, last.attempts as f64);
    println!(
        "ntbench {} seed={}: committed={} in {:.3} s, attempts={} (aborted {}, refused {}, transport {}), resent frames={}, fail_frac={:.5}, set aside: {} tops ({} failed), arena {} of {} slots, posthoc={:?}",
        wl.name,
        spec.seed,
        last.committed(),
        last.wall_s,
        last.attempts,
        last.aborted,
        last.refused,
        last.transport,
        last.resends,
        fail_frac,
        aside.tops,
        aside.failed_tops,
        history.tree.len(),
        wl.server.capacity,
        verdict.posthoc,
    );
    let metrics = match &traced {
        None => {
            let (tput, p50, p99) = last.figures();
            vec![
                metric("tput_tps", "tops/s", tput),
                metric("top_p50_us", "us", p50),
                metric("top_p99_us", "us", p99),
                metric("setup_s", "s", median(&samples)),
                metric("rss_mb", "MiB", rss_mb),
            ]
        }
        Some((t, before, after)) => ledger::ledger(ledger::Inputs {
            ctx,
            wl,
            spec,
            pool: &pool,
            reference: &timed,
            traced: t,
            before,
            after,
            history: &history,
            verdict: &verdict,
            ping_rtt_us,
            warm_dir: warm_dir.as_deref(),
            run_dir,
        })?,
    };
    for p in &problems {
        println!("ntbench check FAILED: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: last.tops + aside.tops,
        failed: last.failed_tops + aside.failed_tops,
        metrics,
        problems,
    })
}

fn parse_args(args: &[String]) -> Result<(Ctx, Option<RunSpec<'_>>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut root = None;
    let mut stamp = "{}".to_string();
    let mut self_test = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--self-test" {
            self_test = true;
            i += 1;
            continue;
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(val.as_str()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(val)),
            "--root" => root = Some(PathBuf::from(val)),
            "--stamp" => stamp = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let root = root.ok_or("--root is required")?;
    let ctx = Ctx {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        config_dir: root.join("ntbench").join("config"),
        out_dir: root.join(".bench_out"),
        stamp,
    };
    if self_test {
        return Ok((ctx, None));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let spec = RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((ctx, Some(spec)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, spec) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ntbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec else {
        return selftest::run_self_test(&ctx);
    };
    match run(&ctx, spec) {
        Ok(o) => {
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ntbench: {e}");
            ExitCode::FAILURE
        }
    }
}
