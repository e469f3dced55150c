//! `ntbench --self-test`: a tiny run of every workload, traced and
//! untraced, must pass its output check and emit exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit; and planted
//! bad histories must fail the output check.

use crate::check::{check_history, fetch_history, History};
use crate::drive::{run_phase, PhaseOpts};
use crate::serve::Server;
use crate::stats::result_line;
use crate::workload::{Workload, NAMES};
use crate::{run, Ctx, RunSpec};
use nt_model::{Action, ObjId, Op, TxId, Value};
use nt_obs::json::Json;
use std::process::ExitCode;

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(bench: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Arr(items)) = bench.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            match (field("name"), field("unit")) {
                (Some(n), Some(u)) => Ok((n, u)),
                _ => Err(format!("{section} entry without name/unit")),
            }
        })
        .collect()
}

/// Append a crossed read/write pair of fresh tops (a 2-cycle in the
/// serialization graph) to a real history.
fn plant_cycle(h: &History) -> History {
    let mut tree = h.tree.clone();
    let mut actions = h.actions.clone();
    let (x, y) = (ObjId(0), ObjId(1));
    let a = tree.add_inner(TxId::ROOT);
    let b = tree.add_inner(TxId::ROOT);
    let ax = tree.add_access(a, x, Op::Write(1));
    let ay = tree.add_access(a, y, Op::Read);
    let bx = tree.add_access(b, x, Op::Read);
    let by = tree.add_access(b, y, Op::Write(2));
    actions.extend([
        Action::RequestCreate(a),
        Action::RequestCreate(b),
        Action::RequestCommit(ax, Value::Ok),
        Action::Commit(ax),
        Action::RequestCommit(by, Value::Ok),
        Action::Commit(by),
        Action::RequestCommit(bx, Value::Int(1)),
        Action::Commit(bx),
        Action::RequestCommit(ay, Value::Int(2)),
        Action::Commit(ay),
        Action::Commit(a),
        Action::Commit(b),
    ]);
    History { tree, actions }
}

/// Drop the `COMMIT` of top `t`: the client's ack is no longer backed.
fn drop_commit(h: &History, t: u32) -> History {
    History {
        tree: h.tree.clone(),
        actions: h
            .actions
            .iter()
            .filter(|a| **a != Action::Commit(TxId(t)))
            .cloned()
            .collect(),
    }
}

fn planted(ctx: &Ctx) -> Result<(), String> {
    let wl = Workload::load(&ctx.config_dir, "hot")?;
    let server = Server::spawn(&ctx.serve_bin, &wl.server_path, None)?;
    let pool = wl.templates(11);
    let opts = PhaseOpts {
        seconds: 5.0,
        max_tops: 200,
        trace: false,
    };
    let tally = run_phase(&server.addr, &wl.load, &pool, 0, opts);
    let history = fetch_history(&server.addr)?;
    server.shutdown()?;
    if let Some(e) = tally.error {
        return Err(format!("planted-history run: {e}"));
    }
    let clean = check_history(&history, &tally.acked, true);
    if !clean.problems.is_empty() || clean.posthoc != Some(true) {
        return Err(format!(
            "the real history fails its check: {:?}",
            clean.problems
        ));
    }
    let cyclic = check_history(&plant_cycle(&history), &tally.acked, true);
    if !cyclic.problems.iter().any(|p| p.contains("SgtMaintainer")) {
        return Err("a planted serialization cycle passed the output check".to_string());
    }
    println!("self-test: planted cycle rejected: {:?}", cyclic.problems);
    let victim = *tally.acked.first().ok_or("no top committed")?;
    let lost = check_history(&drop_commit(&history, victim), &tally.acked, false);
    if !lost.problems.iter().any(|p| p.contains("acknowledged")) {
        return Err("a lost acknowledged commit passed the output check".to_string());
    }
    println!("self-test: lost commit rejected: {:?}", lost.problems);
    Ok(())
}

fn tiny_runs(ctx: &Ctx) -> Result<(), String> {
    let path = ctx.config_dir.join("..").join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for name in NAMES {
        for trace in [false, true] {
            let want = declared(&bench, if trace { "per_layer" } else { "end_to_end" })?;
            let spec = RunSpec {
                workload: name,
                seed: 3,
                seconds: 0.6,
                trace,
            };
            let o = run(ctx, spec)?;
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if !o.correct {
                return Err(format!("{name} trace={trace}: {:?}", o.problems));
            }
            let got: Vec<(String, String)> = o
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            if got != want {
                return Err(format!(
                    "{name} trace={trace}: emitted {got:?}, BENCHMARK.json declares {want:?}"
                ));
            }
            if let Some(m) = o.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{name}: {} is not finite", m.name));
            }
        }
    }
    Ok(())
}

/// Run the self-test; exit 0 only if every part passes.
pub fn run_self_test(ctx: &Ctx) -> ExitCode {
    match planted(ctx).and_then(|()| tiny_runs(ctx)) {
        Ok(()) => {
            println!("self-test: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("self-test FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
