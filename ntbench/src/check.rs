//! The output check every run must pass.
//!
//! * the server's live certificate (`CERT`) is ok wherever the certifier
//!   runs;
//! * an independent `SgtMaintainer` replay of the fetched history is ok;
//! * every top the client saw acknowledged as committed is committed in
//!   that history;
//! * post-hoc `certify_recorded` (Theorem 17) passes, on histories small
//!   enough for its super-linear cost.

use crate::serve::{conn_id, patient};
use nt_model::{Action, TxId, TxTree};
use nt_net::wire::{encode_request, parse_response, FrameReader, Request, Response};
use nt_net::{certify_history, Conn};
use nt_obs::json::Json;
use nt_sgt_live::{SgtConfig, SgtMaintainer};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest history (in tops) the post-hoc Theorem 17 pass runs on.
/// Its cost is super-linear: ~0.2 s at 500 tops, ~4 s at 2,000.
pub const POSTHOC_MAX_TOPS: usize = 1500;

/// A history fetched from the server.
pub struct History {
    /// The naming tree.
    pub tree: TxTree,
    /// The merged action log.
    pub actions: Vec<Action>,
}

impl History {
    /// Top-level transactions in the tree.
    pub fn tops(&self) -> usize {
        self.tree.children(TxId::ROOT).len()
    }
}

/// What the history check found.
#[derive(Default)]
pub struct Verdict {
    /// Every violation, one line each (empty: the output is correct).
    pub problems: Vec<String>,
    /// Wall time of the maintainer's `apply` calls over the history, ns.
    pub apply_ns: u64,
    /// Largest root-graph node count the maintainer held.
    pub peak_nodes: usize,
    /// Did the post-hoc pass run (and pass)?
    pub posthoc: Option<bool>,
}

/// Fetch the recorded history over the wire. A long run's history
/// exceeds the 4 MiB frame cap `Conn` reads with, so this reads the one
/// reply with a cap sized for the run.
pub fn fetch_history(addr: &str) -> Result<History, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("fetch connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let seq = Conn::seq_base(conn_id());
    let frame = encode_request(seq, &Request::HistoryFetch).map_err(|e| e.to_string())?;
    stream.write_all(&frame).map_err(|e| e.to_string())?;
    let reply = FrameReader::new()
        .read_frame(&mut stream, 1 << 30)
        .map_err(|e| format!("history fetch: {e}"))?
        .ok_or("server closed during history fetch")?;
    match parse_response(&reply).map_err(|e| e.to_string())? {
        (s, Response::History(doc)) if s == seq => {
            let (tree, actions) = doc.into_run().map_err(|e| e.to_string())?;
            Ok(History { tree, actions })
        }
        (_, other) => Err(format!("expected History, got {other:?}")),
    }
}

/// Fetch a JSON document (`STATS` or `CERT`) and parse it.
pub fn fetch_json(addr: &str, cert: bool) -> Result<Json, String> {
    let mut conn =
        Conn::connect(addr, conn_id(), patient()).map_err(|e| format!("connect: {e}"))?;
    let what = if cert { "CERT" } else { "STATS" };
    let text = if cert { conn.cert() } else { conn.stats() }.map_err(|e| format!("{what}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("bad document: {e}"))
}

/// Numeric field of a JSON object, 0 when absent.
pub fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// Check the live certificate: `mode` live and `ok` true.
pub fn cert_problems(cert: &Json) -> Vec<String> {
    let mode = cert.get("mode").and_then(Json::as_str).unwrap_or("?");
    if mode != "live" {
        return vec![format!("CERT mode is {mode:?}, expected \"live\"")];
    }
    if cert.get("ok") != Some(&Json::Bool(true)) {
        return vec![format!(
            "CERT verdict is not ok: {:?}",
            cert.get("violation")
        )];
    }
    Vec::new()
}

/// Check a history against the tops the client saw acknowledged.
pub fn check_history(h: &History, acked: &[u32], posthoc: bool) -> Verdict {
    let mut v = Verdict::default();
    let mut m = SgtMaintainer::new(SgtConfig::default());
    m.seed_tree(&h.tree);
    let t0 = Instant::now();
    for (i, a) in h.actions.iter().enumerate() {
        m.apply(i as u64, a.clone());
        if i % 64 == 0 {
            v.peak_nodes = v.peak_nodes.max(m.node_count());
        }
    }
    m.flush();
    v.apply_ns = t0.elapsed().as_nanos() as u64;
    v.peak_nodes = v.peak_nodes.max(m.node_count());
    if let Some(rep) = m.violation() {
        v.problems
            .push(format!("SgtMaintainer replay: {}", rep.summary()));
    }
    if m.processed() != h.actions.len() as u64 {
        v.problems.push(format!(
            "SgtMaintainer processed {} of {} actions",
            m.processed(),
            h.actions.len()
        ));
    }
    let committed: BTreeSet<u32> = h
        .actions
        .iter()
        .filter_map(|a| match a {
            Action::Commit(t) => Some(t.0),
            _ => None,
        })
        .collect();
    let missing: Vec<u32> = acked
        .iter()
        .copied()
        .filter(|t| !committed.contains(t))
        .collect();
    if !missing.is_empty() {
        v.problems.push(format!(
            "{} acknowledged commits missing from the history (first: T{})",
            missing.len(),
            missing[0]
        ));
    }
    if posthoc && h.tops() <= POSTHOC_MAX_TOPS {
        let ok = certify_history(&h.tree, &h.actions).is_serially_correct();
        if !ok {
            v.problems
                .push("post-hoc certify_recorded rejected the history".to_string());
        }
        v.posthoc = Some(ok);
    }
    v
}
