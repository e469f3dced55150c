//! The traced run's per-layer cost ledger.
//!
//! Every layer is measured from outside, by timing calls into its public
//! API; nothing is probed inside the program.
//!
//! * `wire` — `nt_net::wire` encode + parse of every frame the engine
//!   replay exchanged and of its reply, `BATCH` frames included;
//! * `front` — idle `PING` round trip over `Conn`, round trips and
//!   frames per top (client count and server `STATS`), and the residual:
//!   mean top latency minus every other layer's µs per top;
//! * `engine` — an in-process replay of the same seeded templates with
//!   the same session count through `Session`/`SessionEngine`, paced by
//!   the idle `PING` round trip, with a span around every call (self
//!   time excludes the store's share);
//! * `store` — a timing `ActionSink` around the replay's `Wal`, timed
//!   `append_cache`/`wait_durable` calls where the server makes them,
//!   the server's WAL counters, and `nt_store::analyze` on a data dir;
//! * `sgt_live` — `SgtMaintainer::apply` over the fetched history, and
//!   the server certifier's own `check_us` from `CERT`.
//!
//! The ledger charges a layer only where the workload's server runs it:
//! on a workload without a data dir the store's per-call costs are still
//! measured (the replay always mounts a `Wal`), but its µs per top is 0.

use crate::check::{fetch_json, num, History, Verdict};
use crate::drive::{Span, Tally};
use crate::serve::conn_id;
use crate::stats::{json_num, mean, median, metric, percentile, quote, ratio, Metric};
use crate::workload::{stripe, TNode, Workload};
use crate::{dir_bytes, Ctx, RunSpec};
use nt_engine::{
    AccessOutcome, ActionSink, BeginOutcome, CommitOutcome, SeqClock, Session, SessionEngine,
    SessionError,
};
use nt_model::{Action, ObjId, Op, TxId, TxTree};
use nt_net::wire::{
    decode_batch_request, decode_batch_response, encode_batch_request, encode_batch_response,
    encode_request, encode_response, parse_frame, parse_request, parse_response, BatchEntry,
    Request, Response, HEADER_LEN,
};
use nt_net::{certify_history, Conn, ConnConfig};
use nt_obs::json::Json;
use nt_sgt_live::{LiveCertifier, SgtConfig};
use nt_store::{Store, Wal};
use nt_telemetry::TelemetryHandle;
use std::cell::Cell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tops per engine replay round, split across the sessions.
const REPLAY_TOPS: usize = 1000;
/// Engine replay rounds (fresh engine and data dir each); medians are
/// reported.
const REPLAY_ROUNDS: usize = 3;

/// Server-side counters read around the traced phase.
pub struct Probe {
    stats: Json,
    cert: Option<Json>,
    dir_bytes: u64,
}

impl Probe {
    /// Read `STATS`, `CERT` (when the certifier runs) and the data dir size.
    pub fn take(addr: &str, wl: &Workload, data_dir: Option<&Path>) -> Result<Probe, String> {
        Ok(Probe {
            stats: fetch_json(addr, false)?,
            cert: if wl.server.live_certify {
                Some(fetch_json(addr, true)?)
            } else {
                None
            },
            dir_bytes: data_dir.map(dir_bytes).unwrap_or(0),
        })
    }

    fn stat(&self, key: &str) -> f64 {
        num(&self.stats, key)
    }
}

/// Median round trip of a `PING` on an idle server, µs.
pub fn ping_rtt_us(addr: &str) -> Result<f64, String> {
    let mut conn = Conn::connect(addr, conn_id(), ConnConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    let mut rtts = Vec::with_capacity(1000);
    for i in 0..1200 {
        let t0 = Instant::now();
        match conn.request(&Request::Ping) {
            Ok(Response::Pong) => {}
            other => return Err(format!("ping: {other:?}")),
        }
        if i >= 200 {
            rtts.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        }
    }
    Ok(median(&rtts))
}

// --- wire ---------------------------------------------------------------

/// One frame the replay exchanged: its request ops and their replies.
/// A batched workload sends every access run as `BATCH` frames.
struct Frame {
    batch: bool,
    reqs: Vec<Request>,
    resps: Vec<Response>,
}

/// Encode the request frame, parse it, encode the reply, parse it — the
/// codec work of one exchange on both ends. Returns the bytes moved.
fn codec_once(seq: u64, f: &Frame) -> usize {
    if !f.batch {
        let req = encode_request(seq, &f.reqs[0]).expect("request encodes");
        black_box(parse_request(&req[4..]).expect("request parses"));
        let resp = encode_response(seq, &f.resps[0]).expect("reply encodes");
        black_box(parse_response(&resp[4..]).expect("reply parses"));
        return req.len() + resp.len();
    }
    let ops: Vec<(u64, Request)> = f
        .reqs
        .iter()
        .enumerate()
        .map(|(i, r)| (seq + 1 + i as u64, r.clone()))
        .collect();
    let req = encode_batch_request(seq, &ops).expect("batch encodes");
    let (_, _, body) = parse_frame(&req[4..]).expect("batch frame parses");
    black_box(decode_batch_request(body).expect("batch decodes"));
    let entries: Vec<BatchEntry> = f
        .resps
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let frame = encode_response(seq + 1 + i as u64, r).expect("member encodes");
            BatchEntry {
                seq: seq + 1 + i as u64,
                kind: r.kind(),
                body: frame[4 + HEADER_LEN..].to_vec(),
            }
        })
        .collect();
    let resp = encode_batch_response(seq, &entries);
    let (_, _, body) = parse_frame(&resp[4..]).expect("batch reply parses");
    black_box(decode_batch_response(body).expect("batch reply decodes"));
    req.len() + resp.len()
}

struct WireCost {
    us_per_frame: f64,
    us_per_top: f64,
    bytes_per_top: f64,
}

/// The codec over every frame one replay round exchanged (aborted
/// attempts' frames included), per frame and per committed top.
fn wire_cost(frames: &[Frame], tops: u64) -> WireCost {
    let mut bytes = 0;
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        bytes = 0;
        for (k, f) in frames.iter().enumerate() {
            bytes += codec_once(k as u64 * 64, f);
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / 1000.0);
    }
    let total_us = median(&rounds);
    WireCost {
        us_per_frame: ratio(total_us, frames.len() as f64),
        us_per_top: ratio(total_us, tops as f64),
        bytes_per_top: ratio(bytes as f64, tops as f64),
    }
}

// --- engine + store replay ---------------------------------------------

thread_local! {
    /// Time this thread spent inside the WAL sink, ns.
    static SINK_NS: Cell<u64> = const { Cell::new(0) };
    /// WAL sink calls made by this thread.
    static SINK_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn charge_sink(t0: Instant) {
    let ns = t0.elapsed().as_nanos() as u64;
    SINK_NS.with(|c| c.set(c.get() + ns));
    SINK_CALLS.with(|c| c.set(c.get() + 1));
}

/// The replay's WAL, timed: every append the engine makes goes through.
struct TimingSink(Arc<Wal>);

impl ActionSink for TimingSink {
    fn append_action(&self, clock: &SeqClock, action: &Action) -> u64 {
        let t0 = Instant::now();
        let stamp = self.0.append_action(clock, action);
        charge_sink(t0);
        stamp
    }

    fn append_tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, &Op)>) {
        let t0 = Instant::now();
        self.0.append_tree_add(t, parent, access);
        charge_sink(t0);
    }
}

/// One session's replay totals.
#[derive(Default)]
struct Replayed {
    tops: u64,
    engine_ns: u64,
    access_ns: Vec<u64>,
    lock_wait_us: u64,
    append_ns: u64,
    appends: u64,
    barrier_ns: u64,
    barriers: u64,
    frames: Vec<Frame>,
}

impl Replayed {
    fn absorb(&mut self, o: Replayed) {
        self.tops += o.tops;
        self.engine_ns += o.engine_ns;
        self.access_ns.extend(o.access_ns);
        self.lock_wait_us += o.lock_wait_us;
        self.append_ns += o.append_ns;
        self.appends += o.appends;
        self.barrier_ns += o.barrier_ns;
        self.barriers += o.barriers;
        self.frames.extend(o.frames);
    }
}

enum Flow {
    Done,
    To(TxId),
}

/// How much longer than asked a short `thread::sleep` takes (timer slack
/// and wake-up), median of 200.
fn sleep_overshoot() -> Duration {
    let asked = Duration::from_micros(1);
    let mut over = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        std::thread::sleep(asked);
        over.push(t0.elapsed().saturating_sub(asked).as_nanos() as f64);
    }
    Duration::from_nanos(median(&over) as u64)
}

/// Drives one `Session` the way the server executes a connection's
/// requests: every mutating call is followed by the reply's
/// `append_cache`, and a barrier per frame (one per `BATCH`). Before each
/// blocking round trip the served client makes, the session waits out
/// the measured idle `PING` round trip, so its store barriers and lock
/// holds are spaced as the served ones are.
struct Replayer<'a> {
    session: Session,
    store: &'a Store,
    batch: usize,
    /// What to ask `thread::sleep` for so that the wait lasts about one
    /// idle `PING` round trip.
    gap: Duration,
    seq: u64,
    out: Replayed,
}

impl Replayer<'_> {
    /// Time one `Session` call: self time excludes the sink's share.
    fn engine<T>(&mut self, f: impl FnOnce(&mut Session) -> T) -> (T, u64) {
        let sink0 = SINK_NS.with(Cell::get);
        let t0 = Instant::now();
        let out = f(&mut self.session);
        let ns = t0.elapsed().as_nanos() as u64;
        let sink = SINK_NS.with(Cell::get) - sink0;
        self.out.engine_ns += ns.saturating_sub(sink);
        self.out.lock_wait_us += self.session.take_lock_wait_us();
        (out, ns)
    }

    /// Wait out one round trip, blocked as the served client is.
    fn round_trip(&self) {
        std::thread::sleep(self.gap);
    }

    /// The server's store work for one answered mutating request.
    fn reply(&mut self, resp: &Response, barrier: bool) {
        self.seq += 1;
        let bytes = encode_response(self.seq, resp).expect("reply encodes");
        let t0 = Instant::now();
        self.store.append_cache(self.seq, &bytes);
        self.out.append_ns += t0.elapsed().as_nanos() as u64;
        self.out.appends += 1;
        if barrier {
            self.barrier();
        }
    }

    /// A one-op frame: its reply's store work, and the frame itself.
    fn single(&mut self, req: Request, resp: Response) {
        self.reply(&resp, true);
        self.out.frames.push(Frame {
            batch: false,
            reqs: vec![req],
            resps: vec![resp],
        });
    }

    fn barrier(&mut self) {
        let t0 = Instant::now();
        self.store.wait_durable();
        self.out.barrier_ns += t0.elapsed().as_nanos() as u64;
        self.out.barriers += 1;
    }

    fn children(&mut self, parent: TxId, kids: &[TNode]) -> Result<Flow, SessionError> {
        let batched = self.batch > 1;
        let mut i = 0;
        while i < kids.len() {
            if matches!(kids[i], TNode::Access(..)) {
                let mut run = Vec::new();
                while let Some(TNode::Access(obj, op)) = kids.get(i) {
                    run.push((*obj, op.clone()));
                    i += 1;
                }
                // The client pipelines the run: one round trip for all of it.
                self.round_trip();
                let mut flow = Flow::Done;
                for chunk in run.chunks(self.batch) {
                    let mut frame = Frame {
                        batch: batched,
                        reqs: Vec::with_capacity(chunk.len()),
                        resps: Vec::with_capacity(chunk.len()),
                    };
                    for (obj, op) in chunk {
                        let (out, ns) = self.engine(|s| s.access(parent, ObjId(*obj), op.clone()));
                        self.out.access_ns.push(ns);
                        let resp = match out? {
                            AccessOutcome::Done(value) => Response::AccessOk { value },
                            AccessOutcome::Aborted(v) => {
                                if matches!(flow, Flow::Done) {
                                    flow = Flow::To(v);
                                }
                                Response::Aborted { victim: v.0 }
                            }
                        };
                        self.reply(&resp, !batched);
                        frame.reqs.push(Request::Access {
                            parent: parent.0,
                            obj: *obj,
                            op: op.clone(),
                        });
                        frame.resps.push(resp);
                    }
                    if batched {
                        self.barrier();
                    }
                    self.out.frames.push(frame);
                }
                if let Flow::To(v) = flow {
                    return Ok(Flow::To(v));
                }
                continue;
            }
            let TNode::Sub(grandkids) = &kids[i] else {
                unreachable!("accesses handled above")
            };
            i += 1;
            let begin = Request::BeginChild { parent: parent.0 };
            self.round_trip();
            let child = match self.engine(|s| s.begin_child(parent)).0? {
                BeginOutcome::Fresh(t) => {
                    self.single(begin, Response::Begun { tx: t.0 });
                    t
                }
                BeginOutcome::Aborted(v) => {
                    self.single(begin, Response::Aborted { victim: v.0 });
                    return Ok(Flow::To(v));
                }
            };
            let flow = match self.children(child, grandkids)? {
                Flow::Done => self.commit(child)?,
                other => other,
            };
            match flow {
                Flow::To(v) if v != child => return Ok(Flow::To(v)),
                _ => {}
            }
        }
        Ok(Flow::Done)
    }

    fn commit(&mut self, tx: TxId) -> Result<Flow, SessionError> {
        let req = Request::Commit { tx: tx.0 };
        self.round_trip();
        Ok(match self.engine(|s| s.commit(tx)).0? {
            CommitOutcome::Committed => {
                self.single(req, Response::Committed);
                Flow::Done
            }
            CommitOutcome::Aborted(v) => {
                self.single(req, Response::Aborted { victim: v.0 });
                Flow::To(v)
            }
        })
    }

    fn attempt(&mut self, template: &TNode) -> Result<bool, SessionError> {
        let TNode::Sub(kids) = template else {
            unreachable!("tops are inner transactions")
        };
        self.round_trip();
        let top = self.engine(Session::begin_top).0?;
        self.single(Request::BeginTop, Response::Begun { tx: top.0 });
        if let Flow::To(_) = self.children(top, kids)? {
            return Ok(false);
        }
        Ok(matches!(self.commit(top)?, Flow::Done))
    }
}

/// One replay round: a fresh engine (and live certifier, where the
/// server runs one) over a fresh data dir, `REPLAY_TOPS` tops, each
/// session's round trips paced by `gap`.
fn replay_round(
    wl: &Workload,
    pool: &[TNode],
    dir: &Path,
    gap: Duration,
) -> Result<Replayed, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (store, recovered) =
        Store::open(dir, wl.server.durability).map_err(|e| format!("replay store: {e}"))?;
    let store = Arc::new(store);
    let live = wl
        .server
        .live_certify
        .then(|| LiveCertifier::start(SgtConfig::default(), TelemetryHandle::disabled()));
    let engine = SessionEngine::start_recovered(
        wl.server.capacity,
        wl.server.shards,
        Duration::from_micros(wl.server.detector_period_us),
        TelemetryHandle::enabled(1),
        recovered.seed,
        Some(Arc::new(TimingSink(Arc::clone(store.wal())))),
        live.as_ref().map(LiveCertifier::handle),
    )
    .map_err(|e| format!("replay engine: {e:?}"))?;
    let sessions = wl.load.connections.max(1);
    let per_session = REPLAY_TOPS.div_ceil(sessions);
    let handles: Vec<_> = (0..sessions)
        .map(|c| {
            let mine = stripe(pool, c, sessions);
            let engine = Arc::clone(&engine);
            let store = Arc::clone(&store);
            let (batch, retries, backoff, round_us) = (
                wl.load.batch.max(1),
                wl.load.top_retries,
                wl.load.backoff,
                wl.load.backoff_round_us,
            );
            std::thread::spawn(move || -> Result<Replayed, String> {
                let mut r = Replayer {
                    session: engine.open_session(),
                    store: &store,
                    batch,
                    gap,
                    seq: Conn::seq_base(c as u64),
                    out: Replayed::default(),
                };
                for template in mine.iter().cycle().take(per_session) {
                    for attempt in 0..=retries {
                        if r.attempt(template).map_err(|e| e.to_string())? {
                            r.out.tops += 1;
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(
                            backoff.delay(attempt + 1) * round_us,
                        ));
                    }
                }
                r.out.append_ns += SINK_NS.with(Cell::get);
                r.out.appends += SINK_CALLS.with(Cell::get);
                Ok(r.out)
            })
        })
        .collect();
    let mut total = Replayed::default();
    for h in handles {
        total.absorb(h.join().map_err(|_| "replay thread panicked")??);
    }
    engine.flush_feeds();
    if let Some(lc) = live {
        let (status, _) = lc.stop();
        if !status.ok {
            return Err("replay certifier found a violation".to_string());
        }
    }
    engine.shutdown();
    drop(engine);
    store.close();
    Ok(total)
}

// --- store recovery -----------------------------------------------------

/// `nt_store::analyze` on `dir` (median of three), and the
/// `certify_recorded` share: the same Theorem 17 pass over the recovered
/// history, timed on its own.
fn recovery_cost(dir: &Path) -> Result<(f64, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = nt_store::analyze(dir).map_err(|e| format!("analyze: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    let r = last.expect("three passes");
    let objects = r
        .seed
        .nodes
        .iter()
        .filter_map(|(_, a)| a.as_ref().map(|(x, _)| x.0 + 1))
        .max()
        .unwrap_or(0);
    let mut tree = TxTree::new();
    tree.add_objects(objects as usize);
    for (parent, access) in &r.seed.nodes {
        match access {
            None => tree.add_inner(*parent),
            Some((x, op)) => tree.add_access(*parent, *x, op.clone()),
        };
    }
    let actions: Vec<Action> = r.seed.entries.iter().map(|(_, a)| a.clone()).collect();
    let t0 = Instant::now();
    let ok = certify_history(&tree, &actions).is_serially_correct();
    let recertify_s = t0.elapsed().as_secs_f64();
    if !ok {
        return Err("recovered history fails certify_recorded".to_string());
    }
    Ok((median(&times), recertify_s))
}

// --- the ledger ---------------------------------------------------------

/// Everything the traced run gathered.
pub struct Inputs<'a> {
    pub ctx: &'a Ctx,
    pub wl: &'a Workload,
    pub spec: RunSpec<'a>,
    pub pool: &'a [TNode],
    /// The untraced half of the timed phase.
    pub reference: &'a Tally,
    /// The traced half.
    pub traced: &'a Tally,
    pub before: &'a Probe,
    pub after: &'a Probe,
    pub history: &'a History,
    pub verdict: &'a Verdict,
    pub ping_rtt_us: f64,
    /// `durable`: the warm phase's data dir.
    pub warm_dir: Option<&'a Path>,
    pub run_dir: &'a Path,
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::with_capacity(spans.len() * 64);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"top\":{},\"attempt\":{},\"call\":\"{}\",\"t0_ns\":{},\"t1_ns\":{}}}",
            s.top, s.attempt, s.call, s.t0_ns, s.t1_ns
        );
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measure every layer, print the ledger, and return the per-layer
/// metrics in `BENCHMARK.json` order.
///
/// A ledger whose layers add up to more than the measured top latency (a
/// negative residual) has charged some layer for time the served tops did
/// not spend in it. It is printed and recorded as failed, and names no
/// layer's cost; the run's output check is not affected.
pub fn ledger(inp: Inputs<'_>) -> Result<Vec<Metric>, String> {
    let (wl, t) = (inp.wl, inp.traced);
    let (before, after) = (inp.before, inp.after);
    let committed = t.committed() as f64;
    let per_top = |x: f64| ratio(x, committed);
    let delta = |key: &str| after.stat(key) - before.stat(key);

    let rtt = Duration::from_nanos((inp.ping_rtt_us * 1000.0) as u64);
    let gap = rtt
        .saturating_sub(sleep_overshoot())
        .max(Duration::from_nanos(1));
    let mut rounds = Vec::with_capacity(REPLAY_ROUNDS);
    let replay_dir = inp.run_dir.join("replay");
    for _ in 0..REPLAY_ROUNDS {
        rounds.push(replay_round(wl, inp.pool, &replay_dir, gap)?);
    }
    let wire = wire_cost(&rounds[0].frames, rounds[0].tops);
    let med = |f: &dyn Fn(&Replayed) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let engine_us_per_top = med(&|r| ratio(r.engine_ns as f64 / 1000.0, r.tops as f64));
    let access_p99_us = med(&|r| {
        let mut a = r.access_ns.clone();
        a.sort_unstable();
        percentile(&a, 99.0) / 1000.0
    });
    let lock_wait_us_per_top = med(&|r| ratio(r.lock_wait_us as f64, r.tops as f64));
    let append_us = med(&|r| ratio(r.append_ns as f64 / 1000.0, r.appends as f64));
    let barrier_us = med(&|r| ratio(r.barrier_ns as f64 / 1000.0, r.barriers as f64));
    let store_us_per_top =
        med(&|r| ratio((r.append_ns + r.barrier_ns) as f64 / 1000.0, r.tops as f64));
    let (recover_s, recertify_s) = recovery_cost(inp.warm_dir.unwrap_or(&replay_dir))?;

    let hist_tops = inp.history.tops() as f64;
    let actions = inp.history.actions.len() as f64;
    let apply_us = ratio(inp.verdict.apply_ns as f64 / 1000.0, actions);
    let actions_per_top = ratio(actions, hist_tops);
    let check_us_per_top = match (&before.cert, &after.cert) {
        (Some(b), Some(a)) => per_top(num(a, "check_us") - num(b, "check_us")),
        _ => 0.0,
    };

    let mean_top_us = mean(&t.lat_us);
    let rtts_per_top = per_top(t.rtts as f64);
    let front_rtt_us = rtts_per_top * inp.ping_rtt_us;
    let store_charged = if wl.durable() { store_us_per_top } else { 0.0 };
    let residual = mean_top_us - wire.us_per_top - front_rtt_us - engine_us_per_top - store_charged;
    let adds_up = residual >= 0.0;

    let (ref_tput, ref_p50, ref_p99) = inp.reference.figures();
    let (tr_tput, tr_p50, tr_p99) = t.figures();
    let lines = [
        format!(
            "ledger {} seed={}: mean top {:.1} us over {} committed tops = wire {:.2} + front rtt {:.1} ({:.2} rtts x {:.1} us) + engine {:.2} + store {:.2} + residual {:.1}",
            wl.name, inp.spec.seed, mean_top_us, t.committed(), wire.us_per_top, front_rtt_us,
            rtts_per_top, inp.ping_rtt_us, engine_us_per_top, store_charged, residual
        ),
        format!(
            "ledger {} off the top's path: sgt_live {:.2} us/top",
            wl.name, check_us_per_top
        ),
        format!(
            "ledger {} tracing overhead (traced - untraced halves): tput {:+.1} tops/s ({:+.2}%), p50 {:+.1} us, p99 {:+.1} us",
            wl.name,
            tr_tput - ref_tput,
            100.0 * ratio(tr_tput - ref_tput, ref_tput),
            tr_p50 - ref_p50,
            tr_p99 - ref_p99
        ),
    ];
    for l in &lines {
        println!("{l}");
    }
    if !adds_up {
        println!(
            "ledger {} FAILED: the layers charged exceed the mean top latency by {:.1} us",
            wl.name, -residual
        );
    }

    let metrics = vec![
        metric("wire.codec_us", "us", wire.us_per_frame),
        metric("wire.bytes_per_top", "B", wire.bytes_per_top),
        metric("front.ping_rtt_us", "us", inp.ping_rtt_us),
        metric("front.rtts_per_top", "count", rtts_per_top),
        metric("front.frames_per_top", "count", per_top(delta("frames"))),
        metric("front.residual_us_per_top", "us", residual),
        metric("engine.us_per_top", "us", engine_us_per_top),
        metric("engine.access_p99_us", "us", access_p99_us),
        metric("engine.lock_wait_us_per_top", "us", lock_wait_us_per_top),
        metric(
            "engine.lock_blocks_per_top",
            "count",
            per_top(delta("lock_blocks")),
        ),
        metric(
            "engine.victims_per_ktop",
            "count",
            1000.0 * per_top(delta("victims")),
        ),
        metric("sgt_live.apply_us", "us", apply_us),
        metric("sgt_live.actions_per_top", "count", actions_per_top),
        metric("sgt_live.check_us_per_top", "us", check_us_per_top),
        metric(
            "sgt_live.peak_nodes",
            "count",
            inp.verdict.peak_nodes as f64,
        ),
        metric("store.append_us", "us", append_us),
        metric("store.barrier_us", "us", barrier_us),
        metric("store.syncs_per_top", "count", per_top(delta("wal_syncs"))),
        metric(
            "store.appends_per_top",
            "count",
            per_top(delta("wal_appended")),
        ),
        metric(
            "store.bytes_per_top",
            "B",
            per_top(after.dir_bytes.saturating_sub(before.dir_bytes) as f64),
        ),
        metric("store.recover_s", "s", recover_s),
        metric("store.recertify_s", "s", recertify_s),
        metric(
            "fail_frac",
            "ratio",
            ratio(t.failed_attempts() as f64, t.attempts as f64),
        ),
    ];

    std::fs::create_dir_all(&inp.ctx.out_dir).map_err(|e| e.to_string())?;
    write_spans(
        &inp.ctx.out_dir.join(format!("{}.spans.jsonl", wl.name)),
        &t.spans,
    )?;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", quote(m.name), json_num(m.value)))
        .collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"adds_up\": {}, \"ledger\": {}, \"tracing_overhead\": {{\"tput_tps\": {}, \"top_p50_us\": {}, \"top_p99_us\": {}}}, \"metrics\": {{{}}}}}\n",
        quote(&wl.name),
        inp.spec.seed,
        adds_up,
        quote(&lines.join(" | ")),
        json_num(tr_tput - ref_tput),
        json_num(tr_p50 - ref_p50),
        json_num(tr_p99 - ref_p99),
        body.join(", ")
    );
    let path = inp.ctx.out_dir.join(format!("{}.ledger.json", wl.name));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(metrics)
}
