//! The load generator: one client thread per connection replays seeded
//! templates through `nt_net::Conn`, closed loop, and records an exact
//! latency sample per committed top.
//!
//! A top is one operation. It is *attempted* one or more times: an
//! attempt ends committed, aborted (deadlock victim or doomed subtree,
//! retried with backoff up to `top_retries` times), refused by an error
//! reply, or cut by a transport error. Every attempt that does not
//! commit counts in `failed_attempts`; a top none of whose attempts
//! commits counts in `failed_tops`.

use crate::serve::conn_id;
use crate::stats::{percentile, ratio};
use crate::workload::{stripe, TNode};
use nt_faults::BackoffPolicy;
use nt_net::wire::{Request, Response, WireError};
use nt_net::{Conn, ConnConfig, LoadConfig};
use std::time::{Duration, Instant};

/// How one phase drives its connections.
#[derive(Clone, Copy)]
pub struct PhaseOpts {
    /// Length of the phase: no top starts after it.
    pub seconds: f64,
    /// Stop after this many tops across connections (0: no cap).
    pub max_tops: usize,
    /// Record client spans around every `Conn` call.
    pub trace: bool,
}

/// One client span: a `Conn` call made on behalf of one top attempt.
pub struct Span {
    /// `connection << 32 | top index` within the phase.
    pub top: u64,
    /// Attempt number of that top, from 0.
    pub attempt: u32,
    /// `send`, `send_batch`, `recv` or `request`.
    pub call: &'static str,
    /// Start, ns since the phase began.
    pub t0_ns: u64,
    /// End, ns since the phase began.
    pub t1_ns: u64,
}

/// What a phase measured.
#[derive(Default)]
pub struct Tally {
    /// Latency of every committed top, µs: first send to the top-level
    /// COMMIT ack, retries included.
    pub lat_us: Vec<u64>,
    /// Tops started.
    pub tops: u64,
    /// Tops that never committed.
    pub failed_tops: u64,
    /// Top attempts started.
    pub attempts: u64,
    /// Attempts ended by an abort.
    pub aborted: u64,
    /// Attempts ended by an error reply.
    pub refused: u64,
    /// Attempts ended by a transport error.
    pub transport: u64,
    /// Blocking round trips (a pipelined run of sends counts once).
    pub rtts: u64,
    /// Frames re-sent after a receive timeout.
    pub resends: u64,
    /// Top-level ids the server acknowledged as committed.
    pub acked: Vec<u32>,
    /// Client spans (traced phases only).
    pub spans: Vec<Span>,
    /// Phase wall time, seconds.
    pub wall_s: f64,
    /// The first transport or protocol failure, if any.
    pub error: Option<String>,
}

impl Tally {
    /// Merge `o` into this tally (wall time is left to the caller).
    pub fn absorb(&mut self, o: Tally) {
        self.lat_us.extend(o.lat_us);
        self.tops += o.tops;
        self.failed_tops += o.failed_tops;
        self.attempts += o.attempts;
        self.aborted += o.aborted;
        self.refused += o.refused;
        self.transport += o.transport;
        self.rtts += o.rtts;
        self.resends += o.resends;
        self.acked.extend(o.acked);
        self.spans.extend(o.spans);
        self.error = self.error.take().or(o.error);
    }

    /// Attempts that did not commit.
    pub fn failed_attempts(&self) -> u64 {
        self.aborted + self.refused + self.transport
    }

    /// Committed tops.
    pub fn committed(&self) -> u64 {
        self.lat_us.len() as u64
    }

    /// The end-to-end figures of the phase over every committed top:
    /// `(tops/s of phase wall time, p50 µs, p99 µs)`, exact percentiles.
    pub fn figures(&self) -> (f64, f64, f64) {
        let mut lat = self.lat_us.clone();
        lat.sort_unstable();
        (
            ratio(lat.len() as f64, self.wall_s),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0),
        )
    }
}

/// How an attempt's subtree walk ended.
enum Flow {
    Done,
    /// Unwind to the frame of this dead transaction.
    To(u32),
    /// The server answered with an error reply.
    Refused,
}

/// How one top attempt ended.
enum End {
    Committed(u32),
    Aborted,
    Refused,
}

struct Client {
    conn: Conn,
    cfg: ConnConfig,
    batch: usize,
    epoch: Instant,
    trace: bool,
    top: u64,
    attempt: u32,
    tally: Tally,
}

impl Client {
    fn span<T>(&mut self, call: &'static str, f: impl FnOnce(&mut Conn) -> T) -> T {
        if !self.trace {
            return f(&mut self.conn);
        }
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut self.conn);
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        self.tally.spans.push(Span {
            top: self.top,
            attempt: self.attempt,
            call,
            t0_ns: t0,
            t1_ns: t1,
        });
        out
    }

    fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        self.tally.rtts += 1;
        self.span("request", |c| c.request(req))
    }

    fn children(&mut self, parent: u32, kids: &[TNode]) -> Result<Flow, WireError> {
        let mut i = 0;
        while i < kids.len() {
            if matches!(kids[i], TNode::Access(..)) {
                // A maximal run of sibling accesses is pipelined: every
                // request (or BATCH frame) goes out, then every reply is
                // awaited — one round trip for the run.
                let mut reqs = Vec::new();
                while let Some(TNode::Access(obj, op)) = kids.get(i) {
                    reqs.push(Request::Access {
                        parent,
                        obj: *obj,
                        op: op.clone(),
                    });
                    i += 1;
                }
                let mut seqs = Vec::with_capacity(reqs.len());
                if self.batch > 1 {
                    for chunk in reqs.chunks(self.batch) {
                        seqs.extend(self.span("send_batch", |c| c.send_batch(chunk))?);
                    }
                } else {
                    for req in &reqs {
                        seqs.push(self.span("send", |c| c.send(req))?);
                    }
                }
                self.tally.rtts += 1;
                let mut flow = Flow::Done;
                for seq in seqs {
                    match self.span("recv", |c| c.recv(seq))? {
                        Response::AccessOk { .. } => {}
                        Response::Aborted { victim } => {
                            if matches!(flow, Flow::Done) {
                                flow = Flow::To(victim);
                            }
                        }
                        Response::Error { .. } => flow = Flow::Refused,
                        other => return Err(unexpected("access", &other)),
                    }
                }
                if !matches!(flow, Flow::Done) {
                    return Ok(flow);
                }
                continue;
            }
            let TNode::Sub(grandkids) = &kids[i] else {
                unreachable!("accesses handled above")
            };
            i += 1;
            let child = match self.request(&Request::BeginChild { parent })? {
                Response::Begun { tx } => tx,
                Response::Aborted { victim } => return Ok(Flow::To(victim)),
                Response::Error { .. } => return Ok(Flow::Refused),
                other => return Err(unexpected("begin", &other)),
            };
            let flow = match self.children(child, grandkids)? {
                Flow::Done => match self.request(&Request::Commit { tx: child })? {
                    Response::Committed => Flow::Done,
                    Response::Aborted { victim } => Flow::To(victim),
                    Response::Error { .. } => Flow::Refused,
                    other => return Err(unexpected("commit", &other)),
                },
                other => other,
            };
            match flow {
                Flow::Done => {}
                // Unwound exactly to this child: its subtree is gone and
                // its siblings continue (abort containment).
                Flow::To(victim) if victim == child => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Done)
    }

    fn attempt(&mut self, template: &TNode) -> Result<End, WireError> {
        let TNode::Sub(kids) = template else {
            unreachable!("tops are inner transactions")
        };
        let top = match self.request(&Request::BeginTop)? {
            Response::Begun { tx } => tx,
            Response::Error { .. } => return Ok(End::Refused),
            other => return Err(unexpected("begin", &other)),
        };
        let flow = match self.children(top, kids)? {
            Flow::Done => match self.request(&Request::Commit { tx: top })? {
                Response::Committed => return Ok(End::Committed(top)),
                Response::Aborted { .. } => Flow::To(top),
                Response::Error { .. } => Flow::Refused,
                other => return Err(unexpected("commit", &other)),
            },
            other => other,
        };
        match flow {
            Flow::Refused => {
                // Release whatever the refused top still holds.
                let _ = self.request(&Request::Abort { tx: top })?;
                Ok(End::Refused)
            }
            _ => Ok(End::Aborted),
        }
    }
}

fn unexpected(what: &str, got: &Response) -> WireError {
    WireError::BadPayload(format!("expected {what} reply, got {got:?}"))
}

/// Drive one phase against `addr`: connection `c` replays its stripe of
/// `pool` from template `offset` on, cycling. Connections are opened
/// before the clock starts.
pub fn run_phase(
    addr: &str,
    load: &LoadConfig,
    pool: &[TNode],
    offset: usize,
    opts: PhaseOpts,
) -> Tally {
    let conns = load.connections;
    let cfg = ConnConfig::from(load);
    let mut opened = Vec::with_capacity(conns);
    for _ in 0..conns {
        match Conn::connect(addr, conn_id(), cfg) {
            Ok(c) => opened.push(c),
            Err(e) => {
                return Tally {
                    error: Some(format!("connect: {e}")),
                    ..Tally::default()
                }
            }
        }
    }
    let per_conn_cap = if opts.max_tops == 0 {
        usize::MAX
    } else {
        opts.max_tops.div_ceil(conns)
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    let handles: Vec<_> = opened
        .into_iter()
        .enumerate()
        .map(|(c, conn)| {
            let mine = stripe(pool, c, conns);
            let client = Client {
                conn,
                cfg,
                batch: load.batch.max(1),
                epoch: start,
                trace: opts.trace,
                top: 0,
                attempt: 0,
                tally: Tally::default(),
            };
            let retries = load.top_retries;
            let backoff = load.backoff;
            let round_us = load.backoff_round_us;
            let addr = addr.to_string();
            std::thread::spawn(move || {
                drive_conn(
                    client,
                    &addr,
                    c,
                    &mine,
                    offset,
                    (end, per_conn_cap),
                    (retries, backoff, round_us),
                )
            })
        })
        .collect();
    let mut tally = Tally::default();
    for h in handles {
        match h.join() {
            Ok(t) => tally.absorb(t),
            Err(_) => tally.error = Some("client thread panicked".to_string()),
        }
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    tally
}

fn drive_conn(
    mut client: Client,
    addr: &str,
    c: usize,
    mine: &[TNode],
    offset: usize,
    (end, cap): (Instant, usize),
    (retries, backoff, round_us): (u32, BackoffPolicy, u64),
) -> Tally {
    for k in 0..cap {
        let first = Instant::now();
        if first >= end {
            break;
        }
        let template = &mine[(offset + k) % mine.len()];
        client.top = ((c as u64) << 32) | k as u64;
        client.tally.tops += 1;
        let mut committed = false;
        for attempt in 0..=retries {
            client.attempt = attempt;
            client.tally.attempts += 1;
            match client.attempt(template) {
                Ok(End::Committed(tx)) => {
                    let us = first.elapsed().as_micros() as u64;
                    client.tally.lat_us.push(us);
                    client.tally.acked.push(tx);
                    committed = true;
                    break;
                }
                Ok(End::Aborted) => {
                    client.tally.aborted += 1;
                    std::thread::sleep(Duration::from_micros(
                        backoff.delay(attempt + 1) * round_us,
                    ));
                }
                Ok(End::Refused) => {
                    client.tally.refused += 1;
                    break;
                }
                Err(e) => {
                    client.tally.transport += 1;
                    client.tally.error.get_or_insert_with(|| e.to_string());
                    // The server aborts what a closed connection left
                    // open; carry on over a fresh one.
                    match Conn::connect(addr, conn_id(), client.cfg) {
                        Ok(conn) => {
                            fold_conn(&mut client.tally, &client.conn);
                            client.conn = conn;
                        }
                        Err(_) => {
                            client.tally.failed_tops += 1;
                            return client.tally;
                        }
                    }
                }
            }
        }
        if !committed {
            client.tally.failed_tops += 1;
        }
    }
    fold_conn(&mut client.tally, &client.conn);
    client.tally
}

fn fold_conn(tally: &mut Tally, conn: &Conn) {
    tally.resends += conn.retries;
}
