//! nt-reactor: a readiness-based nonblocking server front end.
//!
//! A connection-per-thread server anti-scales: past a couple of
//! connections, every pipelined client costs two parked threads and a
//! kernel context switch per frame. This crate is the classic reactor
//! shape instead, hand-rolled over `poll(2)` (via `pollshim`, the
//! workspace's second and last unsafe FFI shim) so the workspace stays
//! dependency-free:
//!
//! - One **reactor thread** owns the listener and every connection. It
//!   polls for readiness, accepts nonblockingly, reads socket bytes into a
//!   per-connection [`FrameBuf`], and dispatches each complete
//!   length-prefixed frame to that connection's executor. It also owns all
//!   writes: replies from executors arrive on a completion queue (a
//!   self-pipe [`Waker`] interrupts the poll), are appended to
//!   per-connection output buffers, and are flushed with as few `write`
//!   syscalls as readiness allows — many replies **coalesce** into one
//!   syscall.
//! - **Executors** run the protocol logic, which the embedder supplies
//!   as a [`Service`] per connection via a [`ServiceFactory`]. Each
//!   connection gets its own executor thread, created at accept and
//!   exiting at hangup: a service may block on another connection's
//!   progress (two-phase lock waits), and a shared pool would let a
//!   blocked waiter starve the lock holder queued behind it. An executor
//!   runs its connection's frames in order, and when its queue runs dry it
//!   calls [`Service::flush`] — the natural group-commit point: a service
//!   can defer its durability barrier across a burst of frames and pay it
//!   once.
//!
//! Backpressure is by readiness, not blocking: a connection with more than
//! `queue_depth` dispatched-but-unanswered frames is simply removed from
//! the poll interest set until its backlog drains, which pushes the stall
//! into the client's TCP window.
//!
//! Ordering invariant (the one the certifier cares about): frames of one
//! connection are dispatched in arrival order to one executor, executed in
//! that order, and their replies are appended to the output buffer in
//! completion-queue order — so coalescing changes *when* bytes hit the
//! wire, never the per-connection execution or reply order, and the
//! engine's stamp order is untouched.

#![forbid(unsafe_code)]

mod buf;
mod waker;

pub use buf::{BadFrame, FrameBuf};
pub use waker::Waker;

use pollshim::{poll, PollFd, POLLIN, POLLOUT};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-`poll` timeout: wakes are delivered by the self-pipe, so this is
/// only a belt-and-braces bound on how long a lost wake could stall drain.
const POLL_TIMEOUT_MS: i32 = 500;

/// Read chunk size per readiness event.
const READ_CHUNK: usize = 16 * 1024;

/// Observer for reactor phase timings: called with a phase name
/// (`"poll_wait"`) and a duration in µs. The embedder maps this onto its
/// telemetry histograms.
pub type PhaseObserver = Arc<dyn Fn(&'static str, u64) + Send + Sync>;

/// Reactor tuning knobs.
pub struct ReactorConfig {
    /// Smallest acceptable declared frame length (protocol header size).
    pub min_frame_len: usize,
    /// Largest acceptable declared frame length.
    pub max_frame_len: usize,
    /// Per-connection cap on dispatched-but-unanswered frames; beyond it
    /// the connection leaves the poll interest set (readiness
    /// backpressure).
    pub queue_depth: usize,
    /// Optional phase-timing observer (`poll_wait`).
    pub phase: Option<PhaseObserver>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            min_frame_len: 1,
            max_frame_len: 1 << 22,
            queue_depth: 64,
            phase: None,
        }
    }
}

/// One connection's protocol state, owned by its executor thread. All
/// methods run on that thread; replies go through the [`ReplySink`]
/// handed to [`ServiceFactory::open`].
pub trait Service: Send {
    /// One complete frame (sans length prefix) arrived. `enqueued` is the
    /// reactor-thread dispatch instant, so the service can report real
    /// dispatch→execution queue wait. The service may reply now via the
    /// sink or buffer the reply until [`Service::flush`]; either way every
    /// frame must be accounted for exactly once through
    /// `ReplySink::send`'s `frames_done`, however many replies it produced
    /// (an intentionally unanswered frame — e.g. a fault-plan drop — sends
    /// empty bytes with `frames_done = 1`).
    fn frame(&mut self, frame: Vec<u8>, enqueued: Instant);

    /// The executor's queue ran dry after a burst of frames: emit
    /// buffered replies. This is the group-commit point —
    /// a durability barrier paid here covers every frame since the last
    /// flush.
    fn flush(&mut self) {}

    /// The stream past this point cannot be framed (corrupt length
    /// prefix). Typically: flush buffered replies, send a protocol error
    /// (`frames_done = 1` — the reactor dispatched the corruption as one
    /// unit of work), then `ReplySink::close`.
    fn corrupt(&mut self, bad: BadFrame) {
        let _ = bad;
    }

    /// The connection is gone (peer EOF, write failure, drain, or a
    /// service-requested close): release whatever it held. `frames` is the
    /// total number of frames dispatched over the connection's lifetime.
    fn hangup(&mut self, frames: u64) {
        let _ = frames;
    }
}

/// Builds one [`Service`] per accepted connection.
pub trait ServiceFactory: Send + Sync + 'static {
    /// Called on the reactor thread at accept time. `conn` ids are
    /// assigned sequentially from 1.
    fn open(&self, conn: u64, sink: ReplySink) -> Box<dyn Service>;
}

enum Completion {
    Reply {
        conn: u64,
        bytes: Vec<u8>,
        frames_done: u64,
    },
    Close {
        conn: u64,
    },
    Drain,
}

/// An executor-side handle for answering one connection.
#[derive(Clone)]
pub struct ReplySink {
    conn: u64,
    tx: Sender<Completion>,
    waker: Waker,
}

impl ReplySink {
    /// Queue `bytes` for the connection and mark `frames_done` dispatched
    /// frames as answered. Bytes from successive sends are coalesced into
    /// as few `write` syscalls as socket readiness allows, in send order.
    pub fn send(&self, bytes: Vec<u8>, frames_done: u64) {
        let _ = self.tx.send(Completion::Reply {
            conn: self.conn,
            bytes,
            frames_done,
        });
        self.waker.wake();
    }

    /// Ask the reactor to close this connection once its output buffer has
    /// flushed (protocol-error hangup).
    pub fn close(&self) {
        let _ = self.tx.send(Completion::Close { conn: self.conn });
        self.waker.wake();
    }

    /// Ask the whole reactor to drain: stop accepting and reading, answer
    /// everything dispatched, flush, then shut down.
    pub fn drain(&self) {
        let _ = self.tx.send(Completion::Drain);
        self.waker.wake();
    }
}

// --- Executors -------------------------------------------------------------

enum WorkerMsg {
    Frame(Vec<u8>, Instant),
    Corrupt(BadFrame),
    Hangup(u64),
}

/// One connection's executor: runs its service until the hangup.
fn worker_loop(mut svc: Box<dyn Service>, rx: &Receiver<WorkerMsg>) {
    while let Ok(mut msg) = rx.recv() {
        // Greedy drain: execute everything already queued, then flush
        // once — the group-commit coalescing point.
        let mut dirty = false;
        loop {
            match msg {
                WorkerMsg::Frame(frame, enqueued) => {
                    svc.frame(frame, enqueued);
                    dirty = true;
                }
                // `corrupt` flushes whatever it had buffered itself.
                WorkerMsg::Corrupt(bad) => {
                    svc.corrupt(bad);
                    dirty = false;
                }
                WorkerMsg::Hangup(frames) => {
                    if dirty {
                        svc.flush();
                    }
                    svc.hangup(frames);
                    return;
                }
            }
            match rx.try_recv() {
                Ok(next) => msg = next,
                Err(_) => break,
            }
        }
        if dirty {
            svc.flush();
        }
    }
}

// --- Drain control ---------------------------------------------------------

struct DrainerInner {
    draining: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

/// A clonable external drain trigger, usable before and during the
/// reactor's lifetime (a drain requested before spawn is honored at
/// startup).
#[derive(Clone)]
pub struct Drainer {
    inner: Arc<DrainerInner>,
}

impl Default for Drainer {
    fn default() -> Drainer {
        Drainer::new()
    }
}

impl Drainer {
    /// A fresh, un-triggered drain control.
    pub fn new() -> Drainer {
        Drainer {
            inner: Arc::new(DrainerInner {
                draining: AtomicBool::new(false),
                waker: Mutex::new(None),
            }),
        }
    }

    /// Request a graceful drain (idempotent, returns immediately).
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        if let Some(w) = self.inner.waker.lock().expect("waker poisoned").as_ref() {
            w.wake();
        }
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    fn register(&self, waker: Waker) {
        *self.inner.waker.lock().expect("waker poisoned") = Some(waker);
    }
}

// --- The reactor -----------------------------------------------------------

struct ConnState {
    stream: TcpStream,
    /// The connection's executor.
    tx: Sender<WorkerMsg>,
    inbuf: FrameBuf,
    out: Vec<u8>,
    /// Frames dispatched to the executor but not yet `frames_done`-answered.
    outstanding: u64,
    /// Frames dispatched over the connection's lifetime.
    frames: u64,
    /// No more reads: peer EOF, corrupt framing, or drain.
    read_closed: bool,
    /// Close once `outstanding == 0` and `out` is flushed.
    close_after_flush: bool,
    /// The socket died mid-write; drop output instead of buffering it.
    dead: bool,
}

impl ConnState {
    fn wants_read(&self, queue_depth: usize) -> bool {
        !self.read_closed && !self.dead && (self.outstanding as usize) < queue_depth
    }

    fn wants_write(&self) -> bool {
        !self.dead && !self.out.is_empty()
    }

    /// Fully answered, fully flushed, and no longer readable.
    fn finished(&self) -> bool {
        self.dead
            || ((self.read_closed || self.close_after_flush)
                && self.outstanding == 0
                && self.out.is_empty())
    }
}

/// A running reactor: join it after triggering a drain.
pub struct ReactorHandle {
    thread: JoinHandle<()>,
    drainer: Drainer,
}

impl ReactorHandle {
    /// The drain trigger (clonable; also available to embedders that
    /// created the [`Drainer`] themselves).
    pub fn drainer(&self) -> Drainer {
        self.drainer.clone()
    }

    /// Block until the reactor has drained: every dispatched frame
    /// answered, every output buffer flushed, every executor joined.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Spawn the reactor over an already-bound listener. The `drainer` may be
/// a fresh [`Drainer`] or one the embedder holds to trigger shutdown
/// externally (SIGTERM handlers, wire `Shutdown` ops).
pub fn spawn(
    listener: TcpListener,
    cfg: ReactorConfig,
    factory: Arc<dyn ServiceFactory>,
    drainer: Drainer,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let (waker_rd, waker) = waker::waker_pair()?;
    drainer.register(waker.clone());
    let (comp_tx, comp_rx) = mpsc::channel::<Completion>();
    let loop_drainer = drainer.clone();
    let thread = std::thread::spawn(move || {
        let mut r = ReactorLoop {
            listener,
            cfg,
            factory,
            drainer: loop_drainer,
            waker_rd,
            waker,
            comp_tx,
            comp_rx,
            conn_workers: Vec::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
            drain_seen: false,
        };
        r.run();
        // Normally every connection already hung up; dropping any survivor
        // (poll failure) disconnects its executor's queue so it exits.
        r.conns.clear();
        for h in r.conn_workers.drain(..) {
            let _ = h.join();
        }
    });
    Ok(ReactorHandle { thread, drainer })
}

struct ReactorLoop {
    listener: TcpListener,
    cfg: ReactorConfig,
    factory: Arc<dyn ServiceFactory>,
    drainer: Drainer,
    waker_rd: waker::WakerReader,
    waker: Waker,
    comp_tx: Sender<Completion>,
    comp_rx: Receiver<Completion>,
    /// Per-connection executor threads awaiting their opportunistic join.
    conn_workers: Vec<JoinHandle<()>>,
    conns: BTreeMap<u64, ConnState>,
    next_conn: u64,
    drain_seen: bool,
}

impl ReactorLoop {
    /// Join per-connection executor threads that have already exited
    /// (they stop right after their connection's hangup).
    fn reap_workers(&mut self) {
        let mut i = 0;
        while i < self.conn_workers.len() {
            if self.conn_workers[i].is_finished() {
                let h = self.conn_workers.swap_remove(i);
                let _ = h.join();
            } else {
                i += 1;
            }
        }
    }

    fn run(&mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        // fds[i] belongs to conn ids[i]; 0 marks the waker/listener slots.
        let mut ids: Vec<u64> = Vec::new();
        loop {
            if self.drainer.is_draining() && !self.drain_seen {
                self.enter_drain();
            }
            if self.drain_seen && self.conns.is_empty() {
                return;
            }
            fds.clear();
            ids.clear();
            fds.push(PollFd::new(self.waker_rd.fd(), POLLIN));
            ids.push(0);
            let accepting = !self.drain_seen;
            if accepting {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                ids.push(0);
            }
            for (&id, c) in &self.conns {
                let mut ev = 0i16;
                if c.wants_read(self.cfg.queue_depth) {
                    ev |= POLLIN;
                }
                if c.wants_write() {
                    ev |= POLLOUT;
                }
                if ev != 0 {
                    fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
                    ids.push(id);
                }
            }
            let t0 = self.cfg.phase.is_some().then(Instant::now);
            match poll(&mut fds, POLL_TIMEOUT_MS) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
            if let (Some(obs), Some(t0)) = (&self.cfg.phase, t0) {
                obs("poll_wait", t0.elapsed().as_micros() as u64);
            }
            if fds[0].readable() {
                self.waker_rd.drain();
            }
            self.drain_completions();
            if accepting && fds[1].readable() {
                self.accept_ready();
            }
            let skip = if accepting { 2 } else { 1 };
            for (fd, &id) in fds.iter().zip(ids.iter()).skip(skip) {
                if fd.readable() {
                    self.read_ready(id);
                }
            }
            // Replies may have landed while reading (fast executors); pick
            // them up before the write pass so they coalesce into it.
            self.drain_completions();
            let writable: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.wants_write())
                .map(|(&id, _)| id)
                .collect();
            for id in writable {
                self.write_ready(id);
            }
            self.sweep_finished();
        }
    }

    fn enter_drain(&mut self) {
        self.drain_seen = true;
        for c in self.conns.values_mut() {
            c.read_closed = true;
            c.inbuf.clear();
            let _ = c.stream.shutdown(Shutdown::Read);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(comp) = self.comp_rx.try_recv() {
            match comp {
                Completion::Reply {
                    conn,
                    bytes,
                    frames_done,
                } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        debug_assert!(frames_done <= c.outstanding);
                        c.outstanding -= frames_done;
                        if !c.dead && !bytes.is_empty() {
                            c.out.extend_from_slice(&bytes);
                        }
                    }
                }
                Completion::Close { conn } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.close_after_flush = true;
                        c.read_closed = true;
                        c.inbuf.clear();
                    }
                }
                Completion::Drain => self.drainer.drain(),
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Small frames stall under Nagle + delayed ACK (E18).
                    let _ = stream.set_nodelay(true);
                    let conn = self.next_conn;
                    self.next_conn += 1;
                    let sink = ReplySink {
                        conn,
                        tx: self.comp_tx.clone(),
                        waker: self.waker.clone(),
                    };
                    let svc = self.factory.open(conn, sink);
                    let (tx, rx) = mpsc::channel::<WorkerMsg>();
                    self.conn_workers
                        .push(std::thread::spawn(move || worker_loop(svc, &rx)));
                    self.conns.insert(
                        conn,
                        ConnState {
                            stream,
                            tx,
                            inbuf: FrameBuf::new(),
                            out: Vec::new(),
                            outstanding: 0,
                            frames: 0,
                            read_closed: false,
                            close_after_flush: false,
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_ready(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        if c.read_closed || c.dead {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    c.read_closed = true;
                    break;
                }
                Ok(n) => c.inbuf.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.read_closed = true;
                    c.dead = true;
                    break;
                }
            }
        }
        loop {
            match c.inbuf.pop(self.cfg.min_frame_len, self.cfg.max_frame_len) {
                Ok(Some(frame)) => {
                    c.frames += 1;
                    c.outstanding += 1;
                    let _ = c.tx.send(WorkerMsg::Frame(frame, Instant::now()));
                }
                Ok(None) => break,
                Err(bad) => {
                    // Unframeable stream: stop reading, let the service
                    // answer with a protocol error and close.
                    c.read_closed = true;
                    c.inbuf.clear();
                    c.outstanding += 1;
                    let _ = c.tx.send(WorkerMsg::Corrupt(bad));
                    break;
                }
            }
        }
    }

    fn write_ready(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        let mut written = 0usize;
        while written < c.out.len() {
            match c.stream.write(&c.out[written..]) {
                Ok(0) => {
                    c.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    break;
                }
            }
        }
        if c.dead {
            c.out.clear();
        } else {
            c.out.drain(..written);
        }
    }

    fn sweep_finished(&mut self) {
        // A finished connection's executor exits after its hangup; reap
        // it opportunistically.
        self.conns.retain(|_, c| {
            if !c.finished() {
                return true;
            }
            let _ = c.stream.shutdown(Shutdown::Both);
            let _ = c.tx.send(WorkerMsg::Hangup(c.frames));
            false
        });
        self.reap_workers();
    }
}
