//! The server's per-connection protocol service.
//!
//! `nt_reactor` owns the sockets (one poll thread, all reads and writes)
//! and runs one executor thread per connection; this module supplies the
//! [`Service`] that executor runs. The service owns the connection's
//! [`Session`], its per-`seq` exactly-once cache, and its open-top ledger,
//! and it applies the deterministic transport fault plan (drop /
//! duplicate / delay, keyed on the connection's own frame counter).
//! Replies are *buffered*, not written: every reply (single responses,
//! `BATCH_RESP` frames, protocol errors, the `Shutdown` ack) is appended
//! to one `pending` buffer in execution order, and emitted in a single
//! [`ReplySink::send`] when the executor's queue runs dry
//! ([`Service::flush`]). That flush is also the group-commit point:
//! mutating ops journal their cached responses eagerly but the
//! `wait_durable` barrier is paid once per flush, covering every frame of
//! the burst (the `coalesce` telemetry phase).
//!
//! Routing everything through the single pending buffer is what keeps
//! the per-connection reply order equal to the execution order — the
//! reactor coalesces *when* bytes hit the wire, never their order — so
//! the engine's stamp order (what the certifier consumes) follows each
//! connection's arrival order.

use crate::server::{answer_batch, answer_op, count_answer, pay_durability, Shared};
use crate::wire::{
    decode_batch_request, encode_batch_response, encode_response, err_code, parse_frame,
    parse_request, Request, Response, WireError, KIND_BATCH_REQ,
};
use nt_engine::Session;
use nt_faults::FrameFate;
use nt_model::TxId;
use nt_obs::Event;
use nt_reactor::{BadFrame, ReplySink, Service, ServiceFactory};
use nt_telemetry::ReqSpan;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds one [`ConnService`] per accepted connection.
pub(crate) struct ReactorFactory {
    shared: Arc<Shared>,
}

impl ReactorFactory {
    pub(crate) fn new(shared: Arc<Shared>) -> ReactorFactory {
        ReactorFactory { shared }
    }
}

impl ServiceFactory for ReactorFactory {
    fn open(&self, conn: u64, sink: ReplySink) -> Box<dyn Service> {
        self.shared.stats.update(|s| s.conns += 1);
        self.shared.emit(Event::ConnAccepted { conn });
        Box::new(ConnService {
            session: self.shared.engine.open_session(),
            shared: Arc::clone(&self.shared),
            conn,
            sink,
            cache: BTreeMap::new(),
            open_tops: BTreeSet::new(),
            frame_no: 0,
            pending: Vec::new(),
            pending_frames: 0,
            owes_barrier: false,
            closed: false,
        })
    }
}

/// One decoded request frame (the executor-side unit of execution).
#[derive(Clone)]
enum Decoded {
    Single(u64, Request),
    Batch(u64, Vec<(u64, Request)>),
}

struct ConnService {
    shared: Arc<Shared>,
    conn: u64,
    sink: ReplySink,
    session: Session,
    /// Per-`seq` exactly-once response cache (full frames, prefix
    /// included).
    cache: BTreeMap<u64, Vec<u8>>,
    open_tops: BTreeSet<TxId>,
    /// Frames seen on this connection (the fault plan's key).
    frame_no: u64,
    /// Replies buffered since the last flush, in execution order.
    pending: Vec<u8>,
    /// Dispatched frames those buffered bytes account for.
    pending_frames: u64,
    /// A fresh mutating execution journaled its response; the next flush
    /// pays one `wait_durable` barrier covering the whole burst.
    owes_barrier: bool,
    /// A protocol error closed the connection; late-arriving frames are
    /// accounted but not executed.
    closed: bool,
}

impl ConnService {
    /// Flush buffered replies, answer with a `PROTOCOL` error on wire
    /// seq 0 (accounting for the offending frame), and close.
    fn protocol_error(&mut self, e: WireError) {
        self.flush();
        let resp = Response::Error {
            code: err_code::PROTOCOL,
            msg: e.to_string(),
        };
        match encode_response(0, &resp) {
            Ok(bytes) => self.sink.send(bytes, 1),
            Err(_) => self.sink.send(Vec::new(), 1),
        }
        self.sink.close();
        self.closed = true;
    }

    /// Execute one decoded frame, buffering its reply. `queue_us` is the
    /// reactor-dispatch → executor-pickup wait (zero for the echo of a
    /// fault-plan duplicate). `frames` is how many dispatched frames the
    /// reply answers: 1, or 0 for that echo, which shares its frame's
    /// count.
    fn handle(&mut self, d: Decoded, queue_us: u64, frames: u64) {
        let enabled = self.shared.telemetry.is_enabled();
        let t_dequeue = self.shared.telemetry.now_us();
        // Decode and enqueue are contiguous with dispatch on this path;
        // reconstruct the dispatch instant so `queue_wait` is real.
        let t_dispatch = t_dequeue.saturating_sub(queue_us);
        let seq_decode = self.shared.engine.clock_now();
        match d {
            Decoded::Single(seq, req) => {
                let Some(ans) = answer_op(
                    &self.shared,
                    &mut self.session,
                    &mut self.cache,
                    &mut self.open_tops,
                    seq,
                    &req,
                ) else {
                    self.protocol_error(WireError::BadPayload(
                        "response encoding failed".to_string(),
                    ));
                    return;
                };
                count_answer(&self.shared, ans.from_cache);
                self.owes_barrier |= ans.mutated;
                self.pending.extend_from_slice(&ans.bytes);
                self.pending_frames += frames;
                if enabled {
                    self.record_span(
                        seq,
                        req.kind(),
                        t_dispatch,
                        t_dequeue,
                        ans.lock_wait_us,
                        seq_decode,
                    );
                }
                if !ans.from_cache && matches!(req, Request::Shutdown) {
                    // The drain stops reads and accepts; this buffered
                    // ack still flushes before the socket closes.
                    self.shared.begin_drain();
                }
            }
            Decoded::Batch(seq, ops) => {
                let t_asm = enabled.then(Instant::now);
                let Some((entries, lock_wait_us, owes, shutdown)) = answer_batch(
                    &self.shared,
                    &mut self.session,
                    &mut self.cache,
                    &mut self.open_tops,
                    &ops,
                ) else {
                    self.protocol_error(WireError::BadPayload(
                        "response encoding failed".to_string(),
                    ));
                    return;
                };
                if let Some(t_asm) = t_asm {
                    self.shared
                        .telemetry
                        .observe_phase("batch_assemble", t_asm.elapsed().as_micros() as u64);
                }
                self.owes_barrier |= owes;
                let bytes = encode_batch_response(seq, &entries);
                self.pending.extend_from_slice(&bytes);
                self.pending_frames += frames;
                if enabled {
                    self.record_span(
                        seq,
                        KIND_BATCH_REQ,
                        t_dispatch,
                        t_dequeue,
                        lock_wait_us,
                        seq_decode,
                    );
                }
                if shutdown {
                    self.shared.begin_drain();
                }
            }
        }
    }

    /// One lifecycle span for a frame answered on this path. The barrier
    /// is deferred to flush, so `log_wait_us` is 0 here — the coalesced
    /// barrier shows up in the `coalesce` phase histogram instead.
    fn record_span(
        &self,
        seq: u64,
        kind: u8,
        t_dispatch: u64,
        t_dequeue: u64,
        lock_wait_us: u64,
        seq_decode: u64,
    ) {
        let t_done = self.shared.telemetry.now_us();
        self.shared.telemetry.record_span(ReqSpan {
            conn: self.conn,
            seq,
            kind,
            t_decode: t_dispatch,
            t_enqueue: t_dispatch,
            t_dequeue,
            t_exec_end: t_done,
            t_respond: t_done,
            lock_wait_us,
            log_wait_us: 0,
            seq_decode,
            seq_respond: self.shared.engine.clock_now(),
        });
    }
}

impl Service for ConnService {
    fn frame(&mut self, frame: Vec<u8>, enqueued: Instant) {
        if self.closed {
            // Dispatched after a protocol error: account it so the
            // reactor's outstanding count drains, but never execute.
            self.sink.send(Vec::new(), 1);
            return;
        }
        self.frame_no += 1;
        self.shared.stats.update(|s| s.frames += 1);
        let queue_us = enqueued.elapsed().as_micros() as u64;
        let decoded = match parse_frame(&frame) {
            Ok((KIND_BATCH_REQ, seq, body)) => match decode_batch_request(body) {
                Ok(ops) => Decoded::Batch(seq, ops),
                Err(e) => {
                    self.protocol_error(e);
                    return;
                }
            },
            Ok(_) => match parse_request(&frame) {
                Ok((seq, req)) => Decoded::Single(seq, req),
                Err(e) => {
                    self.protocol_error(e);
                    return;
                }
            },
            Err(e) => {
                self.protocol_error(e);
                return;
            }
        };
        let fate = self
            .shared
            .cfg
            .fault
            .map(|p| p.fate(self.frame_no))
            .unwrap_or(FrameFate::Deliver);
        match fate {
            FrameFate::Deliver => self.handle(decoded, queue_us, 1),
            FrameFate::Drop => {
                self.shared.stats.update(|s| s.dropped += 1);
                self.shared.emit(Event::FrameFault {
                    conn: self.conn,
                    frame: self.frame_no,
                    fault: "drop",
                });
                // Consumed but intentionally unanswered: account the
                // frame with no reply bytes.
                self.pending_frames += 1;
            }
            FrameFate::Duplicate => {
                self.shared.stats.update(|s| s.duplicated += 1);
                self.shared.emit(Event::FrameFault {
                    conn: self.conn,
                    frame: self.frame_no,
                    fault: "duplicate",
                });
                self.handle(decoded.clone(), queue_us, 1);
                // The echo executes immediately and answers from cache;
                // both replies are sent, but the reactor dispatched one
                // frame, so the echo accounts for none.
                if !self.closed {
                    self.handle(decoded, 0, 0);
                }
            }
            FrameFate::Delay(us) => {
                self.shared.stats.update(|s| s.delayed += 1);
                self.shared.emit(Event::FrameFault {
                    conn: self.conn,
                    frame: self.frame_no,
                    fault: "delay",
                });
                // On the executor thread: stalls this connection, never
                // the poll.
                std::thread::sleep(Duration::from_micros(us));
                self.handle(decoded, queue_us, 1);
            }
        }
    }

    fn flush(&mut self) {
        if self.owes_barrier {
            // One group-commit barrier for the whole burst since the
            // last flush — the reactor path's coalescing win.
            let us = pay_durability(&self.shared);
            self.shared.telemetry.observe_phase("coalesce", us);
            self.owes_barrier = false;
        }
        if self.pending_frames > 0 {
            self.sink
                .send(std::mem::take(&mut self.pending), self.pending_frames);
            self.pending_frames = 0;
        }
    }

    fn corrupt(&mut self, bad: BadFrame) {
        self.protocol_error(WireError::BadLength {
            len: bad.len,
            max: bad.max,
        });
    }

    fn hangup(&mut self, frames: u64) {
        // The client is gone (EOF, protocol error, write failure, or
        // drain): abort whatever it left open so held locks cannot
        // starve other sessions, and free its admission slots.
        for t in std::mem::take(&mut self.open_tops) {
            let _ = self.session.abort(t);
            self.shared.release_admission(t);
        }
        self.shared.emit(Event::ConnClosed {
            conn: self.conn,
            frames,
        });
    }
}
