//! The batch driver: runs a workload's script plans on the session
//! engine the server runs, with a wall-clock watchdog and a post-hoc
//! certification hook.
//!
//! ## Execution model
//!
//! [`run_plan`] starts one [`SessionEngine`] and `cfg.threads` worker
//! threads, each with one [`Session`]. Workers claim top-level slots from a
//! shared counter and walk each claimed subtree *depth-first* — a legal
//! interleaving for both `Parallel` and `Sequential` child orders
//! (transaction well-formedness never requires intra-transaction
//! concurrency). Concurrency happens between top-level transactions, which
//! is where the paper's serializability questions live.
//!
//! The walk only maps plan nodes onto session calls: a top-level slot is
//! `begin_top`, an inner child `begin_child`, an access `access` (then the
//! configured storage latency, slept while the parent holds the inherited
//! lock), a finished frame `commit`. Creation, locking, lock inheritance,
//! abort discards, recording and deadlock detection are the session
//! engine's — the same code that serves network clients — so
//! [`EngineReport::certify`] proves that code serially correct (or not)
//! via `nt_sgt::certify_recorded`. The session engine numbers transactions
//! in registration order, so the report's tree, history and victims use
//! those ids, not the plan's.
//!
//! ## Doom and unwinding
//!
//! The detector (or watchdog) dooms a victim through the status table; the
//! session notices at the victim subtree's next operation, aborts exactly
//! that subtree and reports it as `Aborted(v)`. The walk unwinds to `v`'s
//! frame (a `v` that is no open frame is the access itself) and — when the
//! config enables backoff — re-runs the slot with the workload's next
//! pre-materialized replica after a real wall-clock backoff sleep.

use crate::config::EngineConfig;
pub use crate::detector::Victim;
use crate::session::{
    AccessOutcome, BeginOutcome, CommitOutcome, RecoveredSeed, Session, SessionEngine, SessionError,
};
use nt_faults::{RetryLedger, RetryOutcome, RetryRecord};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, TxId, TxTree};
use nt_obs::{Event, TraceHandle};
use nt_serial::ObjectTypes;
use nt_sgt::{certify_recorded, ConflictSource, RecordedCertificate};
use nt_sgt_live::{LiveCertifier, LiveStatus, SgtConfig};
use nt_sim::{ScriptPlan, Workload};
use nt_telemetry::{HistSnapshot, TelemetryHandle};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the engine needs to execute a workload, decoupled from the
/// simulator's automata: the naming tree, per-transaction scripts, retry
/// chains, initial values, and serial types (for certification).
pub struct EnginePlan {
    /// The frozen naming tree.
    pub tree: Arc<TxTree>,
    /// Script plan per non-access transaction (including replicas).
    pub plans: BTreeMap<TxId, ScriptPlan>,
    /// Top-level transactions, in slot order.
    pub top: Vec<TxId>,
    /// Replica chains per slot parent (see `Workload::retry_chains`).
    pub retry_chains: BTreeMap<TxId, Vec<Vec<TxId>>>,
    /// Initial object values.
    pub initials: RwInitials,
    /// Serial types (certification).
    pub types: ObjectTypes,
}

impl EnginePlan {
    /// Extract the plan of a generated workload.
    pub fn from_workload(w: &Workload) -> Self {
        EnginePlan {
            tree: Arc::clone(&w.tree),
            plans: w.script_plans(),
            top: w.top.clone(),
            retry_chains: w.retry_chains.clone(),
            initials: w.initials.clone(),
            types: w.types.clone(),
        }
    }

    /// Structural validation: every inner transaction has a plan, every
    /// access is a read/write-register operation (the lock table implements
    /// Moss' read/write rules; other data types belong to the simulator's
    /// commutativity-based protocols) under an inner parent (a session
    /// begins every top-level transaction as an inner one).
    fn validate(&self) -> Result<(), String> {
        for t in self.tree.all_tx() {
            if t == TxId::ROOT {
                continue;
            }
            if self.tree.is_access(t) {
                if self.tree.parent(t) == Some(TxId::ROOT) {
                    return Err(format!("access {t} is a top-level transaction"));
                }
                let op = self.tree.op_of(t).expect("access carries an op");
                if !op.is_rw_read() && !op.is_rw_write() {
                    return Err(format!(
                        "access {t} uses non-read/write op {op:?}; the engine's \
                         Moss lock table only supports read/write registers"
                    ));
                }
            } else if !self.plans.contains_key(&t) {
                return Err(format!("inner transaction {t} has no script plan"));
            }
        }
        Ok(())
    }
}

/// Lock-table counters of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Lock grants.
    pub granted: u64,
    /// Acquisitions that parked at least once.
    pub blocked: u64,
    /// Grants that landed only after a timed-out condvar wait (see
    /// [`LockTable::timeout_rescues`](crate::LockTable::timeout_rescues)).
    pub timeout_rescues: u64,
    /// Deadlock-detector scan passes.
    pub detector_passes: u64,
}

/// The outcome of one threaded run.
pub struct EngineReport {
    /// The transactions the run registered, numbered by the session
    /// engine in registration order (for certification).
    pub tree: Arc<TxTree>,
    /// Serial types (for certification).
    pub types: ObjectTypes,
    /// The merged recorded history, in stamp order.
    pub history: Vec<Action>,
    /// Top-level slots where some attempt committed.
    pub committed_top: usize,
    /// Top-level slots that failed (every attempt aborted).
    pub aborted_top: usize,
    /// Deadlock victims, in doom order (ids of [`tree`](Self::tree)).
    pub victims: Vec<Victim>,
    /// Per-slot retry ledger (only slots that carry replica chains), keyed
    /// by the plan's ids.
    pub ledger: RetryLedger,
    /// Did the wall-clock watchdog abandon the run?
    pub gave_up: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Lock-table and detector counters.
    pub stats: EngineStats,
    /// Per-top-level-slot latency (claim to resolution, including retry
    /// backoff), microseconds — merged across workers for p50/p95/p99.
    pub top_latency: HistSnapshot,
    /// Final status of the live serialization-graph certifier, when
    /// `cfg.live_certify` streamed the run into one (`None` otherwise).
    /// `live.ok == false` means the maintainer caught a cycle *during*
    /// the run, with the inserting edge in `live.violation`.
    pub live: Option<LiveStatus>,
}

impl EngineReport {
    /// Certify the recorded history against Theorem 17 post-hoc: simple-
    /// behavior constraints, appropriate return values, acyclic `SG`, and
    /// a validated witness.
    pub fn certify(&self) -> RecordedCertificate {
        certify_recorded(
            &self.tree,
            &self.history,
            &self.types,
            ConflictSource::ReadWrite,
        )
    }

    /// Journal the run through an observability sink: `run_start`, one
    /// `deadlock_victim` per doomed transaction, `run_end`.
    pub fn journal(&self, trace: &TraceHandle, seed: u64) {
        if !trace.enabled() {
            return;
        }
        trace.record(Event::RunStart {
            protocol: "engine-moss",
            seed,
        });
        for v in &self.victims {
            trace.record(Event::DeadlockVictim {
                victim: v.victim.0,
                waiter: v.waiter.0,
                blocker: v.blocker.0,
            });
        }
        trace.record(Event::RunEnd {
            steps: self.history.len() as u64,
            rounds: self.stats.detector_passes,
            quiescent: !self.gave_up,
        });
    }
}

/// How a walked frame ended: `Ok(committed)`, or `Err(v)` when the
/// session aborted `v`, an enclosing open frame, and the walk must unwind
/// to it.
type Resolved = Result<bool, TxId>;

/// One worker's depth-first walk over its claimed slots. The session does
/// the protocol; the walker maps plan nodes to session transactions and
/// picks retries.
struct Walker<'a> {
    plan: &'a EnginePlan,
    cfg: &'a EngineConfig,
    gave_up: &'a AtomicBool,
    session: Session,
    /// Session ids of the open inner frames, outermost first.
    frames: Vec<TxId>,
    records: Vec<RetryRecord>,
    committed_top: usize,
    aborted_top: usize,
    top_lat: HistSnapshot,
}

/// Unwrap a session call the driver made; a refusal means the plan and
/// the driver disagree (validation or capacity sizing is wrong).
fn accepted<T>(r: Result<T, SessionError>, p: TxId) -> T {
    r.unwrap_or_else(|e| panic!("session refused plan transaction {p}: {e}"))
}

impl Walker<'_> {
    /// Pull and walk top-level slots until the shared counter runs out.
    /// After the watchdog fires, unclaimed slots count as aborted unrun.
    fn drive(&mut self, next_slot: &AtomicUsize) {
        loop {
            let i = next_slot.fetch_add(1, Ordering::Relaxed);
            let Some(&original) = self.plan.top.get(i) else {
                return;
            };
            if self.gave_up.load(Ordering::Acquire) {
                self.aborted_top += 1;
                continue;
            }
            let slot_start = Instant::now();
            // A top frame catches every unwind of its subtree.
            if self.slot(TxId::ROOT, i, original) == Ok(true) {
                self.committed_top += 1;
            } else {
                self.aborted_top += 1;
            }
            self.top_lat
                .observe(slot_start.elapsed().as_micros() as u64);
        }
    }

    /// Walk slot `idx` of plan transaction `parent`: the original child,
    /// then — when the config enables backoff — each pre-materialized
    /// replica after a real backoff sleep. A failed slot does not prevent
    /// the parent's commit (mirroring `ScriptedTx`).
    fn slot(&mut self, parent: TxId, idx: usize, original: TxId) -> Resolved {
        static EMPTY: Vec<TxId> = Vec::new();
        let plan = self.plan;
        let chain = match self.cfg.backoff {
            Some(_) => plan.retry_chains.get(&parent).map_or(&EMPTY, |c| &c[idx]),
            None => &EMPTY,
        };
        for (k, &attempt) in std::iter::once(&original).chain(chain).enumerate() {
            if k > 0 {
                if self.gave_up.load(Ordering::Acquire) {
                    break;
                }
                let policy = self.cfg.backoff.as_ref().expect("chain implies policy");
                let rounds = policy.delay(k as u32);
                std::thread::sleep(Duration::from_micros(rounds * self.cfg.backoff_round_us));
            }
            if self.walk(attempt)? {
                if !chain.is_empty() {
                    self.records.push(RetryRecord {
                        original: original.0,
                        retries: k as u32,
                        outcome: RetryOutcome::Committed,
                    });
                }
                return Ok(true);
            }
        }
        if !chain.is_empty() {
            self.records.push(RetryRecord {
                original: original.0,
                retries: chain.len() as u32,
                outcome: RetryOutcome::Exhausted,
            });
        }
        Ok(false)
    }

    /// Walk plan transaction `p` under the innermost open frame (as a new
    /// top-level transaction when no frame is open).
    fn walk(&mut self, p: TxId) -> Resolved {
        let plan = self.plan;
        if let Some(x) = plan.tree.object_of(p) {
            let parent = *self.frames.last().expect("accesses run inside a frame");
            let op = plan.tree.op_of(p).expect("access carries an op").clone();
            return match accepted(self.session.access(parent, x, op), p) {
                AccessOutcome::Done(_) => {
                    if self.cfg.access_latency_us > 0 {
                        std::thread::sleep(Duration::from_micros(self.cfg.access_latency_us));
                    }
                    Ok(true)
                }
                AccessOutcome::Aborted(v) => self.unwind(v),
            };
        }
        let t = match self.frames.last() {
            None => accepted(self.session.begin_top(), p),
            Some(&parent) => match accepted(self.session.begin_child(parent), p) {
                BeginOutcome::Fresh(t) => t,
                BeginOutcome::Aborted(v) => return self.unwind(v),
            },
        };
        self.frames.push(t);
        let end = plan.plans[&p]
            .children
            .iter()
            .enumerate()
            .try_for_each(|(i, &c)| self.slot(p, i, c).map(drop))
            .and_then(|()| match accepted(self.session.commit(t), p) {
                CommitOutcome::Committed => Ok(true),
                CommitOutcome::Aborted(v) => Err(v),
            });
        self.frames.pop();
        match end {
            Err(v) if v == t => Ok(false),
            other => other,
        }
    }

    /// The session aborted `v`: unwind to its frame, or — when `v` is no
    /// open frame — it was the access itself, whose slot simply failed.
    fn unwind(&self, v: TxId) -> Resolved {
        if self.frames.contains(&v) {
            Err(v)
        } else {
            Ok(false)
        }
    }
}

/// Run a generated workload on the threaded engine.
pub fn run_workload(w: &Workload, cfg: &EngineConfig) -> Result<EngineReport, String> {
    run_plan(&EnginePlan::from_workload(w), cfg)
}

/// A pre-flight admission check run against the plan before any worker
/// starts. `Err` rejects the whole run with the gate's message. The static
/// serializability analyzer (`nt_lint::engine_preflight`) is the canonical
/// gate; keeping the signature a plain callback keeps the dependency
/// arrow pointing from the analyzer to the engine, not back.
pub type PreflightGate = dyn Fn(&EnginePlan) -> Result<(), String>;

/// [`run_plan`] with an optional pre-flight analyze step: the gate sees
/// the validated plan and can veto execution (e.g. because some schedule
/// of it could produce a cyclic serialization graph).
pub fn run_plan_gated(
    plan: &EnginePlan,
    cfg: &EngineConfig,
    gate: Option<&PreflightGate>,
) -> Result<EngineReport, String> {
    cfg.validate()?;
    plan.validate()?;
    if let Some(g) = gate {
        g(plan).map_err(|e| format!("pre-flight gate rejected the plan: {e}"))?;
    }
    run_plan(plan, cfg)
}

/// Run an [`EnginePlan`] on the session engine: `cfg.threads` workers,
/// one [`Session`] each, the engine's sharded lock table and detector
/// thread, and a watchdog that abandons the run after `cfg.max_wall_ms`.
pub fn run_plan(plan: &EnginePlan, cfg: &EngineConfig) -> Result<EngineReport, String> {
    cfg.validate()?;
    plan.validate()?;
    let live_cert = cfg
        .live_certify
        .then(|| LiveCertifier::start(SgtConfig::default(), TelemetryHandle::disabled()));
    let seed = RecoveredSeed {
        initials: (0..plan.tree.num_objects())
            .map(|i| {
                let x = ObjId(i as u32);
                (x, plan.initials.initial(x))
            })
            .collect(),
        ..RecoveredSeed::default()
    };
    // Every executed transaction is a distinct plan node, so the plan's
    // tree size bounds the session tree exactly.
    let engine = SessionEngine::start_recovered(
        plan.tree.len(),
        cfg.shards,
        Duration::from_micros(cfg.detector_period_us),
        TelemetryHandle::disabled(),
        seed,
        None,
        live_cert.as_ref().map(LiveCertifier::handle),
    )
    .map_err(|e| format!("session engine refused the plan: {e}"))?;
    let next_slot = AtomicUsize::new(0);
    let gave_up = AtomicBool::new(false);
    let start = Instant::now();
    let workers: Vec<_> = std::thread::scope(|s| {
        let (done, finished) = mpsc::channel::<()>();
        let (watched, flag) = (&engine, &gave_up);
        s.spawn(move || {
            let max_wall = Duration::from_millis(cfg.max_wall_ms);
            if finished.recv_timeout(max_wall) == Err(RecvTimeoutError::Timeout) {
                flag.store(true, Ordering::Release);
                watched.give_up();
            }
        });
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                s.spawn(|| {
                    let mut w = Walker {
                        plan,
                        cfg,
                        gave_up: &gave_up,
                        session: engine.open_session(),
                        frames: Vec::new(),
                        records: Vec::new(),
                        committed_top: 0,
                        aborted_top: 0,
                        top_lat: HistSnapshot::new(),
                    };
                    w.drive(&next_slot);
                    (w.records, w.committed_top, w.aborted_top, w.top_lat)
                })
            })
            .collect();
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        drop(done);
        workers
    });
    let wall = start.elapsed();
    engine.shutdown();
    let mut committed_top = 0;
    let mut aborted_top = 0;
    let mut records = Vec::new();
    let mut top_latency = HistSnapshot::new();
    for (recs, c, a, lat) in workers {
        records.extend(recs);
        committed_top += c;
        aborted_top += a;
        top_latency.merge(&lat);
    }
    engine.flush_feeds();
    let (tree, history) = engine.history_snapshot();
    let live = live_cert.map(|lc| lc.stop().0);
    Ok(EngineReport {
        tree: Arc::new(tree),
        types: plan.types.clone(),
        history,
        committed_top,
        aborted_top,
        victims: engine.victims(),
        ledger: RetryLedger { records },
        gave_up: gave_up.into_inner(),
        wall,
        stats: EngineStats {
            granted: engine.lock_grants(),
            blocked: engine.lock_blocks(),
            timeout_rescues: engine.timeout_rescues(),
            detector_passes: engine.detector_passes(),
        },
        top_latency,
        live,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_sim::WorkloadSpec;

    #[test]
    fn single_thread_run_certifies() {
        let w = WorkloadSpec::default().generate();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        assert_eq!(r.committed_top + r.aborted_top, w.top.len());
        assert!(r.committed_top > 0);
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "single-threaded run must certify: {:?}",
            cert.verdict.name()
        );
        assert_eq!(cert.violations, 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let w = WorkloadSpec::default().generate();
        let cfg = EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        };
        assert!(run_workload(&w, &cfg).is_err());
    }

    #[test]
    fn non_rw_workloads_are_rejected() {
        let w = WorkloadSpec {
            mix: nt_sim::OpMix::Counter { read_ratio: 0.5 },
            ..WorkloadSpec::default()
        }
        .generate();
        assert!(run_workload(&w, &EngineConfig::default()).is_err());
    }

    #[test]
    fn multi_thread_contended_run_certifies() {
        let w = WorkloadSpec {
            top_level: 12,
            objects: 3,
            hotspot: 0.5,
            seed: 7,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 4,
            shards: 4,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        assert!(!r.gave_up, "watchdog must not fire on a small workload");
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "contended run must certify: {}",
            cert.verdict.name()
        );
    }

    #[test]
    fn watchdog_abandons_the_run_and_the_history_still_certifies() {
        let w = WorkloadSpec {
            top_level: 12,
            objects: 3,
            hotspot: 0.5,
            seed: 7,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 4,
            shards: 4,
            access_latency_us: 5_000,
            max_wall_ms: 1,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        assert!(r.gave_up, "a 1 ms budget must trip the watchdog");
        assert_eq!(r.committed_top + r.aborted_top, w.top.len());
        assert!(r.aborted_top > 0, "abandoned tops count as aborted");
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "an abandoned run must still certify: {}",
            cert.verdict.name()
        );
    }

    #[test]
    fn live_certify_agrees_with_posthoc() {
        let w = WorkloadSpec {
            top_level: 12,
            objects: 3,
            hotspot: 0.5,
            seed: 11,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 4,
            shards: 4,
            live_certify: true,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        let live = r.live.as_ref().expect("live status present when enabled");
        assert!(live.ok, "live certifier must agree with post-hoc");
        assert!(live.violation.is_none());
        assert_eq!(live.processed, r.history.len() as u64);
        assert!(
            live.watermark > 0,
            "committed work must advance the GC watermark"
        );
        let cert = r.certify();
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());

        // Disabled by default: no live status.
        let r2 = run_workload(&w, &EngineConfig::default()).expect("runs");
        assert!(r2.live.is_none());
    }

    #[test]
    fn preflight_gate_can_veto_and_pass() {
        let w = WorkloadSpec {
            top_level: 2,
            objects: 2,
            seed: 1,
            ..WorkloadSpec::default()
        }
        .generate();
        let plan = EnginePlan::from_workload(&w);
        let cfg = EngineConfig::default();
        let veto: Box<PreflightGate> = Box::new(|_| Err("not on my watch".into()));
        let err = match run_plan_gated(&plan, &cfg, Some(veto.as_ref())) {
            Err(e) => e,
            Ok(_) => panic!("gate must veto the run"),
        };
        assert!(err.contains("pre-flight gate"), "{err}");
        assert!(err.contains("not on my watch"), "{err}");
        let pass: Box<PreflightGate> = Box::new(|_| Ok(()));
        let r = run_plan_gated(&plan, &cfg, Some(pass.as_ref())).expect("gate passes");
        assert!(r.certify().is_serially_correct());
    }
}
