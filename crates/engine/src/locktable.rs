//! Sharded Moss lock table with real blocking.
//!
//! Each shard owns a disjoint slice of the objects (`object_id & mask`)
//! behind one mutex + condvar pair, so lock traffic on disjoint objects
//! never contends on a shared line. Grant decisions use the exact
//! [`nt_locking::moss_precondition`] the simulated `M1_X` automaton uses:
//! an access is granted only when every conflicting lockholder is an
//! ancestor.
//!
//! ## Fairness and lost wakeups
//!
//! Waiters carry monotone *tickets*. A waiter may acquire only when it is
//! eligible (Moss precondition holds) **and** no eligible waiter on the
//! same object holds an earlier ticket — earliest-eligible wins. Strict
//! FIFO would be wrong here: under the ancestor rules a child's request is
//! often eligible while an unrelated earlier waiter is not, and parking the
//! child behind it can stall forever (the earlier waiter may be waiting on
//! the child's own subtree to finish).
//!
//! Every state change that can affect eligibility — a grant (removes a
//! waiter other waiters defer to), lock inheritance, an abort-time discard,
//! a doomed waiter deregistering — happens while the shard mutex is held
//! and broadcasts the shard condvar before releasing it. Waiters re-check
//! eligibility under the same mutex before parking, so a wakeup cannot
//! fall between check and wait. A bounded `wait_timeout` slice backstops
//! the argument; grants that land *immediately after* a timed-out wait are
//! counted in [`LockTable::timeout_rescues`], which the stress tests assert
//! stays at (or near) zero — the broadcasts, not the timeouts, do the work.

use crate::recorder::{ActionSink, SeqClock, WorkerLog};
use crate::status::StatusTable;
use crate::tree_view::TreeView;
use nt_locking::{moss_blockers_by, moss_precondition_by};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, Op, TxId, TxTree, Value};
use nt_telemetry::TelemetryHandle;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result of a lock acquisition attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquired {
    /// Lock granted; the value is the access's `REQUEST_COMMIT` return
    /// value (the deepest tentative version for a read, `OK` for a write).
    Granted(Value),
    /// While (or before) waiting, the transaction discovered that an
    /// ancestor-or-self was doomed by the deadlock detector or the
    /// watchdog; no lock was taken. The worker must unwind to the named
    /// transaction's frame and abort there.
    Doomed(TxId),
}

/// One parked request.
struct Waiter {
    ticket: u64,
    t: TxId,
    write_like: bool,
}

/// Lock state of one object.
struct ObjLocks {
    /// Write-lockholders with their tentative values (the paper's
    /// `value` map). `T0` initially write-holds the initial value.
    write: BTreeMap<TxId, i64>,
    read: BTreeSet<TxId>,
    waiters: Vec<Waiter>,
    /// Grant times per holder, kept only while telemetry is enabled —
    /// feeds the hold-time histogram at release/discard.
    since: BTreeMap<TxId, Instant>,
}

impl ObjLocks {
    fn new(init: i64) -> Self {
        let mut write = BTreeMap::new();
        write.insert(TxId::ROOT, init);
        ObjLocks {
            write,
            read: BTreeSet::new(),
            waiters: Vec::new(),
            since: BTreeMap::new(),
        }
    }

    /// The tentative value a read observes: the deepest write-lockholder's
    /// (Lemma 9 makes it unique).
    fn read_value(&self, tree: &impl TreeView) -> i64 {
        *self
            .write
            .iter()
            .max_by_key(|(t, _)| tree.depth(**t))
            .expect("T0 always write-holds")
            .1
    }

    #[cfg(debug_assertions)]
    fn check_lemma9(&self, tree: &impl TreeView, x: ObjId) {
        for &w in self.write.keys() {
            for other in self.write.keys().chain(self.read.iter()) {
                assert!(
                    tree.is_ancestor(w, *other) || tree.is_ancestor(*other, w),
                    "Lemma 9 violated at {x:?}: {w} vs {other} unrelated",
                );
            }
        }
    }
}

/// Per-shard lock-traffic counters, updated under the shard mutex (so a
/// [`LockTable::shard_counters`] snapshot of one shard is coherent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Lock grants on this shard.
    pub grants: u64,
    /// Acquires that parked at least once on this shard.
    pub waits: u64,
    /// Total lock hold time released on this shard, microseconds
    /// (tracked only while telemetry is enabled).
    pub hold_us: u64,
}

struct ShardState {
    objects: BTreeMap<u32, ObjLocks>,
    next_ticket: u64,
    counters: ShardCounters,
    /// Object-level actions, stamped while this shard's mutex is held —
    /// the stamps linearize them exactly as the shard serialized the state
    /// changes they describe.
    log: WorkerLog,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// The sharded lock manager, generic over the tree representation: the
/// session engine passes a growable
/// [`SessionTree`](crate::session_tree::SessionTree); a frozen
/// `Arc<TxTree>` (the default) lets tests drive a table directly.
pub struct LockTable<T: TreeView = Arc<TxTree>> {
    tree: T,
    status: Arc<StatusTable>,
    clock: Arc<SeqClock>,
    initials: RwInitials,
    shards: Vec<Shard>,
    mask: usize,
    wait_slice: Duration,
    give_up: AtomicBool,
    granted: AtomicU64,
    blocked: AtomicU64,
    timeout_rescues: AtomicU64,
    telemetry: TelemetryHandle,
}

impl<T: TreeView> LockTable<T> {
    /// A table with `shards` shards (must be a nonzero power of two).
    pub fn new(
        tree: T,
        status: Arc<StatusTable>,
        clock: Arc<SeqClock>,
        initials: RwInitials,
        shards: usize,
    ) -> Self {
        assert!(shards.is_power_of_two(), "shards must be a power of two");
        LockTable {
            tree,
            status,
            clock,
            initials,
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        objects: BTreeMap::new(),
                        next_ticket: 0,
                        counters: ShardCounters::default(),
                        log: WorkerLog::new(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            mask: shards - 1,
            wait_slice: Duration::from_millis(5),
            give_up: AtomicBool::new(false),
            granted: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            timeout_rescues: AtomicU64::new(0),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attach a live telemetry handle (builder-style, before the table is
    /// shared): blocked intervals and hold times start feeding its
    /// histograms.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Tee every shard's object actions into a durable sink
    /// (builder-style, before the table is shared). Shard logs stamp under
    /// the shard mutex, and the sink stamps under its own append mutex, so
    /// persisted order still equals stamp order per object.
    pub fn with_sink(mut self, sink: Arc<dyn ActionSink>) -> Self {
        for shard in &mut self.shards {
            shard.state.get_mut().expect("shard poisoned").log =
                WorkerLog::with_sink(Arc::clone(&sink));
        }
        self
    }

    /// Tee every shard's object actions into the live certifier
    /// (builder-style, before the table is shared; after [`with_sink`]
    /// when both are mounted — `with_sink` replaces the shard logs).
    pub fn with_feed(mut self, feed: nt_sgt_live::FeedHandle) -> Self {
        for shard in &mut self.shards {
            let st = shard.state.get_mut().expect("shard poisoned");
            st.log = std::mem::take(&mut st.log).with_feed(feed.clone());
        }
        self
    }

    fn shard_of(&self, x: ObjId) -> &Shard {
        &self.shards[x.index() & self.mask]
    }

    /// Acquire the lock access `t` needs for `op` on `x`, blocking until
    /// granted or doomed. `op` must be a read/write-register operation.
    pub fn acquire(&self, t: TxId, x: ObjId, op: &Op) -> Acquired {
        let write_like = !op.is_rw_read();
        let shard = self.shard_of(x);
        let mut st = shard.state.lock().expect("shard poisoned");
        let mut my_ticket: Option<u64> = None;
        let mut last_wait_timed_out = false;
        // Set when this acquire first parks; telemetry-only, so the
        // uncontended grant path never reads the wall clock.
        let mut wait_start: Option<Instant> = None;
        loop {
            // Doom / watchdog checks come first so a doomed waiter leaves
            // the queue promptly (its departure can unblock others).
            let doomed = self.status.doomed_ancestor(&self.tree, t).or_else(|| {
                if self.give_up.load(Ordering::Acquire) {
                    Some(self.tree.child_toward(TxId::ROOT, t))
                } else {
                    None
                }
            });
            let locks = st
                .objects
                .entry(x.0)
                .or_insert_with(|| ObjLocks::new(self.initials.initial(x)));
            if let Some(d) = doomed {
                if my_ticket.is_some() {
                    locks.waiters.retain(|w| w.t != t);
                    shard.cv.notify_all();
                }
                return Acquired::Doomed(d);
            }
            let eligible = moss_precondition_by(
                |a, b| self.tree.is_ancestor(a, b),
                t,
                write_like,
                locks.write.keys().copied(),
                locks.read.iter().copied(),
            );
            let earlier_eligible = locks.waiters.iter().any(|w| {
                my_ticket.is_none_or(|mine| w.ticket < mine)
                    && w.t != t
                    && moss_precondition_by(
                        |a, b| self.tree.is_ancestor(a, b),
                        w.t,
                        w.write_like,
                        locks.write.keys().copied(),
                        locks.read.iter().copied(),
                    )
            });
            if eligible && !earlier_eligible {
                let value = if write_like {
                    let data = op.write_data().expect("write-like rw op carries data");
                    locks.write.insert(t, data);
                    Value::Ok
                } else {
                    let v = locks.read_value(&self.tree);
                    locks.read.insert(t);
                    Value::Int(v)
                };
                if self.telemetry.is_enabled() {
                    locks.since.insert(t, Instant::now());
                }
                #[cfg(debug_assertions)]
                locks.check_lemma9(&self.tree, x);
                if my_ticket.is_some() {
                    locks.waiters.retain(|w| w.t != t);
                    if last_wait_timed_out {
                        self.timeout_rescues.fetch_add(1, Ordering::Relaxed);
                    }
                }
                st.counters.grants += 1;
                st.log
                    .record(&self.clock, Action::RequestCommit(t, value.clone()));
                self.granted.fetch_add(1, Ordering::Relaxed);
                shard.cv.notify_all();
                if let Some(start) = wait_start {
                    self.telemetry
                        .observe_lock_blocked(start.elapsed().as_micros() as u64);
                }
                return Acquired::Granted(value);
            }
            if my_ticket.is_none() {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                st.objects
                    .get_mut(&x.0)
                    .expect("just inserted")
                    .waiters
                    .push(Waiter {
                        ticket,
                        t,
                        write_like,
                    });
                my_ticket = Some(ticket);
                st.counters.waits += 1;
                self.blocked.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.is_enabled() {
                    wait_start = Some(Instant::now());
                }
            }
            let (next, timeout) = shard
                .cv
                .wait_timeout(st, self.wait_slice)
                .expect("shard poisoned");
            st = next;
            last_wait_timed_out = timeout.timed_out();
        }
    }

    /// `INFORM_COMMIT(t)` for every object in `objs`: move `t`'s locks
    /// (and tentative value) up to `parent(t)`.
    pub fn release_inherit(&self, t: TxId, objs: impl IntoIterator<Item = ObjId>) {
        let parent = self.tree.parent(t).expect("cannot inherit from T0");
        for x in objs {
            let shard = self.shard_of(x);
            let mut st = shard.state.lock().expect("shard poisoned");
            let mut held_us = None;
            if let Some(locks) = st.objects.get_mut(&x.0) {
                if let Some(v) = locks.write.remove(&t) {
                    locks.write.insert(parent, v);
                }
                if locks.read.remove(&t) {
                    locks.read.insert(parent);
                }
                // `t`'s hold ends here; the inherited lock starts the
                // parent's hold clock (unless it already holds one).
                if let Some(start) = locks.since.remove(&t) {
                    held_us = Some(start.elapsed().as_micros() as u64);
                    locks.since.entry(parent).or_insert_with(Instant::now);
                }
                #[cfg(debug_assertions)]
                locks.check_lemma9(&self.tree, x);
            }
            if let Some(us) = held_us {
                st.counters.hold_us += us;
                self.telemetry.observe_lock_hold(us);
            }
            st.log.record(&self.clock, Action::InformCommit(x, t));
            shard.cv.notify_all();
        }
    }

    /// `INFORM_ABORT(d)` for every object in `objs`: discard all locks held
    /// by descendants-or-self of `d`.
    pub fn discard(&self, d: TxId, objs: impl IntoIterator<Item = ObjId>) {
        for x in objs {
            let shard = self.shard_of(x);
            let mut st = shard.state.lock().expect("shard poisoned");
            let mut discarded_us = Vec::new();
            if let Some(locks) = st.objects.get_mut(&x.0) {
                locks.write.retain(|h, _| !self.tree.is_ancestor(d, *h));
                locks.read.retain(|h| !self.tree.is_ancestor(d, *h));
                let dead: Vec<TxId> = locks
                    .since
                    .keys()
                    .copied()
                    .filter(|h| self.tree.is_ancestor(d, *h))
                    .collect();
                for h in dead {
                    if let Some(start) = locks.since.remove(&h) {
                        discarded_us.push(start.elapsed().as_micros() as u64);
                    }
                }
            }
            for us in discarded_us {
                st.counters.hold_us += us;
                self.telemetry.observe_lock_hold(us);
            }
            st.log.record(&self.clock, Action::InformAbort(x, d));
            shard.cv.notify_all();
        }
    }

    /// Snapshot of the wait-for relation for the deadlock detector: each
    /// parked waiter with the lockholders currently blocking it. Shards are
    /// locked one at a time, so the snapshot is per-shard (not globally)
    /// consistent — the detector re-confirms any cycle by dooming through
    /// the status CAS, which refuses completed transactions.
    pub fn waiting_snapshot(&self) -> Vec<(TxId, Vec<TxId>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = shard.state.lock().expect("shard poisoned");
            for locks in st.objects.values() {
                for w in &locks.waiters {
                    let blockers = moss_blockers_by(
                        |a, b| self.tree.is_ancestor(a, b),
                        w.t,
                        w.write_like,
                        locks.write.keys().copied(),
                        locks.read.iter().copied(),
                    );
                    if !blockers.is_empty() {
                        out.push((w.t, blockers));
                    }
                }
            }
        }
        out
    }

    /// Broadcast every shard's condvar (after the detector doomed a victim,
    /// so its blocked frames re-check their ancestry promptly).
    pub fn notify_all_shards(&self) {
        for shard in &self.shards {
            let _st = shard.state.lock().expect("shard poisoned");
            shard.cv.notify_all();
        }
    }

    /// Watchdog: make every current and future waiter give up.
    pub fn give_up(&self) {
        self.give_up.store(true, Ordering::Release);
        self.notify_all_shards();
    }

    /// Ship every shard log's buffered feed entries to the live
    /// certifier now. Feed sends are batched at transaction resolutions
    /// ([`WorkerLog::record`]); a certifier barrier (`CERT`) needs the
    /// still-buffered tail too, or the maintainer parks at the hole.
    pub fn flush_feeds(&self) {
        for shard in &self.shards {
            shard.state.lock().expect("shard poisoned").log.flush_feed();
        }
    }

    /// Clone the per-shard object-action logs — the session engine's
    /// history snapshot (`HISTORY_FETCH`, the end of a batch run); a live
    /// server's shards keep recording afterwards.
    pub fn snapshot_logs(&self) -> Vec<WorkerLog> {
        self.shards
            .iter()
            .map(|s| s.state.lock().expect("shard poisoned").log.clone())
            .collect()
    }

    /// Lock grants so far.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Requests that parked at least once.
    pub fn blocked(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    /// Grants that landed immediately after a timed-out condvar wait — a
    /// nonzero burst here would indicate a lost-wakeup bug that the timeout
    /// backstop papered over.
    pub fn timeout_rescues(&self) -> u64 {
        self.timeout_rescues.load(Ordering::Relaxed)
    }

    /// Per-shard lock-traffic counters (each shard's triple is snapshotted
    /// under its own mutex, so it is internally coherent).
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| s.state.lock().expect("shard poisoned").counters)
            .collect()
    }
}
