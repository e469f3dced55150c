//! Lock-manager integration tests: the Moss ancestor-holder rule under
//! real blocking, a seeded condvar stress proving wakeups are not lost,
//! and a deliberate two-party deadlock resolved by the detector with the
//! victim salvaged through a retry replica.

use nt_engine::{run_plan, Acquired, EngineConfig, EnginePlan, LockTable, SeqClock, StatusTable};
use nt_model::rw::RwInitials;
use nt_model::{Op, TxId, TxTree, Value};
use nt_serial::ObjectTypes;
use nt_sim::{ChildOrder, ScriptPlan};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn table_for(tree: &Arc<TxTree>, shards: usize) -> LockTable {
    LockTable::new(
        Arc::clone(tree),
        Arc::new(StatusTable::new(tree.len())),
        Arc::new(SeqClock::new()),
        RwInitials::uniform(0),
        shards,
    )
}

/// A write under `A` must wait while an *unrelated* transaction read-holds
/// the object (Moss' rule: every conflicting holder must be an ancestor),
/// and must be granted the moment that holder's lock is discarded — even
/// though `A` itself still read-holds, because `A` is the writer's parent.
#[test]
fn upgrade_waits_for_unrelated_reader_not_for_ancestor() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let ar = tree.add_access(a, x, Op::Read);
    let aw = tree.add_access(a, x, Op::Write(5));
    let b = tree.add_inner(TxId::ROOT);
    let br = tree.add_access(b, x, Op::Read);
    let tree = Arc::new(tree);
    let table = table_for(&tree, 1);

    // A and B both end up read-holding x (locks inherited upward).
    assert_eq!(
        table.acquire(ar, x, &Op::Read),
        Acquired::Granted(Value::Int(0))
    );
    table.release_inherit(ar, [x]);
    assert_eq!(
        table.acquire(br, x, &Op::Read),
        Acquired::Granted(Value::Int(0))
    );
    table.release_inherit(br, [x]);

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            tx.send(table.acquire(aw, x, &Op::Write(5))).expect("send");
        });
        // The writer must be parked: B read-holds and is no ancestor of aw.
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "write must block while an unrelated reader holds the lock"
        );
        let snapshot = table.waiting_snapshot();
        assert!(
            snapshot
                .iter()
                .any(|(w, blockers)| *w == aw && blockers.contains(&b)),
            "snapshot must show aw blocked on B: {snapshot:?}"
        );
        // B aborts; its read lock is discarded. A's own read lock remains,
        // but A is the writer's parent — an ancestor holder never blocks.
        table.discard(b, [x]);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5))
                .expect("granted after discard"),
            Acquired::Granted(Value::Ok)
        );
    });
    assert_eq!(table.blocked(), 1);
}

/// Seeded condvar stress: four top-level transactions ping-pong write locks
/// on one object through park/notify cycles. Every grant that lands only
/// after a *timed-out* wait is counted by the table; if broadcasts were
/// being lost, every handoff would ride the 5 ms timeout backstop and the
/// counter would explode. A small residue is tolerated (a release can race
/// a concurrent timeout benignly); the bound fails long before the
/// backstop becomes the actual wakeup mechanism.
#[test]
fn condvar_stress_loses_no_wakeups() {
    const TOPS: usize = 4;
    const ROUNDS: usize = 25;
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let mut lanes: Vec<(TxId, Vec<TxId>)> = Vec::new();
    for i in 0..TOPS {
        let t = tree.add_inner(TxId::ROOT);
        let accesses = (0..ROUNDS)
            .map(|k| tree.add_access(t, x, Op::Write((i * ROUNDS + k) as i64)))
            .collect();
        lanes.push((t, accesses));
    }
    let tree = Arc::new(tree);
    let table = table_for(&tree, 1);

    std::thread::scope(|s| {
        for (t, accesses) in &lanes {
            let (tree, table) = (&tree, &table);
            s.spawn(move || {
                for &acc in accesses {
                    let op = tree.op_of(acc).expect("access carries an op").clone();
                    match table.acquire(acc, x, &op) {
                        Acquired::Granted(_) => {}
                        Acquired::Doomed(d) => panic!("nothing dooms here, got {d}"),
                    }
                    // Hand the lock all the way to T0 so every other lane's
                    // next access becomes eligible (T0 is everyone's
                    // ancestor) — maximal park/notify traffic.
                    table.release_inherit(acc, [x]);
                    table.release_inherit(*t, [x]);
                }
            });
        }
    });

    let granted = table.granted();
    assert_eq!(granted, (TOPS * ROUNDS) as u64, "every acquire must land");
    let rescues = table.timeout_rescues();
    assert!(
        rescues <= granted / 10,
        "timed-out-wait grants must be rare ({rescues} of {granted} grants \
         rode the timeout backstop — wakeups are being lost)"
    );
}

/// Hand-built deadlock: A writes x then y, B writes y then x, with enough
/// per-access latency that both grab their first lock before requesting the
/// second. The detector must doom a victim; the victim's slot must retry
/// through its pre-materialized replica; the recorded history must still
/// certify. Timing-dependent, so the fixture retries a few runs and
/// requires at least one to exhibit the full deadlock → victim → salvage
/// chain (every run, deadlocked or not, must certify).
#[test]
fn two_party_deadlock_is_detected_and_victim_salvaged() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let y = tree.add_object();
    let mut plans: BTreeMap<TxId, ScriptPlan> = BTreeMap::new();
    // lane(obj1, obj2) builds an inner transaction writing obj1 then obj2.
    let mut lane = |first, second, v: i64| {
        let t = tree.add_inner(TxId::ROOT);
        let a1 = tree.add_access(t, first, Op::Write(v));
        let a2 = tree.add_access(t, second, Op::Write(v + 1));
        (t, vec![a1, a2])
    };
    let (a, a_kids) = lane(x, y, 10);
    let (b, b_kids) = lane(y, x, 20);
    let (a2, a2_kids) = lane(x, y, 30); // replica of A's slot
    let (b2, b2_kids) = lane(y, x, 40); // replica of B's slot
    for (t, kids) in [(a, a_kids), (b, b_kids), (a2, a2_kids), (b2, b2_kids)] {
        plans.insert(
            t,
            ScriptPlan {
                children: kids,
                order: ChildOrder::Sequential,
            },
        );
    }
    let tree = Arc::new(tree);
    let plan = EnginePlan {
        tree: Arc::clone(&tree),
        plans,
        top: vec![a, b],
        retry_chains: BTreeMap::from([(TxId::ROOT, vec![vec![a2], vec![b2]])]),
        initials: RwInitials::uniform(0),
        types: ObjectTypes::uniform(2, Arc::new(nt_serial::RwRegister::new(0))),
    };
    let cfg = EngineConfig {
        threads: 2,
        shards: 2,
        access_latency_us: 20_000,
        backoff_round_us: 100,
        ..EngineConfig::default()
    };

    let mut deadlocked_and_salvaged = false;
    for attempt in 0..5 {
        let r = run_plan(&plan, &cfg).expect("fixture runs");
        assert!(!r.gave_up, "attempt {attempt}: watchdog must not fire");
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "attempt {attempt}: every run must certify, got {}",
            cert.verdict.name()
        );
        assert_eq!(r.committed_top + r.aborted_top, 2);
        if !r.victims.is_empty() {
            // Every victim must be a whole lane — a top-level transaction
            // of the executed tree (victims carry its ids, not the plan's)
            // — and its slot must have been salvaged by the replica
            // (retried, then committed) unless the replica itself fell to
            // a second cycle.
            assert!(
                r.victims
                    .iter()
                    .all(|v| r.tree.parent(v.victim) == Some(TxId::ROOT)),
                "unexpected victim set {:?}",
                r.victims
            );
            let stats = r.ledger.stats();
            if stats.salvaged >= 1 && r.committed_top == 2 {
                deadlocked_and_salvaged = true;
                break;
            }
        }
    }
    assert!(
        deadlocked_and_salvaged,
        "five runs of a 20ms-per-access crossed-lock fixture never produced \
         a detected deadlock with a salvaged victim"
    );
}
