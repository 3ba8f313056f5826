//! Recovery determinism properties — the acceptance bar of the durability
//! tier.
//!
//! Kill a durable serving run at *any* event, recover, and every query
//! answer must byte-match (a) an uninterrupted live run over the surviving
//! mutation prefix, and (b) the from-scratch batch oracle — at any shards
//! × threads × chunk × kernel budget. Separately, truncating the journal
//! at *every byte offset* must either recover cleanly (torn line dropped)
//! or fail with a named error, never panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use flexoffers_engine::{Budget, Engine, Kernel};
use flexoffers_model::{FlexOffer, Slice};
use flexoffers_serving::batch;
use flexoffers_serving::{
    DurabilityConfig, Event, EventSink, ImportError, LiveBook, QueryKind, ServeConfig,
};
use flexoffers_storage::{recover, save_snapshot, DurableBook, Snapshot, StorageError};
use proptest::prelude::*;

/// Scratch dir under the system temp dir (no tempfile crate in the tree),
/// removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> ScratchDir {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "flexoffers_recovery_{tag}_{}_{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

fn arb_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..5,
        prop::collection::vec((-5i64..5, 0i64..5), 1..5),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tes, window, raw, cmin_pos, cmax_pos)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            let pmin: i64 = slices.iter().map(Slice::min).sum();
            let pmax: i64 = slices.iter().map(Slice::max).sum();
            let cmin = pmin + ((pmax - pmin) as f64 * cmin_pos) as i64;
            let cmax = cmin + ((pmax - cmin) as f64 * cmax_pos) as i64;
            FlexOffer::with_totals(tes, tes + window, slices, cmin, cmax).unwrap()
        })
}

/// A raw op resolved against the ids live at apply time, so any generated
/// sequence is a valid event stream (see `crates/serving/tests/props.rs`).
#[derive(Clone, Debug)]
enum RawOp {
    Add(FlexOffer),
    Update(usize, FlexOffer),
    Remove(usize),
    Query(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    let op = (0usize..8, 0usize..1 << 20, arb_flexoffer()).prop_map(|(sel, pick, fo)| match sel {
        0..=2 => RawOp::Add(fo),
        3 | 4 => RawOp::Update(pick, fo),
        5 => RawOp::Remove(pick),
        _ => RawOp::Query(pick),
    });
    prop::collection::vec(op, 0..20)
}

fn resolve(ops: Vec<RawOp>) -> Vec<Event> {
    let mut live: Vec<u64> = Vec::new();
    let mut next_id: u64 = 0;
    let mut events = Vec::new();
    for op in ops {
        match op {
            RawOp::Add(offer) => {
                live.push(next_id);
                next_id += 1;
                events.push(Event::Add(offer));
            }
            RawOp::Update(pick, offer) => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    events.push(Event::Update { id, offer });
                }
            }
            RawOp::Remove(pick) => {
                if !live.is_empty() {
                    let id = live.swap_remove(pick % live.len());
                    events.push(Event::Remove { id });
                }
            }
            RawOp::Query(pick) => {
                events.push(Event::Query(QueryKind::all()[pick % 4]));
            }
        }
    }
    events
}

fn durable_config(journal: &Path, snapshot_every: Option<u64>, sync_every: u64) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            snapshot_every,
            sync_every,
            ..DurabilityConfig::new(journal)
        }),
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flagship property: run a durable book, kill it after a random
    /// number of events (no clean shutdown, snapshots possibly stale),
    /// recover under a *different* shards × threads × chunk × kernel
    /// budget, and every query answer byte-matches an uninterrupted
    /// memory-only run over the same mutation prefix — and the batch
    /// oracle.
    #[test]
    fn kill_at_random_event_recovers_byte_identically(
        ops in arb_ops(),
        cut_frac in 0usize..=100,
        serve_shards in 1usize..5,
        recover_shards in 1usize..5,
        threads in 1usize..4,
        chunk in 1usize..9,
        kernel_pick in 0usize..3,
        snapshot_pick in 0u64..7,
    ) {
        // 0 = no periodic snapshots; otherwise snapshot every 1..=6 events.
        let snapshot_every = (snapshot_pick > 0).then_some(snapshot_pick);
        let events = resolve(ops);
        let cut = events.len() * cut_frac / 100;
        let dir = scratch_dir("kill");
        // sync_every 1 so the surviving journal is exactly the applied
        // mutation prefix — the crash loses nothing, which is what makes
        // the uninterrupted reference well-defined.
        let config = durable_config(&dir.path().join("events.jsonl"), snapshot_every, 1);

        let (mut durable, _) =
            DurableBook::open(config.clone(), serve_shards, Engine::sequential()).unwrap();
        for event in &events[..cut] {
            durable.apply(event.clone()).expect("resolved events are valid");
        }
        drop(durable); // kill: no finish(), no shutdown snapshot

        let kernel = [Kernel::Scalar, Kernel::Columnar, Kernel::Auto][kernel_pick];
        let budget = Budget::with_threads(threads)
            .unwrap()
            .with_chunk_size(chunk)
            .unwrap()
            .with_kernel(kernel);
        let (mut recovered, report) =
            recover(&config, recover_shards, Engine::new(budget)).unwrap();

        let mutations: Vec<&Event> = events[..cut]
            .iter()
            .filter(|e| !matches!(e, Event::Query(_)))
            .collect();
        prop_assert_eq!(report.journal_events as usize, mutations.len());

        let mut uninterrupted =
            LiveBook::new(config.clone(), serve_shards, Engine::sequential()).unwrap();
        for event in &mutations {
            uninterrupted.apply((*event).clone()).expect("valid");
        }
        let logical = uninterrupted.to_portfolio();
        let flat = Engine::sequential();
        for kind in QueryKind::all() {
            let after_crash = recovered.answer(kind);
            let no_crash = uninterrupted.answer(kind);
            prop_assert_eq!(&after_crash, &no_crash, "{} diverged after recovery", kind);
            let oracle = batch::answer(&flat, &config, logical.as_slice(), kind);
            prop_assert_eq!(&after_crash, &oracle, "{} diverged from the batch oracle", kind);
        }
    }

    /// Torn-tail totality: truncating the journal at every byte offset
    /// either recovers cleanly to the complete-line prefix, or (with a
    /// deliberately corrupted snapshot) fails with a named error — never
    /// a panic, at any offset.
    #[test]
    fn truncation_at_every_byte_offset_never_panics(
        ops in arb_ops(),
        snapshot_at_frac in 0usize..=100,
    ) {
        let mutations: Vec<Event> = resolve(ops)
            .into_iter()
            .filter(|e| !matches!(e, Event::Query(_)))
            .collect();
        let dir = scratch_dir("torn");
        let journal_path = dir.path().join("events.jsonl");
        let config = durable_config(&journal_path, None, 1);
        let durability = config.durability.clone().unwrap();

        // Write the full journal through the real writer, snapshotting at
        // a random point so truncation can land before, at, or after it.
        let snapshot_at = mutations.len() * snapshot_at_frac / 100;
        let (mut durable, _) =
            DurableBook::open(config.clone(), 3, Engine::sequential()).unwrap();
        for (i, event) in mutations.iter().enumerate() {
            durable.apply(event.clone()).expect("valid");
            if i + 1 == snapshot_at {
                durable.snapshot_now().unwrap();
            }
        }
        drop(durable);

        let whole = std::fs::read(&journal_path).unwrap();
        for offset in 0..=whole.len() {
            std::fs::write(&journal_path, &whole[..offset]).unwrap();
            let complete_lines = whole[..offset].iter().filter(|&&b| b == b'\n').count();
            let (book, report) = recover(&config, 3, Engine::sequential())
                .unwrap_or_else(|e| panic!("offset {offset}: recovery errored: {e}"));
            prop_assert_eq!(
                report.journal_events as usize,
                complete_lines,
                "offset {} kept the wrong number of events",
                offset
            );
            prop_assert_eq!(
                report.dropped_torn_tail,
                offset > 0 && whole[offset - 1] != b'\n',
                "offset {} misreported its torn tail",
                offset
            );
            // Recovery state is the prefix state: live count must match a
            // replay of the surviving lines.
            let mut reference =
                LiveBook::new(config.clone(), 3, Engine::sequential()).unwrap();
            for event in &mutations[..complete_lines] {
                reference.apply(event.clone()).expect("valid");
            }
            prop_assert_eq!(book.live_ids(), reference.live_ids());
        }

        // With the snapshot corrupted instead, every offset is still a
        // named outcome: CorruptSnapshot when the snapshot is consulted.
        std::fs::write(durability.snapshot_path(), b"garbage\n{}\n").unwrap();
        std::fs::write(&journal_path, &whole).unwrap();
        let err = recover(&config, 3, Engine::sequential()).unwrap_err();
        prop_assert!(
            matches!(err, StorageError::CorruptSnapshot { .. }),
            "corrupt snapshot must be the named error, got {}",
            err
        );
    }
}

/// Deterministic single-case cousin of the proptest above, exercising a
/// larger stream with periodic snapshots — cheap insurance that the
/// proptest generators don't quietly shrink coverage.
#[test]
fn recovery_with_periodic_snapshots_matches_uninterrupted_run() {
    let dir = scratch_dir("periodic");
    let config = durable_config(&dir.path().join("events.jsonl"), Some(8), 3);

    let offers: Vec<FlexOffer> = (0..40)
        .map(|i| {
            FlexOffer::new(
                i % 6,
                i % 6 + 1 + i % 3,
                vec![Slice::new(-2 + i % 4, 3).unwrap()],
            )
            .unwrap()
        })
        .collect();
    let mut events: Vec<Event> = offers.iter().cloned().map(Event::Add).collect();
    events.push(Event::Remove { id: 11 });
    events.push(Event::Update {
        id: 12,
        offer: offers[0].clone(),
    });

    let (mut durable, _) = DurableBook::open(config.clone(), 4, Engine::sequential()).unwrap();
    for event in &events {
        durable.apply(event.clone()).unwrap();
    }
    drop(durable); // crash after the last event; snapshot sits at seq 40

    let (mut recovered, report) = recover(&config, 4, Engine::sequential()).unwrap();
    assert_eq!(report.journal_events, events.len() as u64);
    assert_eq!(report.snapshot_seq, Some(40));
    assert_eq!(report.replayed, events.len() as u64 - 40);

    let mut uninterrupted = LiveBook::new(config.clone(), 4, Engine::sequential()).unwrap();
    for event in &events {
        uninterrupted.apply(event.clone()).unwrap();
    }
    for kind in QueryKind::all() {
        assert_eq!(recovered.answer(kind), uninterrupted.answer(kind), "{kind}");
    }
}

/// A snapshot written mid-stream stays valid when the journal is cut back
/// exactly to its sequence: zero-replay recovery.
#[test]
fn zero_replay_recovery_from_an_exact_snapshot() {
    let dir = scratch_dir("exact");
    let journal_path = dir.path().join("events.jsonl");
    let config = durable_config(&journal_path, None, 1);
    let durability = config.durability.clone().unwrap();

    let (mut durable, _) = DurableBook::open(config.clone(), 2, Engine::sequential()).unwrap();
    for i in 0..9 {
        durable
            .apply(Event::Add(
                FlexOffer::new(i, i + 2, vec![Slice::new(0, 2).unwrap()]).unwrap(),
            ))
            .unwrap();
    }
    durable.snapshot_now().unwrap();
    drop(durable);

    // Hand-build the exact-seq case by re-saving the snapshot at the
    // journal's full length (snapshot_now already did) and recovering.
    let (mut recovered, report) = recover(&config, 2, Engine::sequential()).unwrap();
    assert_eq!(report.snapshot_seq, Some(9));
    assert_eq!(report.replayed, 0);
    assert_eq!(recovered.len(), 9);
    let answer = recovered.answer(QueryKind::Measure);
    assert!(answer.contains("\"offers\":9"), "{answer}");

    // And a snapshot one past the journal (hand-tampered) falls back to
    // full replay rather than erroring or panicking.
    let snapshot = Snapshot {
        seq: 10,
        export: recovered.export(),
    };
    save_snapshot(&durability.snapshot_path(), &snapshot).unwrap();
    let (_, report) = recover(&config, 2, Engine::sequential()).unwrap();
    assert_eq!(report.snapshot_seq, None, "ahead snapshot ignored");
    assert_eq!(report.replayed, 9);
}

/// A checksummed snapshot whose id counter sits at `u64::MAX` is refused
/// at recovery with a coded error: accepted, its first add would take the
/// last id and its second would reassign a live one.
#[test]
fn a_snapshot_with_an_exhausted_id_counter_is_refused() {
    let dir = scratch_dir("exhausted");
    let config = durable_config(&dir.path().join("events.jsonl"), None, 1);
    let durability = config.durability.clone().unwrap();

    let (mut durable, _) = DurableBook::open(config.clone(), 2, Engine::sequential()).unwrap();
    durable
        .apply(Event::Add(
            FlexOffer::new(0, 2, vec![Slice::new(0, 2).unwrap()]).unwrap(),
        ))
        .unwrap();
    let mut export = durable.book().export();
    drop(durable);

    export.next_id = u64::MAX;
    save_snapshot(&durability.snapshot_path(), &Snapshot { seq: 1, export }).unwrap();
    match recover(&config, 2, Engine::sequential()) {
        Err(StorageError::BadSnapshotState(ImportError::ExhaustedIds)) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("an exhausted id counter must not recover"),
    }
}
