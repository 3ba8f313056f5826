//! The traced run: the same generated requests replayed in process
//! through each layer's public functions, in the order the server calls
//! them — frame parse, journal append (and sync, and snapshot when due),
//! apply or refresh + answer, reply render — with a span around each call.
//!
//! The replay runs three times from the same starting directory: a warm-up
//! with the tracer off for a third of the run's seconds, then exactly as
//! many requests with the tracer off and again with it on. The ratio of
//! the last two is `trace.overhead_pct`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flexoffers_cluster::{ClusterBook, WorkerSpec};
use flexoffers_engine::Budget;
use flexoffers_model::FlexOffer;
use flexoffers_net::frame;
use flexoffers_serving::{batch, Event, LiveBook, QueryKind, ServeConfig};
use flexoffers_storage::{load_snapshot, recover, save_snapshot, Journal, Snapshot};

use crate::gen::{owned, preload_offers, ConnGen, Spec, Tier, Workload, CONNECTIONS};
use crate::preload::{engine, serve_config, write_preload};
use crate::report::{Outcome, PER_LAYER};
use crate::server::{copy_dir, journal_path};
use crate::trace::Tracer;

/// When a replay pass stops.
#[derive(Clone, Copy)]
enum Limit {
    /// After this much wall time.
    Time(Duration),
    /// After exactly this many generated requests.
    Count(usize),
}

/// The book a replay drives.
enum Sink {
    /// An in-process sharded book, as `serve --shards`.
    Live(LiveBook),
    /// Shard worker processes, as `serve --workers`, beside the in-process
    /// book the same requests build (the reference it is compared with).
    Cluster {
        cluster: Box<ClusterBook>,
        reference: LiveBook,
    },
}

/// Counts taken at the layer boundaries.
#[derive(Default)]
struct Counters {
    request_bytes: u64,
    reply_bytes: u64,
    requests: u64,
    mutations: u64,
    mutations_since_query: u64,
    mutations_before_queries: u64,
    reevaluated: u64,
    aggregate_queries: u64,
    groups_cached: u64,
    syncs: u64,
    snapshot_bytes: u64,
    cluster_queries: u64,
    dirty_shards: u64,
    cached_shards: u64,
    dirty_bytes: u64,
    mismatches: Vec<String>,
}

/// One replay pass in progress.
struct Pass {
    sink: Sink,
    journal: Journal,
    snapshot_path: PathBuf,
    sync_every: u64,
    snapshot_every: Option<u64>,
    since_sync: u64,
    last_snapshot_seq: u64,
    counters: Counters,
    /// Generated requests replayed (barriers excluded).
    ops: usize,
    /// Wall time of the request loop and the barriers.
    elapsed: Duration,
    /// The book the replayed requests imply, in id order.
    expected: Vec<FlexOffer>,
}

/// What recovering a directory cost.
struct Recovery {
    replayed: u64,
}

/// Runs the traced replay of `workload` and reports its per-layer metrics.
pub fn run(
    flexctl: &Path,
    work: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Outcome, Tracer), String> {
    let spec = workload.spec();
    let preload = preload_offers(seed, spec.preload);
    let preload_dir = work.join("preload");
    write_preload(&spec, &preload_dir, &preload)?;
    let mut tr = Tracer::new(true);

    // What a server start pays to restore the preload (`setup_s`).
    let mut recovery = None;
    if spec.preload > 0 {
        let dir = work.join("recover-preload");
        copy_dir(&preload_dir, &dir)?;
        recovery = Some(measure_recovery(&spec, &dir, &mut tr)?);
    }

    // A warm-up pass (tracer off) fixes the request count; then the same
    // requests run untraced and traced, each from a fresh copy.
    let pass_in = |name: &str, limit: Limit, tracer: &mut Tracer| -> Result<Pass, String> {
        let dir = work.join(name);
        copy_dir(&preload_dir, &dir)?;
        replay(
            flexctl, &spec, workload, seed, &preload, &dir, limit, tracer,
        )
    };
    let third = Duration::from_secs_f64(seconds / 3.0);
    let requests = pass_in("warm-up", Limit::Time(third), &mut Tracer::new(false))?.ops;
    let untraced_elapsed =
        pass_in("untraced", Limit::Count(requests), &mut Tracer::new(false))?.elapsed;
    let mut pass = pass_in("traced", Limit::Count(requests), &mut tr)?;
    let traced_dir = work.join("traced");
    if spec.snapshot_every.is_none() {
        // What a clean shutdown writes.
        pass.snapshot(pass.counters.requests, &mut tr)?;
    }
    pass.journal.sync().map_err(|e| e.to_string())?;
    let journal_bytes = std::fs::metadata(journal_path(&traced_dir)).map_or(0, |m| m.len());

    // The oracle: the replayed book must answer like a batch evaluation
    // of the book the generated requests imply. The batch calls double
    // as the reference timing.
    let engine = engine(&spec);
    let config = ServeConfig::default();
    let mut correct = pass.counters.mismatches.is_empty();
    let mut out = Outcome::default();
    for m in &pass.counters.mismatches {
        out.note(m.clone());
    }
    for (kind, span) in [
        (QueryKind::Measure, "batch.answer.measure"),
        (QueryKind::Aggregate, "batch.answer.aggregate"),
    ] {
        let mut want = String::new();
        for _ in 0..3 {
            want = tr.time(span, 0, || {
                batch::answer(&engine, &config, &pass.expected, kind)
            });
        }
        let got = match &mut pass.sink {
            Sink::Live(book) => book.answer(kind),
            Sink::Cluster { cluster, .. } => cluster.answer(kind).map_err(|e| e.to_string())?,
        };
        if got != want {
            correct = false;
            out.note(format!(
                "oracle mismatch on the final {kind} answer of the replay"
            ));
        }
    }
    let respawns = match &mut pass.sink {
        Sink::Cluster { cluster, .. } => {
            let respawns = cluster.respawns();
            cluster.shutdown();
            respawns
        }
        Sink::Live(_) => 0,
    };
    let counters = std::mem::take(&mut pass.counters);
    let traced_elapsed = pass.elapsed;
    drop(pass);

    // Ingest recovers from its last periodic snapshot plus the suffix.
    if recovery.is_none() {
        recovery = Some(measure_recovery(&spec, &traced_dir, &mut tr)?);
    }
    let recovery = recovery.expect("measured above");

    let mean = |name: &str, scale: f64| tr.mean_ns(name).map_or(0.0, |ns| ns / scale);
    let total_ms = |name: &str| {
        tr.summary()
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("net.frame_parse_us", mean("net.frame_parse", 1e3));
    m.insert("net.reply_render_us", mean("net.reply_render", 1e3));
    m.insert(
        "net.request_bytes",
        ratio(counters.request_bytes as f64, counters.requests as f64),
    );
    m.insert(
        "net.reply_bytes",
        ratio(counters.reply_bytes as f64, counters.requests as f64),
    );
    m.insert("serving.apply_us.add", mean("serving.apply.add", 1e3));
    m.insert("serving.apply_us.update", mean("serving.apply.update", 1e3));
    m.insert("serving.apply_us.remove", mean("serving.apply.remove", 1e3));
    m.insert("serving.refresh_ms", mean("serving.refresh", 1e6));
    m.insert(
        "serving.answer_ms.measure",
        mean("serving.answer.measure", 1e6),
    );
    m.insert(
        "serving.answer_ms.aggregate",
        mean("serving.answer.aggregate", 1e6),
    );
    m.insert(
        "serving.offers_reevaluated_per_mutation",
        ratio(
            counters.reevaluated as f64,
            counters.mutations_before_queries as f64,
        ),
    );
    m.insert(
        "serving.groups_cache_hit_rate",
        ratio(
            counters.groups_cached as f64,
            counters.aggregate_queries as f64,
        ),
    );
    m.insert("batch.answer_ms.measure", mean("batch.answer.measure", 1e6));
    m.insert(
        "batch.answer_ms.aggregate",
        mean("batch.answer.aggregate", 1e6),
    );
    m.insert("storage.append_us", mean("storage.append", 1e3));
    m.insert("storage.sync_ms", mean("storage.sync", 1e6));
    m.insert("storage.syncs", counters.syncs as f64);
    m.insert("storage.snapshot_ms", mean("storage.snapshot", 1e6));
    m.insert("storage.snapshot_bytes", counters.snapshot_bytes as f64);
    m.insert("storage.journal_bytes", journal_bytes as f64);
    m.insert(
        "storage.load_snapshot_ms",
        mean("storage.load_snapshot", 1e6),
    );
    m.insert("storage.recover_ms", mean("storage.recover", 1e6));
    m.insert("storage.replayed_events", recovery.replayed as f64);
    m.insert("storage.replay_only_ms", mean("storage.replay_only", 1e6));
    m.insert("cluster.mutation_us", mean("cluster.mutation", 1e3));
    m.insert("cluster.answer_ms", mean("cluster.answer", 1e6));
    m.insert(
        "cluster.gather_hit_rate",
        ratio(
            counters.cached_shards as f64,
            (counters.cached_shards + counters.dirty_shards) as f64,
        ),
    );
    m.insert(
        "cluster.dirty_bytes_per_query",
        ratio(counters.dirty_bytes as f64, counters.cluster_queries as f64),
    );
    m.insert("cluster.respawns", respawns as f64);
    let inprocess = if counters.cluster_queries > 0 {
        (total_ms("serving.refresh")
            + total_ms("serving.answer.measure")
            + total_ms("serving.answer.aggregate"))
            / counters.cluster_queries as f64
    } else {
        0.0
    };
    m.insert("cluster.inprocess_answer_ms", inprocess);
    let incremental = m["serving.refresh_ms"] + m["serving.answer_ms.measure"];
    m.insert(
        "serving.incremental_vs_batch",
        ratio(incremental, m["batch.answer_ms.measure"]),
    );
    m.insert(
        "storage.snapshot_vs_replay",
        ratio(m["storage.recover_ms"], m["storage.replay_only_ms"]),
    );
    m.insert(
        "cluster.vs_inprocess",
        ratio(m["cluster.answer_ms"], m["cluster.inprocess_answer_ms"]),
    );
    let overhead = (traced_elapsed.as_secs_f64() / untraced_elapsed.as_secs_f64() - 1.0) * 100.0;
    m.insert("trace.overhead_pct", overhead);

    out.correct = correct;
    out.attempted = counters.requests;
    out.failed = 0;
    for (name, _) in PER_LAYER {
        out.metric(name, m.get(name).copied().unwrap_or(0.0));
    }
    out.note(format!(
        "serving.incremental_vs_batch {:.4} = (refresh {:.3} ms + measure answer {:.3} ms) / batch measure {:.3} ms",
        m["serving.incremental_vs_batch"],
        m["serving.refresh_ms"],
        m["serving.answer_ms.measure"],
        m["batch.answer_ms.measure"]
    ));
    out.note(format!(
        "storage.snapshot_vs_replay {:.4} = recover {:.3} ms (snapshot + {} replayed events) / replay-only {:.3} ms",
        m["storage.snapshot_vs_replay"],
        m["storage.recover_ms"],
        recovery.replayed,
        m["storage.replay_only_ms"]
    ));
    out.note(format!(
        "cluster.vs_inprocess {:.4} = cluster answer {:.3} ms / in-process refresh + answer {:.3} ms over {} queries",
        m["cluster.vs_inprocess"],
        m["cluster.answer_ms"],
        m["cluster.inprocess_answer_ms"],
        counters.cluster_queries
    ));
    out.note(format!(
        "trace.overhead_pct {overhead:.3} = traced {:.4} s / untraced {:.4} s over {requests} requests + {CONNECTIONS} barriers",
        traced_elapsed.as_secs_f64(),
        untraced_elapsed.as_secs_f64()
    ));
    out.note(format!(
        "counts: {} requests, {} mutations, {} syncs, {} aggregate queries",
        counters.requests, counters.mutations, counters.syncs, counters.aggregate_queries
    ));
    out.note(format!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    ));
    for (name, t) in tr.summary() {
        out.note(format!(
            "{name:<28} {:>9} {:>12.3} {:>12.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    Ok((out, tr))
}

/// Times `load_snapshot`, `recover`, and `recover` on the journal alone.
fn measure_recovery(spec: &Spec, dir: &Path, tr: &mut Tracer) -> Result<Recovery, String> {
    let config = serve_config(spec, dir);
    let durability = config
        .durability
        .clone()
        .expect("serve configs are durable");
    let shards = spec.tier.shards();
    tr.time("storage.load_snapshot", 0, || {
        load_snapshot(&durability.snapshot_path())
    })
    .map_err(|e| e.to_string())?;
    let (_, report) = tr
        .time("storage.recover", 0, || {
            recover(&config, shards, engine(spec))
        })
        .map_err(|e| e.to_string())?;
    let mut journal_only = config.clone();
    if let Some(d) = journal_only.durability.as_mut() {
        d.snapshot = Some(dir.join("no-snapshot"));
    }
    tr.time("storage.replay_only", 0, || {
        recover(&journal_only, shards, engine(spec))
    })
    .map_err(|e| e.to_string())?;
    Ok(Recovery {
        replayed: report.replayed,
    })
}

/// Replays the workload's requests from `dir` until `limit`, then one
/// barrier measure query per connection.
#[allow(clippy::too_many_arguments)]
fn replay(
    flexctl: &Path,
    spec: &Spec,
    workload: Workload,
    seed: u64,
    preload: &[FlexOffer],
    dir: &Path,
    limit: Limit,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let config = serve_config(spec, dir);
    let durability = config
        .durability
        .clone()
        .expect("serve configs are durable");
    let (book, report) =
        recover(&config, spec.tier.shards(), engine(spec)).map_err(|e| e.to_string())?;
    // Syncs are issued here on the configured cadence, so each is its own span.
    let journal = Journal::resume(
        &durability.journal,
        u64::MAX,
        report.committed_bytes,
        report.journal_events,
    )
    .map_err(|e| e.to_string())?;
    let sink = match spec.tier {
        Tier::Shards(_) => Sink::Live(book),
        Tier::Workers(workers) => {
            let budget = Budget::with_threads(spec.threads).map_err(|e| e.to_string())?;
            let worker = WorkerSpec::new(flexctl).arg("shard-worker");
            let mut cluster = ClusterBook::spawn(config.clone(), budget, workers, worker)
                .map_err(|e| e.to_string())?;
            for (id, offer) in book.live_ids().into_iter().zip(book.to_portfolio()) {
                cluster.add_at(id, offer).map_err(|e| e.to_string())?;
            }
            cluster.reserve_ids(book.next_id());
            Sink::Cluster {
                cluster: Box::new(cluster),
                reference: book,
            }
        }
    };
    let mut pass = Pass {
        sink,
        journal,
        snapshot_path: durability.snapshot_path(),
        sync_every: durability.sync_every,
        snapshot_every: durability.snapshot_every,
        since_sync: 0,
        last_snapshot_seq: report.snapshot_seq.unwrap_or(0),
        counters: Counters::default(),
        ops: 0,
        elapsed: Duration::ZERO,
        expected: Vec::new(),
    };
    let mut gens: Vec<ConnGen> = (0..CONNECTIONS)
        .map(|c| ConnGen::new(workload, seed, c, preload))
        .collect();
    let mut ids: Vec<Vec<u64>> = (0..CONNECTIONS).map(|c| owned(preload, c).0).collect();
    let mut exhausted = [false; CONNECTIONS];
    let started = Instant::now();
    let mut turn = 0;
    while !exhausted.iter().all(|&e| e) {
        let done = match limit {
            Limit::Time(d) => started.elapsed() >= d,
            Limit::Count(n) => pass.ops >= n,
        };
        if done {
            break;
        }
        let c = turn;
        turn = (turn + 1) % CONNECTIONS;
        if exhausted[c] {
            continue;
        }
        let Some(op) = gens[c].next_op() else {
            exhausted[c] = true;
            continue;
        };
        let assigned = pass.request(op.event(&ids[c]), tr)?;
        op.settle(&mut ids[c], assigned);
        pass.ops += 1;
    }
    for _ in 0..CONNECTIONS {
        pass.request(Event::Query(QueryKind::Measure), tr)?;
    }
    pass.elapsed = started.elapsed();
    let mut book: Vec<(u64, FlexOffer)> = ids
        .into_iter()
        .zip(&gens)
        .flat_map(|(ids, gen)| ids.into_iter().zip(gen.offers().iter().cloned()))
        .collect();
    book.sort_by_key(|(id, _)| *id);
    pass.expected = book.into_iter().map(|(_, offer)| offer).collect();
    Ok(pass)
}

impl Pass {
    /// One request through the layers; returns the id an add was given.
    fn request(&mut self, event: Event, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let r = self.counters.requests;
        self.counters.requests += 1;
        let line = frame::request_line(r, &event);
        self.counters.request_bytes += line.len() as u64 + 1;
        let root = tr.enter("request", r);
        let parsed = tr
            .time("net.frame_parse", r, || frame::parse(&line))
            .map_err(|e| e.message)?;
        let (reply, assigned) = match parsed.event {
            Event::Query(kind) => {
                let answer = self.query(r, kind, tr)?;
                (
                    tr.time("net.reply_render", r, || frame::ok_answer(r, &answer)),
                    None,
                )
            }
            mutation => {
                let assigned = self.mutate(r, mutation, tr)?;
                let reply = tr.time("net.reply_render", r, || match assigned {
                    Some(id) => frame::ok_assigned(r, id),
                    None => frame::ok_true(r),
                });
                (reply, assigned)
            }
        };
        self.counters.reply_bytes += reply.len() as u64 + 1;
        tr.exit(root);
        Ok(assigned)
    }

    /// Journal, then apply — the durable sink's order.
    fn mutate(&mut self, r: u64, event: Event, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let journal = &mut self.journal;
        tr.time("storage.append", r, || journal.append(&event))
            .map_err(|e| e.to_string())?;
        self.since_sync += 1;
        if self.since_sync >= self.sync_every {
            self.sync(r, tr)?;
        }
        self.counters.mutations += 1;
        self.counters.mutations_since_query += 1;
        let assigned = match &mut self.sink {
            Sink::Live(book) => apply_live(book, r, event, tr)?,
            Sink::Cluster { cluster, reference } => {
                let routed = tr
                    .time("cluster.mutation", r, || match event.clone() {
                        Event::Add(offer) => cluster.add(offer).map(Some),
                        Event::Update { id, offer } => cluster.update(id, offer).map(|()| None),
                        Event::Remove { id } => cluster.remove(id).map(|()| None),
                        Event::Query(_) => unreachable!("queries are not mutations"),
                    })
                    .map_err(|e| e.to_string())?;
                let assigned = apply_live(reference, r, event, tr)?;
                if routed != assigned {
                    return Err(format!(
                        "cluster assigned {routed:?} where the in-process book assigned {assigned:?}"
                    ));
                }
                assigned
            }
        };
        if let Some(every) = self.snapshot_every {
            if self.journal.seq() - self.last_snapshot_seq >= every {
                self.snapshot(r, tr)?;
            }
        }
        Ok(assigned)
    }

    fn sync(&mut self, r: u64, tr: &mut Tracer) -> Result<(), String> {
        let journal = &mut self.journal;
        tr.time("storage.sync", r, || journal.sync())
            .map_err(|e| e.to_string())?;
        self.since_sync = 0;
        self.counters.syncs += 1;
        Ok(())
    }

    /// Sync, then export the book and save it — the durable sink's snapshot.
    fn snapshot(&mut self, r: u64, tr: &mut Tracer) -> Result<(), String> {
        self.sync(r, tr)?;
        let seq = self.journal.seq();
        let (sink, path) = (&mut self.sink, &self.snapshot_path);
        tr.time("storage.snapshot", r, || {
            let export = match sink {
                Sink::Live(book) => book.export(),
                Sink::Cluster { cluster, .. } => cluster.export().map_err(|e| e.to_string())?,
            };
            save_snapshot(path, &Snapshot { seq, export }).map_err(|e| e.to_string())
        })?;
        self.last_snapshot_seq = seq;
        self.counters.snapshot_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        Ok(())
    }

    fn query(&mut self, r: u64, kind: QueryKind, tr: &mut Tracer) -> Result<String, String> {
        let counters = &mut self.counters;
        match &mut self.sink {
            Sink::Live(book) => Ok(live_query(counters, book, r, kind, tr)),
            Sink::Cluster { cluster, reference } => {
                let before = cluster.gather_stats();
                let answer = tr
                    .time("cluster.answer", r, || cluster.answer(kind))
                    .map_err(|e| e.to_string())?;
                let after = cluster.gather_stats();
                counters.cluster_queries += 1;
                counters.dirty_shards += after.dirty_shards - before.dirty_shards;
                counters.cached_shards += after.cached_shards - before.cached_shards;
                counters.dirty_bytes += after.dirty_bytes - before.dirty_bytes;
                let in_process = live_query(counters, reference, r, kind, tr);
                if in_process != answer {
                    counters.mismatches.push(format!(
                        "request {r}: the cluster's {kind} answer differs from in-process"
                    ));
                }
                Ok(answer)
            }
        }
    }
}

fn apply_live(
    book: &mut LiveBook,
    r: u64,
    event: Event,
    tr: &mut Tracer,
) -> Result<Option<u64>, String> {
    match event {
        Event::Add(offer) => Ok(Some(tr.time("serving.apply.add", r, || book.add(offer)))),
        Event::Update { id, offer } => tr
            .time("serving.apply.update", r, || book.update(id, offer))
            .map(|()| None)
            .map_err(|e| e.to_string()),
        Event::Remove { id } => tr
            .time("serving.apply.remove", r, || book.remove(id))
            .map(|()| None)
            .map_err(|e| e.to_string()),
        Event::Query(_) => unreachable!("queries are not mutations"),
    }
}

/// Refresh, then answer, counting how many offers the refresh re-evaluated.
fn live_query(
    counters: &mut Counters,
    book: &mut LiveBook,
    r: u64,
    kind: QueryKind,
    tr: &mut Tracer,
) -> String {
    let sizes = book.shard_sizes();
    let before = book.evaluations();
    if kind == QueryKind::Aggregate {
        counters.aggregate_queries += 1;
        counters.groups_cached += u64::from(book.groups_cached());
    }
    tr.time("serving.refresh", r, || book.refresh());
    let after = book.evaluations();
    counters.reevaluated += sizes
        .iter()
        .zip(before.iter().zip(&after))
        .map(|(size, (b, a))| (size * (a - b)) as u64)
        .sum::<u64>();
    counters.mutations_before_queries += counters.mutations_since_query;
    counters.mutations_since_query = 0;
    let span = match kind {
        QueryKind::Measure => "serving.answer.measure",
        QueryKind::Aggregate => "serving.answer.aggregate",
        QueryKind::Schedule => "serving.answer.schedule",
        QueryKind::Trade => "serving.answer.trade",
    };
    tr.time(span, r, || book.answer(kind))
}
