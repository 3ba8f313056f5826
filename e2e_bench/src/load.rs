//! The load generator: a closed loop of [`CONNECTIONS`] `NetClient`
//! connections, each sending its next request only after the previous
//! reply arrived. Every connection ends with a barrier measure query, and
//! the timed window closes when both barriers have returned, so the window
//! covers every mutation the server applied, not only the ones it
//! enqueued.
//!
//! Connections stop sending when the workload's [`Window`] says so, and
//! never after [`MAX_WINDOW`].

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use flexoffers_model::FlexOffer;
use flexoffers_net::{frame, parse_reply, NetClient, Reply};
use flexoffers_serving::{Event, QueryKind};

use crate::gen::{owned, ConnGen, Window, Workload, CONNECTIONS};
use crate::preload::event_bytes;
use crate::stats::Tally;

/// Mutations every window samples, so the mutation p99 keeps ten beyond it.
const MIN_MUTATIONS: usize = 1000;

/// The longest a window may last.
pub const MAX_WINDOW: Duration = Duration::from_secs(90);

/// Acknowledged requests of every connection so far, by kind.
#[derive(Default)]
struct Sampled {
    queries: AtomicUsize,
    mutations: AtomicUsize,
}

/// What one connection saw.
pub struct ConnReport {
    /// Every outcome, barrier included.
    pub tally: Tally,
    /// Round trips of acknowledged add/update/remove requests, in ms.
    pub mutation_ms: Vec<f64>,
    /// Round trips of acknowledged queries (barrier excluded), in ms.
    pub query_ms: Vec<f64>,
    /// Journal-line bytes of the acknowledged mutation events.
    pub mutation_bytes: u64,
    /// The connection's ids and offers after its acknowledged mutations.
    pub ids: Vec<u64>,
    /// The offer behind each id in `ids`.
    pub offers: Vec<FlexOffer>,
    /// The barrier answer and when it returned.
    pub barrier: Option<(Instant, String)>,
    /// Why the connection stopped early, if it did.
    pub fault: Option<String>,
}

/// The whole closed loop.
pub struct LoadReport {
    /// Every connection, in order.
    pub conns: Vec<ConnReport>,
    /// From the common start to the last barrier reply.
    pub window: Duration,
}

impl LoadReport {
    /// All connections' tallies together.
    pub fn tally(&self) -> Tally {
        let mut total = Tally::default();
        for conn in &self.conns {
            total.merge(&conn.tally);
        }
        total
    }

    /// The book the acknowledged mutations imply: `(id, offer)` in id order.
    pub fn expected_book(&self) -> Vec<FlexOffer> {
        let mut book: Vec<(u64, &FlexOffer)> = self
            .conns
            .iter()
            .flat_map(|c| c.ids.iter().copied().zip(&c.offers))
            .collect();
        book.sort_by_key(|(id, _)| *id);
        book.into_iter().map(|(_, offer)| offer.clone()).collect()
    }

    /// The barrier answer that returned last (it saw every mutation).
    pub fn last_barrier(&self) -> Option<&str> {
        self.conns
            .iter()
            .filter_map(|c| c.barrier.as_ref())
            .max_by_key(|(at, _)| *at)
            .map(|(_, answer)| answer.as_str())
    }
}

/// Runs the closed loop of `workload` against `addr` for `seconds`, each
/// connection starting from its share of the `preload`.
pub fn closed_loop(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    preload: &[FlexOffer],
    seconds: f64,
) -> LoadReport {
    let start_line = Barrier::new(CONNECTIONS);
    let sampled = Sampled::default();
    let spec = workload.spec();
    let (reports, starts): (Vec<ConnReport>, Vec<Instant>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (start_line, sampled) = (&start_line, &sampled);
                scope.spawn(move || {
                    let gen = ConnGen::new(workload, seed, c, preload);
                    let ids = owned(preload, c).0;
                    let enough = || match spec.window {
                        Window::Seconds { min_queries } => {
                            sampled.queries.load(Ordering::Relaxed) >= min_queries
                                && sampled.mutations.load(Ordering::Relaxed) >= MIN_MUTATIONS
                        }
                        Window::WholeStream => false,
                    };
                    run_conn(addr, ids, gen, seconds, start_line, sampled, &enough)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .unzip()
    });
    let start = starts.iter().min().copied().expect("connections ran");
    let end = reports
        .iter()
        .filter_map(|r| r.barrier.as_ref().map(|(at, _)| *at))
        .max()
        .unwrap_or_else(Instant::now);
    LoadReport {
        window: end.saturating_duration_since(start),
        conns: reports,
    }
}

fn run_conn(
    addr: SocketAddr,
    mut ids: Vec<u64>,
    mut gen: ConnGen,
    seconds: f64,
    start_line: &Barrier,
    sampled: &Sampled,
    enough: &dyn Fn() -> bool,
) -> (ConnReport, Instant) {
    let mut report = ConnReport {
        tally: Tally::default(),
        mutation_ms: Vec::new(),
        query_ms: Vec::new(),
        mutation_bytes: 0,
        ids: Vec::new(),
        offers: Vec::new(),
        barrier: None,
        fault: None,
    };
    let client = Conn::connect(addr);
    // Both connections start together, even when one was refused.
    start_line.wait();
    let start = Instant::now();
    let mut client = match client {
        Ok(client) => client,
        Err(e) => {
            report.tally.refused_connection();
            report.fault = Some(format!("connect {addr}: {e}"));
            return (report, start);
        }
    };
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        let now = Instant::now();
        if now >= start + MAX_WINDOW || (now >= deadline && enough()) {
            break;
        }
        let Some(op) = gen.next_op() else { break };
        let event = op.event(&ids);
        let (reply, ms) = client.call(&event);
        match reply {
            Ok(reply @ Reply::Ok { .. }) => {
                report.tally.answered_ok();
                op.settle(&mut ids, reply.assigned_id());
                if op.is_mutation() {
                    report.mutation_ms.push(ms);
                    report.mutation_bytes += event_bytes(&event);
                    sampled.mutations.fetch_add(1, Ordering::Relaxed);
                } else {
                    report.query_ms.push(ms);
                    sampled.queries.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Reply::Err { code, message, .. }) => {
                report.tally.answered_error();
                report.fault = Some(format!("{code}: {message}"));
                break;
            }
            Err(e) => {
                report.tally.transport_failure();
                report.fault = Some(e.to_string());
                break;
            }
        }
    }
    if report.fault.is_none() {
        match client.call(&Event::Query(QueryKind::Measure)).0 {
            Ok(Reply::Ok { payload, .. }) => {
                report.tally.answered_ok();
                report.barrier = Some((Instant::now(), payload));
            }
            Ok(Reply::Err { code, message, .. }) => {
                report.tally.answered_error();
                report.fault = Some(format!("barrier {code}: {message}"));
            }
            Err(e) => {
                report.tally.transport_failure();
                report.fault = Some(format!("barrier: {e}"));
            }
        }
    }
    report.ids = ids;
    report.offers = gen.offers().to_vec();
    (report, start)
}

/// A read-only closed loop: each connection sends `per_conn` queries
/// (measure:aggregate 3:1). Returns the round trips and the tally.
pub fn query_loop(addr: SocketAddr, per_conn: usize) -> (Vec<f64>, Tally) {
    let results: Vec<(Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut latencies = Vec::with_capacity(per_conn);
                    let Ok(mut client) = Conn::connect(addr) else {
                        tally.refused_connection();
                        return (latencies, tally);
                    };
                    for i in 0..per_conn {
                        let kind = if i % 4 == 3 {
                            QueryKind::Aggregate
                        } else {
                            QueryKind::Measure
                        };
                        match client.call(&Event::Query(kind)) {
                            (Ok(Reply::Ok { .. }), ms) => {
                                latencies.push(ms);
                                tally.answered_ok();
                            }
                            (Ok(Reply::Err { .. }), _) => tally.answered_error(),
                            (Err(_), _) => {
                                tally.transport_failure();
                                break;
                            }
                        }
                    }
                    (latencies, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    for (l, t) in results {
        latencies.extend(l);
        tally.merge(&t);
    }
    (latencies, tally)
}

/// A connection that frames each request before starting the clock, so a
/// round trip times the socket write to the reply line, not the client's
/// own JSON encoding and decoding.
struct Conn {
    client: NetClient,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            client: NetClient::connect(addr)?,
            next_id: 0,
        })
    }

    /// Sends `event`; returns the reply and the round trip in ms.
    fn call(&mut self, event: &Event) -> (io::Result<Reply>, f64) {
        let line = frame::request_line(self.next_id, event);
        self.next_id += 1;
        let sent = Instant::now();
        let raw = self.client.send_raw(&line);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let reply = raw.and_then(|raw| {
            let raw = raw.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the server closed the connection",
                )
            })?;
            parse_reply(&raw).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
        });
        (reply, ms)
    }
}

/// Asks one query on a fresh connection and returns the raw answer.
pub fn ask(addr: SocketAddr, kind: QueryKind) -> Result<String, String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match client.send_event(&Event::Query(kind)) {
        Ok(Reply::Ok { payload, .. }) => Ok(payload),
        Ok(Reply::Err { code, message, .. }) => Err(format!("{kind} query: {code}: {message}")),
        Err(e) => Err(format!("{kind} query: {e}")),
    }
}
