//! The workloads: what each one preloads, how the server is started, and
//! the seeded request stream each connection sends.
//!
//! Inputs come only from the seed. A connection owns the offers it adds
//! plus its share of the preloaded book (ids `≡ c mod CONNECTIONS`), and
//! names them by *slot* — a position in its own list — so the same stream
//! replays against any server whatever ids it assigns. The load generator
//! and the traced replay both resolve slots against the ids their own
//! book handed out.

use flexoffers_model::FlexOffer;
use flexoffers_serving::{Event, QueryKind};
use flexoffers_workloads::{
    city_households_for, city_stream, DeviceModel, Dishwasher, EvCharger, HeatPump,
    PopulationStream, Refrigerator, SolarPanel, VehicleToGrid, WindTurbine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Closed-loop connections per workload.
pub const CONNECTIONS: usize = 2;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A 100k-offer book under scattered churn with a query every 16 requests.
    ChurnQuery,
    /// Durable ingest from an empty journal, then a SIGKILL and recovery.
    IngestDurable,
    /// The churn stream at 10k offers through two shard worker processes.
    ClusterQuery,
}

/// How a connection mixes its requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 15 mutations (update:remove:add ≈ 2:1:1) then 1 query (measure:aggregate 3:1).
    Churn,
    /// Adds, with every 8th request an update and every 12th a removal.
    Ingest,
}

/// Where the book lives in the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// In-process shards.
    Shards(usize),
    /// Shard worker processes.
    Workers(usize),
}

impl Tier {
    /// The shard count either way.
    pub fn shards(self) -> usize {
        match self {
            Tier::Shards(n) | Tier::Workers(n) => n,
        }
    }
}

/// Everything that defines a workload besides its seed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Offers in the book restored at start.
    pub preload: usize,
    /// In-process shards or worker processes.
    pub tier: Tier,
    /// `--threads`.
    pub threads: usize,
    /// `--sync-every`; `None` keeps the server default.
    pub sync_every: Option<u64>,
    /// `--snapshot-every`; `None` snapshots only at shutdown.
    pub snapshot_every: Option<u64>,
    /// The request mix.
    pub mix: Mix,
    /// Adds each connection can make before its stream ends.
    pub adds_per_conn: usize,
    /// Server start-ups timed for `setup_s` (the median is reported).
    pub setup_spawns: usize,
    /// When the connections stop sending.
    pub window: Window,
    /// Times one run starts the server, loads it, kills it and recovers
    /// it; the run reports pooled samples and medians over all cycles.
    pub cycles: usize,
}

/// When a workload's connections stop sending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// After the run's seconds, but not before the window has sampled this
    /// many queries (so the query p90 keeps ten samples beyond it) and
    /// 1000 mutations (so the mutation p99 does).
    Seconds {
        /// Queries to sample first.
        min_queries: usize,
    },
    /// When every connection's stream has run out: a fixed amount of
    /// work, so snapshots land at the same points on every run and
    /// recovery replays the same suffix.
    WholeStream,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::ChurnQuery,
        Workload::IngestDurable,
        Workload::ClusterQuery,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnQuery => "churn_query",
            Workload::IngestDurable => "ingest_durable",
            Workload::ClusterQuery => "cluster_query",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed knobs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ChurnQuery => Spec {
                preload: 100_000,
                tier: Tier::Shards(4),
                threads: 2,
                sync_every: None,
                snapshot_every: None,
                mix: Mix::Churn,
                adds_per_conn: 200_000,
                setup_spawns: 3,
                window: Window::Seconds { min_queries: 100 },
                cycles: 1,
            },
            Workload::IngestDurable => Spec {
                preload: 0,
                tier: Tier::Shards(4),
                threads: 2,
                sync_every: Some(1),
                snapshot_every: Some(25_000),
                mix: Mix::Ingest,
                adds_per_conn: 50_000,
                setup_spawns: 9,
                window: Window::WholeStream,
                cycles: 2,
            },
            Workload::ClusterQuery => Spec {
                preload: 10_000,
                tier: Tier::Workers(2),
                threads: 2,
                sync_every: None,
                snapshot_every: None,
                mix: Mix::Churn,
                adds_per_conn: 200_000,
                setup_spawns: 3,
                window: Window::Seconds { min_queries: 100 },
                cycles: 1,
            },
        }
    }
}

/// A well-mixed 64-bit hash (splitmix64), for deriving independent seeds.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The preloaded book: `count` city offers, ids `0..count` in order.
pub fn preload_offers(seed: u64, count: usize) -> Vec<FlexOffer> {
    if count == 0 {
        return Vec::new();
    }
    city_stream(mix64(seed), city_households_for(count))
        .take(count)
        .collect()
}

/// One connection's request: a mutation of one of its slots, an add, or
/// a query.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Add an offer (appends a slot).
    Add(FlexOffer),
    /// Replace the offer in `slot`.
    Update {
        /// Position in the connection's own list.
        slot: usize,
        /// The replacement.
        offer: FlexOffer,
    },
    /// Remove the offer in `slot` (the last slot moves into it).
    Remove {
        /// Position in the connection's own list.
        slot: usize,
    },
    /// A query.
    Query(QueryKind),
}

impl Op {
    /// The wire event, with slots resolved against `ids`.
    pub fn event(&self, ids: &[u64]) -> Event {
        match self {
            Op::Add(offer) => Event::Add(offer.clone()),
            Op::Update { slot, offer } => Event::Update {
                id: ids[*slot],
                offer: offer.clone(),
            },
            Op::Remove { slot } => Event::Remove { id: ids[*slot] },
            Op::Query(kind) => Event::Query(*kind),
        }
    }

    /// Applies an acknowledged op to the connection's id list (`assigned`
    /// is the id an add was given).
    pub fn settle(&self, ids: &mut Vec<u64>, assigned: Option<u64>) {
        match self {
            Op::Add(_) => ids.push(assigned.expect("an acknowledged add carries its id")),
            Op::Remove { slot } => {
                ids.swap_remove(*slot);
            }
            Op::Update { .. } | Op::Query(_) => {}
        }
    }

    /// Whether this op changes the book.
    pub fn is_mutation(&self) -> bool {
        !matches!(self, Op::Query(_))
    }
}

/// The seeded request stream of one connection. It tracks the offer in
/// each of the connection's slots as if every op were acknowledged, which
/// is what the correctness oracle compares the server against.
pub struct ConnGen {
    mix: Mix,
    rng: StdRng,
    adds: std::iter::Take<PopulationStream>,
    models: Vec<Box<dyn DeviceModel>>,
    offers: Vec<FlexOffer>,
    sent: u64,
    queries: u64,
}

impl ConnGen {
    /// Connection `conn` of `workload` under `seed`, owning the preloaded
    /// offers whose ids are `≡ conn mod CONNECTIONS`.
    pub fn new(workload: Workload, seed: u64, conn: usize, preload: &[FlexOffer]) -> Self {
        let spec = workload.spec();
        let conn_seed = mix64(seed ^ mix64(conn as u64 + 1));
        let households = city_households_for(spec.adds_per_conn);
        Self {
            mix: spec.mix,
            rng: StdRng::seed_from_u64(conn_seed),
            adds: city_stream(mix64(conn_seed), households).take(spec.adds_per_conn),
            models: vec![
                Box::new(EvCharger::default()),
                Box::new(Dishwasher::default()),
                Box::new(HeatPump::default()),
                Box::new(Refrigerator::default()),
                Box::new(SolarPanel::default()),
                Box::new(WindTurbine::default()),
                Box::new(VehicleToGrid::default()),
            ],
            offers: owned(preload, conn).1,
            sent: 0,
            queries: 0,
        }
    }

    /// The offer in every slot, as of the ops generated so far.
    pub fn offers(&self) -> &[FlexOffer] {
        &self.offers
    }

    /// The next request, or `None` once the connection's adds run out
    /// (ingest only; the churn stream outlasts any run).
    pub fn next_op(&mut self) -> Option<Op> {
        let i = self.sent;
        let op = match self.mix {
            Mix::Churn if i % 16 == 15 => {
                let kind = if self.queries % 4 == 3 {
                    QueryKind::Aggregate
                } else {
                    QueryKind::Measure
                };
                self.queries += 1;
                Op::Query(kind)
            }
            Mix::Churn => match self.rng.gen_range(0..4u32) {
                _ if self.offers.is_empty() => self.add()?,
                0 | 1 => self.update(),
                2 => self.remove(),
                _ => self.add()?,
            },
            Mix::Ingest if self.offers.is_empty() => self.add()?,
            Mix::Ingest if i % 8 == 7 => self.update(),
            Mix::Ingest if i % 12 == 11 => self.remove(),
            Mix::Ingest => self.add()?,
        };
        self.sent += 1;
        Some(op)
    }

    fn add(&mut self) -> Option<Op> {
        let offer = self.adds.next()?;
        self.offers.push(offer.clone());
        Some(Op::Add(offer))
    }

    /// Half the updates keep the offer's grouping key `(tes, tf)` and
    /// change only its profile; the other half draw a fresh offer.
    fn update(&mut self) -> Op {
        let slot = self.rng.gen_range(0..self.offers.len());
        let model = self.rng.gen_range(0..self.models.len());
        let fresh = self.models[model].generate(0, &mut self.rng);
        let offer = if self.rng.gen_bool(0.5) {
            let old = &self.offers[slot];
            FlexOffer::new(
                old.earliest_start(),
                old.latest_start(),
                fresh.slices().to_vec(),
            )
            .expect("a generated profile is non-empty and the old window is valid")
        } else {
            fresh
        };
        self.offers[slot] = offer.clone();
        Op::Update { slot, offer }
    }

    fn remove(&mut self) -> Op {
        let slot = self.rng.gen_range(0..self.offers.len());
        self.offers.swap_remove(slot);
        Op::Remove { slot }
    }
}

/// The preloaded ids and offers connection `conn` owns.
pub fn owned(preload: &[FlexOffer], conn: usize) -> (Vec<u64>, Vec<FlexOffer>) {
    preload
        .iter()
        .enumerate()
        .filter(|(id, _)| id % CONNECTIONS == conn)
        .map(|(id, offer)| (id as u64, offer.clone()))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(workload: Workload, seed: u64, n: usize) -> Vec<Op> {
        let preload = preload_offers(seed, 40);
        let mut gen = ConnGen::new(workload, seed, 0, &preload);
        (0..n).map_while(|_| gen.next_op()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        assert_eq!(
            ops(Workload::ChurnQuery, 3, 200),
            ops(Workload::ChurnQuery, 3, 200)
        );
        assert_ne!(
            ops(Workload::ChurnQuery, 3, 200),
            ops(Workload::ChurnQuery, 4, 200)
        );
    }

    #[test]
    fn churn_sends_one_query_in_sixteen_with_measure_three_to_one() {
        let ops = ops(Workload::ChurnQuery, 1, 16 * 8);
        let queries: Vec<_> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Query(kind) => Some((i, *kind)),
                _ => None,
            })
            .collect();
        assert_eq!(queries.len(), 8);
        assert!(queries.iter().all(|(i, _)| i % 16 == 15));
        let aggregates = queries
            .iter()
            .filter(|(_, k)| *k == QueryKind::Aggregate)
            .count();
        assert_eq!(aggregates, 2);
    }

    #[test]
    fn slots_track_every_acknowledged_op() {
        let preload = preload_offers(9, 30);
        let (mut ids, _) = owned(&preload, 1);
        let mut gen = ConnGen::new(Workload::IngestDurable, 9, 1, &preload);
        let mut next_id = 1000;
        for _ in 0..300 {
            let op = gen.next_op().expect("ingest has adds left");
            let _ = op.event(&ids);
            let assigned = matches!(op, Op::Add(_)).then(|| {
                next_id += 1;
                next_id
            });
            op.settle(&mut ids, assigned);
            assert_eq!(ids.len(), gen.offers().len());
        }
    }

    #[test]
    fn key_keeping_updates_keep_the_grouping_key() {
        let preload = preload_offers(5, 50);
        let mut gen = ConnGen::new(Workload::ChurnQuery, 5, 0, &preload);
        let mut kept = 0;
        for _ in 0..400 {
            let before = gen.offers().to_vec();
            if let Some(Op::Update { slot, offer }) = gen.next_op() {
                let old = &before[slot];
                if (old.earliest_start(), old.time_flexibility())
                    == (offer.earliest_start(), offer.time_flexibility())
                {
                    kept += 1;
                }
            }
        }
        assert!(kept > 20, "about half the updates keep the key, saw {kept}");
    }
}
