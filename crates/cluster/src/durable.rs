//! The durable cluster: a [`ClusterBook`] behind the same
//! journal-before-apply [`EventSink`] discipline as
//! [`DurableBook`](flexoffers_storage::DurableBook).
//!
//! [`DurableCluster::open`] recovers the book **in-process** (snapshot +
//! journal-suffix replay through the existing
//! [`flexoffers_storage::recover()`] path — recovery correctness
//! stays single-process and already-proptested), then seeds the worker
//! fleet by routing every recovered offer under its original id. Because
//! answers are invariant under shard-local insertion order only insofar
//! as the *routed subsequences* match — and seeding in ascending id order
//! reproduces exactly the local orders a compacted book would have — the
//! seeded cluster answers byte-identically to the recovered in-process
//! book.
//!
//! From there the discipline is `DurableBook`'s, verbatim: each mutation
//! journals before it routes, queries are never journaled, snapshots are
//! cut from the *gathered* merged export every `snapshot_every` mutations
//! (journal synced first) and at clean shutdown. The snapshot a cluster
//! writes is bit-compatible with the in-process tier's — `serve
//! --workers N` and plain `serve` can adopt each other's files.

use std::path::PathBuf;

use flexoffers_engine::{Budget, Engine};
use flexoffers_serving::{Event, EventSink, ServeConfig};
use flexoffers_storage::{recover, save_snapshot, Journal, RecoveryReport, Snapshot, StorageError};

use crate::supervisor::{ClusterBook, ClusterError, WorkerSpec};

/// What a durable-cluster operation can fail with: the storage tier's
/// errors (journal, snapshot, recovery) or the cluster tier's (worker
/// loss, protocol faults).
#[derive(Debug)]
#[non_exhaustive]
pub enum DurableClusterError {
    /// The journal/snapshot/recovery layer failed.
    Storage(StorageError),
    /// The worker fleet failed.
    Cluster(ClusterError),
}

impl std::fmt::Display for DurableClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableClusterError::Storage(e) => write!(f, "{e}"),
            DurableClusterError::Cluster(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableClusterError::Storage(e) => Some(e),
            DurableClusterError::Cluster(e) => Some(e),
        }
    }
}

impl From<StorageError> for DurableClusterError {
    fn from(e: StorageError) -> Self {
        DurableClusterError::Storage(e)
    }
}

impl From<ClusterError> for DurableClusterError {
    fn from(e: ClusterError) -> Self {
        DurableClusterError::Cluster(e)
    }
}

/// A worker fleet whose mutations are journaled before they scatter.
pub struct DurableCluster {
    cluster: ClusterBook,
    journal: Journal,
    snapshot_path: PathBuf,
    snapshot_every: Option<u64>,
    last_snapshot_seq: u64,
}

impl DurableCluster {
    /// Recovers from `config.durability`'s journal + snapshot, spawns
    /// `workers` shard processes, and seeds them with the recovered
    /// offers. Returns the sink alongside what recovery found.
    pub fn open(
        config: ServeConfig,
        budget: Budget,
        workers: usize,
        spec: WorkerSpec,
    ) -> Result<(Self, RecoveryReport), DurableClusterError> {
        let durability = config
            .durability
            .clone()
            .ok_or(StorageError::MissingDurability)?;
        // Recover in-process first: the worker count is the shard count,
        // so the recovered book's placement is exactly the cluster's.
        let (recovered, report) = recover(&config, workers, Engine::new(budget))?;
        let journal = Journal::resume(
            &durability.journal,
            durability.sync_every,
            report.committed_bytes,
            report.journal_events,
        )?;
        let mut cluster = ClusterBook::spawn(config, budget, workers, spec)?;
        // Seed in ascending id order — the same local orders a compacted
        // in-process book has, so answers stay byte-identical.
        let ids = recovered.live_ids();
        let offers = recovered.to_portfolio();
        for (id, offer) in ids.into_iter().zip(offers) {
            cluster.add_at(id, offer)?;
        }
        cluster.reserve_ids(recovered.next_id());
        Ok((
            Self {
                cluster,
                journal,
                snapshot_path: durability.snapshot_path(),
                snapshot_every: durability.snapshot_every,
                last_snapshot_seq: report.snapshot_seq.unwrap_or(0),
            },
            report,
        ))
    }

    /// The wrapped cluster supervisor (respawn counters, pids, kill
    /// hooks).
    pub fn cluster(&self) -> &ClusterBook {
        &self.cluster
    }

    /// Mutable access to the wrapped supervisor.
    pub fn cluster_mut(&mut self) -> &mut ClusterBook {
        &mut self.cluster
    }

    /// The journal sequence of the last journaled mutation.
    pub fn seq(&self) -> u64 {
        self.journal.seq()
    }

    /// Syncs the journal and writes a snapshot of the *gathered* cluster
    /// state at the current sequence, returning that sequence. The sync
    /// comes first so the snapshot's `seq` never points past durable
    /// journal bytes.
    pub fn snapshot_now(&mut self) -> Result<u64, DurableClusterError> {
        self.journal.sync()?;
        let snapshot = Snapshot {
            seq: self.journal.seq(),
            export: self.cluster.export()?,
        };
        save_snapshot(&self.snapshot_path, &snapshot)?;
        self.last_snapshot_seq = snapshot.seq;
        Ok(snapshot.seq)
    }

    fn maybe_snapshot(&mut self) -> Result<(), DurableClusterError> {
        if let Some(every) = self.snapshot_every {
            if self.journal.seq() - self.last_snapshot_seq >= every.max(1) {
                self.snapshot_now()?;
            }
        }
        Ok(())
    }
}

impl EventSink for DurableCluster {
    type Error = DurableClusterError;

    fn apply(&mut self, event: Event) -> Result<Option<String>, DurableClusterError> {
        let mutation = !matches!(event, Event::Query(_));
        if mutation {
            self.journal.append(&event)?;
        }
        let answer = self.cluster.apply(event)?;
        if mutation {
            self.maybe_snapshot()?;
        }
        Ok(answer)
    }

    fn finish(&mut self) -> Result<(), DurableClusterError> {
        self.journal.sync()?;
        self.snapshot_now()?;
        self.cluster.shutdown();
        Ok(())
    }
}
