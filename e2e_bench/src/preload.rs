//! The journal directory a server starts from, made in process from the
//! seed: the preloaded offers journaled as adds, then the snapshot a
//! clean shutdown of a server that had answered a query would leave.

use std::path::Path;

use flexoffers_engine::{Budget, Engine};
use flexoffers_model::FlexOffer;
use flexoffers_serving::{DurabilityConfig, Event, EventSink, QueryKind, ServeConfig};
use flexoffers_storage::DurableBook;

use crate::gen::Spec;
use crate::server::journal_path;

/// The serving config `flexctl serve` runs under for `spec` on `dir`.
pub fn serve_config(spec: &Spec, dir: &Path) -> ServeConfig {
    let mut durability = DurabilityConfig::new(journal_path(dir));
    if let Some(n) = spec.sync_every {
        durability.sync_every = n;
    }
    durability.snapshot_every = spec.snapshot_every;
    ServeConfig {
        durability: Some(durability),
        ..ServeConfig::default()
    }
}

/// The engine `flexctl serve --threads N` builds.
pub fn engine(spec: &Spec) -> Engine {
    Engine::new(Budget::with_threads(spec.threads).expect("workload thread counts are positive"))
}

/// Bytes of the journal line each event occupies.
pub fn event_bytes(event: &Event) -> u64 {
    event.to_json_line().len() as u64 + 1
}

/// Writes the preload of `offers` into `dir` and returns the bytes of
/// the add events it journaled. An empty preload leaves `dir` empty.
pub fn write_preload(spec: &Spec, dir: &Path, offers: &[FlexOffer]) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if offers.is_empty() {
        return Ok(0);
    }
    let (mut durable, _) =
        DurableBook::open(serve_config(spec, dir), spec.tier.shards(), engine(spec))
            .map_err(|e| format!("open preload journal: {e}"))?;
    let mut bytes = 0;
    for offer in offers {
        let event = Event::Add(offer.clone());
        bytes += event_bytes(&event);
        durable
            .apply(event)
            .map_err(|e| format!("preload add: {e}"))?;
    }
    durable.book_mut().answer(QueryKind::Measure);
    durable
        .finish()
        .map_err(|e| format!("preload snapshot: {e}"))?;
    Ok(bytes)
}
