//! Stable shard placement: which of K shards owns an offer id.
//!
//! The serving tier's live book routes every add to
//! `stable_shard(id, K)`, the cluster router sends each mutation to the
//! worker that placement names, and snapshot validation refuses an id
//! found in any other shard. All three must agree across processes,
//! platforms and toolchain releases, so the placement is a fixed integer
//! mix rather than the standard library's hasher.

/// `splitmix64` — a stable, platform-independent 64-bit mix. The standard
/// library's `DefaultHasher` is explicitly not stable across releases, and
/// shard placement must never silently change under a toolchain bump.
/// Public because every stable hash in the workspace (shard placement
/// here, the serving tier's group-key digests) must share one definition.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Which of `shards` shards owns the offer with id `id`:
/// `splitmix64(id) % shards`.
///
/// # Panics
///
/// Panics if `shards` is zero — callers guard with
/// [`EngineError::ZeroShards`](crate::EngineError::ZeroShards) first.
pub fn stable_shard(id: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be at least 1");
    (splitmix64(id) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_placement_is_stable() {
        // Golden values: snapshots on disk (placement and key digests) and
        // the cluster's routing depend on them, so a change here is a
        // format break.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        let ids = [0, 1, 2, 3, 4, 5, 6, 7, 42, 1000, 1 << 32, u64::MAX];
        let golden: [(usize, [usize; 12]); 3] = [
            (2, [1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0]),
            (3, [1, 2, 1, 0, 1, 2, 2, 0, 1, 1, 1, 2]),
            (8, [7, 1, 6, 5, 2, 2, 0, 7, 5, 0, 0, 0]),
        ];
        for (k, expected) in golden {
            let placed: Vec<usize> = ids.iter().map(|&id| stable_shard(id, k)).collect();
            assert_eq!(placed, expected, "placements moved at k = {k}");
        }
        assert!(ids.iter().all(|&id| stable_shard(id, 1) == 0));
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_panics() {
        stable_shard(7, 0);
    }
}
