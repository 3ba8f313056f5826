//! Start-alignment aggregation (Šikšnys et al., SSDBM 2012).

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};

use flexoffers_model::{FlexOffer, Slice, TimeSlot};

use crate::error::AggregationError;
use crate::group::GroupingParams;

/// A flex-offer aggregated from a group of members, retaining enough
/// bookkeeping to disaggregate assignments back to them.
///
/// Construction locks every member at its earliest-start alignment: member
/// `i` is anchored `offset_i = tes_i - min_j tes_j` slots into the
/// aggregate's profile. Shifting the aggregate's start by `d` shifts every
/// member by the same `d`, so the aggregate's time flexibility is the
/// *minimum* member time flexibility; slice ranges and total constraints
/// sum. The aggregate is therefore conservative in time but — because slice
/// sums and total sums relax cross-member coupling — can *overestimate*
/// joint energy flexibility; see
/// [`Aggregate::disaggregate`](crate::disaggregate) for how that surfaces.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    flexoffer: FlexOffer,
    members: Vec<FlexOffer>,
    offsets: Vec<TimeSlot>,
}

impl Aggregate {
    /// The aggregated flex-offer itself.
    pub fn flexoffer(&self) -> &FlexOffer {
        &self.flexoffer
    }

    /// The member flex-offers, in input order.
    pub fn members(&self) -> &[FlexOffer] {
        &self.members
    }

    /// Per-member profile offsets relative to the aggregate's earliest
    /// start.
    pub fn offsets(&self) -> &[TimeSlot] {
        &self.offsets
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the aggregate has no members (never constructed by
    /// [`aggregate`], which rejects empty groups).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// A new aggregate with `member` added — incremental maintenance for
    /// aggregators that receive flex-offers one at a time (the MIRABEL
    /// setting). Start-alignment state is a pure function of the member
    /// set, so this rebuilds; the method exists to keep call sites
    /// intention-revealing and to centralise the invariant.
    pub fn with_member(&self, member: FlexOffer) -> Self {
        let mut members = self.members.clone();
        members.push(member);
        aggregate(&members).expect("non-empty by construction")
    }

    /// A new aggregate with the member at `index` removed, or `None` when
    /// removing the last member (an empty aggregate is not a thing).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn without_member(&self, index: usize) -> Option<Self> {
        assert!(index < self.members.len(), "member index out of bounds");
        if self.members.len() == 1 {
            return None;
        }
        let mut members = self.members.clone();
        members.remove(index);
        Some(aggregate(&members).expect("still non-empty"))
    }
}

/// Aggregates the group selected by `indices` out of a shared offer slice —
/// the parallel-safe grouping entry point: workers aggregating disjoint
/// index groups share `offers` immutably and touch no other state, so a
/// batch engine can fan groups out across threads and merge results in
/// group order.
///
/// # Panics
///
/// Panics if any index is out of bounds for `offers`.
pub fn aggregate_indices(
    offers: &[FlexOffer],
    indices: &[usize],
) -> Result<Aggregate, AggregationError> {
    let members: Vec<&FlexOffer> = indices.iter().map(|&i| &offers[i]).collect();
    aggregate_refs(&members)
}

/// [`aggregate`] over borrowed members — for callers whose offers live
/// in several places (a live book's shards), so the only copy made is
/// the one the aggregate keeps.
pub fn aggregate_refs(members: &[&FlexOffer]) -> Result<Aggregate, AggregationError> {
    aggregate_members(members)
}

/// Aggregates a group of flex-offers by start alignment.
///
/// * `tes_A = min(tes_i)`, `tls_A = tes_A + min(tf_i)`;
/// * slice `k` sums the member slices anchored there (absent members
///   contribute nothing);
/// * `cmin_A = sum(cmin_i)`, `cmax_A = sum(cmax_i)`.
pub fn aggregate(members: &[FlexOffer]) -> Result<Aggregate, AggregationError> {
    aggregate_members(members)
}

/// The one start-alignment implementation behind [`aggregate`] and
/// [`aggregate_refs`].
fn aggregate_members<M: Borrow<FlexOffer>>(members: &[M]) -> Result<Aggregate, AggregationError> {
    if members.is_empty() {
        return Err(AggregationError::EmptyGroup);
    }
    let each = || members.iter().map(Borrow::borrow);
    let anchor = each()
        .map(FlexOffer::earliest_start)
        .min()
        .expect("non-empty");
    let min_tf = each()
        .map(FlexOffer::time_flexibility)
        .min()
        .expect("non-empty");
    let offsets: Vec<TimeSlot> = each().map(|m| m.earliest_start() - anchor).collect();
    let profile_len = each()
        .zip(&offsets)
        .map(|(m, off)| off + m.slice_count() as i64)
        .max()
        .expect("non-empty");

    let mut mins = vec![0i64; profile_len as usize];
    let mut maxs = vec![0i64; profile_len as usize];
    for (m, off) in each().zip(&offsets) {
        for (j, s) in m.slices().iter().enumerate() {
            let k = (*off + j as i64) as usize;
            mins[k] += s.min();
            maxs[k] += s.max();
        }
    }
    let slices: Vec<Slice> = mins
        .into_iter()
        .zip(maxs)
        .map(|(lo, hi)| Slice::new(lo, hi).expect("sum of ordered ranges is ordered"))
        .collect();
    let total_min = each().map(FlexOffer::total_min).sum();
    let total_max = each().map(FlexOffer::total_max).sum();
    let flexoffer = FlexOffer::with_totals(anchor, anchor + min_tf, slices, total_min, total_max)
        .expect("aggregation preserves flex-offer invariants");
    Ok(Aggregate {
        flexoffer,
        members: each().cloned().collect(),
        offsets,
    })
}

/// Groups a portfolio with `params` and aggregates each group; singleton
/// groups still become (trivial) aggregates, keeping the output uniform.
pub fn aggregate_portfolio(offers: &[FlexOffer], params: &GroupingParams) -> Vec<Aggregate> {
    crate::group::group_indices(offers, params)
        .into_iter()
        .map(|idx| aggregate_indices(offers, &idx).expect("grouping never yields empty groups"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fo(tes: i64, tls: i64, slices: Vec<(i64, i64)>) -> FlexOffer {
        FlexOffer::new(
            tes,
            tls,
            slices
                .into_iter()
                .map(|(a, b)| Slice::new(a, b).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn empty_group_rejected() {
        assert_eq!(aggregate(&[]), Err(AggregationError::EmptyGroup));
    }

    #[test]
    fn aggregate_indices_matches_direct_aggregation() {
        let offers = vec![
            fo(0, 2, vec![(1, 3)]),
            fo(1, 3, vec![(0, 2)]),
            fo(5, 9, vec![(2, 4)]),
        ];
        let by_index = aggregate_indices(&offers, &[0, 1]).unwrap();
        let direct = aggregate(&offers[..2]).unwrap();
        assert_eq!(by_index, direct);
        assert_eq!(
            aggregate_indices(&offers, &[]),
            Err(AggregationError::EmptyGroup)
        );
    }

    #[test]
    fn singleton_aggregate_is_identity() {
        let f = fo(2, 5, vec![(1, 3), (0, 2)]);
        let a = aggregate(std::slice::from_ref(&f)).unwrap();
        assert_eq!(a.flexoffer(), &f);
        assert_eq!(a.offsets(), &[0]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn aligned_members_sum_profiles() {
        let f = fo(0, 2, vec![(1, 2), (0, 1)]);
        let g = fo(0, 4, vec![(2, 3), (1, 1)]);
        let a = aggregate(&[f, g]).unwrap();
        let agg = a.flexoffer();
        // Time flexibility is the minimum: min(2, 4) = 2.
        assert_eq!(agg.earliest_start(), 0);
        assert_eq!(agg.time_flexibility(), 2);
        // Profiles sum slice-wise.
        assert_eq!(agg.slices()[0], Slice::new(3, 5).unwrap());
        assert_eq!(agg.slices()[1], Slice::new(1, 2).unwrap());
        // Totals sum.
        assert_eq!(agg.total_min(), 1 + 3);
        assert_eq!(agg.total_max(), 3 + 4);
    }

    #[test]
    fn offset_members_extend_profile() {
        let early = fo(0, 3, vec![(1, 1)]);
        let late = fo(2, 5, vec![(4, 4), (2, 2)]);
        let a = aggregate(&[early, late]).unwrap();
        let agg = a.flexoffer();
        assert_eq!(a.offsets(), &[0, 2]);
        assert_eq!(agg.slice_count(), 4);
        assert_eq!(agg.slices()[0], Slice::fixed(1));
        assert_eq!(agg.slices()[1], Slice::fixed(0));
        assert_eq!(agg.slices()[2], Slice::fixed(4));
        assert_eq!(agg.slices()[3], Slice::fixed(2));
    }

    #[test]
    fn every_aggregate_start_maps_members_into_their_windows() {
        let f = fo(1, 4, vec![(0, 2)]);
        let g = fo(3, 5, vec![(1, 3)]);
        let a = aggregate(&[f.clone(), g.clone()]).unwrap();
        let agg = a.flexoffer();
        for t in agg.earliest_start()..=agg.latest_start() {
            for (m, off) in a.members().iter().zip(a.offsets()) {
                let member_start = t + off;
                assert!(member_start >= m.earliest_start());
                assert!(member_start <= m.latest_start());
            }
        }
    }

    #[test]
    fn time_flexibility_loss_is_min_rule() {
        // The aggregate keeps min(tf) = 0: full loss for the flexible one.
        let rigid = fo(3, 3, vec![(1, 1)]);
        let flexible = fo(0, 9, vec![(1, 1)]);
        let a = aggregate(&[rigid, flexible]).unwrap();
        assert_eq!(a.flexoffer().time_flexibility(), 0);
    }

    #[test]
    fn energy_flexibility_is_preserved_by_summation() {
        let f = fo(0, 2, vec![(0, 3)]);
        let g = fo(0, 2, vec![(1, 5)]);
        let a = aggregate(&[f.clone(), g.clone()]).unwrap();
        assert_eq!(
            a.flexoffer().energy_flexibility(),
            f.energy_flexibility() + g.energy_flexibility()
        );
    }

    #[test]
    fn mixed_aggregate_from_production_and_consumption() {
        let consumer = fo(0, 2, vec![(2, 4)]);
        let producer = fo(0, 2, vec![(-3, -1)]);
        let a = aggregate(&[consumer, producer]).unwrap();
        assert_eq!(a.flexoffer().sign(), flexoffers_model::SignClass::Mixed);
        assert_eq!(a.flexoffer().slices()[0], Slice::new(-1, 3).unwrap());
    }

    #[test]
    fn with_member_equals_batch_aggregation() {
        let a = fo(0, 2, vec![(1, 2)]);
        let b = fo(1, 4, vec![(0, 3)]);
        let c = fo(0, 3, vec![(2, 2), (1, 1)]);
        let incremental = aggregate(std::slice::from_ref(&a))
            .unwrap()
            .with_member(b.clone())
            .with_member(c.clone());
        let batch = aggregate(&[a, b, c]).unwrap();
        assert_eq!(incremental, batch);
    }

    #[test]
    fn without_member_inverts_with_member() {
        let a = fo(0, 2, vec![(1, 2)]);
        let b = fo(1, 4, vec![(0, 3)]);
        let base = aggregate(std::slice::from_ref(&a)).unwrap();
        let grown = base.with_member(b);
        let shrunk = grown.without_member(1).expect("two members");
        assert_eq!(shrunk, base);
        assert_eq!(shrunk.without_member(0), None);
    }

    #[test]
    #[should_panic(expected = "member index out of bounds")]
    fn without_member_bounds_checked() {
        let a = aggregate(&[fo(0, 2, vec![(1, 2)])]).unwrap();
        let _ = a.without_member(5);
    }

    #[test]
    fn serde_round_trip() {
        let a = aggregate(&[fo(0, 2, vec![(1, 2)]), fo(1, 3, vec![(0, 1)])]).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        let back: Aggregate = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
