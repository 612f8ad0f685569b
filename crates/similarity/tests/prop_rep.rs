//! Property tests for the cluster-representative algebra (§4.4): the O(|φ|)
//! incremental formulas must agree with brute-force pairwise computation for
//! arbitrary clusters and arbitrary add/remove sequences.

use std::collections::HashMap;

use nidc_similarity::{ClusterIndex, ClusterRep, RepBackend, TermAccumulator};
use nidc_textproc::{SparseVector, TermId};
use proptest::prelude::*;

const DIM: u32 = 12;

fn phi_strategy() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0u32..DIM, 0.01f64..1.0), 1..6).prop_map(|pairs| {
        SparseVector::from_entries(pairs.into_iter().map(|(t, w)| (TermId(t), w)).collect())
    })
}

/// Signed weights on which sums are exact (dyadic), so member weights cancel
/// to exactly `0.0` part-way through a sequence; non-dyadic ones; and `−0.0`.
fn weight_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-6i32..=6).prop_map(|n| n as f64 * 0.25),
        (-6i32..=6).prop_map(|n| n as f64 * 0.25),
        -1.0f64..1.0,
        Just(-0.0),
    ]
}

/// A member vector with signed weights. Built with `from_sorted`, so a
/// stored `±0.0` weight can reach the representative as it is.
fn signed_phi_strategy() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0u32..DIM, weight_strategy()), 1..6).prop_map(|pairs| {
        let unique: std::collections::BTreeMap<u32, f64> = pairs.into_iter().collect();
        SparseVector::from_sorted(unique.into_iter().map(|(t, w)| (TermId(t), w)).collect())
    })
}

/// Member lists in which about half the members repeat an earlier one
/// negated, so whole entries cancel exactly mid-sequence.
fn cancelling_members(max: usize) -> impl Strategy<Value = Vec<SparseVector>> {
    prop::collection::vec((signed_phi_strategy(), 0usize..16), 0..max).prop_map(|raw| {
        let mut out: Vec<SparseVector> = Vec::new();
        for (phi, pick) in raw {
            if pick < 8 && !out.is_empty() {
                let src = &out[pick % out.len()];
                let neg = src.iter().map(|(t, w)| (t, -w)).collect();
                out.push(SparseVector::from_sorted(neg));
            } else {
                out.push(phi);
            }
        }
        out
    })
}

/// `(term, weight bits)` of every stored entry, in order.
fn entry_bits(rep: &ClusterRep) -> Vec<(TermId, u64)> {
    let mut out = Vec::new();
    rep.for_each_entry(|t, w| out.push((t, w.to_bits())));
    out
}

/// Every cached statistic and stored entry, as raw bits.
fn rep_bits(rep: &ClusterRep) -> (usize, u64, u64, Vec<(TermId, u64)>) {
    (
        rep.size(),
        rep.cr_self().to_bits(),
        rep.ss().to_bits(),
        entry_bits(rep),
    )
}

/// The exact recompute as a hash map accumulates it: per term in member
/// order, zeros pruned, entries sorted, `cr_self = Σw²` over them.
fn hashmap_exact(members: &[SparseVector]) -> (usize, u64, u64, Vec<(TermId, u64)>) {
    let mut acc: HashMap<TermId, f64> = HashMap::new();
    let mut ss = 0.0;
    for phi in members {
        for (t, w) in phi.iter() {
            *acc.entry(t).or_insert(0.0) += w;
        }
        ss += phi.norm_sq();
    }
    let mut entries: Vec<(TermId, f64)> = acc.into_iter().filter(|&(_, w)| w != 0.0).collect();
    entries.sort_unstable_by_key(|&(t, _)| t);
    let cr_self: f64 = entries.iter().map(|(_, w)| w * w).sum();
    (
        members.len(),
        cr_self.to_bits(),
        ss.to_bits(),
        entries.iter().map(|&(t, w)| (t, w.to_bits())).collect(),
    )
}

fn brute_avg_sim(members: &[SparseVector]) -> f64 {
    let n = members.len();
    if n < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += members[i].dot(&members[j]);
            }
        }
    }
    acc / (n as f64 * (n as f64 - 1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// eq. 24: representative-based avg_sim equals pairwise avg_sim.
    #[test]
    fn avg_sim_matches_brute_force(members in prop::collection::vec(phi_strategy(), 0..12)) {
        let rep = ClusterRep::from_members(members.iter());
        let brute = brute_avg_sim(&members);
        prop_assert!((rep.avg_sim() - brute).abs() < 1e-9,
            "rep={} brute={brute}", rep.avg_sim());
    }

    /// eq. 26: the append preview equals the post-append value.
    #[test]
    fn append_preview_is_exact(
        members in prop::collection::vec(phi_strategy(), 1..10),
        newcomer in phi_strategy(),
    ) {
        let mut rep = ClusterRep::from_members(members.iter());
        let preview = rep.avg_sim_if_added(&newcomer);
        rep.add(&newcomer);
        prop_assert!((preview - rep.avg_sim()).abs() < 1e-9);
    }

    /// Deletion analogue of eq. 26: the removal preview equals the
    /// post-removal value.
    #[test]
    fn removal_preview_is_exact(
        members in prop::collection::vec(phi_strategy(), 3..10),
        idx in 0usize..3,
    ) {
        let mut rep = ClusterRep::from_members(members.iter());
        let preview = rep.avg_sim_if_removed(&members[idx]);
        rep.remove(&members[idx]);
        prop_assert!((preview - rep.avg_sim()).abs() < 1e-9);
    }

    /// Long interleaved add/remove chains do not drift from exact recompute.
    #[test]
    fn incremental_chain_has_bounded_drift(
        initial in prop::collection::vec(phi_strategy(), 1..8),
        churn in prop::collection::vec(phi_strategy(), 0..20),
    ) {
        let mut rep = ClusterRep::from_members(initial.iter());
        // add every churn doc then remove them again, in reverse
        for d in &churn {
            rep.add(d);
        }
        for d in churn.iter().rev() {
            rep.remove(d);
        }
        let mut exact = rep.clone();
        exact.recompute_exact(&mut TermAccumulator::new(), initial.iter());
        prop_assert!((rep.cr_self() - exact.cr_self()).abs() < 1e-8);
        prop_assert!((rep.ss() - exact.ss()).abs() < 1e-8);
        prop_assert_eq!(rep.size(), exact.size());
    }

    /// cr_sim between disjoint clusters obeys the merge identity (eq. 25).
    #[test]
    fn merge_identity(
        p_members in prop::collection::vec(phi_strategy(), 1..6),
        q_members in prop::collection::vec(phi_strategy(), 1..6),
    ) {
        let p = ClusterRep::from_members(p_members.iter());
        let q = ClusterRep::from_members(q_members.iter());
        let np = p.size() as f64;
        let nq = q.size() as f64;
        if np + nq < 2.0 {
            return Ok(());
        }
        let merged = (p.cr_self() + 2.0 * p.dot_rep(&q) + q.cr_self() - p.ss() - q.ss())
            / ((np + nq) * (np + nq - 1.0));
        let mut all = p_members.clone();
        all.extend(q_members.iter().cloned());
        prop_assert!((merged - brute_avg_sim(&all)).abs() < 1e-9);
    }

    /// avg_sim is never negative and g_term is consistent.
    #[test]
    fn invariants(members in prop::collection::vec(phi_strategy(), 0..10)) {
        let rep = ClusterRep::from_members(members.iter());
        prop_assert!(rep.avg_sim() >= 0.0);
        prop_assert!((rep.g_term() - rep.size() as f64 * rep.avg_sim()).abs() < 1e-12);
    }

    /// The dense and sparse storages are **bit-identical** (not merely
    /// close) through arbitrary interleaved add/remove churn — the property
    /// that lets the step-1 sweep pick either without touching the
    /// workspace's determinism contract.
    #[test]
    fn backends_bit_identical_under_churn(
        initial in prop::collection::vec(phi_strategy(), 0..8),
        churn in prop::collection::vec((phi_strategy(), prop::bool::ANY), 0..24),
        probe in phi_strategy(),
    ) {
        let mut dense = ClusterRep::new_with(RepBackend::Dense);
        let mut sparse = ClusterRep::new_with(RepBackend::Sparse);
        for d in &initial {
            dense.add(d);
            sparse.add(d);
        }
        // replay the same add/remove sequence through both; removals only
        // target documents currently in the cluster (mirrors the algorithm)
        let mut present: Vec<&SparseVector> = initial.iter().collect();
        for (d, is_add) in &churn {
            if *is_add || present.is_empty() {
                dense.add(d);
                sparse.add(d);
                present.push(d);
            } else {
                let victim = present.remove(present.len() / 2);
                dense.remove(victim);
                sparse.remove(victim);
            }
        }
        prop_assert_eq!(dense.size(), sparse.size());
        prop_assert!(dense.cr_self() == sparse.cr_self(),
            "cr_self: {} vs {}", dense.cr_self(), sparse.cr_self());
        prop_assert!(dense.ss() == sparse.ss());
        prop_assert!(dense.avg_sim() == sparse.avg_sim());
        prop_assert!(dense.g_term() == sparse.g_term());
        prop_assert!(dense.dot_doc(&probe) == sparse.dot_doc(&probe),
            "dot_doc: {} vs {}", dense.dot_doc(&probe), sparse.dot_doc(&probe));
        prop_assert!(dense.avg_sim_if_added(&probe) == sparse.avg_sim_if_added(&probe));
        prop_assert!(dense.g_term_if_added(&probe) == sparse.g_term_if_added(&probe));
        if dense.size() >= 2 && !present.is_empty() {
            let d = present[0];
            prop_assert!(dense.avg_sim_if_removed(d) == sparse.avg_sim_if_removed(d));
        }
    }

    /// The accumulator build of a representative is bit-identical to
    /// sequential `add`s — entries, `cr_self`, `ss` and size — through
    /// signed weights, exact mid-sequence cancellation and `−0.0`, with one
    /// accumulator reused across builds.
    #[test]
    fn accumulator_build_matches_sequential_adds(
        lists in prop::collection::vec(cancelling_members(12), 1..4),
    ) {
        let mut acc = TermAccumulator::new();
        for members in &lists {
            let mut sequential = ClusterRep::new();
            for phi in members {
                sequential.add(phi);
            }
            let built = ClusterRep::from_members_with(RepBackend::Sparse, &mut acc, members);
            prop_assert_eq!(rep_bits(&built), rep_bits(&sequential));
            let dense = ClusterRep::from_members_with(RepBackend::Dense, &mut acc, members)
                .into_sparse();
            prop_assert_eq!(rep_bits(&dense), rep_bits(&sequential));
        }
    }

    /// The accumulator `recompute_exact` equals a hash-map accumulation bit
    /// for bit, whatever state the representative was in and however often
    /// the accumulator was used before.
    #[test]
    fn accumulator_recompute_matches_hashmap_reference(
        start in cancelling_members(8),
        lists in prop::collection::vec(cancelling_members(12), 1..4),
    ) {
        let mut acc = TermAccumulator::new();
        let mut rep = ClusterRep::from_members(&start);
        for members in &lists {
            rep.recompute_exact(&mut acc, members);
            prop_assert_eq!(rep_bits(&rep), hashmap_exact(members));
        }
    }

    /// After random add/remove churn, re-mirroring each touched cluster
    /// (drop its postings, recompute it exactly, insert the new entries)
    /// leaves every postings list equal, entry for entry and in order, to
    /// the one a fresh `ClusterIndex::rebuild` gives. Clusters the churn
    /// emptied are dropped wholesale: their postings may hold residue at
    /// terms the emptied representative no longer lists.
    #[test]
    fn remirroring_matches_a_fresh_rebuild(
        k in 1usize..6,
        initial in cancelling_members(16),
        churn in prop::collection::vec((signed_phi_strategy(), 0usize..6, prop::bool::ANY), 0..24),
    ) {
        let mut acc = TermAccumulator::new();
        let mut members: Vec<Vec<SparseVector>> = vec![Vec::new(); k];
        for (i, phi) in initial.into_iter().enumerate() {
            members[i % k].push(phi);
        }
        let mut reps: Vec<ClusterRep> = members
            .iter()
            .map(|m| ClusterRep::from_members_with(RepBackend::Sparse, &mut acc, m))
            .collect();
        let mut index = ClusterIndex::new(k);
        index.rebuild(&reps);
        let mut dirty = vec![false; k];
        let mut emptied = vec![false; k];
        for (phi, q, is_add) in churn {
            let q = q % k;
            if is_add || members[q].is_empty() {
                reps[q].add(&phi);
                index.add(q, &phi);
                members[q].push(phi);
            } else {
                let mid = members[q].len() / 2;
                let victim = members[q].remove(mid);
                reps[q].remove(&victim);
                index.remove(q, &victim);
                emptied[q] |= members[q].is_empty();
            }
            dirty[q] = true;
        }
        index.drop_clusters(&emptied);
        for q in (0..k).filter(|&q| dirty[q]) {
            if !emptied[q] {
                index.unmirror(q, &reps[q]);
            }
            reps[q].recompute_exact(&mut acc, &members[q]);
            index.mirror(q, &reps[q]);
        }
        prop_assert!(index.mirrors(&reps));
        let mut fresh = ClusterIndex::new(k);
        fresh.rebuild(&reps);
        for t in 0..DIM {
            let (a, b) = (index.postings(TermId(t)), fresh.postings(TermId(t)));
            let bits = |l: &[(u32, f64)]| l.iter().map(|&(q, w)| (q, w.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(a), bits(b), "term {}", t);
        }
    }
}
