//! Parallel contraction and uncoarsening (Section IV-C).
//!
//! Cluster IDs after label propagation are arbitrarily distributed in
//! `0..n`. PE `r` is *responsible* for the IDs of its own fine range
//! `first..last` (`Ip` intervals). Every array below is sized by that
//! range, by the labels the PE sees, or by `p` — never by `n` or `n'`. The
//! contraction algorithm:
//!
//! 1. Every PE marks the distinct cluster IDs of its owned nodes in a
//!    dense flag array over its range: IDs inside its own range locally,
//!    the others ("foreign" labels, sorted and deduplicated) by message to
//!    the responsible PE, which marks them in its own array.
//! 2. One prefix walk over the flags numbers the marked IDs densely from
//!    this PE's offset, the prefix sum (`exscan`) of the counts; a
//!    reduction yields the coarse node count `n'`. Coarse IDs are thus
//!    dense in label order.
//! 3. Labels inside the range resolve locally. The foreign labels of owned
//!    and ghost nodes are queried from their responsible PEs; owners are
//!    label-ordered, so the replies arrive aligned with the sorted query.
//!    This gives the fine→coarse mapping `C`.
//! 4. Every label the PE sees gets a *slot*: foreign labels below the
//!    range, then the range, then foreign labels above it — monotone in
//!    the label, hence in the coarse ID. The owned nodes are counting-
//!    sorted by slot; per slot, a [`DenseRating`] over slots sums the
//!    neighbours' arc weights, its small touch list is sorted, and the
//!    quotient arcs `(cu, cv, w)` and `cu`'s node weight go straight into
//!    the send buffer of the PE owning `cu` in the coarse distribution.
//!    Slots are visited in order, so every buffer is sorted by `(cu, cv)`.
//! 5. Owners merge the `p` sorted runs (a stable sort detects them), sum
//!    duplicate arcs, and hand the sorted rows to
//!    [`DistGraph::from_rows`].
//!
//! Uncoarsening answers "which block is my coarse representative in" with
//! one query/answer `alltoallv` round-trip, also per the paper.

use pgp_dmp::collectives::{allreduce_sum, alltoallv, exscan_sum};
use pgp_dmp::dgraph::BlockDist;
use pgp_dmp::{Comm, DistGraph};
use pgp_graph::ids;
use pgp_graph::{Node, Weight, INVALID_NODE};
use pgp_lp::DenseRating;
use rustc_hash::FxHashMap;

/// Result of one parallel contraction step, from one PE's perspective.
pub struct ParContraction {
    /// The coarse distributed graph (this PE's part).
    pub coarse: DistGraph,
    /// `mapping[l] = global coarse node of fine local node l` — covers
    /// owned *and* ghost fine nodes (the paper propagates the mapping of
    /// ghosts from their owners; here it follows from ghost labels).
    pub mapping: Vec<Node>,
}

/// Generic owner lookup: resolves `value_of(local_index)` on the owner of
/// each queried global ID. `queries` may contain duplicates; the result is
/// aligned with `queries`.
pub fn query_owner_values<T: Clone + pgp_dmp::Wire>(
    comm: &Comm,
    dist: BlockDist,
    queries: &[Node],
    value_of: impl Fn(usize) -> T,
) -> Vec<T> {
    let p = comm.size();
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new(); p];
    let mut origin: Vec<(usize, usize)> = Vec::with_capacity(queries.len());
    for &g in queries {
        let owner = dist.owner(g);
        origin.push((owner, buckets[owner].len()));
        buckets[owner].push(g);
    }
    let incoming = alltoallv(comm, buckets);
    let answers: Vec<Vec<T>> = incoming
        .into_iter()
        .map(|qs| {
            qs.into_iter()
                .map(|g| {
                    let first = dist.first(comm.rank());
                    value_of(ids::global_index(ids::node_global(g) - first))
                })
                .collect()
        })
        .collect();
    let replies = alltoallv(comm, answers);
    origin
        .into_iter()
        .map(|(owner, idx)| replies[owner][idx].clone())
        .collect()
}

/// Contracts `graph` according to `labels` (global cluster IDs for owned +
/// ghost nodes, as produced by the parallel SCLP).
pub fn parallel_contract(comm: &Comm, graph: &DistGraph, labels: &[Node]) -> ParContraction {
    let _span = comm.recorder().span("contract");
    let n_local = graph.n_local();
    let n_all = n_local + graph.n_ghost();
    assert_eq!(labels.len(), n_all, "labels must cover owned + ghost nodes");
    let p = comm.size();
    let rank = comm.rank();
    let fine_dist = graph.dist();
    let first = fine_dist.first(rank);
    let last = fine_dist.last_excl(rank);
    let in_range = |c: Node| (first..last).contains(&ids::node_global(c));

    // Foreign labels (outside this PE's range), sorted and deduplicated.
    // `node_slot[l]` holds the position of node `l`'s label in `foreign`
    // until the slots are numbered below.
    let mut keyed: Vec<u64> = labels
        .iter()
        .enumerate()
        .filter(|&(_, &c)| !in_range(c))
        .map(|(l, &c)| (ids::node_global(c) << 32) | ids::count_global(l))
        .collect();
    keyed.sort_unstable();
    let mut foreign: Vec<Node> = Vec::new();
    let mut held_by_owned: Vec<bool> = Vec::new();
    let mut node_slot: Vec<Node> = vec![0; n_all];
    for &k in &keyed {
        let c = ids::global_node(k >> 32);
        let l = ids::global_index(k & 0xFFFF_FFFF);
        if foreign.last() != Some(&c) {
            foreign.push(c);
            held_by_owned.push(false);
        }
        node_slot[l] = ids::node_of_index(foreign.len() - 1);
        if l < n_local {
            held_by_owned[foreign.len() - 1] = true;
        }
    }
    drop(keyed);

    // -- Step 1: mark the cluster IDs of owned nodes on their responsible
    //    PEs: in-range IDs locally, foreign ones by message.
    let mut range_coarse: Vec<Node> = vec![INVALID_NODE; n_local];
    let mut my_count = 0u64;
    let mut mark = |c: Node| {
        let x = &mut range_coarse[ids::global_index(ids::node_global(c) - first)];
        if *x == INVALID_NODE {
            *x = 0;
            my_count += 1;
        }
    };
    for &c in labels[..n_local].iter().filter(|&&c| in_range(c)) {
        mark(c);
    }
    let mut to_resp: Vec<Vec<Node>> = vec![Vec::new(); p];
    for (&c, _) in foreign.iter().zip(&held_by_owned).filter(|(_, &h)| h) {
        to_resp[fine_dist.owner(c)].push(c);
    }
    for c in alltoallv(comm, to_resp).into_iter().flatten() {
        mark(c);
    }

    // -- Step 2: one prefix walk numbers the marked IDs densely from this
    //    PE's offset (`exscan`); a reduction yields `n'`.
    let offset = exscan_sum(comm, my_count);
    let n_coarse = allreduce_sum(comm, my_count);
    let marked = range_coarse.iter_mut().filter(|x| **x != INVALID_NODE);
    for (id, x) in (offset..).zip(marked) {
        *x = ids::global_node(id);
    }

    // -- Step 3: query the coarse IDs of the foreign labels. Owners are
    //    label-ordered, so the replies, concatenated in rank order, line
    //    up with `foreign`.
    let mut queries: Vec<Vec<Node>> = vec![Vec::new(); p];
    for &c in &foreign {
        queries[fine_dist.owner(c)].push(c);
    }
    let answers: Vec<Vec<Node>> = alltoallv(comm, queries)
        .into_iter()
        .map(|qs| {
            qs.into_iter()
                .map(|c| range_coarse[ids::global_index(ids::node_global(c) - first)])
                .collect()
        })
        .collect();
    let foreign_coarse: Vec<Node> = alltoallv(comm, answers).into_iter().flatten().collect();

    // Slots: foreign labels below the range, the range, foreign labels
    // above it. The order is monotone in the label, hence in the coarse ID.
    let n_below = foreign.partition_point(|&c| ids::node_global(c) < first);
    let mut slot_coarse: Vec<Node> = Vec::with_capacity(foreign.len() + n_local);
    slot_coarse.extend_from_slice(&foreign_coarse[..n_below]);
    slot_coarse.extend_from_slice(&range_coarse);
    slot_coarse.extend_from_slice(&foreign_coarse[n_below..]);
    // Free what later steps do not read before the big buffers grow.
    drop((foreign, held_by_owned, range_coarse, foreign_coarse));
    for (s, &c) in node_slot.iter_mut().zip(labels) {
        *s = if in_range(c) {
            ids::node_of_index(n_below) + ids::global_node(ids::node_global(c) - first)
        } else if ids::node_index(*s) < n_below {
            *s
        } else {
            *s + ids::node_of_index(n_local)
        };
    }
    let mapping: Vec<Node> = node_slot
        .iter()
        .map(|&s| slot_coarse[ids::node_index(s)])
        .collect();
    assert!(
        !mapping.contains(&INVALID_NODE),
        "a label has no coarse ID: a ghost's label is not held by any owned node"
    );

    // -- Step 4: counting-sort the owned nodes by slot, aggregate each
    //    slot's quotient arcs in a dense rating, and emit them in slot
    //    order, so every send buffer is sorted by `(cu, cv)`.
    let n_slots = slot_coarse.len();
    let mut slot_start: Vec<usize> = vec![0; n_slots + 1];
    for &s in &node_slot[..n_local] {
        slot_start[ids::node_index(s) + 1] += 1;
    }
    for i in 1..=n_slots {
        slot_start[i] += slot_start[i - 1];
    }
    let mut members: Vec<Node> = vec![0; n_local];
    let mut fill = slot_start.clone();
    for (u, &s) in node_slot[..n_local].iter().enumerate() {
        let at = &mut fill[ids::node_index(s)];
        members[*at] = ids::node_of_index(u);
        *at += 1;
    }
    drop(fill);

    let coarse_dist = BlockDist::new(n_coarse, p);
    let mut rating = DenseRating::new(n_slots);
    let mut row: Vec<(Node, Weight)> = Vec::new();
    let mut arc_sends: Vec<Vec<(Node, Node, Weight)>> = vec![Vec::new(); p];
    let mut weight_sends: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); p];
    for (s, range) in slot_start.windows(2).enumerate() {
        if range[0] == range[1] {
            continue;
        }
        let s = ids::node_of_index(s);
        let mut cluster_weight: Weight = 0;
        for &u in &members[range[0]..range[1]] {
            cluster_weight += graph.node_weight(u);
            for (v, w) in graph.neighbors(u) {
                let sv = node_slot[ids::node_index(v)];
                if sv != s {
                    rating.add(sv, w);
                }
            }
        }
        row.clear();
        row.extend(rating.iter());
        rating.clear();
        row.sort_unstable_by_key(|&(sv, _)| sv);
        let cu = slot_coarse[ids::node_index(s)];
        let owner = coarse_dist.owner(cu);
        weight_sends[owner].push((cu, cluster_weight));
        arc_sends[owner].extend(
            row.iter()
                .map(|&(sv, w)| (cu, slot_coarse[ids::node_index(sv)], w)),
        );
    }
    drop((rating, members, slot_start, node_slot, slot_coarse));
    let arc_recv = alltoallv(comm, arc_sends);
    let weight_recv = alltoallv(comm, weight_sends);

    // -- Step 5: merge the `p` sorted runs (a stable sort detects them),
    //    sum duplicate arcs, and hand the sorted rows to the assembly.
    let first_coarse = coarse_dist.first(rank);
    let n_owned = coarse_dist.count(rank);
    let mut arcs: Vec<(Node, Node, Weight)> = arc_recv.into_iter().flatten().collect();
    arcs.sort_by_key(|&(cu, cv, _)| (cu, cv));
    let mut row_end: Vec<u64> = vec![0; n_owned + 1];
    let mut targets: Vec<Node> = Vec::with_capacity(arcs.len());
    let mut weights: Vec<Weight> = Vec::with_capacity(arcs.len());
    let mut prev: Option<(Node, Node)> = None;
    for (cu, cv, w) in arcs {
        if prev == Some((cu, cv)) {
            *weights.last_mut().expect("a previous arc exists") += w;
            continue;
        }
        prev = Some((cu, cv));
        row_end[ids::global_index(ids::node_global(cu) - first_coarse) + 1] += 1;
        targets.push(cv);
        weights.push(w);
    }
    for i in 1..=n_owned {
        row_end[i] += row_end[i - 1];
    }
    let mut owned_weights: Vec<Weight> = vec![0; n_owned];
    for (c, w) in weight_recv.into_iter().flatten() {
        owned_weights[ids::global_index(ids::node_global(c) - first_coarse)] += w;
    }
    let coarse = DistGraph::from_rows(comm, n_coarse, owned_weights, row_end, targets, weights);
    #[cfg(feature = "validate")]
    {
        crate::validate::assert_graph_valid(comm, &coarse, "parallel_contract coarse graph");
        crate::validate::assert_contraction_valid(comm, graph, &coarse, &mapping);
    }
    ParContraction { coarse, mapping }
}

/// Parallel uncoarsening: every fine PE asks the owners of its coarse
/// representatives for their block IDs. `coarse_blocks` covers the coarse
/// graph's owned nodes on this PE; `mapping` is the fine→coarse mapping
/// from [`parallel_contract`]. Returns fine block IDs covering owned +
/// ghost fine nodes.
pub fn parallel_project_blocks(
    comm: &Comm,
    coarse: &DistGraph,
    mapping: &[Node],
    coarse_blocks: &[Node],
) -> Vec<Node> {
    assert_eq!(
        coarse_blocks.len(),
        coarse.n_local(),
        "one block per owned coarse node"
    );
    let mut want: Vec<Node> = mapping.to_vec();
    want.sort_unstable();
    want.dedup();
    let answers = query_owner_values(comm, coarse.dist(), &want, |idx| coarse_blocks[idx]);
    let block_of: FxHashMap<Node, Node> = want.into_iter().zip(answers).collect();
    mapping.iter().map(|c| block_of[c]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::{contract_clustering, CsrGraph};

    /// Sequential/parallel contraction equivalence on a fixed clustering.
    fn check_equivalence(g: &CsrGraph, clustering: &[Node], p: usize) {
        let seq = contract_clustering(g, clustering);
        let gathered = run(p, |comm| {
            let dg = DistGraph::from_global(comm, g);
            let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| clustering[dg.local_to_global(l) as usize])
                .collect();
            let c = parallel_contract(comm, &dg, &labels);
            (c.coarse.gather_global(comm), c.mapping)
        });
        for (coarse_global, _) in &gathered {
            assert_eq!(coarse_global.n(), seq.coarse.n(), "coarse node count");
            assert_eq!(coarse_global.m(), seq.coarse.m(), "coarse edge count");
            assert_eq!(
                coarse_global.total_edge_weight(),
                seq.coarse.total_edge_weight(),
                "coarse edge weight"
            );
            assert_eq!(
                coarse_global.total_node_weight(),
                seq.coarse.total_node_weight(),
                "coarse node weight"
            );
            // The renumbering is identical (both are label-order dense).
            assert_eq!(coarse_global, &seq.coarse);
        }
    }

    #[test]
    fn matches_sequential_contraction_on_sbm() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 3);
        let clustering = pgp_lp::sclp_cluster(&g, 40, 5, 1);
        for p in [1, 2, 3, 5] {
            check_equivalence(&g, &clustering, p);
        }
    }

    #[test]
    fn matches_sequential_contraction_on_grid() {
        let g = pgp_gen::mesh::grid2d(12, 12);
        let clustering = pgp_lp::sclp_cluster(&g, 12, 4, 7);
        check_equivalence(&g, &clustering, 4);
    }

    #[test]
    fn identity_clustering_keeps_graph() {
        let g = pgp_gen::mesh::grid2d(6, 6);
        let clustering: Vec<Node> = g.nodes().collect();
        check_equivalence(&g, &clustering, 3);
    }

    #[test]
    fn mapping_is_consistent_across_pes() {
        let g = pgp_gen::mesh::grid2d(8, 8);
        let clustering = pgp_lp::sclp_cluster(&g, 8, 4, 2);
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| clustering[dg.local_to_global(l) as usize])
                .collect();
            let c = parallel_contract(comm, &dg, &labels);
            // Report (fine global id, coarse id) pairs for owned nodes.
            (0..dg.n_local())
                .map(|l| (dg.local_to_global(l as Node), c.mapping[l]))
                .collect::<Vec<_>>()
        });
        // Two fine nodes in the same cluster must map to the same coarse id,
        // regardless of which PE owned them.
        let mut by_cluster: std::collections::HashMap<Node, Node> =
            std::collections::HashMap::new();
        for pairs in results {
            for (fine, coarse) in pairs {
                let cl = clustering[fine as usize];
                if let Some(&prev) = by_cluster.get(&cl) {
                    assert_eq!(prev, coarse, "cluster {cl} split across coarse ids");
                } else {
                    by_cluster.insert(cl, coarse);
                }
            }
        }
    }

    #[test]
    fn project_blocks_roundtrip() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        let clustering = pgp_lp::sclp_cluster(&g, 10, 4, 5);
        let fine_blocks = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| clustering[dg.local_to_global(l) as usize])
                .collect();
            let c = parallel_contract(comm, &dg, &labels);
            // Color coarse nodes by parity of their global coarse ID.
            let coarse_blocks: Vec<Node> = (0..c.coarse.n_local() as Node)
                .map(|l| c.coarse.local_to_global(l) % 2)
                .collect();
            let fine = parallel_project_blocks(comm, &c.coarse, &c.mapping, &coarse_blocks);
            (0..dg.n_local())
                .map(|l| (dg.local_to_global(l as Node), fine[l], c.mapping[l]))
                .collect::<Vec<_>>()
        });
        for pes in fine_blocks {
            for (_fine, block, coarse) in pes {
                assert_eq!(block, coarse % 2);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::{contract_clustering, GraphBuilder};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Parallel contraction equals sequential contraction for arbitrary
        /// graphs, clusterings, and PE counts.
        #[test]
        fn parallel_equals_sequential(
            n in 4usize..36,
            edges in proptest::collection::vec((0u32..36, 0u32..36, 1u64..4), 2..120),
            labels in proptest::collection::vec(0u32..36, 36),
            p in 1usize..6,
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.push_edge(u % n as u32, v % n as u32, w);
            }
            let g = b.build();
            let clustering: Vec<Node> = (0..n).map(|v| labels[v] % n as u32).collect();
            let seq = contract_clustering(&g, &clustering);
            let gathered = run(p, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let l: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                    .map(|x| clustering[dg.local_to_global(x) as usize])
                    .collect();
                parallel_contract(comm, &dg, &l).coarse.gather_global(comm)
            });
            for cg in gathered {
                prop_assert_eq!(&cg, &seq.coarse);
            }
        }
    }
}
