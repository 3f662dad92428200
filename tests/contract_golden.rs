//! Pinned layout digests for distributed-graph assembly and contraction.
//!
//! `tests/equivalence.rs` compares only the gathered global graph, so a
//! change to the ghost numbering or the order of a row would pass it while
//! changing every later SCLP visit and tie break. This suite pins an FNV-1a
//! digest of every public `DistGraph` field — the raw CSR arrays, the node
//! weights of owned and ghost nodes, the ghost tables, the interface
//! structure, the global totals and the degree fingerprint — on every PE
//! in rank order:
//!
//! * of `DistGraph::from_global`'s output, and
//! * of `parallel_contract`'s coarse graph plus its fine→coarse mapping,
//!
//! for seeded BA, SBM and Delaunay graphs and a hand-built CSR graph whose
//! rows are not sorted (one holds a parallel arc pair), under SCLP labels,
//! a pairwise matching-style clustering and the identity, over
//! p ∈ {1, 2, 3, 4}.

use pgp::parhip::parallel_contract;
use pgp::pgp_dmp::{run, Comm, DistGraph};
use pgp::pgp_graph::{CsrGraph, Node};
use pgp::pgp_lp::{parallel_sclp_cluster, singleton_labels};

const N: usize = 3000;

fn fnv(digest: u64, x: u64) -> u64 {
    let mut h = digest;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds a length-prefixed sequence into the digest.
fn fold(h: u64, xs: impl ExactSizeIterator<Item = u64>) -> u64 {
    let mut h = fnv(h, xs.len() as u64);
    for x in xs {
        h = fnv(h, x);
    }
    h
}

/// Digest of every public field of one PE's `DistGraph`.
fn graph_digest(dg: &DistGraph) -> u64 {
    let n_local = dg.n_local();
    let n_all = n_local + dg.n_ghost();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for x in [
        dg.rank() as u64,
        dg.n_global(),
        dg.m_global(),
        n_local as u64,
        dg.n_ghost() as u64,
        dg.first_global(),
        dg.total_node_weight(),
        dg.total_edge_weight(),
        dg.degree_fingerprint(),
    ] {
        h = fnv(h, x);
    }
    h = fold(h, dg.xadj_raw().iter().copied());
    h = fold(h, dg.adjncy_raw().iter().map(|&v| u64::from(v)));
    h = fold(h, dg.adjwgt_raw().iter().copied());
    h = fold(h, (0..n_all as Node).map(|l| dg.node_weight(l)));
    h = fold(h, dg.ghost_globals().iter().map(|&g| u64::from(g)));
    h = fold(h, dg.ghost_owners().iter().map(|&r| u64::from(r)));
    for l in 0..n_local as Node {
        h = fold(h, dg.interface_pes(l).iter().map(|&r| u64::from(r)));
    }
    h = fold(h, dg.adjacent_pes().iter().map(|&r| u64::from(r)));
    // The ghost map must invert the ghost table (it is a hash map, so its
    // iteration order carries no layout).
    assert_eq!(dg.ghost_map().len(), dg.n_ghost(), "ghost map size");
    for (i, &g) in dg.ghost_globals().iter().enumerate() {
        assert_eq!(
            dg.global_to_local(g),
            (n_local + i) as Node,
            "ghost map entry"
        );
    }
    h
}

fn combine(per_pe: &[u64]) -> u64 {
    fold(0xcbf2_9ce4_8422_2325, per_pe.iter().copied())
}

#[derive(Clone, Copy)]
enum Clustering {
    /// Parallel SCLP labels on the distributed graph.
    Sclp,
    /// Greedy matching on the global graph (pairs cross PE borders).
    Pairs,
    /// Every node is its own cluster.
    Identity,
}

/// Global matching-style clustering: nodes in ID order, each unmatched node
/// pairs with its first unmatched neighbour; a pair is labelled by its
/// larger ID, so labels are not the smallest member.
fn pair_labels(g: &CsrGraph) -> Vec<Node> {
    let mut label: Vec<Node> = g.nodes().collect();
    let mut matched = vec![false; g.n()];
    for u in g.nodes() {
        if matched[u as usize] {
            continue;
        }
        if let Some(v) = g.neighbors(u).find(|&v| v != u && !matched[v as usize]) {
            matched[u as usize] = true;
            matched[v as usize] = true;
            let c = u.max(v);
            label[u as usize] = c;
            label[v as usize] = c;
        }
    }
    label
}

fn labels_for(comm: &Comm, dg: &DistGraph, g: &CsrGraph, how: Clustering) -> Vec<Node> {
    match how {
        Clustering::Sclp => {
            let mut labels = singleton_labels(dg);
            let bound = (dg.total_node_weight() / 40).max(2);
            parallel_sclp_cluster(comm, dg, bound, 4, 13, &mut labels, None);
            labels
        }
        Clustering::Pairs => {
            let global = pair_labels(g);
            (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| global[dg.local_to_global(l) as usize])
                .collect()
        }
        Clustering::Identity => singleton_labels(dg),
    }
}

/// Digests of one `(graph, p)` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    from_global: u64,
    sclp: u64,
    pairs: u64,
    identity: u64,
}

const fn cell(from_global: u64, sclp: u64, pairs: u64, identity: u64) -> Cell {
    Cell {
        from_global,
        sclp,
        pairs,
        identity,
    }
}

fn contraction_digest(comm: &Comm, dg: &DistGraph, g: &CsrGraph, how: Clustering) -> u64 {
    let labels = labels_for(comm, dg, g, how);
    let c = parallel_contract(comm, dg, &labels);
    fold(
        graph_digest(&c.coarse),
        c.mapping.iter().map(|&x| u64::from(x)),
    )
}

fn run_cell(g: &CsrGraph, p: usize) -> Cell {
    let outs = run(p, |comm| {
        let dg = DistGraph::from_global(comm, g);
        [
            graph_digest(&dg),
            contraction_digest(comm, &dg, g, Clustering::Sclp),
            contraction_digest(comm, &dg, g, Clustering::Pairs),
            contraction_digest(comm, &dg, g, Clustering::Identity),
        ]
    });
    let col = |i: usize| combine(&outs.iter().map(|o| o[i]).collect::<Vec<_>>());
    cell(col(0), col(1), col(2), col(3))
}

/// 12 nodes; every row is stored out of target order, and nodes 0 and 5
/// are joined by two parallel arcs (weights 4 and 2) listed heavier first.
fn unsorted_rows() -> CsrGraph {
    let rows: [&[(Node, u64)]; 12] = [
        &[(11, 1), (5, 4), (1, 3), (5, 2)],
        &[(2, 1), (0, 3), (7, 5)],
        &[(9, 2), (3, 1), (1, 1)],
        &[(4, 6), (2, 1), (10, 1)],
        &[(8, 2), (3, 6), (5, 1)],
        &[(6, 3), (0, 2), (4, 1), (0, 4)],
        &[(7, 2), (5, 3)],
        &[(1, 5), (8, 1), (6, 2)],
        &[(9, 4), (4, 2), (7, 1)],
        &[(10, 3), (2, 2), (8, 4)],
        &[(11, 2), (3, 1), (9, 3)],
        &[(0, 1), (10, 2)],
    ];
    let mut xadj = vec![0u64];
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    for row in rows {
        for &(v, w) in row {
            adjncy.push(v);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len() as u64);
    }
    let node_weight = (0..12).map(|v| 1 + v % 4).collect();
    CsrGraph::from_parts(xadj, adjncy, adjwgt, node_weight)
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let (sbm, _) = pgp::pgp_gen::sbm::sbm(N, Default::default(), 21);
    vec![
        ("ba", pgp::pgp_gen::ba::barabasi_albert(N, 3, 19)),
        ("sbm", sbm),
        ("delaunay", pgp::pgp_gen::delaunay::delaunay_x(11, 5)),
        ("unsorted", unsorted_rows()),
    ]
}

/// `(graph, p)` → digests, computed before contraction and assembly moved
/// to dense slots and sorted rows.
#[rustfmt::skip]
const PINNED: &[(&str, usize, Cell)] = &[
    ("ba", 1, cell(14667581861061385345, 10314404386572920711, 14182006901987458861, 5759569000839716863)),
    ("ba", 2, cell(8355404148612940056, 14890055095627652516, 101049969969596825, 17077370215272137184)),
    ("ba", 3, cell(3232052938373899254, 10423104629631210377, 2256959307338304706, 2752091001670298285)),
    ("ba", 4, cell(10459235243348472079, 1078512220547013657, 7729122690049776574, 8728131571804564973)),
    ("sbm", 1, cell(4294920779500167850, 734469936431311583, 16035904547057990017, 8716193983708665269)),
    ("sbm", 2, cell(8911858723941395563, 13911420033472334249, 9981068602850892037, 7344498367923480577)),
    ("sbm", 3, cell(1339611754374133525, 7914343223557942352, 1525279281670503795, 16534319206009176266)),
    ("sbm", 4, cell(9885104817007006815, 18315295563238003812, 12459819051858178659, 10488170071872974921)),
    ("delaunay", 1, cell(14303482510890226403, 8293099505012429824, 13458318380363005758, 12066586826174677565)),
    ("delaunay", 2, cell(9289943841010509711, 1273071188233272417, 9276706352421084494, 15684115521147803075)),
    ("delaunay", 3, cell(9166479234088839808, 14469814892448037194, 2858554171609409358, 4454779698952628174)),
    ("delaunay", 4, cell(10192304424176902782, 13086513487296910568, 14852087299349408782, 5980519556370627022)),
    ("unsorted", 1, cell(6753393219741823213, 16376512103751935575, 10869117165418039495, 5258514289838849012)),
    ("unsorted", 2, cell(14527212167169810581, 11278270864435741379, 15383945375237261533, 869444686930351257)),
    ("unsorted", 3, cell(8754188282996354659, 2375852290566379603, 7497646193917952777, 15966377706592134437)),
    ("unsorted", 4, cell(3615282252642726245, 428527509738740397, 1007051046885332885, 1372736807016402902)),
];

#[test]
fn dist_graph_layouts_match_pinned_digests() {
    let unsorted = unsorted_rows();
    assert!(
        unsorted
            .nodes()
            .any(|u| unsorted.neighbor_slice(u).windows(2).any(|w| w[0] > w[1])),
        "the hand-built graph must hold an unsorted row"
    );
    let mut got = Vec::new();
    for (name, g) in graphs() {
        for p in 1..=4 {
            got.push((name, p, run_cell(&g, p)));
        }
    }
    assert_eq!(got.as_slice(), PINNED, "layouts moved; got:\n{got:#?}");
}
