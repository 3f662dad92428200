//! Pinned result digests for the parallel SCLP (clustering and refinement).
//!
//! The other SCLP suites compare runs against each other (rerun, worker
//! count, scratch reuse), so a change that alters every partition the same
//! way passes them. This suite pins FNV-1a digests of the final labels and
//! blocks (owned + ghost entries of every PE, in rank order) for seeded BA
//! and SBM graphs and a BA graph with zero-weight edges, over
//! p ∈ {1, 2, 3, 4} and threads_per_pe ∈ {1, 2}. Any change to candidate
//! order, tie breaking, the soft/hard weight bounds or the ghost-update
//! bookkeeping moves a digest.
//!
//! The graphs have n = 9000, so at p ≤ 2 a PE's range splits into several
//! worker-pool chunks and the chunked merge is exercised.
//!
//! The BA/SBM refinements start from a `global % K` round robin, where
//! nearly every node sits on a block boundary. The mesh cells refine a
//! row-major grid cut into contiguous ID ranges (stripes) instead, where
//! nearly every node is interior, so they pin the boundary bookkeeping of
//! the refinement: one start is balanced (the jagged stripe borders drift
//! by tie breaks), the other overloads its middle stripe, which drains row
//! by row across the p = 3 PE borders.

use pgp_dmp::{run_config, Comm, DistGraph, RunConfig};
use pgp_graph::{CsrGraph, GraphBuilder, Node, INVALID_NODE};
use pgp_lp::{parallel_sclp_cluster, parallel_sclp_refine, singleton_labels};

const N: usize = 9000;
const K: usize = 4;

/// Digests of one `(graph, p, threads_per_pe)` cell: clustering without
/// and with a constraint, refinement from a balanced striped start, and
/// refinement from a heavily overloaded start with zero rounds (only the
/// forced balance repair runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    cluster: u64,
    cluster_constrained: u64,
    refine: u64,
    refine_repair: u64,
}

/// Per-PE result of one cell run.
struct PeOut {
    cluster: Vec<Node>,
    cluster_constrained: Vec<Node>,
    refine: Vec<Node>,
    refine_repair: Vec<Node>,
    /// Some clustering label on this PE is neither an owned node nor a
    /// ghost here: it reached the PE through a ghost update.
    saw_foreign_label: bool,
    /// Moves made by the repair-only refinement (proves the repair ran).
    repair_moves: u64,
}

fn fnv(digest: u64, x: u64) -> u64 {
    let mut h = digest;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest<'a>(per_pe: impl Iterator<Item = &'a Vec<Node>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for labels in per_pe {
        h = fnv(h, labels.len() as u64);
        for &l in labels {
            h = fnv(h, u64::from(l));
        }
    }
    h
}

fn run_t<R, F>(p: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let cfg = RunConfig {
        threads_per_pe: threads,
        ..RunConfig::default()
    };
    run_config(p, cfg, f)
        .into_iter()
        .map(|r| r.expect("fault-free run cannot fail"))
        .collect()
}

fn pe_run(comm: &Comm, g: &CsrGraph, seed: u64) -> PeOut {
    let dg = DistGraph::from_global(comm, g);
    let n_all = dg.n_local() + dg.n_ghost();
    let global = |l: usize| dg.local_to_global(l as Node);
    let lmax = pgp_graph::lmax(dg.total_node_weight(), K, 0.03);

    let mut cluster = singleton_labels(&dg);
    parallel_sclp_cluster(comm, &dg, 48, 6, seed, &mut cluster, None);
    let saw_foreign_label = cluster
        .iter()
        .any(|&c| dg.global_to_local(c) == INVALID_NODE);

    let cons: Vec<Node> = (0..n_all).map(|l| global(l) % 3).collect();
    let mut cluster_constrained = singleton_labels(&dg);
    parallel_sclp_cluster(
        comm,
        &dg,
        200,
        5,
        seed + 1,
        &mut cluster_constrained,
        Some(&cons),
    );

    let mut refine: Vec<Node> = (0..n_all).map(|l| global(l) % K as Node).collect();
    parallel_sclp_refine(comm, &dg, K, lmax, 6, seed + 2, &mut refine);

    // Two thirds of the nodes start in block 0: far beyond Lmax.
    let mut refine_repair: Vec<Node> = (0..n_all)
        .map(|l| {
            let gid = global(l);
            if gid % 3 == 0 {
                1 + gid % (K as Node - 1)
            } else {
                0
            }
        })
        .collect();
    let repair = parallel_sclp_refine(comm, &dg, K, lmax, 0, seed + 3, &mut refine_repair);

    PeOut {
        cluster,
        cluster_constrained,
        refine,
        refine_repair,
        saw_foreign_label,
        repair_moves: repair.moves,
    }
}

/// BA graph with edge weights in {0, 1, 2} and node weights in {1, 2, 3}.
fn zero_weight_ba() -> CsrGraph {
    let base = pgp_gen::ba::barabasi_albert(N, 3, 29);
    let mut b = GraphBuilder::with_capacity(N, base.m());
    for (u, v, _) in base.edges() {
        if u < v {
            b.push_edge(u, v, u64::from((u ^ v) % 3));
        }
    }
    b.node_weights((0..N as u64).map(|v| 1 + v % 3).collect())
        .build()
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let (sbm, _) = pgp_gen::sbm::sbm(N, pgp_gen::sbm::SbmParams::default(), 17);
    vec![
        ("ba", pgp_gen::ba::barabasi_albert(N, 3, 23)),
        ("sbm", sbm),
        ("ba_zero_w", zero_weight_ba()),
    ]
}

/// `(graph, p, threads_per_pe)` → digests, computed before the SCLP
/// weight bookkeeping moved to PE-local dense slots.
#[rustfmt::skip]
const PINNED: &[(&str, usize, usize, Cell)] = &[
    ("ba", 1, 1, cell(12897838201650370217, 4108501159053387683, 3461754521046545820, 4663341826339577180)),
    ("ba", 1, 2, cell(7625339808214735301, 17571417914442613683, 2230420299759031613, 4663341826339577180)),
    ("ba", 2, 1, cell(9742145205369559395, 1634432690176026715, 8948371378636713245, 10962427374642103391)),
    ("ba", 2, 2, cell(10644682090600285900, 17841052125029917639, 16965617490345941977, 10962427374642103391)),
    ("ba", 3, 1, cell(7336174481068050311, 3574450753525341174, 16834583202125222375, 12179947506847430057)),
    ("ba", 3, 2, cell(1711222240142129476, 16811645969301212093, 17447719583948269848, 12179947506847430057)),
    ("ba", 4, 1, cell(11142152505811013521, 13371542139652856288, 14805311883425432606, 6263408996058374545)),
    ("ba", 4, 2, cell(12133129726382268805, 1165088857495965197, 17381418767088537410, 6263408996058374545)),
    ("sbm", 1, 1, cell(9721903641886625473, 12092414193527351142, 16734800343385895743, 4780723710158574845)),
    ("sbm", 1, 2, cell(12725933624769988204, 612496268507143243, 2375439002048978556, 4780723710158574845)),
    ("sbm", 2, 1, cell(7698298727352894812, 15733569879314265399, 7250180582996682437, 11330628038706742583)),
    ("sbm", 2, 2, cell(7201570518316214613, 4275086286753975089, 4911554321689051685, 11330628038706742583)),
    ("sbm", 3, 1, cell(3790542152220178485, 14621417312579755595, 10494430647652663849, 8772030050521542770)),
    ("sbm", 3, 2, cell(3304833048304670090, 13776253258769802619, 14302940641881358869, 8772030050521542770)),
    ("sbm", 4, 1, cell(12589937468536612659, 1746196192707901905, 11881033000964621554, 16211234148054823836)),
    ("sbm", 4, 2, cell(13106319760278216482, 964507177998209688, 7653054042706770199, 16211234148054823836)),
    ("ba_zero_w", 1, 1, cell(1032635942425756060, 10300990446683463303, 4798746909483046047, 10107900070829895869)),
    ("ba_zero_w", 1, 2, cell(12992829940804018538, 12694553655949119942, 7674860382466282109, 10107900070829895869)),
    ("ba_zero_w", 2, 1, cell(9456111689113862391, 970249825649419427, 9122222355342431185, 9533160503589030199)),
    ("ba_zero_w", 2, 2, cell(6626194982029961781, 11206780660771129583, 1121726560782223479, 9533160503589030199)),
    ("ba_zero_w", 3, 1, cell(13237496595173547412, 2721033386338502357, 13054108978857129093, 8277819668045409924)),
    ("ba_zero_w", 3, 2, cell(13985295855873282786, 4906700877308638735, 15379074725092569722, 8277819668045409924)),
    ("ba_zero_w", 4, 1, cell(13289234510952409722, 13998471090165538043, 6285874501193692600, 17721440587455447975)),
    ("ba_zero_w", 4, 2, cell(6322917966446323984, 825196234985051715, 15368639568807921739, 17721440587455447975)),
];

const fn cell(cluster: u64, cluster_constrained: u64, refine: u64, refine_repair: u64) -> Cell {
    Cell {
        cluster,
        cluster_constrained,
        refine,
        refine_repair,
    }
}

/// Grid for the mesh cells: 36 columns, so the stripe and PE borders fall
/// mid-row and the borders are jagged.
const MESH_NX: usize = 36;
const MESH_NY: usize = 250;

/// Digests of one mesh `(p, threads_per_pe)` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MeshCell {
    /// Four balanced stripes, eight rounds.
    stripes: u64,
    /// Three stripes, the middle one (IDs 2950..6200) overloaded, eight
    /// rounds. At p = 3 the PE borders (3000, 6000) lie a few rows inside
    /// it, so its drain crosses them.
    drain: u64,
}

/// Refines a striped start on the grid: `cuts` are the first IDs of
/// stripes `1..k`. Returns the final blocks (owned + ghost) and the number
/// of moves.
fn mesh_refine(comm: &Comm, dg: &DistGraph, cuts: &[Node], seed: u64) -> (Vec<Node>, u64) {
    let k = cuts.len() + 1;
    let lmax = pgp_graph::lmax(dg.total_node_weight(), k, 0.03);
    let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
        .map(|l| {
            let gid = dg.local_to_global(l);
            cuts.iter().filter(|&&c| c <= gid).count() as Node
        })
        .collect();
    let stats = parallel_sclp_refine(comm, dg, k, lmax, 8, seed, &mut blocks);
    (blocks, stats.moves)
}

/// `(p, threads_per_pe)` → mesh digests, computed before the refinement
/// learned to skip interior nodes.
#[rustfmt::skip]
const PINNED_MESH: &[(usize, usize, MeshCell)] = &[
    (1, 1, mesh_cell(17951074891963525917, 8824494227023568636)),
    (1, 2, mesh_cell(13903484977514838940, 14083253971629101020)),
    (2, 1, mesh_cell(3108093212506430752, 10677869734485946358)),
    (2, 2, mesh_cell(3407865948486197248, 7715017664289178784)),
    (3, 1, mesh_cell(5477291030488208000, 10276129975772938017)),
    (3, 2, mesh_cell(10223633533863165248, 17353197495893522435)),
    (4, 1, mesh_cell(4446386800228385669, 16290890157998550842)),
    (4, 2, mesh_cell(13160637598596786041, 15119526600141338415)),
];

const fn mesh_cell(stripes: u64, drain: u64) -> MeshCell {
    MeshCell { stripes, drain }
}

#[test]
fn sclp_refine_from_striped_mesh_matches_pinned_digests() {
    let g = pgp_gen::mesh::grid2d(MESH_NX, MESH_NY);
    let mut got = Vec::new();
    for p in 1..=4 {
        for threads in [1, 2] {
            let outs = run_t(p, threads, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                (
                    mesh_refine(comm, &dg, &[2250, 4500, 6750], 11),
                    mesh_refine(comm, &dg, &[2950, 6200], 12),
                )
            });
            let stripe_moves: u64 = outs.iter().map(|o| o.0 .1).sum();
            let drain_moves: u64 = outs.iter().map(|o| o.1 .1).sum();
            assert!(stripe_moves > 0, "p={p} T={threads}: stripes made no move");
            assert!(drain_moves > 0, "p={p} T={threads}: drain made no move");
            let cell = MeshCell {
                stripes: digest(outs.iter().map(|o| &o.0 .0)),
                drain: digest(outs.iter().map(|o| &o.1 .0)),
            };
            got.push((p, threads, cell));
        }
    }
    assert_eq!(
        got.as_slice(),
        PINNED_MESH,
        "mesh SCLP refinement moved; got:\n{got:#?}"
    );
}

#[test]
fn sclp_results_match_pinned_digests() {
    let mut got = Vec::new();
    let mut foreign_at_p3_plus = false;
    for (name, g) in graphs() {
        assert!(
            g.adjwgt().contains(&0) == (name == "ba_zero_w"),
            "{name}: zero-weight edges only in the dedicated graph"
        );
        for p in 1..=4 {
            for threads in [1, 2] {
                let outs = run_t(p, threads, |comm| pe_run(comm, &g, 7));
                for (rank, o) in outs.iter().enumerate() {
                    assert!(
                        o.repair_moves > 0,
                        "{name} p={p} T={threads} rank {rank}: repair made no move"
                    );
                }
                if p >= 3 && outs.iter().any(|o| o.saw_foreign_label) {
                    foreign_at_p3_plus = true;
                }
                let cell = Cell {
                    cluster: digest(outs.iter().map(|o| &o.cluster)),
                    cluster_constrained: digest(outs.iter().map(|o| &o.cluster_constrained)),
                    refine: digest(outs.iter().map(|o| &o.refine)),
                    refine_repair: digest(outs.iter().map(|o| &o.refine_repair)),
                };
                got.push((name, p, threads, cell));
            }
        }
    }
    assert!(
        foreign_at_p3_plus,
        "no p >= 3 run saw a label that is neither owned nor a ghost on the PE"
    );
    assert_eq!(got.as_slice(), PINNED, "SCLP results moved; got:\n{got:#?}");
}
