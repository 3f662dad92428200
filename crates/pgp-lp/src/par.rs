//! Parallel size-constrained label propagation (Sections IV-A and IV-B).
//!
//! Each PE iterates over its owned nodes; ghost labels are refreshed through
//! the phase-overlapped [`LabelExchange`]. The two roles differ in how block
//! weights are maintained, exactly as in the paper:
//!
//! * **Clustering** (coarsening): there are up to `n` clusters, so no PE can
//!   hold all weights. Each PE keeps a *localized* view with the weights of
//!   the clusters its local and ghost nodes belong to — exact at
//!   initialization (every cluster is a singleton), updated on local moves
//!   and on incoming ghost updates, never communicated. The `U = Lmax/f`
//!   bound is soft; concurrent moves on different PEs may overshoot it
//!   slightly, which the paper explicitly tolerates.
//! * **Refinement**: only `k` blocks, so exact global weights are restored
//!   with one `allreduce` per computation phase (ParMetis-style); between
//!   allreduces each PE sees `exact + own local deltas`. The allreduce
//!   carries the per-phase *delta* vector, not a recount of all local
//!   nodes — `exact + Σ deltas` is maintained incrementally and checked
//!   against a full recount under `debug_assertions` (and by the
//!   `pgp-check` claimed-weights validator). To *guarantee* the balance
//!   constraint (the paper reports ParMetis drifting to 6 % imbalance;
//!   ParHIP does not), each PE additionally limits the weight it moves into
//!   any block per phase to its `1/p` share of the block's remaining slack.
//!
//! ## PE-local dense label space
//!
//! Cluster labels are global node IDs, but a PE only ever sees a few of
//! them, so each clustering call gives every label the PE can see a dense
//! **slot** (`SlotSpace`): an owned-range label maps to its owned local
//! ID, the global ID of a ghost to that ghost's local ID, and any other
//! (*foreign*) label — one that reached the PE through a ghost update — to
//! a slot appended on first sight. The rounds aggregate neighbours by
//! slot in a [`DenseRating`] and read cluster weights from a dense array
//! indexed by slot; a slot is translated back to its global label only
//! when a node moves. Slot ↔ label is a bijection within the PE and
//! neighbours are inserted in the same order, so the candidate order, the
//! RNG tie-breaking and hence every label are exactly those of a map keyed
//! by global label. Refinement rates its `k` blocks in the same dense
//! structure. Under `debug_assertions` every phase boundary recounts the
//! localized weights from the labels.
//!
//! Both modes draw their visit order from a [`SclpScratch`], which caches
//! the degree order per graph so repeated invocations on the same graph
//! (V-cycles, multiple refinement levels) skip the O(n log n) re-sort. The
//! slot space and rating array are allocated per call and freed on return:
//! one scratch lives through a whole V-cycle run, and finest-level slot
//! arrays held through contraction and uncoarsening would raise the peak
//! memory for no gain (rebuilding them is O(n_all), which every call pays
//! anyway to count the initial cluster weights).
//!
//! ## Boundary-only refinement
//!
//! Refinement rounds scan only owned nodes that may sit on a block
//! boundary. An *interior* node (every neighbour in its own block) rates
//! only its own block, so it neither moves nor draws from the RNG: its
//! block stays `best`, or, when the block is overloaded, `best` stays
//! unset. Skipping it is therefore exact, and the visit order is still
//! shuffled over all owned nodes, so RNG consumption is unchanged. A
//! per-call [`BoundarySet`] keeps one *dirty* bit per owned node, all set
//! at entry:
//!
//! * a scanned node whose rating holds exactly one entry, its own block,
//!   is cleared (one entry alone is not enough: every neighbour may sit in
//!   one *other* block);
//! * a move re-marks the mover's owned neighbours;
//! * a ghost block change applied at the phase boundary re-marks the
//!   ghost's owned neighbours, found through a reverse ghost → owned
//!   index. A node's ghost arcs enter the index the first time it is
//!   cleared, so the index only holds arcs of nodes that were clean once.
//!
//! The chunked `T ≥ 2` round skips by the round-start bits; workers
//! return the nodes they found interior, and the merge clears *all* of
//! them before it re-marks the neighbours of any accepted move, otherwise
//! a node cleared by a later chunk would lose the mark of an earlier
//! chunk's move. The forced balance repair after the rounds still scans
//! every node of an overloaded block, because there an interior node can
//! move to a non-adjacent block. Under `debug_assertions` every skipped
//! node is checked to be interior.
//!
//! ## Intra-PE worker pool (hybrid parallelism, DESIGN.md §13)
//!
//! When the run grants a PE more than one thread
//! ([`Comm::threads_per_pe`] > 1), each round is processed as a chunked
//! superstep: the visit order is split at fixed, graph-derived boundaries
//! (see [`crate::chunk`], cached in the scratch), scoped workers propose
//! moves per chunk against **round-start** slots/weights plus their own
//! in-chunk deltas, and the PE thread merges the proposals **in
//! chunk-index order**, re-validating each against the merged weights
//! (cluster: the soft `U` bound; refine: the true per-phase inflow
//! budget, so the `Lmax` guarantee is preserved exactly). The result is
//! bit-identical for a fixed `(seed, p)` across every `threads_per_pe ≥
//! 2`; `threads_per_pe = 1` takes the classic sequential path below,
//! unchanged. The two paths differ (in-round staleness vs. full
//! asynchrony), which is exactly the staleness the paper's localized
//! weights already absorb across PEs. Cluster-mode chunks aggregate in a
//! per-chunk [`ClusterMap`] keyed by slot (a dense array per chunk would
//! cost `O(slots)` memory per worker).

use crate::chunk;
use crate::cluster_map::{ClusterMap, DenseRating};
use crate::seq::SclpStats;
use pgp_dmp::collectives::{allreduce_sum, allreduce_sum_vec, allreduce_sum_vec_i64};
use pgp_dmp::{Comm, DistGraph, LabelExchange};
use pgp_graph::ids;
use pgp_graph::{Node, Weight, INVALID_NODE};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

/// Reusable SCLP working memory: visit orders and chunk boundaries,
/// cached per graph.
///
/// The degree order and chunk boundaries only depend on the graph, so one
/// scratch threaded through a whole V-cycle run recomputes them once per
/// distinct level instead of once per SCLP call ([`prepare`](Self) is a
/// fingerprint-guarded no-op when the graph is unchanged).
pub struct SclpScratch {
    /// Fingerprint of the graph the cached fields belong to.
    fingerprint: Option<u64>,
    /// Local nodes in degree-increasing order (cluster-mode visit order).
    degree_order: Vec<Node>,
    /// Maximum local degree (sizes the per-chunk cluster maps).
    max_degree: usize,
    /// Refine-mode shuffle buffer (reset to identity at each call).
    index_order: Vec<Node>,
    /// Cluster-mode chunk boundaries over `degree_order`, balanced by
    /// degree volume (see [`chunk::balanced_bounds`]).
    cluster_bounds: Vec<usize>,
    /// Refine-mode chunk boundaries over the per-round shuffled order
    /// (uniform positional split; see [`chunk::uniform_bounds`]).
    refine_bounds: Vec<usize>,
}

impl SclpScratch {
    /// Creates an empty scratch; the first SCLP call fills it.
    pub fn new() -> Self {
        Self {
            fingerprint: None,
            degree_order: Vec::new(),
            max_degree: 0,
            index_order: Vec::new(),
            cluster_bounds: Vec::new(),
            refine_bounds: Vec::new(),
        }
    }

    /// Points the scratch at `graph`: recomputes the degree order and
    /// chunk boundaries when the graph changed since the last call; a
    /// no-op when it did not (the same finest graph recurs once per
    /// V-cycle). The guard compares [`DistGraph`]'s cached degree
    /// fingerprint — O(1), computed once at graph assembly — instead of
    /// re-hashing the offset array on every SCLP call.
    fn prepare(&mut self, graph: &DistGraph) {
        let fp = graph.degree_fingerprint();
        if self.fingerprint == Some(fp) {
            return;
        }
        self.fingerprint = Some(fp);
        self.degree_order.clear();
        self.degree_order
            .extend(0..ids::node_of_index(graph.n_local()));
        self.degree_order.sort_by_key(|&v| graph.degree(v));
        self.max_degree = self
            .degree_order
            .last()
            .map(|&v| graph.degree(v))
            .unwrap_or(0);
        // Chunk boundaries for the intra-PE worker pool: graph-derived so
        // every threads_per_pe ≥ 2 sees the same work-lists.
        let chunks = chunk::chunk_count(graph.n_local());
        self.cluster_bounds = chunk::balanced_bounds(
            &self.degree_order,
            |v| ids::count_global(graph.degree(v) + 1),
            chunks,
        );
        self.refine_bounds = chunk::uniform_bounds(graph.n_local(), chunks);
    }
}

impl Default for SclpScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The PE-local dense label space of one clustering call (module docs):
/// slot `s < n_all` stands for the global ID of visible node `s`, slot
/// `n_all + i` for the `i`-th foreign label seen.
struct SlotSpace {
    /// Slot of each visible node's current label (`n_all` entries).
    of_node: Vec<Node>,
    /// Localized cluster weight per slot: the summed weight of the visible
    /// nodes whose label maps to the slot.
    weight: Vec<i64>,
    /// Foreign label → slot. Touched only when a ghost update brings in a
    /// label the PE has not seen before, never per adjacency entry.
    foreign: FxHashMap<Node, Node>,
    /// Label of foreign slot `n_all + i`.
    foreign_label: Vec<Node>,
}

impl SlotSpace {
    /// Builds the slots and weights of `labels` (owned + ghost).
    fn new(graph: &DistGraph, labels: &[Node]) -> Self {
        let n_all = labels.len();
        let mut slots = Self {
            of_node: Vec::with_capacity(n_all),
            weight: vec![0; n_all],
            foreign: FxHashMap::default(),
            foreign_label: Vec::new(),
        };
        for (l, &label) in (0..ids::node_of_index(n_all)).zip(labels) {
            // Singleton labels (the common start) skip the ghost-map probe.
            let s = if label == graph.local_to_global(l) {
                l
            } else {
                slots.slot_of(graph, label)
            };
            slots.of_node.push(s);
            slots.weight[ids::node_index(s)] += graph.node_weight(l) as i64;
        }
        slots
    }

    /// Number of slots handed out so far.
    fn len(&self) -> usize {
        self.weight.len()
    }

    /// Slot of `label`, appending a foreign slot on first sight.
    fn slot_of(&mut self, graph: &DistGraph, label: Node) -> Node {
        let l = graph.global_to_local(label);
        if l != INVALID_NODE {
            return l;
        }
        let next = ids::node_of_index(self.weight.len());
        let (weight, foreign_label) = (&mut self.weight, &mut self.foreign_label);
        *self.foreign.entry(label).or_insert_with(|| {
            // Foreign labels are few (under 1 % of the slots on web graphs):
            // grow by an eighth, not by doubling, to keep the scratch small.
            if weight.len() == weight.capacity() {
                weight.reserve_exact(weight.len() / 8 + 1);
            }
            weight.push(0);
            foreign_label.push(label);
            next
        })
    }

    /// Global label of slot `s`.
    #[inline]
    fn label_of(&self, graph: &DistGraph, s: Node) -> Node {
        match ids::node_index(s).checked_sub(self.of_node.len()) {
            None => graph.local_to_global(s),
            Some(i) => self.foreign_label[i],
        }
    }

    /// Moves visible node `l` (weight `w`) from its slot to slot `to`.
    #[inline]
    fn move_node(&mut self, l: Node, to: Node, w: i64) {
        let from = std::mem::replace(&mut self.of_node[ids::node_index(l)], to);
        self.weight[ids::node_index(from)] -= w;
        self.weight[ids::node_index(to)] += w;
    }

    /// Applies a ghost update: visible node `l` now carries `label`.
    fn relabel(&mut self, graph: &DistGraph, l: Node, label: Node) {
        let to = self.slot_of(graph, label);
        self.move_node(l, to, graph.node_weight(l) as i64);
    }

    /// Debug-build invariant: every node's slot names its label, and every
    /// slot's weight is the summed weight of the visible nodes in it.
    #[cfg(debug_assertions)]
    fn assert_exact(&self, graph: &DistGraph, labels: &[Node]) {
        let mut recount = vec![0i64; self.len()];
        for (l, &s) in (0..).zip(&self.of_node) {
            assert_eq!(
                self.label_of(graph, s),
                labels[ids::node_index(l)],
                "slot of node {l} out of step with its label"
            );
            recount[ids::node_index(s)] += graph.node_weight(l) as i64;
        }
        assert_eq!(recount, self.weight, "localized cluster weights drifted");
    }
}

/// Applies a signed allreduced weight delta to the exact block weights.
fn apply_weight_delta(exact: &mut [u64], delta: &[i64]) {
    for (w, &d) in exact.iter_mut().zip(delta) {
        let next = i64::try_from(*w).expect("block weight fits in i64") + d;
        *w = u64::try_from(next).expect("block weight stays non-negative");
    }
}

/// Which owned nodes a refinement call must still scan (module docs).
///
/// A node is *clean* once a scan found all its neighbours in its own block;
/// it turns *dirty* again as soon as a neighbour changes block. Every node
/// starts dirty, so the clean nodes are always a subset of the interior.
struct BoundarySet {
    /// Bit per owned node: may have a neighbour in another block. A
    /// bitset, so the per-visit test stays in cache while the scans of
    /// boundary nodes stream through the adjacency.
    dirty: Vec<u64>,
    /// Per owned node: its ghost arcs are in the reverse index.
    indexed: Vec<bool>,
    /// Reverse ghost index, one linked list per ghost: the first entry of
    /// ghost `n_local + i` in `arcs`, or `NO_ARC`.
    head: Vec<u32>,
    /// `(owned node, next entry of the same ghost)`.
    arcs: Vec<(Node, u32)>,
}

const NO_ARC: u32 = u32::MAX;

impl BoundarySet {
    fn new(graph: &DistGraph) -> Self {
        Self {
            dirty: vec![u64::MAX; graph.n_local().div_ceil(64)],
            indexed: vec![false; graph.n_local()],
            head: vec![NO_ARC; graph.n_ghost()],
            arcs: Vec::new(),
        }
    }

    #[inline]
    fn is_dirty(&self, v: Node) -> bool {
        let i = ids::node_index(v);
        (self.dirty[i / 64] >> (i % 64)) & 1 != 0
    }

    #[inline]
    fn mark(&mut self, v: Node) {
        let i = ids::node_index(v);
        self.dirty[i / 64] |= 1 << (i % 64);
    }

    /// Marks owned node `v` clean. Its ghost arcs enter the reverse index
    /// the first time, so only ghosts next to a clean node are indexed.
    /// Called right after a scan of `v`, so its arcs are still in cache.
    fn clear(&mut self, graph: &DistGraph, v: Node) {
        let i = ids::node_index(v);
        self.dirty[i / 64] &= !(1 << (i % 64));
        if std::mem::replace(&mut self.indexed[i], true) {
            return;
        }
        for (u, _) in graph.neighbors(v) {
            if graph.is_ghost(u) {
                let g = ids::node_index(u) - self.indexed.len();
                let entry = ids::offset_of_index(self.arcs.len());
                self.arcs.push((v, self.head[g]));
                self.head[g] = entry;
            }
        }
    }

    /// Owned node `v` changed block: its owned neighbours turn dirty.
    fn mark_owned_neighbors(&mut self, graph: &DistGraph, v: Node) {
        for (u, _) in graph.neighbors(v) {
            if !graph.is_ghost(u) {
                self.mark(u);
            }
        }
    }

    /// Ghost `l` changed block: its indexed owned neighbours turn dirty.
    fn mark_ghost_neighbors(&mut self, l: Node) {
        let mut entry = self.head[ids::node_index(l) - self.indexed.len()];
        while entry != NO_ARC {
            let (v, next) = self.arcs[ids::offset_index(entry)];
            self.mark(v);
            entry = next;
        }
    }
}

/// Debug-build check that a node skipped as clean is interior.
#[cfg(debug_assertions)]
fn assert_interior(graph: &DistGraph, blocks: &[Node], v: Node) {
    let b = blocks[ids::node_index(v)];
    assert!(
        graph
            .neighbors(v)
            .all(|(u, _)| blocks[ids::node_index(u)] == b),
        "refine skipped a boundary node ({v})"
    );
}

/// Initial clustering labels: every node (owned and ghost) starts in its
/// own singleton cluster, identified by *global* node ID.
pub fn singleton_labels(graph: &DistGraph) -> Vec<Node> {
    (0..ids::node_of_index(graph.n_local() + graph.n_ghost()))
        .map(|l| graph.local_to_global(l))
        .collect()
}

/// Parallel SCLP in **cluster mode**. `labels` covers owned + ghost nodes
/// and holds global cluster IDs (see [`singleton_labels`]). `constraint`,
/// when given (V-cycles), also covers owned + ghost nodes and holds the
/// input-partition block of each node; clusters never straddle blocks.
///
/// Returns statistics; `labels` is updated in place. Allocates fresh
/// working memory — callers with repeated invocations should use
/// [`parallel_sclp_cluster_with_scratch`].
pub fn parallel_sclp_cluster(
    comm: &Comm,
    graph: &DistGraph,
    u_bound: Weight,
    iterations: usize,
    seed: u64,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
) -> SclpStats {
    let mut scratch = SclpScratch::new();
    parallel_sclp_cluster_with_scratch(
        comm,
        graph,
        u_bound,
        iterations,
        seed,
        labels,
        constraint,
        &mut scratch,
    )
}

/// As [`parallel_sclp_cluster`], drawing the visit order from `scratch`
/// (recomputed only when `graph` differs from the scratch's last graph).
#[allow(clippy::too_many_arguments)] // the scratch-threading variant of an already-wide API
pub fn parallel_sclp_cluster_with_scratch(
    comm: &Comm,
    graph: &DistGraph,
    u_bound: Weight,
    iterations: usize,
    seed: u64,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
    scratch: &mut SclpScratch,
) -> SclpStats {
    let n_all = graph.n_local() + graph.n_ghost();
    assert_eq!(labels.len(), n_all, "labels must cover owned + ghost nodes");
    if let Some(c) = constraint {
        assert_eq!(c.len(), n_all, "constraint must cover owned + ghost nodes");
    }
    let rank_seed = pgp_dmp::mix_seed(seed, ids::count_global(comm.rank()));
    let mut rng = SmallRng::seed_from_u64(rank_seed);

    let mut exchange = LabelExchange::new(comm, graph);
    scratch.prepare(graph);
    let threads = comm.threads_per_pe();
    let SclpScratch {
        degree_order: order,
        max_degree,
        cluster_bounds,
        ..
    } = scratch;
    let max_degree = *max_degree;
    // Localized cluster weights: exact at init because every cluster the PE
    // can see is composed of nodes the PE can see (singletons).
    let mut slots = SlotSpace::new(graph, labels);
    let mut rating = DenseRating::new(0);

    let mut stats = SclpStats::default();
    for round in 0..iterations {
        let _round_span = comm.recorder().span("sclp_round");
        // Round marker for the live telemetry plane (SPMD-uniform).
        comm.recorder()
            .set_round(u32::try_from(round).unwrap_or(u32::MAX));
        let moved = if threads > 1 {
            cluster_round_chunked(
                comm,
                graph,
                u_bound,
                pgp_dmp::mix_seed(rank_seed, ids::count_global(round)),
                order,
                cluster_bounds,
                max_degree,
                threads,
                labels,
                constraint,
                &mut slots,
                &mut exchange,
            )
        } else {
            // Local moves only reuse slots; ghost updates at the last phase
            // boundary may have appended foreign ones.
            rating.ensure_len(slots.len());
            let mut moved = 0u64;
            for &v in order.iter() {
                if graph.degree(v) == 0 {
                    continue;
                }
                let cur = slots.of_node[ids::node_index(v)];
                rating.clear();
                match constraint {
                    None => {
                        for (u, w) in graph.neighbors(v) {
                            rating.add(slots.of_node[ids::node_index(u)], w);
                        }
                    }
                    Some(cons) => {
                        let cv = cons[ids::node_index(v)];
                        for (u, w) in graph.neighbors(v) {
                            if cons[ids::node_index(u)] == cv {
                                rating.add(slots.of_node[ids::node_index(u)], w);
                            }
                        }
                    }
                }
                let cv_weight = graph.node_weight(v) as i64;
                let mut best = cur;
                let mut best_w = rating.get(cur);
                let mut ties = 1u32;
                for (c, w) in rating.iter() {
                    if c == cur {
                        continue;
                    }
                    if slots.weight[ids::node_index(c)] + cv_weight > u_bound as i64 {
                        continue;
                    }
                    if w > best_w {
                        best = c;
                        best_w = w;
                        ties = 1;
                    } else if w == best_w && best != cur {
                        ties += 1;
                        if rng.gen_range(0..ties) == 0 {
                            best = c;
                        }
                    }
                }
                if best != cur {
                    slots.move_node(v, best, cv_weight);
                    let label = slots.label_of(graph, best);
                    labels[ids::node_index(v)] = label;
                    exchange.record(graph, v, label);
                    moved += 1;
                }
            }
            moved
        };
        stats.rounds += 1;
        stats.moves += moved;
        // Phase boundary: overlap scheme — send now, apply phase κ−1.
        exchange.flush_overlap_with(comm, graph, labels, |l, _, new| {
            slots.relabel(graph, l, new);
        });
        #[cfg(debug_assertions)]
        slots.assert_exact(graph, labels);
        // Convergence is global: stop only when *no* PE moved anything.
        let global_moves = allreduce_sum(comm, moved);
        if global_moves == 0 {
            break;
        }
    }
    exchange.finish_with(comm, graph, labels, |l, _, new| {
        slots.relabel(graph, l, new);
    });
    #[cfg(debug_assertions)]
    slots.assert_exact(graph, labels);
    stats
}

/// One chunk's proposed moves (`(node, target)` in chunk-visit order; the
/// target is a slot in cluster mode, a block in refine mode) plus the
/// worker-measured compute time, folded into the phase stats by the
/// merging PE thread.
struct ChunkMoves {
    moves: Vec<(Node, Node)>,
    /// Refine mode: the scanned nodes found interior (empty in cluster
    /// mode).
    interior: Vec<Node>,
    elapsed_ns: u64,
}

/// One cluster-mode round as a chunked superstep (`threads_per_pe ≥ 2`):
/// workers propose moves per chunk against round-start slots/weights plus
/// their own in-chunk weight deltas; the PE thread merges proposals in
/// chunk-index order, re-checking the soft `U` bound against the merged
/// weights so a skipped move never desynchronizes labels from weights.
/// Deterministic in `(seed, p)` and independent of `threads` (chunk
/// boundaries and per-chunk RNG streams are graph/round-derived).
#[allow(clippy::too_many_arguments)] // internal seam of an already-wide API
fn cluster_round_chunked(
    comm: &Comm,
    graph: &DistGraph,
    u_bound: Weight,
    round_seed: u64,
    order: &[Node],
    bounds: &[usize],
    max_degree: usize,
    threads: usize,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
    slots: &mut SlotSpace,
    exchange: &mut LabelExchange,
) -> u64 {
    // Freeze the round-start state for the worker phase: nothing mutates
    // the slots until the merge below, so workers take shared borrows
    // instead of snapshots.
    let slots_r: &SlotSpace = slots;
    let outs = chunk::run_chunks(threads, bounds, |chunk_idx, lo, hi| {
        let t0 = std::time::Instant::now(); // lint:instant-ok: per-chunk compute span, folded into phase stats at merge
        let mut rng =
            SmallRng::seed_from_u64(pgp_dmp::mix_seed(round_seed, ids::count_global(chunk_idx)));
        let mut map = ClusterMap::with_max_degree(max_degree.max(1));
        let mut wdelta: FxHashMap<Node, i64> = FxHashMap::default();
        let mut moves: Vec<(Node, Node)> = Vec::new();
        for &v in &order[lo..hi] {
            if graph.degree(v) == 0 {
                continue;
            }
            let cur = slots_r.of_node[ids::node_index(v)];
            map.clear();
            match constraint {
                None => {
                    for (u, w) in graph.neighbors(v) {
                        map.add(slots_r.of_node[ids::node_index(u)], w);
                    }
                }
                Some(cons) => {
                    let cv = cons[ids::node_index(v)];
                    for (u, w) in graph.neighbors(v) {
                        if cons[ids::node_index(u)] == cv {
                            map.add(slots_r.of_node[ids::node_index(u)], w);
                        }
                    }
                }
            }
            let cv_weight = graph.node_weight(v) as i64;
            let mut best = cur;
            let mut best_w = map.get(cur);
            let mut ties = 1u32;
            for (c, w) in map.iter() {
                if c == cur {
                    continue;
                }
                // Round-start weight plus this chunk's own accepted moves.
                let target_weight =
                    slots_r.weight[ids::node_index(c)] + wdelta.get(&c).copied().unwrap_or(0);
                if target_weight + cv_weight > u_bound as i64 {
                    continue;
                }
                if w > best_w {
                    best = c;
                    best_w = w;
                    ties = 1;
                } else if w == best_w && best != cur {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = c;
                    }
                }
            }
            if best != cur {
                *wdelta.entry(cur).or_insert(0) -= cv_weight;
                *wdelta.entry(best).or_insert(0) += cv_weight;
                moves.push((v, best));
            }
        }
        ChunkMoves {
            moves,
            interior: Vec::new(),
            elapsed_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    });
    // Ordered merge on the PE thread: chunk-index order, re-validated
    // against the *merged* weights. Slot, label and weight updates are
    // applied together, so a skipped proposal leaves all three untouched.
    let mut moved = 0u64;
    for out in outs {
        for &(v, best) in &out.moves {
            let cv_weight = graph.node_weight(v) as i64;
            if slots.weight[ids::node_index(best)] + cv_weight > u_bound as i64 {
                continue; // earlier chunks filled the cluster past the soft bound
            }
            slots.move_node(v, best, cv_weight);
            let label = slots.label_of(graph, best);
            labels[ids::node_index(v)] = label;
            exchange.record(graph, v, label);
            moved += 1;
        }
        comm.recorder()
            .record_phase_ns("sclp_chunk", out.elapsed_ns);
    }
    moved
}

/// Parallel SCLP in **refine mode** over a `k`-way partition. `blocks`
/// covers owned + ghost nodes and holds block IDs (< `k`). Exact global
/// block weights are maintained incrementally (one delta allreduce per
/// phase); per-phase inflow budgeting guarantees `Lmax` is never exceeded.
///
/// Allocates fresh working memory — callers with repeated invocations
/// should use [`parallel_sclp_refine_with_scratch`].
pub fn parallel_sclp_refine(
    comm: &Comm,
    graph: &DistGraph,
    k: usize,
    lmax: Weight,
    iterations: usize,
    seed: u64,
    blocks: &mut [Node],
) -> SclpStats {
    let mut scratch = SclpScratch::new();
    parallel_sclp_refine_with_scratch(comm, graph, k, lmax, iterations, seed, blocks, &mut scratch)
}

/// As [`parallel_sclp_refine`], drawing working memory from `scratch`.
#[allow(clippy::too_many_arguments)] // the scratch-threading variant of an already-wide API
pub fn parallel_sclp_refine_with_scratch(
    comm: &Comm,
    graph: &DistGraph,
    k: usize,
    lmax: Weight,
    iterations: usize,
    seed: u64,
    blocks: &mut [Node],
    scratch: &mut SclpScratch,
) -> SclpStats {
    let _refine_span = comm.recorder().span("refine");
    let n_local = graph.n_local();
    let n_all = n_local + graph.n_ghost();
    assert_eq!(blocks.len(), n_all, "blocks must cover owned + ghost nodes");
    let p: Weight = ids::count_global(comm.size());
    let rank_seed = pgp_dmp::mix_seed(seed, ids::count_global(comm.rank()));
    let mut rng = SmallRng::seed_from_u64(rank_seed);

    // Exact global block weights: full recount once at entry; afterwards
    // only the per-phase deltas are allreduced (see module docs).
    let local_contrib = |blocks: &[Node]| -> Vec<u64> {
        let mut c = vec![0u64; k];
        for v in 0..ids::node_of_index(n_local) {
            c[ids::node_index(blocks[ids::node_index(v)])] += graph.node_weight(v);
        }
        c
    };
    let mut exact: Vec<u64> = allreduce_sum_vec(comm, local_contrib(blocks));

    let mut exchange = LabelExchange::new(comm, graph);
    scratch.prepare(graph);
    let threads = comm.threads_per_pe();
    let SclpScratch {
        index_order: order,
        refine_bounds,
        ..
    } = scratch;
    let mut rating = DenseRating::new(k);
    // Identity order at entry; within a call the shuffles compound.
    order.clear();
    order.extend(0..ids::node_of_index(n_local));

    // Per-round working vectors, hoisted out of the loop and refilled.
    let mut budget: Vec<i64> = vec![0; k];
    let mut view: Vec<i64> = vec![0; k];
    let mut delta: Vec<i64> = vec![0; k];
    let mut boundary = BoundarySet::new(graph);

    let mut stats = SclpStats::default();
    for round in 0..iterations {
        let _round_span = comm.recorder().span("sclp_round");
        // Round marker for the live telemetry plane (SPMD-uniform).
        comm.recorder()
            .set_round(u32::try_from(round).unwrap_or(u32::MAX));
        order.shuffle(&mut rng);
        // Per-phase inflow budget: the block's remaining slack is split
        // across PEs (floor share + round-robin remainder, rotated per block
        // and round so small slacks still make progress somewhere), so the
        // per-PE inflows can never jointly exceed Lmax. `view` is the PE's
        // live estimate (exact + its own deltas).
        let r = ids::count_global(comm.rank());
        for (b, &w) in exact.iter().enumerate() {
            let slack = lmax.saturating_sub(w);
            let base = slack / p;
            let rotation = r + ids::count_global(b) + ids::count_global(round);
            let extra = u64::from(rotation % p < slack % p);
            budget[b] = (base + extra) as i64;
            view[b] = w as i64;
            delta[b] = 0;
        }
        let moved = if threads > 1 {
            refine_round_chunked(
                comm,
                graph,
                lmax,
                pgp_dmp::mix_seed(rank_seed, ids::count_global(round)),
                order,
                refine_bounds,
                threads,
                blocks,
                &mut view,
                &mut budget,
                &mut delta,
                &mut boundary,
                &mut exchange,
            )
        } else {
            let mut moved = 0u64;
            for &v in order.iter() {
                // The flag first: it is one bit per node, the degree two
                // words at a random offset.
                if !boundary.is_dirty(v) {
                    #[cfg(debug_assertions)]
                    assert_interior(graph, blocks, v);
                    continue;
                }
                if graph.degree(v) == 0 {
                    continue;
                }
                let cur = blocks[ids::node_index(v)];
                rating.clear();
                for (u, w) in graph.neighbors(v) {
                    rating.add(blocks[ids::node_index(u)], w);
                }
                let cw = graph.node_weight(v) as i64;
                let overloaded = view[ids::node_index(cur)] > lmax as i64;
                let mut best: Node = if overloaded { Node::MAX } else { cur };
                let mut best_w: Weight = if overloaded { 0 } else { rating.get(cur) };
                let mut ties = 1u32;
                for (c, w) in rating.iter() {
                    if c == cur {
                        continue;
                    }
                    if cw > budget[ids::node_index(c)] {
                        continue; // would risk exceeding Lmax globally
                    }
                    if best == Node::MAX || w > best_w {
                        best = c;
                        best_w = w;
                        ties = 1;
                    } else if w == best_w {
                        ties += 1;
                        if rng.gen_range(0..ties) == 0 {
                            best = c;
                        }
                    }
                }
                if best != cur && best != Node::MAX {
                    view[ids::node_index(cur)] -= cw;
                    view[ids::node_index(best)] += cw;
                    budget[ids::node_index(best)] -= cw;
                    delta[ids::node_index(cur)] -= cw;
                    delta[ids::node_index(best)] += cw;
                    blocks[ids::node_index(v)] = best;
                    exchange.record(graph, v, best);
                    boundary.mark_owned_neighbors(graph, v);
                    moved += 1;
                } else if rating.only() == Some(cur) {
                    boundary.clear(graph, v);
                }
            }
            moved
        };
        stats.rounds += 1;
        stats.moves += moved;
        // Phase end: exact ghost labels, then exact weights via one delta
        // allreduce (own moves are counted by the owner, so the summed
        // deltas cover every node exactly once).
        exchange.flush_sync_with(comm, graph, blocks, |l, _, _| {
            boundary.mark_ghost_neighbors(l);
        });
        let global_delta = allreduce_sum_vec_i64(comm, std::mem::take(&mut delta));
        apply_weight_delta(&mut exact, &global_delta);
        delta = global_delta;
        #[cfg(debug_assertions)]
        {
            let recount = allreduce_sum_vec(comm, local_contrib(blocks));
            assert_eq!(exact, recount, "incremental block weights drifted");
        }
        let global_moves = allreduce_sum(comm, moved);
        if global_moves == 0 {
            break;
        }
    }

    // Forced balance repair: the overloaded-block rule above only considers
    // *adjacent* blocks, which can strand weight when no boundary to an
    // underloaded block exists (small or disconnected instances). Drain any
    // remaining overload with budget-coordinated moves to arbitrary
    // underloaded blocks (largest connection first, which is usually 0).
    for round in 0..4u64 {
        if exact.iter().all(|&w| w <= lmax) {
            break;
        }
        let r = ids::count_global(comm.rank());
        for (b, &w) in exact.iter().enumerate() {
            let slack = lmax.saturating_sub(w);
            let base = slack / p;
            let extra = u64::from((r + ids::count_global(b) + round) % p < slack % p);
            budget[b] = (base + extra) as i64;
            view[b] = w as i64;
            delta[b] = 0;
        }
        let mut moved = 0u64;
        for v in 0..ids::node_of_index(n_local) {
            let cur = blocks[ids::node_index(v)];
            if view[ids::node_index(cur)] <= lmax as i64 {
                continue;
            }
            let cw = graph.node_weight(v) as i64;
            rating.clear();
            for (u, w) in graph.neighbors(v) {
                rating.add(blocks[ids::node_index(u)], w);
            }
            // Best target over *all* blocks: maximize connection, break
            // ties toward the lightest block; must fit the budget.
            let mut best: Option<(Weight, i64, Node)> = None;
            for b in 0..ids::node_of_index(k) {
                if b == cur || cw > budget[ids::node_index(b)] {
                    continue;
                }
                let conn = rating.get(b);
                let light = -view[ids::node_index(b)];
                if best.map(|(c, l, _)| (conn, light) > (c, l)).unwrap_or(true) {
                    best = Some((conn, light, b));
                }
            }
            if let Some((_, _, b)) = best {
                view[ids::node_index(cur)] -= cw;
                view[ids::node_index(b)] += cw;
                budget[ids::node_index(b)] -= cw;
                delta[ids::node_index(cur)] -= cw;
                delta[ids::node_index(b)] += cw;
                blocks[ids::node_index(v)] = b;
                exchange.record(graph, v, b);
                moved += 1;
            }
        }
        stats.moves += moved;
        exchange.flush_sync(comm, graph, blocks);
        let global_delta = allreduce_sum_vec_i64(comm, std::mem::take(&mut delta));
        apply_weight_delta(&mut exact, &global_delta);
        delta = global_delta;
        #[cfg(debug_assertions)]
        {
            let recount = allreduce_sum_vec(comm, local_contrib(blocks));
            assert_eq!(exact, recount, "incremental block weights drifted");
        }
        if allreduce_sum(comm, moved) == 0 {
            break;
        }
    }
    stats
}

/// One refine-mode round as a chunked superstep (`threads_per_pe ≥ 2`):
/// workers propose moves against round-start `blocks`/`view`/`budget`
/// plus their own in-chunk deltas; the PE thread merges in chunk-index
/// order, re-checking every proposal against the **true** shared inflow
/// budget — the per-PE slack throttle is thereby applied at merge time,
/// so the joint inflows still can never exceed `Lmax` (the exact balance
/// guarantee of the sequential path). `view`/`budget`/`delta` are updated
/// to the merged end-of-round state.
#[allow(clippy::too_many_arguments)] // internal seam of an already-wide API
fn refine_round_chunked(
    comm: &Comm,
    graph: &DistGraph,
    lmax: Weight,
    round_seed: u64,
    order: &[Node],
    bounds: &[usize],
    threads: usize,
    blocks: &mut [Node],
    view: &mut [i64],
    budget: &mut [i64],
    delta: &mut [i64],
    boundary: &mut BoundarySet,
    exchange: &mut LabelExchange,
) -> u64 {
    let k = view.len();
    // Freeze round-start state: workers read, the merge below mutates.
    let blocks_r: &[Node] = blocks;
    let view_r: &[i64] = view;
    let budget_r: &[i64] = budget;
    let boundary_r: &BoundarySet = boundary;
    let outs = chunk::run_chunks(threads, bounds, |chunk_idx, lo, hi| {
        let t0 = std::time::Instant::now(); // lint:instant-ok: per-chunk compute span, folded into phase stats at merge
        let mut rng =
            SmallRng::seed_from_u64(pgp_dmp::mix_seed(round_seed, ids::count_global(chunk_idx)));
        let mut rating = DenseRating::new(k);
        // This chunk's own view deltas and budget consumption, overlaid on
        // the round-start vectors for all in-chunk decisions.
        let mut dview = vec![0i64; k];
        let mut used = vec![0i64; k];
        let mut moves: Vec<(Node, Node)> = Vec::new();
        let mut interior: Vec<Node> = Vec::new();
        for &v in &order[lo..hi] {
            if !boundary_r.is_dirty(v) {
                #[cfg(debug_assertions)]
                assert_interior(graph, blocks_r, v);
                continue;
            }
            if graph.degree(v) == 0 {
                continue;
            }
            let cur = blocks_r[ids::node_index(v)];
            rating.clear();
            for (u, w) in graph.neighbors(v) {
                rating.add(blocks_r[ids::node_index(u)], w);
            }
            let cw = graph.node_weight(v) as i64;
            let overloaded =
                view_r[ids::node_index(cur)] + dview[ids::node_index(cur)] > lmax as i64;
            let mut best: Node = if overloaded { Node::MAX } else { cur };
            let mut best_w: Weight = if overloaded { 0 } else { rating.get(cur) };
            let mut ties = 1u32;
            for (c, w) in rating.iter() {
                if c == cur {
                    continue;
                }
                if cw > budget_r[ids::node_index(c)] - used[ids::node_index(c)] {
                    continue; // would risk exceeding Lmax globally
                }
                if best == Node::MAX || w > best_w {
                    best = c;
                    best_w = w;
                    ties = 1;
                } else if w == best_w {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = c;
                    }
                }
            }
            if best != cur && best != Node::MAX {
                dview[ids::node_index(cur)] -= cw;
                dview[ids::node_index(best)] += cw;
                used[ids::node_index(best)] += cw;
                moves.push((v, best));
            } else if rating.only() == Some(cur) {
                interior.push(v);
            }
        }
        ChunkMoves {
            moves,
            interior,
            elapsed_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    });
    // Interior w.r.t. the round-start blocks: cleared for the whole round
    // before any accepted move re-marks its neighbours, or a node cleared
    // by a later chunk would lose the mark of an earlier chunk's move.
    for out in &outs {
        for &v in &out.interior {
            boundary.clear(graph, v);
        }
    }
    // Ordered merge: the real budget is decremented as proposals are
    // accepted, so chunks jointly respect the same per-PE inflow cap the
    // sequential path enforces — skipped proposals simply stay put.
    let mut moved = 0u64;
    for out in outs {
        for &(v, b) in &out.moves {
            let cur = blocks[ids::node_index(v)];
            let cw = graph.node_weight(v) as i64;
            if cw > budget[ids::node_index(b)] {
                continue; // earlier chunks consumed this block's inflow budget
            }
            view[ids::node_index(cur)] -= cw;
            view[ids::node_index(b)] += cw;
            budget[ids::node_index(b)] -= cw;
            delta[ids::node_index(cur)] -= cw;
            delta[ids::node_index(b)] += cw;
            blocks[ids::node_index(v)] = b;
            exchange.record(graph, v, b);
            boundary.mark_owned_neighbors(graph, v);
            moved += 1;
        }
        comm.recorder()
            .record_phase_ns("sclp_chunk", out.elapsed_ns);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::CsrGraph;
    use std::collections::HashMap;

    fn cluster_weights_global(
        g: &CsrGraph,
        all_labels: &[Vec<Node>],
        dists: &[(u64, usize)],
    ) -> HashMap<Node, u64> {
        // Reassemble global labels from per-PE local label slices.
        let mut global = vec![0 as Node; g.n()];
        for (rank, labels) in all_labels.iter().enumerate() {
            let (first, n_local) = dists[rank];
            for i in 0..n_local {
                global[first as usize + i] = labels[i];
            }
        }
        let mut w = HashMap::new();
        for v in g.nodes() {
            *w.entry(global[v as usize]).or_insert(0) += g.node_weight(v);
        }
        w
    }

    #[test]
    fn parallel_clustering_groups_planted_communities() {
        let (g, truth) = pgp_gen::sbm::sbm(600, pgp_gen::sbm::SbmParams::default(), 1);
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            parallel_sclp_cluster(comm, &dg, 200, 8, 42, &mut labels, None);
            (
                labels[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let labels: Vec<Vec<Node>> = results.iter().map(|r| r.0.clone()).collect();
        let dists: Vec<(u64, usize)> = results.iter().map(|r| r.1).collect();
        // Coverage of the found clustering should be decent given the
        // planted structure.
        let mut global = vec![0 as Node; g.n()];
        for (rank, l) in labels.iter().enumerate() {
            for i in 0..dists[rank].1 {
                global[dists[rank].0 as usize + i] = l[i];
            }
        }
        let cov = pgp_graph::metrics::coverage(&g, &global);
        assert!(cov > 0.55, "coverage {cov}");
        let _ = truth;
        // Far fewer clusters than nodes.
        let distinct: std::collections::HashSet<_> = global.iter().collect();
        assert!(distinct.len() < g.n() / 3, "{} clusters", distinct.len());
    }

    #[test]
    fn parallel_cluster_weights_respect_soft_bound() {
        let g = pgp_gen::mesh::grid2d(20, 20);
        let u = 25u64;
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            parallel_sclp_cluster(comm, &dg, u, 6, 7, &mut labels, None);
            (
                labels[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let labels: Vec<Vec<Node>> = results.iter().map(|r| r.0.clone()).collect();
        let dists: Vec<(u64, usize)> = results.iter().map(|r| r.1).collect();
        let w = cluster_weights_global(&g, &labels, &dists);
        // Soft bound: slight overshoot from concurrent moves is tolerated
        // (the paper: "it does no harm if a cluster contains slightly more
        // nodes than the upper bound").
        let max = w.values().copied().max().unwrap();
        assert!(max <= 2 * u, "max cluster weight {max} vs U {u}");
    }

    #[test]
    fn parallel_clustering_is_deterministic() {
        let g = pgp_gen::ba::barabasi_albert(400, 3, 2);
        let go = |seed: u64| {
            run(3, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let mut labels = singleton_labels(&dg);
                parallel_sclp_cluster(comm, &dg, 50, 5, seed, &mut labels, None);
                labels
            })
        };
        assert_eq!(go(5), go(5));
    }

    #[test]
    fn single_pe_matches_own_rerun() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        let a = run(1, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            parallel_sclp_cluster(comm, &dg, 20, 5, 3, &mut labels, None);
            labels
        });
        assert_eq!(a[0].len(), 100);
        let distinct: std::collections::HashSet<_> = a[0].iter().collect();
        assert!(distinct.len() < 50);
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh() {
        // Reusing one scratch across calls (and across modes) must produce
        // bit-identical results to fresh per-call working memory.
        let g = pgp_gen::ba::barabasi_albert(300, 3, 4);
        let k = 2usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        let go = |reuse: bool| {
            run(2, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let mut scratch = SclpScratch::new();
                let mut out = Vec::new();
                for pass in 0..2u64 {
                    let mut labels = singleton_labels(&dg);
                    let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                        .map(|l| dg.local_to_global(l) % k as Node)
                        .collect();
                    if reuse {
                        parallel_sclp_cluster_with_scratch(
                            comm,
                            &dg,
                            40,
                            4,
                            9 + pass,
                            &mut labels,
                            None,
                            &mut scratch,
                        );
                        parallel_sclp_refine_with_scratch(
                            comm,
                            &dg,
                            k,
                            lmax,
                            4,
                            9 + pass,
                            &mut blocks,
                            &mut scratch,
                        );
                    } else {
                        parallel_sclp_cluster(comm, &dg, 40, 4, 9 + pass, &mut labels, None);
                        parallel_sclp_refine(comm, &dg, k, lmax, 4, 9 + pass, &mut blocks);
                    }
                    out.push((labels, blocks));
                }
                out
            })
        };
        assert_eq!(go(true), go(false));
    }

    #[test]
    fn parallel_refine_reduces_cut_and_keeps_balance() {
        use rand::seq::SliceRandom;
        let g = pgp_gen::mesh::grid2d(16, 16);
        let k = 2usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        // Random balanced bipartition: terrible cut, perfectly balanced.
        let mut rng0 = SmallRng::seed_from_u64(21);
        let mut ids: Vec<usize> = (0..256).collect();
        ids.shuffle(&mut rng0);
        let mut init = vec![0 as Node; 256];
        for &i in &ids[128..] {
            init[i] = 1;
        }
        let init_p = pgp_graph::Partition::from_assignment(&g, k, init.clone());
        let before = init_p.edge_cut(&g);
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| init[dg.local_to_global(l) as usize])
                .collect();
            parallel_sclp_refine(comm, &dg, k, lmax, 10, 11, &mut blocks);
            (
                blocks[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let mut global = vec![0 as Node; g.n()];
        for (part, (first, n_local)) in &results {
            for i in 0..*n_local {
                global[*first as usize + i] = part[i];
            }
        }
        let p = pgp_graph::Partition::from_assignment(&g, k, global);
        let after = p.edge_cut(&g);
        assert!(after < before, "cut {before} -> {after}");
        assert!(
            p.max_block_weight() <= lmax,
            "weight {} > {lmax}",
            p.max_block_weight()
        );
    }

    #[test]
    fn parallel_refine_never_exceeds_lmax() {
        let g = pgp_gen::ba::barabasi_albert(500, 3, 9);
        let k = 4usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        // Balanced striped init.
        let init: Vec<Node> = (0..500).map(|i| (i % 4) as Node).collect();
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| init[dg.local_to_global(l) as usize])
                .collect();
            parallel_sclp_refine(comm, &dg, k, lmax, 8, 13, &mut blocks);
            (
                blocks[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let mut global = vec![0 as Node; g.n()];
        for (part, (first, n_local)) in &results {
            for i in 0..*n_local {
                global[*first as usize + i] = part[i];
            }
        }
        let p = pgp_graph::Partition::from_assignment(&g, k, global);
        assert!(p.max_block_weight() <= lmax);
    }

    #[test]
    fn vcycle_constraint_holds_in_parallel() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 5);
        // Constraint: global parity partition.
        let cons_of = |gid: Node| gid % 2;
        let results = run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            let cons: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| cons_of(dg.local_to_global(l)))
                .collect();
            parallel_sclp_cluster(comm, &dg, 100, 6, 1, &mut labels, Some(&cons));
            (
                labels[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        for (labels, (first, n_local)) in &results {
            #[allow(clippy::needless_range_loop)] // i is a local node id
            for i in 0..*n_local {
                let gid = *first as Node + i as Node;
                // Cluster IDs are node IDs; the cluster's parity class must
                // match the member's.
                assert_eq!(cons_of(labels[i]), cons_of(gid));
            }
        }
    }
}
