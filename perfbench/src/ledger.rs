//! The traced replay: one partition call driven layer by layer through
//! the program's public functions, with every call timed from outside.
//!
//! [`replay`] repeats `parhip::parhip_distributed` (the V-cycle engine in
//! `crates/core/src/partitioner.rs` and the coarsening loop in
//! `crates/core/src/coarsen.rs`) call for call, with the same order and
//! seeds. The benchmark compares its assignment with the untraced call's
//! and fails if they differ, so the ledger keeps describing the real
//! program if the engine drifts.
//!
//! Around each call the tracer reads, on the calling PE: `Instant` wall
//! time, schedstat CPU and run-queue time, and the PE's sent messages and
//! bytes from `Obs::live_snapshot` after `Recorder::publish_live`.

use crate::clock;
use parhip::{
    parallel_contract, parallel_project_blocks, ParContraction, ParHierarchy, ParLevel,
    ParhipConfig,
};
use pgp_dmp::collectives::{allgatherv, allreduce, alltoallv};
use pgp_dmp::{Comm, DistGraph, Obs};
use pgp_evo::{Budget, EvoConfig, Objective};
use pgp_graph::{lmax, CsrGraph, Node, Partition};
use pgp_lp::par::{
    parallel_sclp_cluster_with_scratch, parallel_sclp_refine_with_scratch, singleton_labels,
    SclpScratch,
};
use pgp_lp::SclpStats;
use std::time::Instant;

/// The layers, named after the modules whose public calls they time.
pub const LAYERS: [&str; 6] = [
    "dmp.distribute",
    "lp.cluster",
    "core.contract",
    "evo.initial",
    "core.project",
    "lp.refine",
];
const DISTRIBUTE: usize = 0;
const CLUSTER: usize = 1;
const CONTRACT: usize = 2;
const INITIAL: usize = 3;
const PROJECT: usize = 4;
const REFINE: usize = 5;

/// One PE's totals for one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Σ `Instant` time inside the layer's calls.
    pub wall_ns: u64,
    /// Σ schedstat field 1 (CPU) advance.
    pub cpu_ns: u64,
    /// Σ schedstat field 2 (runnable, waiting for a core) advance.
    pub runq_ns: u64,
    /// Timed calls.
    pub calls: u64,
    /// Messages this PE sent inside the calls.
    pub msgs: u64,
    /// Payload bytes this PE sent inside the calls.
    pub bytes: u64,
}

impl LayerTotals {
    fn add(&mut self, o: &LayerTotals) {
        self.wall_ns += o.wall_ns;
        self.cpu_ns += o.cpu_ns;
        self.runq_ns += o.runq_ns;
        self.calls += o.calls;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
    }
}

/// Work done by one SCLP layer on one PE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SclpWork {
    /// Σ rounds over calls.
    pub rounds: u64,
    /// Σ node moves over calls.
    pub moves: u64,
    /// Σ rounds × owned adjacency entries: SCLP rescans every owned node
    /// each round.
    pub adj_scanned: u64,
    /// Σ rounds × owned nodes: the visits the moves are a share of.
    pub node_visits: u64,
}

impl SclpWork {
    fn record(&mut self, graph: &DistGraph, stats: &SclpStats) {
        let rounds = stats.rounds as u64;
        self.rounds += rounds;
        self.moves += stats.moves;
        self.adj_scanned += rounds * graph.local_arc_count();
        self.node_visits += rounds * graph.n_local() as u64;
    }
}

/// Structural work counts of one PE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Cluster-mode SCLP.
    pub cluster: SclpWork,
    /// Refine-mode SCLP.
    pub refine: SclpWork,
    /// Contractions kept as hierarchy levels, over all V-cycles.
    pub levels: u64,
    /// Σ global fine nodes over kept contractions.
    pub fine_n: u64,
    /// Σ global coarse nodes over kept contractions.
    pub coarse_n: u64,
    /// Σ global coarse edges over kept contractions.
    pub coarse_m: u64,
    /// Global nodes of the first V-cycle's coarsest graph.
    pub coarsest_n: u64,
    /// Global edges of the first V-cycle's coarsest graph.
    pub coarsest_m: u64,
    /// Ghost nodes of this PE's part of the input graph.
    pub ghosts: u64,
}

/// One timed interval of the trace artifact.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, or `replay` / `vcycle` for the enclosing spans.
    pub layer: &'static str,
    /// PE rank.
    pub pe: usize,
    /// Span id, unique within the replay.
    pub id: u64,
    /// Id of the enclosing span (0 for the replay root).
    pub parent: u64,
    /// V-cycle index (0 outside any V-cycle).
    pub cycle: usize,
    /// Hierarchy level the call worked on.
    pub level: usize,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
}

/// Everything one PE records during one replay.
#[derive(Clone, Debug, Default)]
pub struct PeLedger {
    /// Per-layer totals, indexed like [`LAYERS`].
    pub layers: [LayerTotals; 6],
    /// Work counts.
    pub work: Work,
    /// Spans in the order they closed.
    pub spans: Vec<Span>,
}

impl PeLedger {
    /// Adds another replay's layer totals (work counts and spans are
    /// per replay and stay with it).
    pub fn add_layers(&mut self, o: &PeLedger) {
        for (a, b) in self.layers.iter_mut().zip(&o.layers) {
            a.add(b);
        }
    }
}

/// Times calls on one PE and records them into a [`PeLedger`].
struct Tracer<'a> {
    comm: &'a Comm,
    obs: &'a Obs,
    epoch: Instant,
    ledger: PeLedger,
    next_id: u64,
    /// The enclosing span of the next timed call.
    parent: u64,
    cycle: usize,
    level: usize,
}

impl<'a> Tracer<'a> {
    fn new(comm: &'a Comm, obs: &'a Obs, epoch: Instant) -> Self {
        Tracer {
            comm,
            obs,
            epoch,
            ledger: PeLedger::default(),
            next_id: 1,
            parent: 0,
            cycle: 0,
            level: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = ((self.comm.rank() as u64) << 32) | self.next_id;
        self.next_id += 1;
        id
    }

    /// `(msgs, bytes)` this PE has sent so far.
    fn sent(&self) -> (u64, u64) {
        self.comm.recorder().publish_live();
        let snap = self
            .obs
            .live_snapshot(self.comm.rank())
            .expect("live publication is enabled for traced replays");
        (snap.msgs_sent, snap.bytes_sent)
    }

    /// Runs `f` as one call of `layer`, timing it from outside.
    fn time<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        let (msgs0, bytes0) = self.sent();
        let (cpu0, runq0) = clock::schedstat();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let (cpu1, runq1) = clock::schedstat();
        let (msgs1, bytes1) = self.sent();
        let wall_ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
        self.ledger.layers[layer].add(&LayerTotals {
            wall_ns,
            cpu_ns: cpu1 - cpu0,
            runq_ns: runq1 - runq0,
            calls: 1,
            msgs: msgs1 - msgs0,
            bytes: bytes1 - bytes0,
        });
        let span = Span {
            layer: LAYERS[layer],
            pe: self.comm.rank(),
            id: self.fresh_id(),
            parent: self.parent,
            cycle: self.cycle,
            level: self.level,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        };
        self.ledger.spans.push(span);
        out
    }

    /// Closes an enclosing span opened at `start` with id `id`.
    fn close(&mut self, layer: &'static str, id: u64, parent: u64, start: Instant) {
        let span = Span {
            layer,
            pe: self.comm.rank(),
            id,
            parent,
            cycle: self.cycle,
            level: 0,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        };
        self.ledger.spans.push(span);
    }
}

/// Replays one `parhip::parhip_distributed` call on `g` (run inside a
/// `pgp_dmp::run_config` closure whose `RunConfig::obs` is `obs`, with
/// live publication enabled). Returns the assembled global assignment and
/// this PE's ledger.
pub fn replay(
    comm: &Comm,
    g: &CsrGraph,
    cfg: &ParhipConfig,
    obs: &Obs,
    epoch: Instant,
) -> (Vec<Node>, PeLedger) {
    let mut t = Tracer::new(comm, obs, epoch);
    let root = t.fresh_id();
    let root_start = Instant::now();
    t.parent = root;
    let graph = t.time(DISTRIBUTE, || DistGraph::from_global(comm, g));
    t.ledger.work.ghosts = graph.n_ghost() as u64;
    let n_all = graph.n_local() + graph.n_ghost();
    let mut blocks: Option<Vec<Node>> = None;
    let mut scratch = SclpScratch::new();

    for cycle in 0..cfg.vcycles.max(1) {
        t.cycle = cycle;
        let vcycle = t.fresh_id();
        let vcycle_start = Instant::now();
        t.parent = vcycle;

        let hierarchy = coarsen(
            &mut t,
            comm,
            graph.clone(),
            cfg,
            cycle,
            blocks.as_deref(),
            &mut scratch,
        );
        let coarsest = hierarchy.coarsest();
        if cycle == 0 {
            t.ledger.work.coarsest_n = coarsest.n_global();
            t.ledger.work.coarsest_m = coarsest.m_global();
        }

        t.level = hierarchy.depth() - 1;
        let coarse_partition = t.time(INITIAL, || {
            let coarsest_global = coarsest.gather_global(comm);
            let seed_partition = blocks.as_ref().map(|b| {
                let coarse_local = project_down(comm, &hierarchy, b);
                let all = allgatherv(comm, coarse_local);
                Partition::from_assignment(&coarsest_global, cfg.k, all)
            });
            let evo_cfg = EvoConfig {
                k: cfg.k,
                eps: cfg.eps,
                population_size: cfg.population_size,
                budget: Budget::Operations(cfg.evo_operations),
                mutation_rate: 0.1,
                rumor_fanout: if cfg.deterministic { 0 } else { 1 },
                rumor_interval: 2,
                seed: cfg.seed.wrapping_add(cycle as u64 * 0xE70),
                objective: Objective::EdgeCut,
            };
            pgp_evo::kaffpae(comm, &coarsest_global, &evo_cfg, seed_partition.as_ref())
        });

        let lmax_v = lmax(graph.total_node_weight(), cfg.k, cfg.eps);
        let first = coarsest.first_global();
        let mut level_blocks: Vec<Node> = (0..coarsest.n_local())
            .map(|l| coarse_partition.block((first + l as u64) as Node))
            .collect();
        for li in (0..hierarchy.depth() - 1).rev() {
            t.level = li;
            let fine = &hierarchy.levels[li].graph;
            let coarse = &hierarchy.levels[li + 1].graph;
            let mapping = &hierarchy.levels[li].mapping;
            let mut fine_blocks = t.time(PROJECT, || {
                parallel_project_blocks(comm, coarse, mapping, &level_blocks)
            });
            let stats = t.time(REFINE, || {
                parallel_sclp_refine_with_scratch(
                    comm,
                    fine,
                    cfg.k,
                    lmax_v,
                    cfg.refine_iterations,
                    cfg.seed.wrapping_add((cycle * 1000 + li) as u64),
                    &mut fine_blocks,
                    &mut scratch,
                )
            });
            t.ledger.work.refine.record(fine, &stats);
            level_blocks = fine_blocks[..fine.n_local()].to_vec();
        }
        if hierarchy.depth() == 1 {
            t.level = 0;
            let fine = &hierarchy.levels[0].graph;
            let mut fb: Vec<Node> = vec![0; fine.n_local() + fine.n_ghost()];
            fb[..fine.n_local()].copy_from_slice(&level_blocks);
            for (l, b) in fb.iter_mut().enumerate().skip(fine.n_local()) {
                *b = coarse_partition.block(fine.local_to_global(l as Node));
            }
            let stats = t.time(REFINE, || {
                parallel_sclp_refine_with_scratch(
                    comm,
                    fine,
                    cfg.k,
                    lmax_v,
                    cfg.refine_iterations,
                    cfg.seed.wrapping_add(cycle as u64 * 7919),
                    &mut fb,
                    &mut scratch,
                )
            });
            t.ledger.work.refine.record(fine, &stats);
            level_blocks = fb[..fine.n_local()].to_vec();
        }

        // Ghost refresh for the next cycle's constraint.
        t.level = 0;
        let ghost_ids: Vec<Node> = (graph.n_local()..n_all)
            .map(|l| graph.local_to_global(l as Node))
            .collect();
        let ghost_blocks = t.time(PROJECT, || {
            parhip::contract::query_owner_values(comm, graph.dist(), &ghost_ids, |idx| {
                level_blocks[idx]
            })
        });
        let mut full: Vec<Node> = vec![0; n_all];
        full[..graph.n_local()].copy_from_slice(&level_blocks);
        full[graph.n_local()..].copy_from_slice(&ghost_blocks);
        blocks = Some(full);

        t.parent = root;
        t.close("vcycle", vcycle, root, vcycle_start);
    }

    let final_blocks = blocks.expect("at least one V-cycle ran");
    let assignment = allgatherv(comm, final_blocks[..graph.n_local()].to_vec());
    t.cycle = 0;
    t.close("replay", root, 0, root_start);
    (assignment, t.ledger)
}

/// The coarsening loop of one V-cycle (`parallel_coarsen_with_scratch`),
/// with the clustering and contraction steps timed.
fn coarsen(
    t: &mut Tracer,
    comm: &Comm,
    finest: DistGraph,
    cfg: &ParhipConfig,
    cycle: usize,
    constraint: Option<&[Node]>,
    scratch: &mut SclpScratch,
) -> ParHierarchy {
    let stop = cfg.stop_size();
    let mut levels: Vec<ParLevel> = Vec::new();
    let mut current = finest;
    let mut cur_constraint: Option<Vec<Node>> = constraint.map(|c| c.to_vec());
    loop {
        if current.n_global() <= stop {
            break;
        }
        t.level = levels.len();
        let (labels, stats) = t.time(CLUSTER, || {
            let local_max_w = (0..current.n_local() as Node)
                .map(|v| current.node_weight(v))
                .max()
                .unwrap_or(1);
            let max_w = allreduce(comm, local_max_w, |a, b| a.max(b));
            let u = cfg.u_bound(current.total_node_weight(), max_w, cycle);
            let mut labels = singleton_labels(&current);
            let stats = parallel_sclp_cluster_with_scratch(
                comm,
                &current,
                u,
                cfg.coarsen_iterations,
                cfg.seed
                    .wrapping_add(levels.len() as u64 * 0x51CE + cycle as u64),
                &mut labels,
                cur_constraint.as_deref(),
                scratch,
            );
            (labels, stats)
        });
        t.ledger.work.cluster.record(&current, &stats);
        let c = t.time(CONTRACT, || parallel_contract(comm, &current, &labels));
        if c.coarse.n_global() * 20 > current.n_global() * 19 {
            break;
        }
        let work = &mut t.ledger.work;
        work.levels += 1;
        work.fine_n += current.n_global();
        work.coarse_n += c.coarse.n_global();
        work.coarse_m += c.coarse.m_global();
        if let Some(cons) = &cur_constraint {
            let projected = t.time(CONTRACT, || project_constraint(comm, &current, &c, cons));
            cur_constraint = Some(projected);
        }
        levels.push(ParLevel {
            graph: current,
            mapping: c.mapping,
        });
        current = c.coarse;
    }
    levels.push(ParLevel {
        graph: current,
        mapping: Vec::new(),
    });
    ParHierarchy { levels }
}

/// The V-cycle constraint projection of the coarsening loop: each coarse
/// node inherits its members' block; owners learn it from their fine
/// members, then every PE looks up its owned + ghost coarse nodes.
fn project_constraint(
    comm: &Comm,
    current: &DistGraph,
    c: &ParContraction,
    cons: &[Node],
) -> Vec<Node> {
    let coarse_dist = c.coarse.dist();
    let first = coarse_dist.first(comm.rank());
    let mut owned_block = vec![Node::MAX; coarse_dist.count(comm.rank())];
    let mut votes: Vec<Vec<(Node, Node)>> = vec![Vec::new(); comm.size()];
    let n = current.n_local();
    for (&cid, &block) in c.mapping[..n].iter().zip(&cons[..n]) {
        votes[coarse_dist.owner(cid)].push((cid, block));
    }
    for (cid, b) in alltoallv(comm, votes).into_iter().flatten() {
        owned_block[(cid as u64 - first) as usize] = b;
    }
    let all_ids: Vec<Node> = (0..(c.coarse.n_local() + c.coarse.n_ghost()) as Node)
        .map(|l| c.coarse.local_to_global(l))
        .collect();
    parhip::contract::query_owner_values(comm, coarse_dist, &all_ids, |idx| owned_block[idx])
}

/// Projects the current fine blocks (owned part) down the hierarchy to
/// this PE's owned coarsest nodes (the seed partition of later cycles).
fn project_down(comm: &Comm, hierarchy: &ParHierarchy, fine_blocks: &[Node]) -> Vec<Node> {
    let mut cur: Vec<Node> = fine_blocks[..hierarchy.levels[0].graph.n_local()].to_vec();
    for li in 0..hierarchy.depth() - 1 {
        let coarse = &hierarchy.levels[li + 1].graph;
        let mapping = &hierarchy.levels[li].mapping;
        let dist = coarse.dist();
        let mut votes: Vec<Vec<(Node, Node)>> = vec![Vec::new(); comm.size()];
        for (v, &b) in cur.iter().enumerate() {
            let cid = mapping[v];
            votes[dist.owner(cid)].push((cid, b));
        }
        let first = dist.first(comm.rank());
        let mut next: Vec<Node> = vec![0; coarse.n_local()];
        for (cid, b) in alltoallv(comm, votes).into_iter().flatten() {
            next[(cid as u64 - first) as usize] = b;
        }
        cur = next;
    }
    cur
}
