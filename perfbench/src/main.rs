//! The repository's benchmark: the ParHIP pipeline end to end, and the
//! same V-cycle layer by layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <web_fast|mesh_fast|web_eco> --seed <n> --seconds <s> --trace <0|1> \
//!     [--smoke] [--out <dir>]
//! ```
//!
//! Every call partitions a generated graph into k = 8 blocks at ε = 0.03
//! on p = 2 PEs (threads backend, one thread per PE), closed loop with one
//! client: a call starts only after the previous one has finished. Each
//! instance's seed, derived from `--seed`, drives both the generator and
//! `ParhipConfig::seed`; the program sees only the generated graph.
//!
//! * `--trace 0` splits `--seconds` over several instances and times whole
//!   calls (`pgp_dmp::run_config` → `DistGraph::from_global` →
//!   `parhip::parhip_distributed` → `allgatherv`). It prints, as medians
//!   over the instances: `partition_s` (wall time of a call, PE spawn to
//!   assembled assignment), `cpu_max_s` (largest per-PE schedstat CPU
//!   time within a call), `cut`, `max_block_ratio` (heaviest block over
//!   the average block, i.e. 1 + imbalance), `setup_s` (generating one
//!   instance) and `peak_rss_mb` (VmHWM after the first instance).
//! * `--trace 1` alternates an untraced call on the first instance with a
//!   layer-by-layer replay of it ([`ledger::replay`]), prints per-layer
//!   wall, CPU, run-queue and blocked time (from the PE with the most wall
//!   time in the layer), calls, messages and bytes (summed over PEs), the
//!   work counts, `trace.coverage` (Σ layer wall / replay wall),
//!   `trace.overhead` (replay wall / `partition_s` − 1) and `host.ref_s`,
//!   and writes the spans to `<out>/<workload>-seed<seed>.spans.jsonl`.
//!
//! Every call is validated (block range, ε-balance, cut recomputed on the
//! global graph) and must repeat the instance's first assignment exactly;
//! a replay must equal its untraced call. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the exit code is non-zero if any call failed.

mod clock;
mod ledger;

use clock::Resolution;
use ledger::{PeLedger, Work, LAYERS};
use parhip::{GraphClass, ParhipConfig};
use pgp_dmp::collectives::allgatherv;
use pgp_dmp::{DistGraph, Obs, RunConfig};
use pgp_gen::benchmark_set::{self, Tier};
use pgp_graph::{CsrGraph, Node, Partition};
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PEs per call.
const P: usize = 2;
/// Blocks per partition.
const K: usize = 8;
/// Allowed imbalance.
const EPS: f64 = 0.03;

/// Instances one untraced run partitions, each from its own seed derived
/// from `--seed`. Partition time and cut depend on the instance (on
/// eu-2005 some seeds cut 40 % more than the rest), so a run reports
/// medians over several instances rather than one instance's figures.
/// `setup_s` is the median of their generation times.
fn instances(workload: &str) -> u64 {
    match workload {
        "web_eco" => 9,
        _ => 4,
    }
}

/// Generator and configuration seed of instance `i` of a run.
fn instance_seed(seed: u64, i: u64, instances: u64) -> u64 {
    seed.wrapping_mul(instances).wrapping_add(i)
}

/// The workloads; why each was chosen is recorded in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["web_fast", "mesh_fast", "web_eco"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <web_fast|mesh_fast|web_eco> --seed <n> --seconds <s> \
         --trace <0|1> [--smoke] [--out <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = WORKLOADS.into_iter().find(|&w| w == value);
                if workload.is_none() {
                    usage(&format!("unknown workload '{value}'"));
                }
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        smoke,
        out,
    }
}

/// Generates the workload's graph (`--smoke` shrinks it).
fn generate(workload: &str, seed: u64, smoke: bool) -> CsrGraph {
    match (workload, smoke) {
        ("web_fast", false) => benchmark_set::instance("uk-2007", Tier::Medium, seed).graph,
        ("web_fast", true) => benchmark_set::instance("uk-2007", Tier::Tiny, seed).graph,
        ("mesh_fast", false) => pgp_gen::delaunay::delaunay_x(19, seed),
        ("mesh_fast", true) => pgp_gen::delaunay::delaunay_x(13, seed),
        ("web_eco", false) => benchmark_set::instance("eu-2005", Tier::Small, seed).graph,
        ("web_eco", true) => benchmark_set::instance("eu-2005", Tier::Tiny, seed).graph,
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The workload's configuration. `deterministic` is pinned: with rumor
/// spreading on, the eco cut depends on thread timing (bimodal over
/// repeated runs), and the benchmark requires every call to repeat.
fn config(workload: &str, seed: u64) -> ParhipConfig {
    let mut cfg = match workload {
        "web_fast" => ParhipConfig::fast(K, GraphClass::Social, seed),
        "mesh_fast" => ParhipConfig::fast(K, GraphClass::Mesh, seed),
        "web_eco" => ParhipConfig::eco(K, GraphClass::Social, seed),
        _ => unreachable!("workload names are checked when parsed"),
    };
    cfg.eps = EPS;
    cfg.deterministic = true;
    cfg.threads_per_pe = 1;
    cfg
}

/// Times a fixed single-thread reference (sequential SCLP clustering on a
/// fixed graph) so host-speed drift shows next to the partition times.
fn host_probe(reference: &CsrGraph) -> f64 {
    let u = pgp_graph::lmax(reference.total_node_weight(), K, EPS) / 14;
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(pgp_lp::sclp_cluster(
                std::hint::black_box(reference),
                u,
                3,
                1,
            ));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it,
/// as `(label, value)`; `None` below 20 samples.
fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)]
        .into_iter()
        .find(|&(_, q)| (n as f64) * (1.0 - q) >= 10.0)
        .map(|(label, q)| {
            let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
            (label, sorted[idx])
        })
}

/// What `pgp_dmp::run_config` under `catch_unwind` gives back: each PE's
/// assembled assignment plus an extra result, or how the run failed.
type RunOutcome<T> = std::thread::Result<Vec<Result<(Vec<Node>, T), pgp_dmp::CommError>>>;

/// Per-PE work counts and per-layer `(calls, msgs, bytes)` of one replay.
type Counts = Vec<(Work, Vec<(u64, u64, u64)>)>;

/// Turns a run's per-PE outcomes (or its panic) into the assembled
/// assignment plus each PE's extra result, or the reason it failed.
fn collect<T>(outcome: RunOutcome<T>) -> Result<(Vec<Node>, Vec<T>), String> {
    let results = outcome.map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("a PE panicked: {msg}")
    })?;
    let mut assignment: Option<Vec<Node>> = None;
    let mut extras = Vec::with_capacity(results.len());
    for (rank, r) in results.into_iter().enumerate() {
        let (a, extra) = r.map_err(|e| format!("PE {rank} failed: {e}"))?;
        match &assignment {
            None => assignment = Some(a),
            Some(first) if *first != a => {
                return Err(format!("PE {rank} assembled a different assignment"))
            }
            Some(_) => {}
        }
        extras.push(extra);
    }
    Ok((assignment.expect("at least one PE"), extras))
}

/// Checks an assembled assignment: length, block range, ε-balance.
fn validate(g: &CsrGraph, assignment: Vec<Node>) -> Result<Partition, String> {
    if assignment.len() != g.n() {
        return Err(format!(
            "assignment covers {} of {} nodes",
            assignment.len(),
            g.n()
        ));
    }
    if let Some(b) = assignment.iter().find(|&&b| b as usize >= K) {
        return Err(format!("block {b} out of range (k = {K})"));
    }
    let partition = Partition::from_assignment(g, K, assignment);
    partition.validate(g, EPS).map_err(|e| e.to_string())?;
    Ok(partition)
}

/// One untraced partition call: the assembled assignment and the largest
/// per-PE thread CPU time (schedstat, read inside the PE closure).
fn partition_call(g: &CsrGraph, cfg: &ParhipConfig) -> Result<(Vec<Node>, f64), String> {
    let run_cfg = RunConfig {
        backend: cfg.backend,
        threads_per_pe: cfg.threads_per_pe,
        ..Default::default()
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pgp_dmp::run_config(P, run_cfg, |comm| {
            let cpu0 = clock::schedstat().0;
            let dg = DistGraph::from_global(comm, g);
            let (local, _) = parhip::parhip_distributed(comm, &dg, cfg);
            let all = allgatherv(comm, local);
            (all, clock::schedstat().0 - cpu0)
        })
    }));
    let (assignment, cpus) = collect(outcome)?;
    let cpu_max = cpus.into_iter().max().unwrap_or(0);
    Ok((assignment, cpu_max as f64 * 1e-9))
}

/// One traced replay: the assembled assignment and every PE's ledger.
fn traced_call(g: &CsrGraph, cfg: &ParhipConfig) -> Result<(Vec<Node>, Vec<PeLedger>), String> {
    let obs = Obs::new(P);
    obs.enable_live();
    let run_cfg = RunConfig {
        backend: cfg.backend,
        threads_per_pe: cfg.threads_per_pe,
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let epoch = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pgp_dmp::run_config(P, run_cfg, |comm| ledger::replay(comm, g, cfg, &obs, epoch))
    }));
    collect(outcome)
}

/// What a run has measured so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The current instance's first valid partition; every later call on
    /// the instance must repeat it.
    reference: Option<Partition>,
    walls: Vec<f64>,
    cpus: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Per-PE layer totals summed over replays.
    layers: Vec<PeLedger>,
    /// The first replay's per-PE work counts and per-layer traffic.
    counts: Option<Counts>,
    counts_repeat: bool,
    /// Spans of every replay, tagged with the replay's index.
    spans: Vec<(usize, ledger::Span)>,
}

impl Tally {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} {} failed: {why}", self.attempted);
    }

    /// Times, validates and records one untraced call; returns its
    /// assignment if it passed.
    fn untraced(&mut self, g: &CsrGraph, cfg: &ParhipConfig) -> Option<Vec<Node>> {
        self.attempted += 1;
        let t0 = Instant::now();
        let result = partition_call(g, cfg);
        let wall = t0.elapsed().as_secs_f64();
        let checked = result.and_then(|(a, cpu)| validate(g, a).map(|p| (p, cpu)));
        match checked {
            Ok((p, cpu)) => {
                let reference = self.reference.get_or_insert_with(|| p.clone());
                if reference.assignment() != p.assignment() {
                    self.fail("call", "assignment differs from the run's first call");
                    return None;
                }
                self.walls.push(wall);
                self.cpus.push(cpu);
                Some(p.into_assignment())
            }
            Err(why) => {
                self.fail("call", &why);
                None
            }
        }
    }

    /// Replays the call layer by layer and checks it against `expected`.
    fn traced(&mut self, g: &CsrGraph, cfg: &ParhipConfig, expected: &[Node]) {
        self.attempted += 1;
        let t0 = Instant::now();
        let result = traced_call(g, cfg);
        let wall = t0.elapsed().as_secs_f64();
        let (assignment, pes) = match result {
            Ok(r) => r,
            Err(why) => return self.fail("replay", &why),
        };
        if assignment != expected {
            return self.fail("replay", "assignment differs from the untraced call");
        }
        let replay = self.traced_walls.len();
        self.traced_walls.push(wall);
        let counts: Vec<_> = pes
            .iter()
            .map(|pe| {
                let traffic = pe
                    .layers
                    .iter()
                    .map(|l| (l.calls, l.msgs, l.bytes))
                    .collect();
                (pe.work, traffic)
            })
            .collect();
        match &self.counts {
            None => self.counts = Some(counts),
            Some(first) => self.counts_repeat &= *first == counts,
        }
        if self.layers.is_empty() {
            self.layers = vec![PeLedger::default(); pes.len()];
        }
        for (acc, pe) in self.layers.iter_mut().zip(&pes) {
            acc.add_layers(pe);
        }
        self.spans
            .extend(pes.into_iter().flat_map(|pe| pe.spans).map(|s| (replay, s)));
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The per-layer metrics of a traced run, plus the names whose CPU or
/// run-queue totals are below the schedstat resolution.
fn layer_metrics(tally: &Tally, res: &Resolution, partition_s: f64) -> (Vec<Metric>, Vec<String>) {
    let replays = tally.traced_walls.len() as f64;
    let traced_s = tally.traced_walls.iter().sum::<f64>() / replays;
    let mut out = Vec::new();
    let mut unresolved = Vec::new();
    let mut layer_wall_sum = 0.0;
    let mut cpu_sum = [0u64; 6];
    for (i, name) in LAYERS.iter().enumerate() {
        // The PE with the most wall time sets the layer's time.
        let critical = tally
            .layers
            .iter()
            .map(|pe| pe.layers[i])
            .max_by_key(|l| l.wall_ns)
            .unwrap_or_default();
        cpu_sum[i] = tally.layers.iter().map(|pe| pe.layers[i].cpu_ns).sum();
        let per = |ns: u64| ns as f64 * 1e-9 / replays;
        let wall = per(critical.wall_ns);
        let cpu = per(critical.cpu_ns);
        let runq = per(critical.runq_ns);
        layer_wall_sum += wall;
        for (field, ns) in [("cpu_s", critical.cpu_ns), ("runq_s", critical.runq_ns)] {
            if !res.resolves(ns) {
                unresolved.push(format!("{name}.{field}"));
            }
        }
        if !res.resolves(critical.cpu_ns) || !res.resolves(critical.runq_ns) {
            unresolved.push(format!("{name}.blocked_s"));
        }
        let traffic: (u64, u64) = tally.layers.iter().fold((0, 0), |acc, pe| {
            (acc.0 + pe.layers[i].msgs, acc.1 + pe.layers[i].bytes)
        });
        out.push(metric(format!("{name}.wall_s"), wall, "s"));
        out.push(metric(format!("{name}.cpu_s"), cpu, "s"));
        out.push(metric(format!("{name}.runq_s"), runq, "s"));
        out.push(metric(format!("{name}.blocked_s"), wall - cpu - runq, "s"));
        out.push(metric(
            format!("{name}.calls"),
            critical.calls as f64 / replays,
            "count",
        ));
        out.push(metric(
            format!("{name}.msgs"),
            traffic.0 as f64 / replays,
            "count",
        ));
        out.push(metric(
            format!("{name}.bytes"),
            traffic.1 as f64 / replays,
            "bytes",
        ));
    }

    let counts = tally.counts.as_ref().expect("at least one replay");
    let works: Vec<Work> = counts.iter().map(|c| c.0).collect();
    let sum = |f: &dyn Fn(&Work) -> u64| works.iter().map(f).sum::<u64>();
    for (name, pick) in [
        (
            "lp.cluster",
            (|w: &Work| w.cluster) as fn(&Work) -> ledger::SclpWork,
        ),
        ("lp.refine", |w: &Work| w.refine),
    ] {
        let idx = LAYERS
            .iter()
            .position(|&l| l == name)
            .expect("an SCLP layer");
        let adj = sum(&|w| pick(w).adj_scanned);
        let moves = sum(&|w| pick(w).moves);
        let visits = sum(&|w| pick(w).node_visits);
        out.push(metric(
            format!("{name}.rounds"),
            pick(&works[0]).rounds as f64,
            "count",
        ));
        out.push(metric(format!("{name}.moves"), moves as f64, "count"));
        out.push(metric(format!("{name}.adj_scanned"), adj as f64, "count"));
        out.push(metric(
            format!("{name}.move_ratio"),
            moves as f64 / visits.max(1) as f64,
            "ratio",
        ));
        out.push(metric(
            format!("{name}.ns_per_adj"),
            cpu_sum[idx] as f64 / replays / adj.max(1) as f64,
            "ns",
        ));
    }
    let w0 = &works[0];
    out.push(metric("core.contract.levels", w0.levels as f64, "count"));
    out.push(metric(
        "core.contract.shrink",
        w0.coarse_n as f64 / w0.fine_n.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "core.contract.coarse_m",
        w0.coarse_m as f64,
        "count",
    ));
    out.push(metric(
        "evo.initial.coarsest_n",
        w0.coarsest_n as f64,
        "count",
    ));
    out.push(metric(
        "evo.initial.coarsest_m",
        w0.coarsest_m as f64,
        "count",
    ));
    out.push(metric(
        "dmp.distribute.ghosts",
        sum(&|w| w.ghosts) as f64,
        "count",
    ));
    out.push(metric("trace.coverage", layer_wall_sum / traced_s, "ratio"));
    out.push(metric(
        "trace.overhead",
        traced_s / partition_s - 1.0,
        "ratio",
    ));
    (out, unresolved)
}

/// Writes the replays' spans as JSON lines.
fn write_spans(path: &Path, run_id: &str, spans: &[(usize, ledger::Span)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for (replay, s) in spans {
        let _ = writeln!(
            text,
            "{{\"run\":\"{run_id}\",\"replay\":{},\"layer\":\"{}\",\"pe\":{},\"id\":{},\"parent\":{},\"cycle\":{},\"level\":{},\"start_ns\":{},\"end_ns\":{}}}",
            replay,
            s.layer,
            s.pe,
            s.id,
            s.parent,
            s.cycle,
            s.level,
            s.start_ns,
            s.end_ns
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

fn main() {
    let args = parse_args();
    if clock::try_schedstat().is_none() {
        eprintln!(
            "perfbench: /proc/thread-self/schedstat is not readable; Linux schedstat is required"
        );
        std::process::exit(1);
    }
    let res = Resolution::measure();
    println!(
        "clock: schedstat step {} ns (median of {} steps), Instant resolution {} ns; \
         CPU/run-queue totals under {} steps are unresolved",
        res.schedstat_step_ns,
        res.schedstat_samples,
        res.instant_ns,
        clock::RESOLVED_STEPS
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference_graph = pgp_gen::rmat::rmat_web(15, 16, 1);
    let host_start = host_probe(&reference_graph);

    // A traced run replays the first instance only.
    let per_run = instances(args.workload);
    let used = if args.trace { 1 } else { per_run };
    let share = Duration::from_secs(args.seconds) / u32::try_from(used).expect("few instances");
    let mut tally = Tally {
        counts_repeat: true,
        ..Default::default()
    };
    let mut setup_times = Vec::new();
    let mut cuts = Vec::new();
    let mut ratios = Vec::new();
    // Per-instance medians, so every instance weighs the same however
    // many calls fit in its share of the run.
    let mut wall_medians = Vec::new();
    let mut peak_rss_kb = 0;
    let mut cpu_medians = Vec::new();
    for i in 0..used {
        let seed = instance_seed(args.seed, i, per_run);
        let t0 = Instant::now();
        let g = generate(args.workload, seed, args.smoke);
        setup_times.push(t0.elapsed().as_secs_f64());
        let cfg = config(args.workload, seed);
        println!(
            "instance {i} of workload {} (seed {seed}): n = {}, m = {}, p = {P}, k = {K}, \
             eps = {EPS}, {threads} hardware threads",
            args.workload,
            g.n(),
            g.m()
        );
        // Closed loop: the next call starts when the previous one is done.
        let start = Instant::now();
        let from = tally.walls.len();
        let mut first = true;
        while tally.failed == 0 && (first || start.elapsed() < share) {
            first = false;
            let Some(assignment) = tally.untraced(&g, &cfg) else {
                break;
            };
            if args.trace {
                tally.traced(&g, &cfg, &assignment);
            }
        }
        let Some(p) = tally.reference.take() else {
            break;
        };
        cuts.push(p.edge_cut(&g) as f64);
        ratios.push(1.0 + p.imbalance(&g));
        if i == 0 {
            // Later instances allocate into memory the first one freed,
            // so only the first instance's peak is a steady figure.
            peak_rss_kb = pgp_obs::read_rss_kb().1;
        }
        wall_medians.push(median(&mut tally.walls[from..].to_vec()));
        cpu_medians.push(median(&mut tally.cpus[from..].to_vec()));
    }
    let host_end = host_probe(&reference_graph);

    let calls = tally.walls.len();
    let fail_frac = tally.failed as f64 / tally.attempted as f64;
    let correct = tally.failed == 0;
    let mut metrics = Vec::new();
    let mut info = format!(
        "info: calls {calls}, attempted {}, failed {}, fail_frac {fail_frac}, host.ref_s start {host_start:.6} end {host_end:.6}",
        tally.attempted, tally.failed
    );
    if correct {
        let partition_s = median(&mut wall_medians);
        let _ = write!(
            info,
            ", partition_s median {partition_s:.6} over {} instances and {calls} calls {:?}, cuts {cuts:?}, max_block_ratios {ratios:?}",
            cuts.len(),
            tally.walls
        );
        match tail(&tally.walls) {
            Some((label, v)) => {
                let _ = write!(info, ", {label} {v:.6}");
            }
            None => info.push_str(", too few calls for a tail percentile"),
        }
        if args.trace {
            let (layers, unresolved) = layer_metrics(&tally, &res, partition_s);
            let _ = write!(
                info,
                ", replays {} equal to their untraced calls, counts_repeat {}",
                tally.traced_walls.len(),
                tally.counts_repeat
            );
            println!("{:<28} {:>14} {:<6}", "per-layer metric", "value", "unit");
            for m in &layers {
                let mark = if unresolved.contains(&m.name) {
                    "  unresolved (< 10 schedstat steps)"
                } else {
                    ""
                };
                println!("{:<28} {:>14.6} {:<6}{mark}", m.name, m.value, m.unit);
            }
            if !unresolved.is_empty() {
                let _ = write!(info, ", unresolved [{}]", unresolved.join(" "));
            }
            metrics = layers;
            metrics.push(metric("host.ref_s", (host_start + host_end) / 2.0, "s"));
            let run_id = format!(
                "{}-{}-{:x}",
                args.workload,
                args.seed,
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos())
            );
            let path = args
                .out
                .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
            match write_spans(&path, &run_id, &tally.spans) {
                Ok(()) => println!("spans: {} written to {}", tally.spans.len(), path.display()),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
        } else {
            metrics = vec![
                metric("partition_s", partition_s, "s"),
                metric("cpu_max_s", median(&mut cpu_medians), "s"),
                metric("cut", median(&mut cuts), "edge_weight"),
                metric("max_block_ratio", median(&mut ratios), "ratio"),
                metric("setup_s", median(&mut setup_times), "s"),
                metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MiB"),
            ];
            for m in &metrics {
                println!("{:<28} {:>14.6} {:<6}", m.name, m.value, m.unit);
            }
        }
    }
    println!("{info}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
