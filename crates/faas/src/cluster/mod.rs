//! Cluster-scale simulation: N worker nodes, each an independent fleet
//! on its own virtual timeline, behind a deterministic placement
//! front-end.
//!
//! `run_fleet` drives one pool on one host; the paper's setting is a
//! cloud. This module models the next level up:
//!
//! - every **node** hosts a pool per function deployed to it (its
//!   replica set, see [`place`]) and drives all of its pools through
//!   the node loop the fleet and gateway run on (`fleet::node`): one
//!   node-local [`gh_sim::event::EventQueue`], admission queues,
//!   overlap accounting and the fault-aware dispatch step
//!   (`fleet::retry`), so container deaths, retries and restore
//!   failures behave identically at every layer;
//! - the **front-end** ([`Placer`]) assigns each trace event to a node
//!   using only deterministic coordinator state (cursors, expected
//!   work), never node progress;
//! - the **workload** is a seeded [`TraceGen`] stream folded **once**
//!   by the coordinator before any node starts: every event goes
//!   through the gateway front (if any), the placer, the autoscaler (if
//!   armed) and the node-loss failover scan, and each backend-bound
//!   arrival is appended to its node's stream as a 24-byte record
//!   (arrival time, sequence number, function, principal).
//!
//! The trade: trace memory is O(backend-bound arrivals) — 24 B each,
//! ~2.3 MiB per 10⁵ — rather than the O(1) of letting every node
//! re-run the generator and placer and keep its own arrivals, which
//! cost one full trace pass per node. Each node owns its stream, pulls
//! arrivals from it one at a time, and frees it when the node
//! finishes, so the buffers shrink as nodes complete.
//!
//! # Host-parallel execution
//!
//! Because no fold decision reads node state, a node's entire timeline
//! is a pure function of its arrival stream and `(catalog, cluster
//! config, node index)`. Node timelines are therefore *embarrassingly*
//! parallel — the fleet's plan/shard/merge discipline with the sharding
//! moved up one level: workers on [`std::thread::scope`] claim the next
//! node index together with its stream (same work-stealing as
//! `gh_bench::harness::run_cells`) and the coordinator merges per-node
//! results **in node-index order**.
//! Per-node stats live in exact-merge [`QuantileSketch`]es, so the
//! merged result is independent of completion order and bit-identical
//! to the serial reference — enforced by `tests/cluster_oracle.rs`
//! across seeds × policies × node counts.
//!
//! Stats memory is sketch-bounded: each node carries two fixed-size
//! sketches (~30 KiB each) regardless of request count
//! ([`ClusterResult::stats_bytes`]).
//!
//! # Failure-aware autoscaling
//!
//! [`scale`] adds a pure virtual-time controller over the node count:
//! armed via [`ClusterConfig::with_autoscale`], the coordinator fold
//! steps a [`NodeScaler`] over the full backend-bound arrival stream
//! (right after the placer), growing the active set under queue
//! pressure or observed loss and cordoning + draining the top node in
//! quiet windows. Because the fold reads only the trace prefix and the
//! deterministic fault schedule, autoscaled placement remains
//! coordinator-pure and host-parallel runs stay bit-identical to
//! serial. Redeploy schedules fold into the gateway front the same way
//! ([`ClusterConfig::with_redeploys`]): generation bumps invalidate
//! cached results at pure points of the trace clock.

pub mod front;
pub mod place;
pub mod scale;

use gh_functions::FunctionSpec;
use gh_gateway::{GatewayConfig, GatewayStats};
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::stats::throughput_rps;
use gh_sim::{Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::fault::{FaultConfig, FaultPlan, FaultStats};
use crate::fleet::node::{Node, Offer, Tally};
use crate::fleet::{DepthTracker, ExecMode, Pending, Pool, RoutePolicy, Router};
use crate::trace::{TraceConfig, TraceGen};

use std::sync::Mutex;

pub use front::{FrontDecision, GatewayFront};
pub use place::{PlacePolicy, Placer};
pub use scale::{NodeScaleConfig, NodeScaler, ScaleStats};

/// Cluster topology and per-node pool shape.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Simulated worker nodes.
    pub nodes: usize,
    /// Candidate nodes per function (`1..=nodes`).
    pub replicas: usize,
    /// Containers per (node, function) pool.
    pub slots_per_pool: usize,
    /// Front-end placement policy.
    pub policy: PlacePolicy,
    /// Isolation strategy every container runs.
    pub kind: StrategyKind,
    /// Seed for deployment hashing and per-pool container seeds (the
    /// trace carries its own seed).
    pub seed: u64,
    /// Fault injection, if armed (see [`ClusterConfig::with_faults`]).
    /// `None` keeps the run byte-identical to the fault-free reference.
    pub faults: Option<FaultConfig>,
    /// Failure-aware node autoscaling, if armed. The coordinator's
    /// trace fold steps a [`NodeScaler`] over the full backend-bound
    /// arrival stream right after the placer, before any node runs, so
    /// the active set never depends on node progress; `None` keeps
    /// placement byte-identical to the unscaled reference.
    pub autoscale: Option<NodeScaleConfig>,
    /// Time-ordered `(instant, fn)` redeploy schedule folded into the
    /// gateway front's result cache (generation bumps drop cached
    /// results; see [`GatewayFront::with_redeploys`]). Ignored without
    /// a gateway; empty keeps the front byte-identical to
    /// [`GatewayFront::new`].
    pub redeploys: Vec<(Nanos, u32)>,
}

impl ClusterConfig {
    /// `nodes` nodes under `policy`, two replicas per function (one
    /// when the cluster has a single node), two containers per pool.
    pub fn new(nodes: usize, policy: PlacePolicy, kind: StrategyKind, seed: u64) -> ClusterConfig {
        assert!(nodes > 0, "need at least one node");
        ClusterConfig {
            nodes,
            replicas: 2.min(nodes),
            slots_per_pool: 2,
            policy,
            kind,
            seed,
            faults: None,
            autoscale: None,
            redeploys: Vec::new(),
        }
    }

    /// Arms fault injection on every node. Inert configs (all rates
    /// zero) are dropped so a disabled plan can never perturb the run.
    pub fn with_faults(mut self, cfg: FaultConfig) -> ClusterConfig {
        self.faults = cfg.is_active().then_some(cfg);
        self
    }

    /// Arms the failure-aware autoscaler on the placement fold.
    pub fn with_autoscale(mut self, cfg: NodeScaleConfig) -> ClusterConfig {
        self.autoscale = Some(cfg);
        self
    }

    /// Sets the redeploy schedule the gateway front folds into its
    /// result cache (must be time-ordered).
    pub fn with_redeploys(mut self, schedule: Vec<(Nanos, u32)>) -> ClusterConfig {
        self.redeploys = schedule;
        self
    }
}

/// Per-node load figures in the merged result.
#[derive(Clone, Copy, Debug)]
pub struct NodeLoad {
    /// Requests this node served.
    pub completed: u64,
    /// Containers the node hosted (pools × slots).
    pub containers: u32,
    /// Total busy time across the node's containers, ms.
    pub busy_ms: f64,
}

/// Outcome of one cluster run (all nodes merged, node-index order).
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Nodes simulated.
    pub nodes: usize,
    /// Placement policy label.
    pub policy: &'static str,
    /// Requests offered by the trace.
    pub requests: u64,
    /// Requests completed (equals `requests`: queues drain).
    pub completed: u64,
    /// Completions per second of trace span.
    pub goodput_rps: f64,
    /// Mean sojourn (arrival → response, queueing included), ms. Exact.
    pub mean_ms: f64,
    /// Median sojourn, ms (sketch, ≤1.6% quantization).
    pub p50_ms: f64,
    /// 95th-percentile sojourn, ms.
    pub p95_ms: f64,
    /// 99th-percentile sojourn, ms.
    pub p99_ms: f64,
    /// Mean aggregate queue depth over node scheduling events.
    pub queue_mean: f64,
    /// 99th-percentile aggregate queue depth.
    pub queue_p99: f64,
    /// Total restore time charged across the cluster, ms.
    pub restore_total_ms: f64,
    /// Fraction of restore time hidden in idle gaps.
    pub restore_overlap_ratio: f64,
    /// First-touch lazy-restore faults across the cluster.
    pub lazy_faults: u64,
    /// Mean container utilization over the trace span.
    pub utilization: f64,
    /// Max over mean per-node completions (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Containers across all nodes.
    pub containers: u32,
    /// Fault-injection accounting, summed across nodes (all zero on a
    /// fault-free run). `node_losses` counts arrivals failed over to
    /// another replica because their placed node was down; `abandoned`
    /// includes requests dropped because every replica was down.
    pub faults: FaultStats,
    /// Autoscaler counters, when [`ClusterConfig::autoscale`] is armed
    /// and at least one arrival reached placement: the final state of
    /// the coordinator fold's scaler.
    pub scale: Option<ScaleStats>,
    /// Per-node breakdown, node-index order.
    pub per_node: Vec<NodeLoad>,
    /// Bytes of percentile-tracking state across all nodes — constant
    /// in the request count (two fixed-size sketches per node).
    pub stats_bytes: usize,
}

/// One node's raw outcome, before the cluster merge.
#[derive(Default)]
struct NodeResult {
    tally: Tally,
    restore_total: Nanos,
    restore_hidden: Nanos,
    lazy_faults: u64,
    busy: Nanos,
    containers: u32,
    span_end: Nanos,
}

/// One backend-bound arrival as the coordinator fold hands it to its
/// node: 24 bytes. The payload identity stays behind at the front —
/// nodes never read it, so their [`Pending`]s carry `0`/`false` like
/// the fleet paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Arrival {
    at: Nanos,
    seq: u64,
    fn_id: u32,
    principal: u32,
}

/// The gateway front's share of the fold, kept after the front itself
/// (and its cache) is dropped: the hits it served, their latencies to
/// merge into the sojourn sketch, and its counters (`served` is filled
/// in after the merge).
struct FrontOutcome {
    hits: u64,
    hit_sojourns: QuantileSketch,
    gateway: GatewayStats,
}

/// Everything the coordinator fold decides besides the per-node
/// arrival streams.
struct FoldTally {
    /// The placer after the fold (its static deployment tells each node
    /// which pools to build).
    placer: Placer,
    /// Arrivals each node received by failover from a down replica.
    failovers: Vec<u64>,
    /// Arrivals dropped because every replica was down.
    all_down: u64,
    /// The gateway front's outcome, when one ran.
    front: Option<FrontOutcome>,
    /// Final autoscaler counters, once the scaler has seen an arrival.
    scale: Option<ScaleStats>,
}

/// The coordinator fold: runs the trace once through the gateway front
/// (if any), the placer, the autoscaler (if armed) and the node-loss
/// failover scan, and splits the backend-bound arrivals into per-node
/// streams in trace order. Every decision reads only the trace prefix
/// and the pure fault schedule, never node progress.
fn fold_trace(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gcfg: Option<&GatewayConfig>,
) -> (Vec<Vec<Arrival>>, FoldTally) {
    let nf = trace_cfg.functions as usize;
    assert!(
        catalog.len() >= nf,
        "catalog must cover every trace function"
    );
    let mut placer = Placer::new(
        ccfg.policy,
        ccfg.nodes,
        ccfg.replicas,
        &catalog[..nf],
        ccfg.seed,
    );
    let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);
    let mut scaler = ccfg
        .autoscale
        .map(|sc| NodeScaler::new(sc, ccfg.nodes, trace_cfg.origin));
    let mut front = gcfg.map(|g| GatewayFront::with_redeploys(g, &ccfg.redeploys));
    let hit_cost = front.as_ref().map_or(Nanos::ZERO, GatewayFront::hit_cost);
    let mut hit_sojourns = QuantileSketch::new();
    let mut streams: Vec<Vec<Arrival>> = vec![Vec::new(); ccfg.nodes];
    let mut failovers = vec![0u64; ccfg.nodes];
    let mut all_down = 0u64;
    let mut scaled = false;
    for ev in TraceGen::new(trace_cfg) {
        let f = ev.fn_id as usize;
        if let Some(fr) = &mut front {
            match fr.decide(&ev, catalog[f].output_kb) {
                FrontDecision::Backend => {}
                FrontDecision::Hit => {
                    hit_sojourns.record_nanos(hit_cost);
                    continue;
                }
                FrontDecision::Reject => continue,
            }
        }
        let base = placer.place(f);
        // The scaler observes the placed node's load (and whether it
        // was lost) and may redirect away from a cordoned node.
        let target = match &mut scaler {
            None => base,
            Some(s) => {
                scaled = true;
                let lost = plan.as_ref().is_some_and(|pl| pl.node_down(base, ev.at));
                s.observe(
                    ev.at,
                    base,
                    Nanos::from_millis_f64(catalog[f].base_e2e_ms),
                    lost,
                );
                if s.placeable(base) {
                    base
                } else {
                    match placer.candidates(f).find(|&n| s.placeable(n)) {
                        Some(c) => {
                            s.note_redirect();
                            c
                        }
                        None => base,
                    }
                }
            }
        };
        let node = match &plan {
            Some(pl) if pl.node_down(target, ev.at) => {
                // Failover scan: first up replica in candidate order,
                // preferring nodes the scaler still places on (a cordoned
                // node is a last resort, not a dead one).
                let up = |n: &usize| !pl.node_down(*n, ev.at);
                let pick = scaler
                    .as_ref()
                    .and_then(|s| placer.candidates(f).filter(up).find(|&n| s.placeable(n)))
                    .or_else(|| placer.candidates(f).find(up));
                let Some(n) = pick else {
                    all_down += 1;
                    continue;
                };
                failovers[n] += 1;
                n
            }
            _ => target,
        };
        streams[node].push(Arrival {
            at: ev.at,
            seq: ev.seq,
            fn_id: ev.fn_id,
            principal: ev.principal,
        });
    }
    // Nodes hold their streams until they finish; returning the growth
    // slack measurably lowers peak RSS on the 100k-request workloads.
    for stream in &mut streams {
        stream.shrink_to_fit();
    }
    let front = front.map(|fr| {
        let mut gateway = GatewayStats {
            rejected: fr.rejected,
            cache_peak_bytes: fr.cache_peak_bytes,
            ..GatewayStats::default()
        };
        gateway.absorb_cache(&fr.cache_stats());
        FrontOutcome {
            hits: fr.hits,
            hit_sojourns,
            gateway,
        }
    });
    let tally = FoldTally {
        placer,
        failovers,
        all_down,
        front,
        scale: scaler.filter(|_| scaled).map(|s| s.stats()),
    };
    (streams, tally)
}

/// Runs node `node`'s entire timeline over its arrival stream from the
/// coordinator fold: a many-pool node loop that runs its event queue dry.
/// Pure: no shared state, so serial and parallel callers get identical
/// results. The stream is consumed as the node runs and freed when it
/// finishes.
fn run_node(
    node: usize,
    arrivals: Vec<Arrival>,
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: &GroundhogConfig,
    placer: &Placer,
) -> Result<NodeResult, StrategyError> {
    let nf = trace_cfg.functions as usize;

    // Pools for the functions deployed here, ascending fn id. Each pool
    // seeds its containers from the (cluster seed, node, fn) hash so
    // node timelines are independent of which host thread runs them.
    let mut pools: Vec<Pool> = Vec::new();
    let mut routers: Vec<Router> = Vec::new();
    let mut restore_cost: Vec<Nanos> = Vec::new();
    let mut pool_of: Vec<Option<u32>> = vec![None; nf];
    for (f, spec) in catalog.iter().enumerate().take(nf) {
        if !placer.hosts(node, f) {
            continue;
        }
        let seed = place::mix(ccfg.seed ^ ((node as u64) << 32) ^ f as u64);
        pool_of[f] = Some(pools.len() as u32);
        pools.push(Pool::build(
            spec,
            ccfg.kind,
            gh.clone(),
            ccfg.slots_per_pool,
            seed,
        )?);
        routers.push(Router::new(RoutePolicy::RoundRobin));
        restore_cost.push(Nanos::from_millis_f64(spec.paper_restore_ms));
    }
    let containers: u32 = pools.iter().map(|p| p.slots.len() as u32).sum();
    let principals: Vec<String> = (0..trace_cfg.principals)
        .map(|p| format!("user-{p}"))
        .collect();
    let offers = arrivals.into_iter().map(|a| {
        let pool = pool_of[a.fn_id as usize].expect("placed on a non-replica");
        Offer {
            pool,
            principal: u64::from(a.principal),
            req: Pending {
                id: a.seq,
                principal: principals[a.principal as usize].clone(),
                input_kb: catalog[a.fn_id as usize].input_kb,
                arrival: a.at,
                payload_hash: 0,
                idempotent: false,
                attempt: 1,
            },
        }
    });

    // Fault draws are pure hashes of (seed, request, attempt), so a
    // node's own faults stay node-pure. Retries stay on this node —
    // rerouting moves them to another container in the same pool, never
    // across nodes, so node timelines remain pure.
    let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);
    let tally =
        Node::new(&mut pools, &mut routers, &restore_cost, plan).run(offers, &mut (), true)?;

    let mut r = NodeResult {
        tally,
        containers,
        span_end: trace_cfg.origin,
        ..NodeResult::default()
    };
    for s in pools.iter_mut().flat_map(|p| p.slots.iter_mut()) {
        s.settle();
        r.restore_total += s.restore_total;
        r.restore_hidden += s.restore_hidden;
        r.lazy_faults += s.lazy_faults;
        r.busy += s.busy;
        if s.served > 0 {
            r.span_end = r.span_end.max(s.container.now());
        }
    }
    Ok(r)
}

/// Merges per-node outcomes (already in node-index order) into the
/// cluster result, folding in the coordinator's decisions: failovers,
/// all-replicas-down drops, the gateway front's hits and the autoscaler
/// counters. Sketch merges are exact, so this is independent of how the
/// nodes were executed.
fn merge(
    nodes: Vec<NodeResult>,
    trace_cfg: &TraceConfig,
    ccfg: &ClusterConfig,
    tally: &FoldTally,
) -> ClusterResult {
    let mut sojourns = QuantileSketch::new();
    let mut depth = DepthTracker::new();
    let mut completed = 0u64;
    let mut restore_total = Nanos::ZERO;
    let mut restore_hidden = Nanos::ZERO;
    let mut lazy_faults = 0u64;
    let mut busy = Nanos::ZERO;
    let mut containers = 0u32;
    let mut span_end = trace_cfg.origin;
    let mut faults = FaultStats::default();
    let mut per_node = Vec::with_capacity(nodes.len());
    for n in &nodes {
        sojourns.merge(&n.tally.sojourns);
        depth.merge(&n.tally.depth);
        faults.merge(&n.tally.faults);
        completed += n.tally.completed;
        restore_total += n.restore_total;
        restore_hidden += n.restore_hidden;
        lazy_faults += n.lazy_faults;
        busy += n.busy;
        containers += n.containers;
        span_end = span_end.max(n.span_end);
        per_node.push(NodeLoad {
            completed: n.tally.completed,
            containers: n.containers,
            busy_ms: n.busy.as_millis_f64(),
        });
    }
    faults.node_losses += tally.failovers.iter().sum::<u64>();
    faults.abandoned += tally.all_down;
    if let Some(f) = &tally.front {
        // Cache hits are served requests with front-side sojourns; the
        // span is untouched (hits never run on a node). With a disabled
        // gateway both counts are zero and the merge is the identity.
        completed += f.hits;
        sojourns.merge(&f.hit_sojourns);
    }
    let span = span_end - trace_cfg.origin;
    let utilization = if span.is_zero() || containers == 0 {
        0.0
    } else {
        (busy.as_secs_f64() / (containers as f64 * span.as_secs_f64())).min(1.0)
    };
    let imbalance = if completed == 0 {
        1.0
    } else {
        let max = per_node.iter().map(|n| n.completed).max().unwrap_or(0);
        max as f64 * nodes.len() as f64 / completed as f64
    };
    ClusterResult {
        nodes: nodes.len(),
        policy: ccfg.policy.label(),
        requests: trace_cfg.requests,
        completed,
        goodput_rps: throughput_rps(completed as usize, span),
        mean_ms: sojourns.mean_ms(),
        p50_ms: sojourns.quantile_ms(50.0),
        p95_ms: sojourns.quantile_ms(95.0),
        p99_ms: sojourns.quantile_ms(99.0),
        queue_mean: depth.mean(),
        queue_p99: depth.percentile(99.0),
        restore_total_ms: restore_total.as_millis_f64(),
        restore_overlap_ratio: if restore_total.is_zero() {
            1.0
        } else {
            restore_hidden.as_secs_f64() / restore_total.as_secs_f64()
        },
        lazy_faults,
        utilization,
        imbalance,
        containers,
        faults,
        scale: tally.scale,
        per_node,
        stats_bytes: nodes.len() * 2 * QuantileSketch::memory_bytes(),
    }
}

/// Runs the trace through the cluster in [`ExecMode::Auto`] (node-
/// parallel when ≥ 2 nodes and ≥ 2 threads; honors `--serial`,
/// `GH_SERIAL=1` and `GH_THREADS` like the fleet).
pub fn run_cluster(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: GroundhogConfig,
) -> Result<ClusterResult, StrategyError> {
    run_cluster_with(trace_cfg, catalog, ccfg, gh, ExecMode::Auto)
}

/// [`run_cluster`] with an explicit [`ExecMode`] — the entry point of
/// the cluster differential oracle and the determinism CI job. The
/// parallel path is bit-identical to serial: node timelines are pure
/// functions of their inputs and the merge runs in node-index order.
///
/// ```
/// use gh_faas::cluster::{run_cluster_with, ClusterConfig, PlacePolicy};
/// use gh_faas::fleet::ExecMode;
/// use gh_faas::trace::{synthetic_catalog, TraceConfig};
/// use gh_isolation::StrategyKind;
/// use groundhog_core::GroundhogConfig;
///
/// let catalog = synthetic_catalog(8, 7);
/// let trace = TraceConfig::new(8, 200, 500.0, 7);
/// let ccfg = ClusterConfig::new(2, PlacePolicy::LeastLoaded, StrategyKind::Gh, 7);
/// let serial = run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), ExecMode::Serial)?;
/// let par = run_cluster_with(
///     &trace, &catalog, &ccfg, GroundhogConfig::gh(), ExecMode::Parallel { threads: 2 },
/// )?;
/// assert_eq!(format!("{serial:?}"), format!("{par:?}"), "node-parallelism is invisible");
/// # Ok::<(), gh_isolation::StrategyError>(())
/// ```
pub fn run_cluster_with(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: GroundhogConfig,
    mode: ExecMode,
) -> Result<ClusterResult, StrategyError> {
    let (nodes, tally) = run_nodes(trace_cfg, catalog, ccfg, &gh, mode, None)?;
    Ok(merge(nodes, trace_cfg, ccfg, &tally))
}

/// Folds the trace once on the calling thread (see [`fold_trace`];
/// with `gcfg` set, through the deterministic [`GatewayFront`] first),
/// then runs every node timeline over its stream, serial or
/// work-stealing parallel, and returns the results in node-index order
/// with the fold's tally.
fn run_nodes(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gh: &GroundhogConfig,
    mode: ExecMode,
    gcfg: Option<&GatewayConfig>,
) -> Result<(Vec<NodeResult>, FoldTally), StrategyError> {
    let threads = mode.threads();
    let (streams, tally) = fold_trace(trace_cfg, catalog, ccfg, gcfg);
    let node = |i, arrivals| run_node(i, arrivals, trace_cfg, catalog, ccfg, gh, &tally.placer);
    let n = ccfg.nodes;
    if threads < 2 || n < 2 {
        let results = streams.into_iter().enumerate().map(|(i, a)| node(i, a));
        return Ok((results.collect::<Result<_, _>>()?, tally));
    }
    // Work-stealing: each worker claims the next node together with its
    // stream. Merge order is fixed by index, so completion order is
    // irrelevant.
    let feeds = Mutex::new(streams.into_iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let claim = feeds.lock().expect("feed lock poisoned").next();
                let Some((i, arrivals)) = claim else { break };
                let r = node(i, arrivals);
                done.lock().expect("result lock poisoned").push((i, r));
            });
        }
    });
    let mut done = done.into_inner().expect("result lock poisoned");
    done.sort_by_key(|&(i, _)| i);
    let results = done.into_iter().map(|(_, r)| r).collect::<Result<_, _>>()?;
    Ok((results, tally))
}

/// Outcome of a gateway-wrapped cluster run.
#[derive(Clone, Debug)]
pub struct ClusterGatewayResult {
    /// The cluster outcome. `completed` counts cache hits served at the
    /// front as well as node completions; rejected requests are
    /// excluded (so `completed + gateway.rejected == requests`).
    pub cluster: ClusterResult,
    /// Front-side counters: cache traffic and rate-limit drops.
    pub gateway: GatewayStats,
}

/// Runs the trace through the [`GatewayFront`] and the cluster.
///
/// The front is coordinator-pure (see [`front`]): the result cache uses
/// arrival-reservation semantics, admission is per-principal rate
/// limiting only (the in-flight ceiling is stripped), and the
/// pre-warmer is ignored — cluster pools are fixed-size. Node
/// parallelism and bit-identical serial/parallel results are preserved;
/// with [`GatewayConfig::disabled`] the embedded [`ClusterResult`] is
/// byte-identical to [`run_cluster_with`] on the same inputs.
pub fn run_cluster_gateway(
    trace_cfg: &TraceConfig,
    catalog: &[FunctionSpec],
    ccfg: &ClusterConfig,
    gcfg: &GatewayConfig,
    gh: GroundhogConfig,
    mode: ExecMode,
) -> Result<ClusterGatewayResult, StrategyError> {
    let (nodes, tally) = run_nodes(trace_cfg, catalog, ccfg, &gh, mode, Some(gcfg))?;
    let cluster = merge(nodes, trace_cfg, ccfg, &tally);
    let front = tally.front.expect("gateway front folded");
    let gateway = GatewayStats {
        served: cluster.completed,
        ..front.gateway
    };
    Ok(ClusterGatewayResult { cluster, gateway })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::synthetic_catalog;

    fn small_trace(requests: u64, seed: u64) -> TraceConfig {
        TraceConfig {
            principals: 8,
            ..TraceConfig::new(24, requests, 2_000.0, seed)
        }
    }

    fn run(
        policy: PlacePolicy,
        nodes: usize,
        requests: u64,
        seed: u64,
        mode: ExecMode,
    ) -> ClusterResult {
        let catalog = synthetic_catalog(24, seed);
        let trace = small_trace(requests, seed);
        let mut ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, seed);
        ccfg.slots_per_pool = 1;
        run_cluster_with(&trace, &catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap()
    }

    #[test]
    fn all_requests_complete_and_stats_cohere() {
        let r = run(PlacePolicy::LeastLoaded, 3, 400, 21, ExecMode::Serial);
        assert_eq!(r.completed, 400);
        assert_eq!(r.requests, 400);
        assert_eq!(r.nodes, 3);
        assert_eq!(
            r.per_node.iter().map(|n| n.completed).sum::<u64>(),
            400,
            "node loads partition the trace"
        );
        assert!(r.goodput_rps > 0.0);
        assert!(r.p99_ms >= r.p50_ms);
        assert!(r.p99_ms >= r.mean_ms * 0.9);
        assert!(r.imbalance >= 1.0);
        assert!((0.0..=1.0).contains(&r.utilization));
        assert!((0.0..=1.0).contains(&r.restore_overlap_ratio));
        assert!(r.restore_total_ms > 0.0, "GH restores after every request");
        assert!(r.containers > 0);
    }

    #[test]
    fn parallel_matches_serial_fingerprint() {
        let serial = run(PlacePolicy::RoundRobin, 4, 300, 5, ExecMode::Serial);
        let par = run(
            PlacePolicy::RoundRobin,
            4,
            300,
            5,
            ExecMode::Parallel { threads: 4 },
        );
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
    }

    #[test]
    fn zero_requests_is_a_clean_empty_run() {
        for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 4 }] {
            let r = run(PlacePolicy::FunctionAffinity, 2, 0, 9, mode);
            assert_eq!(r.completed, 0);
            assert_eq!(r.goodput_rps, 0.0);
            assert_eq!(r.mean_ms, 0.0);
            assert_eq!(r.p99_ms, 0.0);
            assert_eq!(r.imbalance, 1.0);
            assert_eq!(r.utilization, 0.0);
        }
    }

    #[test]
    fn single_node_cluster_works() {
        let r = run(PlacePolicy::LeastLoaded, 1, 200, 3, ExecMode::Serial);
        assert_eq!(r.completed, 200);
        assert_eq!(r.per_node.len(), 1);
        assert_eq!(r.per_node[0].completed, 200);
        assert_eq!(r.imbalance, 1.0, "one node is trivially balanced");
    }

    #[test]
    fn least_loaded_balances_better_than_affinity_under_skew() {
        let ll = run(PlacePolicy::LeastLoaded, 4, 800, 31, ExecMode::Serial);
        let aff = run(PlacePolicy::FunctionAffinity, 4, 800, 31, ExecMode::Serial);
        assert!(
            ll.imbalance < aff.imbalance,
            "expected balance win under Zipf skew: {} vs {}",
            ll.imbalance,
            aff.imbalance
        );
    }

    #[test]
    fn faulty_cluster_accounts_and_matches_parallel() {
        let catalog = synthetic_catalog(24, 11);
        let trace = small_trace(500, 11);
        let mut ccfg = ClusterConfig::new(3, PlacePolicy::RoundRobin, StrategyKind::Gh, 11)
            .with_faults(FaultConfig::deaths(11, 0.05));
        ccfg.slots_per_pool = 2;
        let serial = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        let par = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Parallel { threads: 3 },
        )
        .unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "faults keep node-parallelism invisible"
        );
        assert!(serial.faults.deaths > 0, "5% deaths over 500 requests");
        assert_eq!(
            serial.faults.retries,
            serial.faults.deaths - serial.faults.abandoned,
            "every death either retries or abandons"
        );
        assert_eq!(serial.completed + serial.faults.abandoned, 500);
    }

    #[test]
    fn node_loss_fails_over_to_up_replicas() {
        let catalog = synthetic_catalog(24, 7);
        let trace = small_trace(400, 7);
        let mut fc = FaultConfig::none(7);
        fc.node_loss_rate = 0.3;
        fc.node_loss_window = gh_sim::Nanos::from_millis(20);
        let ccfg =
            ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 7).with_faults(fc);
        let r = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        assert!(r.faults.node_losses > 0, "outages reroute some arrivals");
        assert_eq!(r.faults.deaths, 0, "only node loss was armed");
        assert_eq!(
            r.completed + r.faults.abandoned,
            400,
            "failover serves everything except all-replicas-down drops"
        );
    }

    #[test]
    fn inert_fault_config_is_not_armed_at_cluster_level() {
        let plain = run(PlacePolicy::LeastLoaded, 2, 300, 17, ExecMode::Serial);
        let catalog = synthetic_catalog(24, 17);
        let trace = small_trace(300, 17);
        let mut ccfg = ClusterConfig::new(2, PlacePolicy::LeastLoaded, StrategyKind::Gh, 17)
            .with_faults(FaultConfig::none(17));
        ccfg.slots_per_pool = 1;
        let armed = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{armed:?}"));
        assert!(armed.faults.is_empty());
    }

    #[test]
    fn autoscaled_faulty_cluster_matches_parallel_and_reports_scale() {
        let catalog = synthetic_catalog(24, 19);
        let trace = small_trace(600, 19);
        let mut fc = FaultConfig::deaths(19, 0.03);
        fc.node_loss_rate = 0.2;
        fc.node_loss_window = gh_sim::Nanos::from_millis(20);
        let ccfg = ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 19)
            .with_faults(fc)
            .with_autoscale(NodeScaleConfig::balanced(2));
        let serial = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Serial,
        )
        .unwrap();
        let par = run_cluster_with(
            &trace,
            &catalog,
            &ccfg,
            GroundhogConfig::gh(),
            ExecMode::Parallel { threads: 4 },
        )
        .unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "autoscaling keeps node-parallelism invisible"
        );
        let s = serial.scale.expect("scaler armed");
        assert!(s.windows > 0, "the fold must observe windows");
        assert!(s.peak_active >= s.min_active);
        assert!(s.final_active >= 2 && s.final_active <= 4);
        assert_eq!(serial.completed + serial.faults.abandoned, 600);
    }

    #[test]
    fn unarmed_autoscaler_is_invisible() {
        let plain = run(PlacePolicy::RoundRobin, 3, 300, 23, ExecMode::Serial);
        assert!(plain.scale.is_none(), "no scaler, no stats");
        // `run` never arms autoscaling, so this doubles as the
        // byte-identity baseline used by tests/cluster_oracle.rs.
    }

    #[test]
    fn stats_memory_is_request_count_independent() {
        let small = run(PlacePolicy::RoundRobin, 2, 100, 13, ExecMode::Serial);
        let large = run(PlacePolicy::RoundRobin, 2, 2_000, 13, ExecMode::Serial);
        assert_eq!(small.stats_bytes, large.stats_bytes);
        assert!(large.stats_bytes < 2 * 2 * 64 * 1024, "sketch-bounded");
    }

    /// One node's view of the trace under the per-node replay the
    /// coordinator fold replaced: every node re-ran generator, front,
    /// placer, scaler and failover scan over the whole trace and kept
    /// the arrivals that landed on it.
    struct NodeReplay {
        arrivals: Vec<Arrival>,
        failovers: u64,
        /// All-replicas-down drops, counted by node 0's replay only.
        all_down: u64,
        scale: Option<ScaleStats>,
    }

    /// Reference for the fold oracle: node `node`'s replay, kept here
    /// verbatim in logic (failover scan through a collected `up` list).
    fn replay_node(
        node: usize,
        trace_cfg: &TraceConfig,
        catalog: &[FunctionSpec],
        ccfg: &ClusterConfig,
        gcfg: Option<&GatewayConfig>,
    ) -> NodeReplay {
        let nf = trace_cfg.functions as usize;
        let mut placer = Placer::new(
            ccfg.policy,
            ccfg.nodes,
            ccfg.replicas,
            &catalog[..nf],
            ccfg.seed,
        );
        let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);
        let mut front = gcfg.map(|g| GatewayFront::with_redeploys(g, &ccfg.redeploys));
        let mut scaler = ccfg
            .autoscale
            .map(|sc| NodeScaler::new(sc, ccfg.nodes, trace_cfg.origin));
        let mut out = NodeReplay {
            arrivals: Vec::new(),
            failovers: 0,
            all_down: 0,
            scale: None,
        };
        for ev in TraceGen::new(trace_cfg) {
            let backend = match &mut front {
                None => true,
                Some(f) => {
                    f.decide(&ev, catalog[ev.fn_id as usize].output_kb) == FrontDecision::Backend
                }
            };
            if !backend {
                continue;
            }
            let f = ev.fn_id as usize;
            let base = placer.place(f);
            let target = match &mut scaler {
                None => base,
                Some(s) => {
                    let lost = plan
                        .as_ref()
                        .map(|pl| pl.node_down(base, ev.at))
                        .unwrap_or(false);
                    let cost = Nanos::from_millis_f64(catalog[f].base_e2e_ms);
                    s.observe(ev.at, base, cost, lost);
                    let t = if s.placeable(base) {
                        base
                    } else {
                        match placer.candidates(f).find(|&n| s.placeable(n)) {
                            Some(c) => {
                                s.note_redirect();
                                c
                            }
                            None => base,
                        }
                    };
                    out.scale = Some(s.stats());
                    t
                }
            };
            let keep = match &plan {
                Some(pl) if pl.node_down(target, ev.at) => {
                    let up: Vec<usize> = placer
                        .candidates(f)
                        .filter(|&n| !pl.node_down(n, ev.at))
                        .collect();
                    let pick = match &scaler {
                        Some(s) => up
                            .iter()
                            .copied()
                            .find(|&n| s.placeable(n))
                            .or_else(|| up.first().copied()),
                        None => up.first().copied(),
                    };
                    match pick {
                        Some(n) if n == node => {
                            out.failovers += 1;
                            true
                        }
                        Some(_) => false,
                        None => {
                            if node == 0 {
                                out.all_down += 1;
                            }
                            false
                        }
                    }
                }
                _ => target == node,
            };
            if keep {
                out.arrivals.push(Arrival {
                    at: ev.at,
                    seq: ev.seq,
                    fn_id: ev.fn_id,
                    principal: ev.principal,
                });
            }
        }
        out
    }

    #[test]
    fn coordinator_fold_matches_per_node_replay() {
        assert_eq!(std::mem::size_of::<Arrival>(), 24);
        let gateway = GatewayConfig::builder()
            .cache(gh_gateway::cache::CacheConfig::default_for_ttl(
                Nanos::from_secs(20),
            ))
            .admission(gh_gateway::admission::AdmissionConfig {
                rate_per_sec: 60.0,
                burst: 30,
                max_in_flight: None,
            })
            .build();
        // Rare fold branches the sweep must reach at least once.
        let (mut all_down, mut redirects) = (0u64, 0u64);
        for seed in [3u64, 29] {
            let catalog = synthetic_catalog(24, seed);
            let trace = TraceConfig {
                idempotent_frac: 0.5,
                payload_universe: 24,
                ..small_trace(600, seed)
            };
            let mut fc = FaultConfig::deaths(seed, 0.05);
            fc.node_loss_rate = 0.3;
            fc.node_loss_window = Nanos::from_millis(20);
            fc.retry = crate::fault::RetryPolicy::rerouting();
            let redeploys = crate::trace::cluster_redeploy_schedule(&trace, 6);
            for policy in PlacePolicy::ALL {
                // Three replicas, so the failover scan has a real choice.
                let plain = ClusterConfig {
                    replicas: 3,
                    ..ClusterConfig::new(4, policy, StrategyKind::Gh, seed)
                };
                let variants = [
                    ("plain", plain.clone(), None),
                    ("faulty", plain.clone().with_faults(fc), None),
                    (
                        "autoscaled",
                        plain
                            .clone()
                            .with_faults(fc)
                            .with_autoscale(NodeScaleConfig::balanced(2)),
                        None,
                    ),
                    (
                        "gateway",
                        plain.clone().with_redeploys(redeploys.clone()),
                        Some(&gateway),
                    ),
                ];
                for (name, ccfg, gcfg) in variants {
                    let label = format!("seed={seed} policy={} {name}", policy.label());
                    let (streams, tally) = fold_trace(&trace, &catalog, &ccfg, gcfg);
                    for (node, stream) in streams.iter().enumerate() {
                        let r = replay_node(node, &trace, &catalog, &ccfg, gcfg);
                        assert_eq!(stream, &r.arrivals, "{label} node={node}: stream");
                        assert_eq!(tally.failovers[node], r.failovers, "{label} node={node}");
                        assert_eq!(tally.scale, r.scale, "{label} node={node}: scaler");
                        if node == 0 {
                            assert_eq!(tally.all_down, r.all_down, "{label}: all-down");
                        }
                    }
                    // The old separate gateway stats pass.
                    let (hits, rejected) = match gcfg {
                        Some(g) => {
                            let mut front = GatewayFront::with_redeploys(g, &ccfg.redeploys);
                            let mut hit_sojourns = QuantileSketch::new();
                            for ev in TraceGen::new(&trace) {
                                let out = catalog[ev.fn_id as usize].output_kb;
                                if front.decide(&ev, out) == FrontDecision::Hit {
                                    hit_sojourns.record_nanos(front.hit_cost());
                                }
                            }
                            let f = tally.front.as_ref().expect("front folded");
                            assert_eq!(f.hit_sojourns, hit_sojourns, "{label}: hit sketch");
                            assert_eq!(f.hits, front.hits, "{label}: hits");
                            let mut gateway = GatewayStats {
                                rejected: front.rejected,
                                cache_peak_bytes: front.cache_peak_bytes,
                                ..GatewayStats::default()
                            };
                            gateway.absorb_cache(&front.cache_stats());
                            assert_eq!(f.gateway, gateway, "{label}: gateway counters");
                            assert!(front.hits > 0 && front.cache_stats().invalidated > 0);
                            (front.hits, front.rejected)
                        }
                        None => {
                            assert!(tally.front.is_none());
                            (0, 0)
                        }
                    };
                    all_down += tally.all_down;
                    redirects += tally.scale.map_or(0, |s| s.redirects);
                    let delivered: u64 = streams.iter().map(|s| s.len() as u64).sum();
                    assert_eq!(
                        delivered + hits + rejected + tally.all_down,
                        trace.requests,
                        "{label}: every request lands on exactly one node or the front"
                    );
                    if name != "plain" && name != "gateway" {
                        assert!(
                            tally.failovers.iter().sum::<u64>() > 0,
                            "{label}: node loss must fail some arrivals over"
                        );
                    }
                }
            }
        }
        assert!(all_down > 0, "some arrival must find every replica down");
        assert!(redirects > 0, "the scaler must redirect some arrival");
    }
}
