//! The traced run: per-layer host-time attribution.
//!
//! Spans are recorded from this crate only, around calls into each
//! layer's public functions (the program itself carries no tracing).
//! The traced run first executes the workload untraced and serially —
//! the reference for `traced.coverage` and `traced.overhead` and the
//! source of the exact counters — then replays the same work layer by
//! layer:
//!
//! - **setup**: every node's pools, through `fleet::pool::Pool::build`
//!   with the seeds the cluster derives (`pool.build`);
//! - **fold**: per node, the whole trace through `trace::TraceGen`
//!   (`trace.next`), the gateway front `cluster::front::GatewayFront`
//!   (`front.decide`), the placer `cluster::place::Placer` (`place.place`)
//!   and, under node loss, the `fault` layer's failover scan
//!   (`fault.failover`). Each pass is one batch span per node, so the
//!   clock is read twice per pass rather than per call;
//! - **containers**: each node's own arrivals through
//!   `gh_isolation::Strategy::admit` (`isolation.admit`),
//!   `gh_functions::behavior::Executor::invoke` (`exec.<runtime>`) and
//!   `Strategy::conclude`, the Groundhog restore (`restore.<runtime>`),
//!   one span each under a per-request parent. The replay executes every
//!   arrival once: container deaths, retries and the event queue are
//!   not replayed, so their cost is part of the unexplained remainder;
//! - **workflow**: the migration event loop and `dag_key` have no public
//!   seam, so the DAG workload reports the exact counters of its result
//!   and replays its commit and read counts through
//!   `workflow::VersionedKv` (`kv.commit`, `kv.read`).
//!
//! A per-call cost is always reported. When the workload never reaches a
//! layer, its cost comes from a small probe of that layer (spans named
//! `probe.*`, excluded from coverage and overhead) and its share of the
//! workload's layer time is zero.

use std::collections::BTreeMap;
use std::time::Instant;

use gh_faas::cluster::{FrontDecision, GatewayFront, Placer};
use gh_faas::fault::FaultPlan;
use gh_faas::fleet::{ExecMode, Pool};
use gh_faas::trace::{TraceConfig, TraceEvent, TraceGen};
use gh_faas::workflow::VersionedKv;
use gh_functions::behavior::{Executor, RequestCtx};
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_runtime::RuntimeKind;
use groundhog_core::GroundhogConfig;

use crate::spans::{Recorder, ROOT};
use crate::{
    cache_gateway, cluster_catalog, outcome, proc_status_bytes, splitmix, Metric, Rig, SimResult,
    Verdict, Workload,
};

/// Requests replayed per runtime by a container-layer probe.
const PROBE_REQUESTS: u64 = 200;
/// Trace events folded by a fold-layer probe.
const PROBE_EVENTS: u64 = 20_000;

/// Runtime index: native C, Python, Node.js.
fn rt(kind: RuntimeKind) -> usize {
    match kind {
        RuntimeKind::NativeC => 0,
        RuntimeKind::Python => 1,
        RuntimeKind::NodeJs => 2,
    }
}

const EXEC_SPAN: [&str; 3] = ["exec.c", "exec.py", "exec.node"];
const RESTORE_SPAN: [&str; 3] = ["restore.c", "restore.py", "restore.node"];
const PROBE_EXEC_SPAN: [&str; 3] = ["probe.exec.c", "probe.exec.py", "probe.exec.node"];
const PROBE_RESTORE_SPAN: [&str; 3] = ["probe.restore.c", "probe.restore.py", "probe.restore.node"];

/// Exact counters of the restores the container replay performed.
#[derive(Default)]
struct RestoreCounts {
    restores: u64,
    pages_restored: u64,
    dirty_pages: u64,
    syscalls_injected: u64,
}

/// Runs one request through a container's isolation and execution
/// layers, recording admit / exec / restore spans under a request span.
fn replay_request(
    rec: &mut Recorder,
    pool: &mut Pool,
    slot: usize,
    ctx: &RequestCtx,
    names: (&'static str, &'static str, &'static str),
    counts: &mut RestoreCounts,
) {
    let (req, principal) = (ctx.id.0, ctx.principal.as_str());
    let parent = rec.open("request", ROOT, req);
    let c = &mut pool.slots[slot].container;
    let target = rec.time(names.0, parent, req, || {
        c.strategy
            .admit(&mut c.kernel, &c.fproc, principal)
            .expect("admit")
    });
    assert_eq!(
        target.pid(),
        c.fproc.pid,
        "Groundhog runs requests in place"
    );
    c.fproc.invocations = ctx.seq;
    rec.time(names.1, parent, req, || {
        Executor::invoke(&mut c.kernel, &mut c.fproc, &c.spec, ctx)
    });
    let post = rec.time(names.2, parent, req, || {
        c.strategy
            .conclude(&mut c.kernel, &c.fproc)
            .expect("conclude")
    });
    rec.close(parent, 1);
    if let Some(r) = post.restore {
        counts.restores += 1;
        counts.pages_restored += r.pages_restored;
        counts.dirty_pages += r.dirty_pages;
        counts.syscalls_injected += r.syscalls_injected as u64;
    }
}

/// Per-layer self time (ns) and calls, by span name.
fn by_name(rec: &Recorder) -> BTreeMap<&'static str, (u64, u64)> {
    rec.layers()
        .into_iter()
        .map(|(k, v)| (k, (v.self_ns, v.calls)))
        .collect()
}

fn ns_per_call(l: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    l.get(name).map_or(0.0, |&(ns, calls)| {
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    })
}

fn self_ns(l: &BTreeMap<&'static str, (u64, u64)>, names: &[&str]) -> u64 {
    names.iter().map(|n| l.get(n).map_or(0, |v| v.0)).sum()
}

fn calls(l: &BTreeMap<&'static str, (u64, u64)>, names: &[&str]) -> u64 {
    names.iter().map(|n| l.get(n).map_or(0, |v| v.1)).sum()
}

/// Probes the container layers on one function of each runtime from the
/// cluster catalog (used where the workload has no containers).
fn probe_containers(rec: &mut Recorder, seed: u64, counts: &mut RestoreCounts) {
    let catalog = cluster_catalog();
    for kind in [
        RuntimeKind::NativeC,
        RuntimeKind::Python,
        RuntimeKind::NodeJs,
    ] {
        let spec = catalog
            .iter()
            .find(|s| s.runtime == kind)
            .expect("the cluster catalog has every runtime");
        let id = rec.open("probe.pool.build", ROOT, 0);
        let mut pool = Pool::build(spec, StrategyKind::Gh, GroundhogConfig::gh(), 1, seed)
            .expect("probe pool");
        rec.close(id, 1);
        let i = rt(kind);
        for seq in 1..=PROBE_REQUESTS {
            replay_request(
                rec,
                &mut pool,
                0,
                &RequestCtx::new(seq, "user-0", seq),
                (
                    "probe.isolation.admit",
                    PROBE_EXEC_SPAN[i],
                    PROBE_RESTORE_SPAN[i],
                ),
                counts,
            );
        }
    }
}

/// Probes the fold layers (trace, the front with the cached workload's
/// result cache, place) over a short trace.
fn probe_fold(rec: &mut Recorder, catalog: &[FunctionSpec], nodes: usize, seed: u64) {
    let trace = TraceConfig::new(catalog.len() as u32, PROBE_EVENTS, 500.0, seed);
    let id = rec.open("probe.trace.next", ROOT, 0);
    let evs: Vec<TraceEvent> = TraceGen::new(&trace).collect();
    rec.close(id, evs.len() as u64);
    let mut front = GatewayFront::new(&cache_gateway());
    let id = rec.open("probe.front.decide", ROOT, 0);
    for ev in &evs {
        std::hint::black_box(front.decide(ev, catalog[ev.fn_id as usize].output_kb));
    }
    rec.close(id, evs.len() as u64);
    let mut placer = Placer::new(
        gh_faas::cluster::PlacePolicy::RoundRobin,
        nodes,
        2.min(nodes),
        catalog,
        seed,
    );
    let id = rec.open("probe.place.place", ROOT, 0);
    for ev in &evs {
        std::hint::black_box(placer.place(ev.fn_id as usize));
    }
    rec.close(id, evs.len() as u64);
}

/// Probes the KV with `n` commits, a tenth of them repeated, and `n`
/// reads (used where the workload has no workflows).
fn probe_kv(rec: &mut Recorder, n: u64) {
    let mut kv = VersionedKv::new();
    let id = rec.open("probe.kv.commit", ROOT, 0);
    for i in 0..n + n / 10 {
        let i = i % n;
        kv.commit(i / 8, i % 8, splitmix(i), i);
    }
    rec.close(id, n + n / 10);
    let id = rec.open("probe.kv.read", ROOT, 0);
    for i in 0..n {
        std::hint::black_box(kv.latest(splitmix(i)));
    }
    rec.close(id, n);
}

/// Runs the traced replay of `w` at `seed`: the per-layer metrics, and
/// the checks of the untraced reference run.
pub fn traced(w: Workload, seed: u64) -> (Vec<Metric>, Verdict) {
    let rig = Rig::new(w, seed, w.default_requests());
    let offered = rig.offered();

    // Untraced serial reference.
    let rss_before = proc_status_bytes("VmRSS:");
    let t0 = Instant::now();
    let sim = rig.run(ExecMode::Serial);
    let untraced_ns = t0.elapsed().as_nanos() as f64;
    let rss_peak = proc_status_bytes("VmHWM:");
    let reference = match &rig {
        Rig::Dag { catalog, cfg } => Some(crate::dag_reference(catalog, cfg).kv_fingerprint),
        Rig::Cluster { .. } => None,
    };
    let out = outcome(&sim, reference, None);

    let mut rec = Recorder::new();
    let mut counts = RestoreCounts::default();
    let mut m: Vec<Metric> = Vec::new();
    let replay_ns;
    let mut runtime_reqs = [0u64; 3];
    let mut hit_ratio = 0.0;
    let mut replays = 0u64;
    let mut containers = 0u64;

    match &rig {
        Rig::Cluster {
            catalog,
            trace,
            ccfg,
            gcfg,
        } => {
            let t_replay = Instant::now();
            let nf = trace.functions as usize;
            let catalog = &catalog[..nf];
            let hosts = Placer::new(ccfg.policy, ccfg.nodes, ccfg.replicas, catalog, ccfg.seed);
            let principals: Vec<String> =
                (0..trace.principals).map(|p| format!("user-{p}")).collect();
            let plan = ccfg.faults.filter(|c| c.is_active()).map(FaultPlan::new);

            // Set-up: every node's pools, with the cluster's seeds.
            let mut pools: Vec<Vec<Option<Pool>>> = Vec::with_capacity(ccfg.nodes);
            let setup = rec.open("setup", ROOT, 0);
            for node in 0..ccfg.nodes {
                let mut row: Vec<Option<Pool>> = (0..nf).map(|_| None).collect();
                for (f, spec) in catalog.iter().enumerate() {
                    if !hosts.hosts(node, f) {
                        continue;
                    }
                    let pseed = splitmix(ccfg.seed ^ ((node as u64) << 32) ^ f as u64);
                    let id = rec.open("pool.build", setup, 0);
                    let pool = Pool::build(
                        spec,
                        ccfg.kind,
                        GroundhogConfig::gh(),
                        ccfg.slots_per_pool,
                        pseed,
                    )
                    .expect("pool build");
                    rec.close(id, ccfg.slots_per_pool as u64);
                    containers += ccfg.slots_per_pool as u64;
                    row[f] = Some(pool);
                }
                pools.push(row);
            }
            rec.close(setup, 1);

            // The gateway run's coordinator pass: one extra fold over the
            // trace through the front, before the nodes run.
            if let Some(g) = gcfg {
                let id = rec.open("fold", ROOT, 0);
                let tid = rec.open("trace.next", id, 0);
                let evs: Vec<TraceEvent> = TraceGen::new(trace).collect();
                rec.close(tid, evs.len() as u64);
                replays += evs.len() as u64;
                let mut front = GatewayFront::new(g);
                let fid = rec.open("front.decide", id, 0);
                for ev in &evs {
                    std::hint::black_box(front.decide(ev, catalog[ev.fn_id as usize].output_kb));
                }
                rec.close(fid, evs.len() as u64);
                rec.close(id, 1);
                hit_ratio = front.hits as f64 / evs.len().max(1) as f64;
            }

            let mut rr: Vec<Vec<usize>> = vec![vec![0; nf]; ccfg.nodes];
            for node in 0..ccfg.nodes {
                // Fold: every node replays the whole trace.
                let fold = rec.open("fold", ROOT, 0);
                let id = rec.open("trace.next", fold, 0);
                let evs: Vec<TraceEvent> = TraceGen::new(trace).collect();
                rec.close(id, evs.len() as u64);
                replays += evs.len() as u64;
                let backend: Vec<bool> = match gcfg {
                    None => vec![true; evs.len()],
                    Some(g) => {
                        let mut front = GatewayFront::new(g);
                        let id = rec.open("front.decide", fold, 0);
                        let v = evs
                            .iter()
                            .map(|ev| {
                                front.decide(ev, catalog[ev.fn_id as usize].output_kb)
                                    == FrontDecision::Backend
                            })
                            .collect();
                        rec.close(id, evs.len() as u64);
                        v
                    }
                };
                let mut placer =
                    Placer::new(ccfg.policy, ccfg.nodes, ccfg.replicas, catalog, ccfg.seed);
                let id = rec.open("place.place", fold, 0);
                let placed: Vec<u32> = evs
                    .iter()
                    .zip(&backend)
                    .map(|(ev, &b)| {
                        if b {
                            placer.place(ev.fn_id as usize) as u32
                        } else {
                            u32::MAX
                        }
                    })
                    .collect();
                let n_backend = backend.iter().filter(|&&b| b).count() as u64;
                rec.close(id, n_backend);
                let mine: Vec<TraceEvent> = match &plan {
                    None => evs
                        .iter()
                        .zip(&placed)
                        .filter(|(_, &t)| t as usize == node)
                        .map(|(ev, _)| *ev)
                        .collect(),
                    Some(pl) => {
                        // Failover scan: an arrival placed on a down node
                        // moves to the first up replica.
                        let id = rec.open("fault.failover", fold, 0);
                        let v = evs
                            .iter()
                            .zip(&placed)
                            .filter(|(ev, &t)| {
                                if t == u32::MAX {
                                    return false;
                                }
                                if !pl.node_down(t as usize, ev.at) {
                                    return t as usize == node;
                                }
                                placer
                                    .candidates(ev.fn_id as usize)
                                    .find(|&n| !pl.node_down(n, ev.at))
                                    == Some(node)
                            })
                            .map(|(ev, _)| *ev)
                            .collect();
                        rec.close(id, n_backend);
                        v
                    }
                };
                rec.close(fold, 1);
                drop(evs);

                // Containers: this node's arrivals through admit, exec
                // and restore, round-robin over each pool's slots.
                for ev in &mine {
                    let f = ev.fn_id as usize;
                    let pool = pools[node][f].as_mut().expect("placed on a replica");
                    let slot = rr[node][f] % pool.slots.len();
                    rr[node][f] += 1;
                    let seq = rr[node][f] as u64;
                    let i = rt(pool.spec.runtime);
                    runtime_reqs[i] += 1;
                    replay_request(
                        &mut rec,
                        pool,
                        slot,
                        &RequestCtx::new(ev.seq, &principals[ev.principal as usize], seq),
                        ("isolation.admit", EXEC_SPAN[i], RESTORE_SPAN[i]),
                        &mut counts,
                    );
                }
            }
            drop(pools);
            replay_ns = t_replay.elapsed().as_nanos() as f64;
            probe_fold(&mut rec, catalog, ccfg.nodes, seed);
            probe_kv(&mut rec, 20_000);
        }
        Rig::Dag { catalog, cfg } => {
            let SimResult::Dag(r) = &sim else {
                unreachable!("a DAG rig yields a DAG result")
            };
            // KV replay with the run's exact commit, duplicate and read
            // counts, spread over its workflows.
            let t_replay = Instant::now();
            let mut kv = VersionedKv::new();
            let wfs = r.workflows.max(1);
            let key = |i: u64| splitmix((i % wfs) << 20 ^ (i / wfs));
            let id = rec.open("kv.commit", ROOT, 0);
            for i in 0..r.kv_versions {
                kv.commit(i % wfs, i / wfs, key(i), i);
            }
            for i in 0..r.duplicates_suppressed {
                let i = i % r.kv_versions.max(1);
                kv.commit(i % wfs, i / wfs, key(i), i);
            }
            rec.close(id, r.kv_versions + r.duplicates_suppressed);
            let id = rec.open("kv.read", ROOT, 0);
            for i in 0..r.hops_executed {
                std::hint::black_box(kv.latest(key(i % r.kv_versions.max(1))));
            }
            rec.close(id, r.hops_executed);
            drop(kv);
            replay_ns = t_replay.elapsed().as_nanos() as f64;
            probe_containers(&mut rec, seed, &mut counts);
            probe_fold(&mut rec, catalog, cfg.nodes, seed);
        }
    }

    let spans_path = std::path::Path::new("perfbench/out").join(format!("spans-{}.csv", w.name()));
    if let Err(e) = rec.write_csv(&spans_path) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }

    let l = by_name(&rec);
    let pick = |real: &str, probe: &str| {
        if calls(&l, &[real]) > 0 {
            ns_per_call(&l, real)
        } else {
            ns_per_call(&l, probe)
        }
    };
    let container_reqs: u64 = runtime_reqs.iter().sum();
    let share = |i: usize| runtime_reqs[i] as f64 / container_reqs.max(1) as f64;
    let per_restore = |x: u64| x as f64 / counts.restores.max(1) as f64;

    let fold_layers = [
        "trace.next",
        "front.decide",
        "place.place",
        "fault.failover",
    ];
    let container_layers = [
        "isolation.admit",
        "exec.c",
        "exec.py",
        "exec.node",
        "restore.c",
        "restore.py",
        "restore.node",
    ];
    let fold_ns = self_ns(&l, &fold_layers) as f64;
    let container_ns = self_ns(&l, &container_layers) as f64;
    // Per-request layer time (set-up excluded) for the shares; all layer
    // time for the coverage.
    let request_ns = fold_ns + container_ns + self_ns(&l, &["kv.commit", "kv.read"]) as f64;
    let layer_ns = request_ns + self_ns(&l, &["pool.build"]) as f64;

    for (i, name) in ["exec.ns.c", "exec.ns.py", "exec.ns.node"]
        .into_iter()
        .enumerate()
    {
        m.push(Metric::new(
            name,
            pick(EXEC_SPAN[i], PROBE_EXEC_SPAN[i]),
            "ns",
            runtime_reqs[i],
        ));
    }
    for (i, name) in ["restore.ns.c", "restore.ns.py", "restore.ns.node"]
        .into_iter()
        .enumerate()
    {
        m.push(Metric::new(
            name,
            pick(RESTORE_SPAN[i], PROBE_RESTORE_SPAN[i]),
            "ns",
            runtime_reqs[i],
        ));
    }
    m.push(Metric::new(
        "isolation.admit_ns",
        pick("isolation.admit", "probe.isolation.admit"),
        "ns",
        container_reqs,
    ));
    for (i, name) in ["req_share.c", "req_share.py", "req_share.node"]
        .into_iter()
        .enumerate()
    {
        m.push(Metric::new(name, share(i), "frac", container_reqs));
    }
    m.push(Metric::new(
        "container.req_frac",
        container_reqs as f64 / offered as f64,
        "frac",
        offered,
    ));
    m.push(Metric::new(
        "restore.pages_restored",
        per_restore(counts.pages_restored),
        "count",
        counts.restores,
    ));
    m.push(Metric::new(
        "restore.dirty_pages",
        per_restore(counts.dirty_pages),
        "count",
        counts.restores,
    ));
    m.push(Metric::new(
        "restore.syscalls_injected",
        per_restore(counts.syscalls_injected),
        "count",
        counts.restores,
    ));
    m.push(Metric::new(
        "trace.next_ns",
        pick("trace.next", "probe.trace.next"),
        "ns",
        calls(&l, &["trace.next"]),
    ));
    m.push(Metric::new(
        "front.decide_ns",
        pick("front.decide", "probe.front.decide"),
        "ns",
        calls(&l, &["front.decide"]),
    ));
    m.push(Metric::new("front.hit_ratio", hit_ratio, "frac", offered));
    m.push(Metric::new(
        "place.place_ns",
        pick("place.place", "probe.place.place"),
        "ns",
        calls(&l, &["place.place"]),
    ));
    m.push(Metric::new(
        "fold.replays_per_req",
        replays as f64 / offered as f64,
        "count",
        replays,
    ));
    m.push(Metric::new(
        "pool.build_ms_per_container",
        pick("pool.build", "probe.pool.build") / 1e6,
        "ms",
        containers,
    ));

    // Exact counters of the untraced run. Attempts are dispatches: node
    // completions plus deaths (cluster), hops executed (DAG).
    let (faults, useful, attempts) = match &sim {
        SimResult::Cluster { result, hits, .. } => {
            m.push(Metric::new(
                "cluster.imbalance",
                result.imbalance,
                "ratio",
                result.nodes as u64,
            ));
            m.push(Metric::new(
                "cluster.utilization",
                result.utilization,
                "frac",
                result.containers as u64,
            ));
            m.push(Metric::new(
                "cluster.queue_p99",
                result.queue_p99,
                "count",
                result.completed,
            ));
            m.push(Metric::new(
                "cluster.restore_overlap_ratio",
                result.restore_overlap_ratio,
                "frac",
                result.completed,
            ));
            let on_nodes = result.completed - hits;
            (result.faults, on_nodes, on_nodes + result.faults.deaths)
        }
        SimResult::Dag(r) => {
            for (name, unit) in [
                ("cluster.imbalance", "ratio"),
                ("cluster.utilization", "frac"),
                ("cluster.queue_p99", "count"),
                ("cluster.restore_overlap_ratio", "frac"),
            ] {
                m.push(Metric::new(name, 0.0, unit, 0));
            }
            (
                r.faults,
                r.hops_executed - r.faults.retries,
                r.hops_executed,
            )
        }
    };
    for (name, count) in [
        ("fault.deaths", faults.deaths),
        ("fault.retries", faults.retries),
        ("fault.failovers", faults.node_losses),
        ("fault.abandoned", faults.abandoned),
    ] {
        m.push(Metric::new(name, count as f64, "count", 1));
    }
    m.push(Metric::new(
        "fault.useful_ratio",
        useful as f64 / attempts.max(1) as f64,
        "frac",
        attempts,
    ));
    m.push(Metric::new(
        "fault.fail_frac",
        out.fail_frac(),
        "frac",
        offered,
    ));
    m.push(Metric::new(
        "kv.commit_ns",
        pick("kv.commit", "probe.kv.commit"),
        "ns",
        calls(&l, &["kv.commit"]),
    ));
    m.push(Metric::new(
        "kv.read_ns",
        pick("kv.read", "probe.kv.read"),
        "ns",
        calls(&l, &["kv.read"]),
    ));
    match &sim {
        SimResult::Dag(r) => {
            let wfs = r.workflows.max(1) as f64;
            m.push(Metric::new(
                "dag.hops_per_wf",
                r.hops_executed as f64 / wfs,
                "count",
                r.workflows,
            ));
            m.push(Metric::new(
                "dag.useful_ratio",
                r.kv_versions as f64 / r.hops_executed.max(1) as f64,
                "frac",
                r.hops_executed,
            ));
            m.push(Metric::new(
                "dag.migrations",
                r.faults.migrations as f64,
                "count",
                1,
            ));
            m.push(Metric::new(
                "dag.duplicates_absorbed",
                r.duplicates_suppressed as f64,
                "count",
                1,
            ));
            m.push(Metric::new(
                "dag.rss_bytes_per_wf",
                rss_peak.saturating_sub(rss_before) as f64 / wfs,
                "B",
                r.workflows,
            ));
        }
        SimResult::Cluster { .. } => {
            for (name, unit) in [
                ("dag.hops_per_wf", "count"),
                ("dag.useful_ratio", "frac"),
                ("dag.migrations", "count"),
                ("dag.duplicates_absorbed", "count"),
            ] {
                m.push(Metric::new(name, 0.0, unit, 0));
            }
            m.push(Metric::new("dag.rss_bytes_per_wf", 0.0, "B", 0));
        }
    }
    m.push(Metric::new(
        "layer.fold_share",
        fold_ns / request_ns.max(1.0),
        "frac",
        1,
    ));
    m.push(Metric::new(
        "layer.container_share",
        container_ns / request_ns.max(1.0),
        "frac",
        1,
    ));
    m.push(Metric::new(
        "traced.coverage",
        layer_ns / untraced_ns,
        "frac",
        1,
    ));
    m.push(Metric::new(
        "traced.overhead",
        replay_ns / untraced_ns,
        "ratio",
        1,
    ));

    println!(
        "{} (traced): seed {seed} | {offered} requests | untraced serial {:.3} s | replay {:.3} s | {} spans -> {}",
        w.name(),
        untraced_ns / 1e9,
        replay_ns / 1e9,
        rec.len(),
        spans_path.display()
    );
    println!("  layer self time (ms), calls:");
    for (name, (ns, n)) in &l {
        println!("    {name:<28} {:>12.3} {n:>10}", *ns as f64 / 1e6);
    }
    println!("  per-call costs with n=0 come from probes: the workload never reaches that layer");
    attribution(
        w,
        fold_ns / request_ns.max(1.0),
        container_ns / request_ns.max(1.0),
    );
    let mut verdict = Verdict::default();
    verdict.record(&out);
    (m, verdict)
}

/// Checks the predicted attribution: the fold dominates the cached
/// workload's layer time; containers dominate the steady and faulty ones.
/// A mismatch is reported, not corrected.
fn attribution(w: Workload, fold: f64, container: f64) {
    let (want, ok) = match w {
        Workload::ClusterCached => ("fold > containers", fold > container),
        Workload::ClusterSteady | Workload::ClusterFaulty => (
            "containers >= 90% and fold <= 10%",
            container >= 0.9 && fold <= 0.1,
        ),
        Workload::DagMigrate => (
            "no fold or container layer time",
            fold == 0.0 && container == 0.0,
        ),
    };
    println!(
        "  attribution: fold {:.1}% containers {:.1}% | predicted {want}: {}",
        fold * 100.0,
        container * 100.0,
        if ok { "matches" } else { "MISMATCH" }
    );
}
