//! Host-cost benchmark of the Groundhog cluster simulator.
//!
//! Four workloads drive the simulator through its public entry points
//! (`cluster::run_cluster_with`, `cluster::run_cluster_gateway`,
//! `workflow::migrate::run_migrating_dags`). Each run is a pure function
//! of the workload and its seed, so every simulated (virtual-time)
//! statistic repeats exactly; only host time varies. [`Outcome`] carries
//! the simulated figures, the correctness checks, and a digest of the
//! whole simulated result, so a host-only change can show that nothing
//! simulated moved.
//!
//! The function catalogs are fixed per workload (the "deployment"); the
//! seed drives the trace, the deployment hashing, container seeds and
//! the fault draws.

pub mod layers;
pub mod spans;

use gh_faas::cluster::{
    run_cluster_gateway, run_cluster_with, ClusterConfig, ClusterResult, PlacePolicy,
};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::ExecMode;
use gh_faas::trace::{dag_workload, stable_rps, synthetic_catalog, TraceConfig};
use gh_faas::workflow::dag::{random_dag_spec, DagSpec};
use gh_faas::workflow::migrate::{run_migrating_dags, MigrateConfig, MigrateResult};
use gh_functions::FunctionSpec;
use gh_gateway::cache::CacheConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::StrategyKind;
use gh_sim::{Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

/// Catalog seed of the cluster workloads (256 synthetic functions).
pub const CLUSTER_CATALOG_SEED: u64 = 7;
/// Catalog seed of the DAG workload (12 synthetic functions).
pub const DAG_CATALOG_SEED: u64 = 46;
/// Functions in the cluster catalog.
pub const CLUSTER_FUNCTIONS: u32 = 256;
/// Functions in the DAG catalog.
pub const DAG_FUNCTIONS: u32 = 12;
/// One-workflow runs sampled for the DAG sojourn percentiles.
pub const DAG_LATENCY_PROBES: u64 = 20_000;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8 nodes, round-robin placement, no gateway, no faults.
    ClusterSteady,
    /// 32 nodes behind the result cache; most requests hit at the front.
    ClusterCached,
    /// `ClusterSteady` with container deaths, node loss and rerouting
    /// retries, at a load where the retry backlog stays bounded.
    ClusterFaulty,
    /// Fault-tolerant DAG workflows migrating across 5 nodes.
    DagMigrate,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ClusterSteady,
        Workload::ClusterCached,
        Workload::ClusterFaulty,
        Workload::DagMigrate,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterSteady => "cluster-steady",
            Workload::ClusterCached => "cluster-cached",
            Workload::ClusterFaulty => "cluster-faulty",
            Workload::DagMigrate => "dag-migrate",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests (workflows, for `DagMigrate`) in one full-size run. Each
    /// size is past the point where `sim_p99_ms` stops depending on run
    /// length (see `tests/oracle.rs`).
    pub fn default_requests(self) -> u64 {
        match self {
            Workload::ClusterSteady => 100_000,
            Workload::ClusterCached => 200_000,
            Workload::ClusterFaulty => 100_000,
            Workload::DagMigrate => 150_000,
        }
    }

    /// Simulated nodes.
    pub fn nodes(self) -> usize {
        match self {
            Workload::ClusterSteady | Workload::ClusterFaulty => 8,
            Workload::ClusterCached => 32,
            Workload::DagMigrate => 5,
        }
    }

    /// Host threads for the timed runs: `min(available cores, nodes)`.
    /// The DAG simulator is single-threaded.
    pub fn threads(self) -> usize {
        match self {
            Workload::DagMigrate => 1,
            _ => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(self.nodes()),
        }
    }
}

/// A fully specified run: the workload's configuration at one seed and
/// size, ready to execute in any [`ExecMode`].
// Built a handful of times per process: the variant size gap is moot.
#[allow(clippy::large_enum_variant)]
pub enum Rig {
    /// A cluster run, optionally behind the gateway front.
    Cluster {
        /// The deployed functions.
        catalog: Vec<FunctionSpec>,
        /// The arrival trace.
        trace: TraceConfig,
        /// Topology, strategy and faults.
        ccfg: ClusterConfig,
        /// Gateway policies, when the run goes through the front.
        gcfg: Option<GatewayConfig>,
    },
    /// A DAG migration run.
    Dag {
        /// The deployed functions.
        catalog: Vec<FunctionSpec>,
        /// Workflows, topology and faults.
        cfg: MigrateConfig,
    },
}

/// The cluster catalog, built once per process and reused.
pub fn cluster_catalog() -> Vec<FunctionSpec> {
    synthetic_catalog(CLUSTER_FUNCTIONS, CLUSTER_CATALOG_SEED)
}

/// The cached workload's gateway: a result cache with a 30 s TTL.
pub fn cache_gateway() -> GatewayConfig {
    GatewayConfig::builder()
        .cache(CacheConfig::default_for_ttl(Nanos::from_secs(30)))
        .build()
}

/// The DAG catalog.
pub fn dag_catalog() -> Vec<FunctionSpec> {
    synthetic_catalog(DAG_FUNCTIONS, DAG_CATALOG_SEED)
}

impl Rig {
    /// Builds `workload` at `seed` with `requests` requests (workflows).
    pub fn new(workload: Workload, seed: u64, requests: u64) -> Rig {
        match workload {
            Workload::DagMigrate => {
                let mut fc = FaultConfig::deaths(seed, 0.01);
                fc.node_loss_rate = 0.15;
                fc.node_loss_window = Nanos::from_millis(40);
                fc.retry = RetryPolicy {
                    max_attempts: 10,
                    ..RetryPolicy::bounded()
                };
                let cfg = MigrateConfig::new(workload.nodes(), requests, seed).with_faults(fc);
                Rig::Dag {
                    catalog: dag_catalog(),
                    cfg,
                }
            }
            _ => {
                let catalog = cluster_catalog();
                let mut ccfg = ClusterConfig::new(
                    workload.nodes(),
                    PlacePolicy::RoundRobin,
                    StrategyKind::Gh,
                    seed,
                );
                // Deaths restart a container from cold (~1 s), so the faulty
                // workload runs at a load where that recovery tail stays
                // beyond p99; at 0.15 p99 sits on the knee of that tail and
                // moved 28% between 100k and 200k requests.
                let target = if workload == Workload::ClusterFaulty {
                    0.08
                } else {
                    0.6
                };
                let rps = stable_rps(&catalog, ccfg.replicas * ccfg.slots_per_pool, 1.0, target);
                // No bursts: with the default burst rate, p99 is set by a
                // few hundred 32-request bursts and moved by up to 20%
                // between 100k and 200k requests; without them it holds
                // within a tenth.
                let mut trace = TraceConfig {
                    principals: 128,
                    burst_start_prob: 0.0,
                    ..TraceConfig::new(CLUSTER_FUNCTIONS, requests, rps, seed)
                };
                let mut gcfg = None;
                match workload {
                    Workload::ClusterCached => {
                        trace.idempotent_frac = 0.97;
                        trace.payload_universe = 4;
                        gcfg = Some(cache_gateway());
                    }
                    Workload::ClusterFaulty => {
                        let mut fc = FaultConfig::deaths(seed, 0.01);
                        fc.node_loss_rate = 0.005;
                        fc.node_loss_window = Nanos::from_millis(100);
                        fc.retry = RetryPolicy::rerouting();
                        ccfg = ccfg.with_faults(fc);
                    }
                    _ => {}
                }
                Rig::Cluster {
                    catalog,
                    trace,
                    ccfg,
                    gcfg,
                }
            }
        }
    }

    /// Requests (workflows) the run offers.
    pub fn offered(&self) -> u64 {
        match self {
            Rig::Cluster { trace, .. } => trace.requests,
            Rig::Dag { cfg, .. } => cfg.workflows,
        }
    }

    /// The same configuration over a different number of requests.
    pub fn resized(&self, requests: u64) -> Rig {
        match self {
            Rig::Cluster {
                catalog,
                trace,
                ccfg,
                gcfg,
            } => Rig::Cluster {
                catalog: catalog.clone(),
                trace: TraceConfig {
                    requests,
                    ..trace.clone()
                },
                ccfg: ccfg.clone(),
                gcfg: *gcfg,
            },
            Rig::Dag { catalog, cfg } => Rig::Dag {
                catalog: catalog.clone(),
                cfg: MigrateConfig {
                    workflows: requests,
                    ..cfg.clone()
                },
            },
        }
    }

    /// Does the run's set-up work: everything before the first arrival.
    /// A cluster builds every node's pools, timed as the same
    /// configuration over a one-request trace. The DAG simulator
    /// materializes its whole workload (arrivals and per-instance DAG
    /// shapes) before its event loop starts; this repeats that work
    /// through the same public functions.
    pub fn setup(&self, mode: ExecMode) {
        match self {
            Rig::Cluster { .. } => {
                std::hint::black_box(self.resized(1).run(mode));
            }
            Rig::Dag { catalog, cfg } => {
                let shapes: Vec<DagSpec> = dag_workload(cfg.workflows, cfg.arrival_rps, cfg.seed)
                    .iter()
                    .map(|a| random_dag_spec(a.shape_seed, catalog.len(), cfg.max_width))
                    .collect();
                std::hint::black_box(shapes);
            }
        }
    }

    /// Executes the run. `mode` only affects the cluster workloads.
    pub fn run(&self, mode: ExecMode) -> SimResult {
        match self {
            Rig::Cluster {
                catalog,
                trace,
                ccfg,
                gcfg,
            } => {
                let gh = GroundhogConfig::gh();
                match gcfg {
                    None => SimResult::Cluster {
                        result: run_cluster_with(trace, catalog, ccfg, gh, mode)
                            .expect("cluster run"),
                        hits: 0,
                        rejected: 0,
                    },
                    Some(g) => {
                        let r = run_cluster_gateway(trace, catalog, ccfg, g, gh, mode)
                            .expect("gateway cluster run");
                        SimResult::Cluster {
                            hits: r.gateway.cache_hits,
                            rejected: r.gateway.rejected,
                            result: r.cluster,
                        }
                    }
                }
            }
            Rig::Dag { catalog, cfg } => SimResult::Dag(run_migrating_dags(catalog, cfg)),
        }
    }
}

/// The raw simulated result of one run.
pub enum SimResult {
    /// A cluster run; `hits` and `rejected` are the gateway front's
    /// cache hits and rate-limit drops (zero without a gateway).
    Cluster {
        /// The merged cluster result.
        result: ClusterResult,
        /// Requests served from the front's result cache.
        hits: u64,
        /// Requests dropped by the front's rate limiter.
        rejected: u64,
    },
    /// A DAG migration run.
    Dag(MigrateResult),
}

/// One reported metric, with the samples behind it.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples (runs, requests or calls) behind the value.
    pub samples: u64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Correctness tally over a benchmark run's simulations.
#[derive(Default)]
pub struct Verdict {
    /// Requests (workflows) simulated.
    pub attempted: u64,
    /// Requests (workflows) of simulations that failed a check.
    pub failed: u64,
    /// Every failed check.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Counts one simulation.
    pub fn record(&mut self, out: &Outcome) {
        self.attempted += out.offered;
        if !out.failures.is_empty() {
            self.failed += out.offered;
            self.failures.extend(out.failures.iter().cloned());
        }
    }
}

/// A `kB` field of `/proc/self/status` (such as `VmHWM:`), in bytes; 0
/// where the file or field is missing.
pub fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// FNV-1a over bytes: the digest of a simulated result's debug form.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Simulated figures and correctness verdict of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Requests (workflows) offered.
    pub offered: u64,
    /// Requests (workflows) completed, cache hits included.
    pub completed: u64,
    /// Requests abandoned after their last attempt (or dropped with every
    /// replica down).
    pub abandoned: u64,
    /// Requests rejected by the gateway front.
    pub rejected: u64,
    /// Virtual-time mean sojourn, ms (exact).
    pub mean_ms: f64,
    /// Virtual-time sojourn median, ms.
    pub p50_ms: f64,
    /// Virtual-time sojourn 99th percentile, ms.
    pub p99_ms: f64,
    /// Sojourn samples behind the percentiles.
    pub latency_samples: u64,
    /// Completions per virtual second.
    pub goodput_rps: f64,
    /// Digest of the whole simulated result.
    pub digest: u64,
    /// Failed correctness checks (empty when the run is correct).
    pub failures: Vec<String>,
}

impl Outcome {
    /// Share of offered requests that were served.
    pub fn served_frac(&self) -> f64 {
        1.0 - self.fail_frac()
    }

    /// Share of offered requests that failed (abandoned or rejected).
    pub fn fail_frac(&self) -> f64 {
        (self.abandoned + self.rejected) as f64 / self.offered as f64
    }
}

/// Summarizes `sim` and checks conservation. For DAG runs the caller
/// supplies the crash-free reference fingerprint and, when the sojourn
/// percentiles are wanted, the sketch from [`dag_latency_probes`].
pub fn outcome(
    sim: &SimResult,
    dag_reference: Option<u64>,
    dag_latency: Option<&QuantileSketch>,
) -> Outcome {
    let mut failures = Vec::new();
    match sim {
        SimResult::Cluster {
            result,
            hits,
            rejected,
        } => {
            let offered = result.requests;
            let abandoned = result.faults.abandoned;
            if result.completed + abandoned + rejected != offered {
                failures.push(format!(
                    "conservation: completed {} + abandoned {abandoned} + rejected {rejected} != offered {offered}",
                    result.completed
                ));
            }
            let on_nodes: u64 = result.per_node.iter().map(|n| n.completed).sum();
            if on_nodes + hits != result.completed {
                failures.push(format!(
                    "partition: node completions {on_nodes} + front hits {hits} != completed {}",
                    result.completed
                ));
            }
            Outcome {
                offered,
                completed: result.completed,
                abandoned,
                rejected: *rejected,
                mean_ms: result.mean_ms,
                p50_ms: result.p50_ms,
                p99_ms: result.p99_ms,
                latency_samples: result.completed,
                goodput_rps: result.goodput_rps,
                digest: fnv64(format!("{result:?}").as_bytes()),
                failures,
            }
        }
        SimResult::Dag(r) => {
            let abandoned = r.faults.abandoned;
            if r.completed + abandoned != r.workflows {
                failures.push(format!(
                    "conservation: completed {} + abandoned {abandoned} != workflows {}",
                    r.completed, r.workflows
                ));
            }
            if let Some(clean) = dag_reference {
                if r.kv_fingerprint != clean {
                    failures.push(format!(
                        "crash equivalence: kv fingerprint {:#018x} != crash-free {clean:#018x}",
                        r.kv_fingerprint
                    ));
                }
            }
            let absorbed = r.faults.duplicates + r.faults.duplicate_commits_absorbed;
            if r.duplicates_suppressed != absorbed {
                failures.push(format!(
                    "migration ledger: {} suppressed != {absorbed} duplicates + absorbed",
                    r.duplicates_suppressed
                ));
            }
            // Without probes (the traced run) the percentiles read zero.
            let empty = QuantileSketch::new();
            let lat = dag_latency.unwrap_or(&empty);
            Outcome {
                offered: r.workflows,
                completed: r.completed,
                abandoned,
                rejected: 0,
                mean_ms: lat.mean_ms(),
                p50_ms: lat.quantile_ms(50.0),
                p99_ms: lat.quantile_ms(99.0),
                latency_samples: lat.len(),
                goodput_rps: if r.span_ms > 0.0 {
                    r.completed as f64 / (r.span_ms / 1e3)
                } else {
                    0.0
                },
                digest: fnv64(format!("{r:?}").as_bytes()),
                failures,
            }
        }
    }
}

/// Crash-free reference of a DAG rig: the same workflows with faults
/// disarmed. Its KV fingerprint is what the faulty run must converge to.
pub fn dag_reference(catalog: &[FunctionSpec], cfg: &MigrateConfig) -> MigrateResult {
    let clean = MigrateConfig {
        faults: None,
        ..cfg.clone()
    };
    run_migrating_dags(catalog, &clean)
}

/// Virtual-time sojourns of DAG workflows under `cfg`'s faults.
///
/// `MigrateResult` exposes no per-workflow latency, but the migration
/// simulator has no capacity contention: a workflow's timeline depends
/// only on its own arrival, shape, input and fault draws. So `probes`
/// one-workflow runs, each on its own derived seed, sample the sojourn
/// distribution exactly (`span_ms` minus the arrival instant).
/// Abandoned probes contribute no sample.
pub fn dag_latency_probes(
    catalog: &[FunctionSpec],
    cfg: &MigrateConfig,
    probes: u64,
) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for i in 0..probes {
        let seed = splitmix(cfg.seed ^ splitmix(0xDA6_1A7E ^ i));
        let one = MigrateConfig {
            workflows: 1,
            seed,
            faults: cfg.faults.map(|f| FaultConfig { seed, ..f }),
            ..cfg.clone()
        };
        let r = run_migrating_dags(catalog, &one);
        if r.completed == 1 {
            let arrival = dag_workload(1, one.arrival_rps, seed)[0].at;
            let span = Nanos::from_millis_f64(r.span_ms);
            sketch.record_nanos(span - arrival);
        }
    }
    sketch
}

/// splitmix64 finalizer, for deriving probe and pool seeds.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
