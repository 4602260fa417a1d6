//! Differential oracle: node-parallel cluster execution must be
//! bit-identical to the serial reference.
//!
//! Serial mode (nodes run one after another on the caller's thread) is
//! the ground truth; every node-parallel run — across seeds, placement
//! policies, node counts and thread counts — must reproduce the exact
//! same [`ClusterResult`]: every counter, every per-node load, every
//! sketch-derived percentile, and the CSV-style rendering byte for
//! byte. Repeat runs must also match, pinning seeded determinism of the
//! whole trace → placement → node-timeline pipeline. Float fields are
//! compared through `{:?}` (shortest round-trip form), which
//! distinguishes any two different bit patterns.

use gh_faas::cluster::{
    run_cluster_gateway, run_cluster_with, ClusterConfig, ClusterResult, PlacePolicy,
};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::ExecMode;
use gh_faas::trace::{cluster_redeploy_schedule, synthetic_catalog, TraceConfig};
use gh_faas::NodeScaleConfig;
use gh_functions::FunctionSpec;
use gh_gateway::admission::AdmissionConfig;
use gh_gateway::cache::CacheConfig;
use gh_gateway::GatewayConfig;
use gh_isolation::StrategyKind;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

fn trace(requests: u64, seed: u64) -> TraceConfig {
    TraceConfig {
        principals: 8,
        ..TraceConfig::new(20, requests, 2_500.0, seed)
    }
}

fn run(
    catalog: &[FunctionSpec],
    trace_cfg: &TraceConfig,
    policy: PlacePolicy,
    nodes: usize,
    seed: u64,
    mode: ExecMode,
) -> ClusterResult {
    let mut ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, seed);
    ccfg.slots_per_pool = 1;
    run_cluster_with(trace_cfg, catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap()
}

/// A CSV-style line covering every scalar field of the result, the way
/// the clustersweep binary renders them (autoscaler counters included).
/// Byte equality here is the user-visible half of the oracle.
fn csv_line(r: &ClusterResult) -> String {
    let scale = r
        .scale
        .map(|s| {
            format!(
                "{},{},{},{},{},{}",
                s.grows,
                s.drains_started,
                s.drains_completed,
                s.redirects,
                s.windows,
                s.final_active
            )
        })
        .unwrap_or_else(|| "-".into());
    format!(
        "{},{},{},{},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{},{:?},{:?},{},{},{}",
        r.nodes,
        r.policy,
        r.requests,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        r.queue_mean,
        r.queue_p99,
        r.restore_total_ms,
        r.restore_overlap_ratio,
        r.lazy_faults,
        r.utilization,
        r.imbalance,
        r.containers,
        r.stats_bytes,
        scale,
    )
}

/// Full structural fingerprint: `{:?}` covers every field including the
/// per-node loads, and round-trips f64 exactly.
fn fingerprint(r: &ClusterResult) -> String {
    format!("{r:?}")
}

fn assert_identical(label: &str, reference: &ClusterResult, other: &ClusterResult) {
    assert_eq!(
        fingerprint(reference),
        fingerprint(other),
        "{label}: result diverged from the serial reference"
    );
    assert_eq!(
        csv_line(reference),
        csv_line(other),
        "{label}: CSV rendering diverged"
    );
}

#[test]
fn parallel_matches_serial_across_seeds_policies_and_node_counts() {
    for &seed in &[7u64, 1234] {
        let catalog = synthetic_catalog(20, seed);
        let tc = trace(500, seed);
        for policy in PlacePolicy::ALL {
            for &nodes in &[2usize, 5] {
                let serial = run(&catalog, &tc, policy, nodes, seed, ExecMode::Serial);
                assert_eq!(serial.completed, 500, "oracle baseline must serve all");
                for &threads in &[2usize, 8] {
                    let par = run(
                        &catalog,
                        &tc,
                        policy,
                        nodes,
                        seed,
                        ExecMode::Parallel { threads },
                    );
                    assert_identical(
                        &format!(
                            "seed={seed} policy={} nodes={nodes} threads={threads}",
                            policy.label()
                        ),
                        &serial,
                        &par,
                    );
                }
            }
        }
    }
}

#[test]
fn repeat_runs_are_bit_identical() {
    let catalog = synthetic_catalog(20, 42);
    let tc = trace(400, 42);
    let first = run(
        &catalog,
        &tc,
        PlacePolicy::LeastLoaded,
        3,
        42,
        ExecMode::Parallel { threads: 4 },
    );
    let second = run(
        &catalog,
        &tc,
        PlacePolicy::LeastLoaded,
        3,
        42,
        ExecMode::Parallel { threads: 4 },
    );
    assert_identical("repeat", &first, &second);
}

#[test]
fn single_node_cluster_matches() {
    let catalog = synthetic_catalog(20, 5);
    let tc = trace(250, 5);
    let serial = run(
        &catalog,
        &tc,
        PlacePolicy::RoundRobin,
        1,
        5,
        ExecMode::Serial,
    );
    let par = run(
        &catalog,
        &tc,
        PlacePolicy::RoundRobin,
        1,
        5,
        ExecMode::Parallel { threads: 8 },
    );
    assert_eq!(serial.completed, 250);
    assert_identical("nodes=1", &serial, &par);
}

#[test]
fn autoscaled_faulty_cluster_is_mode_independent_and_repeatable() {
    // The full stack at once: faults (deaths + node loss) and the
    // failure-aware autoscaler, node-parallel vs serial vs repeat.
    let catalog = synthetic_catalog(20, 31);
    let tc = trace(500, 31);
    let mut fc = FaultConfig::deaths(31, 0.04);
    fc.node_loss_rate = 0.25;
    fc.node_loss_window = Nanos::from_millis(20);
    fc.retry = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::bounded()
    };
    let mut ccfg = ClusterConfig::new(4, PlacePolicy::RoundRobin, StrategyKind::Gh, 31)
        .with_faults(fc)
        .with_autoscale(NodeScaleConfig::balanced(2));
    ccfg.slots_per_pool = 1;
    let go = |mode| run_cluster_with(&tc, &catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap();
    let serial = go(ExecMode::Serial);
    assert!(serial.scale.is_some(), "scaler must report");
    assert!(serial.faults.node_losses > 0 || serial.faults.deaths > 0);
    for &threads in &[2usize, 4] {
        let par = go(ExecMode::Parallel { threads });
        assert_identical(&format!("autoscaled threads={threads}"), &serial, &par);
    }
    let repeat = go(ExecMode::Serial);
    assert_identical("autoscaled repeat", &serial, &repeat);
}

#[test]
fn unarmed_autoscaler_keeps_the_run_byte_identical() {
    let catalog = synthetic_catalog(20, 13);
    let tc = trace(300, 13);
    let plain = run(
        &catalog,
        &tc,
        PlacePolicy::LeastLoaded,
        3,
        13,
        ExecMode::Serial,
    );
    // Explicitly constructing the config with `autoscale: None` and an
    // empty redeploy schedule must be the plain run, byte for byte.
    let mut ccfg = ClusterConfig::new(3, PlacePolicy::LeastLoaded, StrategyKind::Gh, 13)
        .with_redeploys(Vec::new());
    ccfg.slots_per_pool = 1;
    let unarmed = run_cluster_with(
        &tc,
        &catalog,
        &ccfg,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();
    assert_identical("unarmed autoscaler", &plain, &unarmed);
    assert!(plain.scale.is_none());
}

#[test]
fn empty_run_is_mode_independent() {
    let catalog = synthetic_catalog(20, 9);
    let tc = trace(0, 9);
    let serial = run(
        &catalog,
        &tc,
        PlacePolicy::FunctionAffinity,
        3,
        9,
        ExecMode::Serial,
    );
    let par = run(
        &catalog,
        &tc,
        PlacePolicy::FunctionAffinity,
        3,
        9,
        ExecMode::Parallel { threads: 4 },
    );
    assert_eq!(serial.completed, 0);
    assert_identical("requests=0", &serial, &par);
}

/// FNV-1a (64-bit) over a rendering's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Cross-commit pins: the FNV-1a of the `{:?}` rendering of four small
/// configurations — plain, gateway + redeploys, faulty with node loss,
/// and autoscaled. The mode-vs-mode oracles above compare two runs of
/// the *same* code; these constants were recorded before the trace fold
/// moved from the nodes to the coordinator, so they catch any
/// refactor that changes a single output byte.
#[test]
fn results_match_pinned_digests() {
    let catalog = synthetic_catalog(20, 7);
    let tc = TraceConfig {
        idempotent_frac: 0.5,
        payload_universe: 24,
        ..trace(500, 7)
    };
    let base = |nodes, policy| {
        let mut ccfg = ClusterConfig::new(nodes, policy, StrategyKind::Gh, 7);
        ccfg.slots_per_pool = 1;
        ccfg
    };
    let go = |ccfg: &ClusterConfig| {
        run_cluster_with(&tc, &catalog, ccfg, GroundhogConfig::gh(), ExecMode::Serial).unwrap()
    };

    let plain = go(&base(3, PlacePolicy::LeastLoaded));

    let gw = GatewayConfig::builder()
        .cache(CacheConfig::default_for_ttl(Nanos::from_secs(20)))
        .admission(AdmissionConfig {
            rate_per_sec: 60.0,
            burst: 30,
            max_in_flight: None,
        })
        .build();
    let gated = run_cluster_gateway(
        &tc,
        &catalog,
        &base(3, PlacePolicy::RoundRobin).with_redeploys(cluster_redeploy_schedule(&tc, 6)),
        &gw,
        GroundhogConfig::gh(),
        ExecMode::Serial,
    )
    .unwrap();

    let mut fc = FaultConfig::deaths(7, 0.05);
    fc.node_loss_rate = 0.3;
    fc.node_loss_window = Nanos::from_millis(20);
    fc.retry = RetryPolicy::rerouting();
    let faulty = go(&base(4, PlacePolicy::FunctionAffinity).with_faults(fc));

    let mut fc = FaultConfig::deaths(7, 0.03);
    fc.node_loss_rate = 0.2;
    fc.node_loss_window = Nanos::from_millis(20);
    let scaled = go(&base(4, PlacePolicy::RoundRobin)
        .with_faults(fc)
        .with_autoscale(NodeScaleConfig::balanced(2)));

    assert!(gated.cluster.completed < tc.requests, "the front must act");
    assert!(gated.gateway.cache_invalidated > 0, "redeploys must land");
    assert!(faulty.faults.node_losses > 0 && faulty.faults.deaths > 0);
    assert!(scaled.scale.is_some());
    let got = [
        fnv1a(&format!("{plain:?}")),
        fnv1a(&format!("{gated:?}")),
        fnv1a(&format!("{faulty:?}")),
        fnv1a(&format!("{scaled:?}")),
    ];
    let pinned: [u64; 4] = [
        0xeadc_a85f_5d39_47b1,
        0x6268_692f_8c6e_afef,
        0xd474_a476_0751_1fff,
        0x8e7b_8040_6b30_33ef,
    ];
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        pinned.map(|h| format!("{h:#018x}")),
        "[plain, gateway+redeploys, faulty+node loss, autoscaled]"
    );
}
