//! Fault-injection oracle: three contracts pin the fault layer down.
//!
//! 1. **Disabled means invisible.** A run with fault injection
//!    *disabled* (inert [`FaultConfig`], or none at all) must be
//!    bit-identical — `{:?}` fingerprint and CSV rendering — to the
//!    plain [`Fleet::run`] / [`run_cluster_with`] paths across seeds
//!    and policies. The fault layer may not advance any RNG stream or
//!    add any event when it is off.
//! 2. **Faults don't break determinism.** With faults *enabled*,
//!    node-parallel cluster execution stays byte-identical to serial,
//!    and repeat fleet runs reproduce the same result, for both retry
//!    policies.
//! 3. **Pinned outputs.** A faulty fleet run and a faulty gateway run
//!    reproduce digests recorded across refactors of the dispatch
//!    loops.
//!
//! Workflow crash-equivalence (chains included, as the degenerate DAG)
//! lives in `tests/dag_oracle.rs`.

use gh_faas::cluster::{run_cluster_with, ClusterConfig, ClusterResult, PlacePolicy};
use gh_faas::fault::{FaultConfig, RetryPolicy};
use gh_faas::fleet::{ExecMode, Fleet, FleetConfig, FleetResult, Pool, RoutePolicy};
use gh_faas::gateway::{run_gateway_fleet, GatewayFleetConfig};
use gh_faas::trace::{redeploy_schedule, synthetic_catalog, TraceConfig};
use gh_functions::catalog::by_name;
use gh_functions::FunctionSpec;
use gh_isolation::StrategyKind;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

fn fleet_run(seed: u64, policy: RoutePolicy, faults: Option<FaultConfig>) -> FleetResult {
    let spec = by_name("fannkuch (p)").unwrap();
    let mut pool = Pool::build(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, seed).unwrap();
    let cfg = FleetConfig::fixed(policy, 120.0, seed);
    let mut fleet = Fleet::new(cfg);
    if let Some(fc) = faults {
        fleet = fleet.with_faults(fc);
    }
    fleet.run(&mut pool, 250).unwrap()
}

/// CSV-style scalar rendering, the user-visible half of the oracle
/// (mirrors the bench binaries' columns plus the fault counters).
fn fleet_csv(r: &FleetResult) -> String {
    let f = &r.stats.faults;
    format!(
        "{:?},{},{:?},{:?},{:?},{:?},{},{},{},{},{},{}",
        r.offered_rps,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p99_ms,
        r.utilization,
        f.deaths,
        f.restore_failures,
        f.retries,
        f.duplicates,
        f.abandoned,
        f.node_losses,
    )
}

#[test]
fn disabled_faults_are_invisible_to_the_fleet() {
    for &seed in &[3u64, 77] {
        for &policy in &[RoutePolicy::RoundRobin, RoutePolicy::RestoreAware] {
            let plain = fleet_run(seed, policy, None);
            let inert = fleet_run(seed, policy, Some(FaultConfig::none(seed)));
            assert_eq!(
                format!("{plain:?}"),
                format!("{inert:?}"),
                "seed={seed} policy={policy:?}: inert fault config changed the run"
            );
            assert_eq!(fleet_csv(&plain), fleet_csv(&inert));
            assert!(plain.stats.faults.is_empty());
        }
    }
}

fn cluster_run(
    catalog: &[FunctionSpec],
    tc: &TraceConfig,
    faults: Option<FaultConfig>,
    mode: ExecMode,
) -> ClusterResult {
    let mut ccfg = ClusterConfig::new(3, PlacePolicy::RoundRobin, StrategyKind::Gh, tc.seed);
    ccfg.slots_per_pool = 2;
    if let Some(fc) = faults {
        ccfg = ccfg.with_faults(fc);
    }
    run_cluster_with(tc, catalog, &ccfg, GroundhogConfig::gh(), mode).unwrap()
}

#[test]
fn disabled_faults_are_invisible_to_the_cluster() {
    for &seed in &[11u64, 29] {
        let catalog = synthetic_catalog(12, seed);
        let tc = TraceConfig {
            principals: 6,
            ..TraceConfig::new(12, 300, 2_000.0, seed)
        };
        let plain = cluster_run(&catalog, &tc, None, ExecMode::Serial);
        let inert = cluster_run(
            &catalog,
            &tc,
            Some(FaultConfig::none(seed)),
            ExecMode::Serial,
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{inert:?}"),
            "seed={seed}: inert fault config changed the cluster run"
        );
        assert!(plain.faults.is_empty());
    }
}

#[test]
fn faulty_cluster_parallel_matches_serial_for_both_retry_policies() {
    let seed = 17u64;
    let catalog = synthetic_catalog(12, seed);
    let tc = TraceConfig {
        principals: 6,
        ..TraceConfig::new(12, 400, 2_500.0, seed)
    };
    for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
        let mut fc = FaultConfig::deaths(seed, 0.06);
        fc.restore_failure_rate = 0.05;
        fc.node_loss_rate = 0.25;
        fc.node_loss_window = Nanos::from_millis(15);
        fc.retry = retry;
        let serial = cluster_run(&catalog, &tc, Some(fc), ExecMode::Serial);
        assert!(serial.faults.deaths > 0, "{}", retry.label());
        assert!(serial.faults.node_losses > 0, "{}", retry.label());
        assert_eq!(
            serial.completed + serial.faults.abandoned,
            400,
            "{}: every request completes or is abandoned",
            retry.label()
        );
        for &threads in &[2usize, 4] {
            let par = cluster_run(&catalog, &tc, Some(fc), ExecMode::Parallel { threads });
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "{} threads={threads}: faulty parallel diverged from serial",
                retry.label()
            );
        }
    }
}

#[test]
fn faulty_gateway_accounts_and_redeploys_invalidate_the_cache() {
    use gh_gateway::cache::CacheConfig;
    use gh_gateway::GatewayConfig;

    let seed = 23u64;
    let spec = by_name("fannkuch (p)").unwrap();
    let run = || {
        let mut fc = FaultConfig::deaths(seed, 0.08);
        fc.restore_failure_rate = 0.05;
        let cfg = GatewayFleetConfig {
            idempotent_frac: 0.5,
            payload_universe: 8,
            faults: Some(fc),
            // The schedule helper keys off a trace config describing
            // the same span the Poisson arrivals cover (which start at
            // virtual zero, not the cluster trace's warm origin).
            redeploys: redeploy_schedule(
                &TraceConfig {
                    origin: Nanos::ZERO,
                    ..TraceConfig::new(1, 220, 150.0, seed)
                },
                2,
            ),
            ..GatewayFleetConfig::passthrough(FleetConfig::fixed(
                RoutePolicy::RoundRobin,
                150.0,
                seed,
            ))
        }
        .with_gateway(
            GatewayConfig::builder()
                .cache(CacheConfig::default_for_ttl(Nanos::from_secs(30)))
                .build(),
        );
        run_gateway_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, cfg, 220).unwrap()
    };
    let first = run();
    let f = &first.fleet.stats.faults;
    assert!(f.deaths > 0, "deaths must fire at 8%");
    assert_eq!(
        first.gateway.served + first.gateway.rejected + f.abandoned,
        220,
        "every arrival is served, shed, or abandoned"
    );
    assert!(
        first.gateway.cache_invalidated > 0,
        "redeploys must sweep live cache entries"
    );
    let second = run();
    assert_eq!(
        format!("{:?}", first.fleet),
        format!("{:?}", second.fleet),
        "faulty gateway repeats diverged"
    );
    assert_eq!(first.gateway, second.gateway);
}

#[test]
fn faulty_fleet_repeats_are_bit_identical() {
    for retry in [RetryPolicy::bounded(), RetryPolicy::rerouting()] {
        let mut fc = FaultConfig::deaths(42, 0.08);
        fc.restore_failure_rate = 0.05;
        fc.retry = retry;
        let first = fleet_run(42, RoutePolicy::RestoreAware, Some(fc));
        let second = fleet_run(42, RoutePolicy::RestoreAware, Some(fc));
        assert!(first.stats.faults.deaths > 0, "{}", retry.label());
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{}: repeat faulty runs diverged",
            retry.label()
        );
        assert_eq!(fleet_csv(&first), fleet_csv(&second));
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Cross-commit pins: the FNV-1a of the `{:?}` rendering of a faulty
/// fleet run (rerouting retries, restore failures) and a faulty gateway
/// run (cache, admission ceiling, redeploys, deaths). The repeat and
/// passthrough oracles compare two runs of the *same* code; these
/// constants were recorded before the three fault-aware dispatch loops
/// were folded into one, so they catch any refactor that changes a
/// single output byte.
#[test]
fn faulty_results_match_pinned_digests() {
    use gh_gateway::admission::AdmissionConfig;
    use gh_gateway::cache::CacheConfig;
    use gh_gateway::GatewayConfig;

    let mut fc = FaultConfig::deaths(42, 0.08);
    fc.restore_failure_rate = 0.05;
    fc.retry = RetryPolicy::rerouting();
    let fleet = fleet_run(42, RoutePolicy::LeastLoaded, Some(fc));

    let seed = 23u64;
    let spec = by_name("fannkuch (p)").unwrap();
    let mut fc = FaultConfig::deaths(seed, 0.08);
    fc.restore_failure_rate = 0.03;
    let cfg = GatewayFleetConfig {
        idempotent_frac: 0.5,
        payload_universe: 8,
        faults: Some(fc),
        redeploys: redeploy_schedule(
            &TraceConfig {
                origin: Nanos::ZERO,
                ..TraceConfig::new(1, 220, 150.0, seed)
            },
            2,
        ),
        ..GatewayFleetConfig::passthrough(FleetConfig::fixed(
            RoutePolicy::RestoreAware,
            150.0,
            seed,
        ))
    }
    .with_gateway(
        GatewayConfig::builder()
            .cache(CacheConfig::default_for_ttl(Nanos::from_secs(30)))
            .admission(AdmissionConfig {
                rate_per_sec: 1_000.0,
                burst: 100,
                max_in_flight: Some(4),
            })
            .build(),
    );
    let gateway =
        run_gateway_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 3, cfg, 220).unwrap();

    let (ff, gf) = (&fleet.stats.faults, &gateway.fleet.stats.faults);
    assert!(ff.deaths > 0 && ff.restore_failures > 0 && ff.retries > 0);
    assert!(gf.deaths > 0 && gf.retries > 0);
    assert!(gateway.gateway.deferred > 0, "the ceiling must defer");
    assert!(gateway.gateway.cache_hits > 0 && gateway.gateway.cache_invalidated > 0);
    let got = [fnv1a(&format!("{fleet:?}")), fnv1a(&format!("{gateway:?}"))];
    let pinned: [u64; 2] = [0x6830_c6d2_771f_6e3c, 0x655e_598c_ba81_d09d];
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        pinned.map(|h| format!("{h:#018x}")),
        "[faulty fleet, faulty gateway]"
    );
}
