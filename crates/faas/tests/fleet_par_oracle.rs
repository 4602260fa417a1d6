//! Differential oracle: host-parallel fleet execution must be
//! bit-identical to the serial reference.
//!
//! Serial mode is the ground truth; every parallel run — across seeds,
//! routing policies, pool sizes and thread counts — must reproduce the
//! exact same [`FleetResult`]: every counter, every per-container stat,
//! every percentile, and the CSV-style rendering byte for byte. Float
//! fields are compared through `{:?}` (shortest round-trip form), which
//! distinguishes any two different bit patterns.

use gh_faas::fleet::{run_fleet_with, ExecMode, FleetConfig, FleetResult, RoutePolicy};
use gh_functions::catalog::by_name;
use gh_isolation::StrategyKind;
use groundhog_core::GroundhogConfig;

fn run(pool_size: usize, cfg: &FleetConfig, requests: usize, mode: ExecMode) -> FleetResult {
    let spec = by_name("fannkuch (p)").unwrap();
    run_fleet_with(
        &spec,
        StrategyKind::Gh,
        GroundhogConfig::gh(),
        pool_size,
        cfg.clone(),
        requests,
        mode,
    )
    .unwrap()
}

/// A CSV-style line covering every scalar field of the result, the way
/// the bench binaries render them. Byte equality here is the
/// user-visible half of the oracle.
fn csv_line(r: &FleetResult) -> String {
    let s = &r.stats;
    format!(
        "{:?},{},{:?},{:?},{:?},{:?},{},{},{},{},{:?},{:?},{:?},{:?},{:?},{},{},{:?},{:?},{},{}",
        r.offered_rps,
        r.completed,
        r.goodput_rps,
        r.mean_ms,
        r.p99_ms,
        r.utilization,
        s.pool_size,
        s.active,
        s.spawned,
        s.retired,
        s.queue_mean,
        s.queue_p50,
        s.queue_p95,
        s.queue_p99,
        s.restore_total_ms,
        s.lazy_faults,
        s.lazy_drained_pages,
        s.restore_overlap_ratio,
        s.snapshot_dedup_ratio,
        s.snapshot_resident_bytes,
        s.snapshot_bytes_per_container,
    )
}

/// Full structural fingerprint: `{:?}` covers every field including the
/// per-container loads, and round-trips f64 exactly.
fn fingerprint(r: &FleetResult) -> String {
    format!("{r:?}")
}

fn assert_identical(label: &str, serial: &FleetResult, parallel: &FleetResult) {
    assert_eq!(
        fingerprint(serial),
        fingerprint(parallel),
        "{label}: parallel result diverged from the serial reference"
    );
    assert_eq!(
        csv_line(serial),
        csv_line(parallel),
        "{label}: CSV rendering diverged"
    );
}

#[test]
fn parallel_matches_serial_across_seeds_and_pools() {
    for &seed in &[7u64, 99] {
        for &pool in &[2usize, 5] {
            let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 250.0, seed);
            let requests = 300;
            let serial = run(pool, &cfg, requests, ExecMode::Serial);
            assert_eq!(serial.completed, requests, "oracle baseline must serve all");
            for &threads in &[2usize, 8] {
                let par = run(pool, &cfg, requests, ExecMode::Parallel { threads });
                assert_identical(
                    &format!("seed={seed} pool={pool} threads={threads}"),
                    &serial,
                    &par,
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_with_principals() {
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 300.0, 1234).with_principals(4);
    let serial = run(4, &cfg, 400, ExecMode::Serial);
    let par = run(4, &cfg, 400, ExecMode::Parallel { threads: 4 });
    assert_identical("principals=4", &serial, &par);
}

#[test]
fn ineligible_policies_fall_back_to_serial() {
    // Non-round-robin routing depends on live container state, so the
    // parallel request must quietly take the serial path — and match.
    for policy in [RoutePolicy::LeastLoaded, RoutePolicy::RestoreAware] {
        let cfg = FleetConfig::fixed(policy, 250.0, 42);
        let serial = run(3, &cfg, 200, ExecMode::Serial);
        let par = run(3, &cfg, 200, ExecMode::Parallel { threads: 8 });
        assert_identical(policy.label(), &serial, &par);
    }
}

#[test]
fn single_container_pool_matches() {
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 200.0, 5);
    let serial = run(1, &cfg, 150, ExecMode::Serial);
    let par = run(1, &cfg, 150, ExecMode::Parallel { threads: 8 });
    assert_identical("pool=1", &serial, &par);
}

#[test]
fn empty_run_is_mode_independent() {
    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 200.0, 5);
    let serial = run(3, &cfg, 0, ExecMode::Serial);
    let par = run(3, &cfg, 0, ExecMode::Parallel { threads: 4 });
    assert_eq!(serial.completed, 0);
    assert!(serial.mean_ms == 0.0 || serial.mean_ms.is_nan() == par.mean_ms.is_nan());
    assert_identical("requests=0", &serial, &par);
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Cross-commit pins: the FNV-1a of the `{:?}` rendering of the
/// fault-free fleet and gateway paths — a serial fleet under every
/// routing policy, an autoscaled fleet that grows and retires, a sharded
/// round-robin fleet, and a gateway run with every policy and workload
/// knob on. The serial == parallel and passthrough oracles compare two
/// runs of the *same* code; these constants were recorded before the
/// fleet, gateway and cluster loops were folded into one node loop, so
/// they catch any refactor that changes a single output byte.
#[test]
fn results_match_pinned_digests() {
    use gh_faas::fleet::AutoscaleConfig;
    use gh_faas::gateway::{run_gateway_fleet, GatewayFleetConfig};
    use gh_gateway::admission::AdmissionConfig;
    use gh_gateway::cache::CacheConfig;
    use gh_gateway::prewarm::PrewarmConfig;
    use gh_gateway::GatewayConfig;
    use gh_sim::Nanos;

    let mut got = Vec::new();
    for policy in RoutePolicy::ALL {
        let cfg = FleetConfig::fixed(policy, 260.0, 31).with_principals(4);
        let r = run(3, &cfg, 240, ExecMode::Serial);
        assert_eq!(r.completed, 240);
        got.push(fnv1a(&format!("{r:?}")));
    }

    let cfg = FleetConfig {
        autoscale: Some(AutoscaleConfig {
            min_size: 1,
            max_size: 4,
            scale_up_depth: 1.0,
            idle_retire: Nanos::from_millis(150),
            cooldown: Nanos::from_millis(50),
        }),
        ..FleetConfig::fixed(RoutePolicy::RestoreAware, 160.0, 37).with_principals(4)
    };
    let scaled = run(2, &cfg, 400, ExecMode::Serial);
    assert!(scaled.stats.spawned > 0, "the autoscaler must grow");
    assert!(scaled.stats.retired > 0, "the autoscaler must retire");
    got.push(fnv1a(&format!("{scaled:?}")));

    let cfg = FleetConfig::fixed(RoutePolicy::RoundRobin, 300.0, 41).with_principals(4);
    let sharded = run(3, &cfg, 300, ExecMode::Parallel { threads: 2 });
    assert_eq!(sharded.completed, 300);
    got.push(fnv1a(&format!("{sharded:?}")));

    let spec = by_name("fannkuch (p)").unwrap();
    let gateway = GatewayConfig::builder()
        .cache(CacheConfig::default_for_ttl(Nanos::from_secs(20)))
        .admission(AdmissionConfig {
            rate_per_sec: 1_000.0,
            burst: 100,
            max_in_flight: Some(3),
        })
        .prewarm(PrewarmConfig::flat(Nanos::from_millis(500), 5))
        .build();
    let cfg = GatewayFleetConfig {
        idempotent_frac: 0.4,
        payload_universe: 16,
        hot_principal_frac: 0.3,
        diurnal_amplitude: 0.5,
        diurnal_period: Nanos::from_secs(2),
        ..GatewayFleetConfig::passthrough(
            FleetConfig::fixed(RoutePolicy::LeastLoaded, 240.0, 43).with_principals(4),
        )
    }
    .with_gateway(gateway);
    let gw =
        run_gateway_fleet(&spec, StrategyKind::Gh, GroundhogConfig::gh(), 2, cfg, 360).unwrap();
    assert!(gw.gateway.cache_hits > 0, "the cache must hit");
    assert!(gw.gateway.deferred > 0, "the ceiling must defer");
    assert!(gw.gateway.prewarm_spawns > 0, "the pre-warmer must grow");
    got.push(fnv1a(&format!("{gw:?}")));

    let pinned: [u64; 6] = [
        0x7583_1879_9a76_0bfe,
        0xf680_cadc_57a7_11e4,
        0x69f0_5b2e_9af0_e244,
        0xf40d_b70e_5799_2a33,
        0x6b22_1d5a_3ff3_14e2,
        0x942f_60f0_5b8f_6e8b,
    ];
    assert_eq!(
        got.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>(),
        pinned.map(|h| format!("{h:#018x}")),
        "[round-robin, least-loaded, restore-aware, autoscaled, sharded, gateway]"
    );
}
