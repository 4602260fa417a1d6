//! The benchmark's own oracles: serial == parallel on a short prefix of
//! each cluster workload, repeat identity of the simulated digest on a
//! default and a held-out seed, DAG crash equivalence, and (ignored by
//! default, it takes minutes) steady-state sizing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! add `-- --ignored` for the sizing check.

use gh_faas::fleet::ExecMode;
use perfbench::{dag_latency_probes, dag_reference, outcome, Rig, Workload};

/// The seed the benchmark's examples use.
const DEFAULT_SEED: u64 = 1;
/// A seed never used while the workloads were tuned.
const HELD_OUT_SEED: u64 = 0x5EED_2026;
/// Requests in a short prefix.
const PREFIX: u64 = 3_000;

const CLUSTER: [Workload; 3] = [
    Workload::ClusterSteady,
    Workload::ClusterCached,
    Workload::ClusterFaulty,
];

fn digest(w: Workload, seed: u64, requests: u64, mode: ExecMode) -> u64 {
    let rig = Rig::new(w, seed, requests);
    let out = outcome(&rig.run(mode), None, None);
    assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
    out.digest
}

#[test]
fn serial_equals_parallel_on_a_prefix() {
    for w in CLUSTER {
        let serial = digest(w, DEFAULT_SEED, PREFIX, ExecMode::Serial);
        let par = digest(w, DEFAULT_SEED, PREFIX, ExecMode::Parallel { threads: 2 });
        assert_eq!(
            serial,
            par,
            "{}: node parallelism must be invisible",
            w.name()
        );
    }
}

#[test]
fn digest_repeats_on_default_and_held_out_seeds() {
    for w in Workload::ALL {
        let a = digest(w, DEFAULT_SEED, PREFIX, ExecMode::Serial);
        let b = digest(w, HELD_OUT_SEED, PREFIX, ExecMode::Serial);
        assert_ne!(
            a,
            b,
            "{}: the seed must reach the simulated result",
            w.name()
        );
        assert_eq!(
            a,
            digest(w, DEFAULT_SEED, PREFIX, ExecMode::Serial),
            "{}",
            w.name()
        );
        assert_eq!(
            b,
            digest(w, HELD_OUT_SEED, PREFIX, ExecMode::Serial),
            "{}",
            w.name()
        );
    }
}

#[test]
fn faulty_dag_converges_to_the_crash_free_state() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let rig = Rig::new(Workload::DagMigrate, seed, PREFIX);
        let Rig::Dag { catalog, cfg } = &rig else {
            unreachable!("dag-migrate builds a DAG rig")
        };
        let clean = dag_reference(catalog, cfg).kv_fingerprint;
        let probes = dag_latency_probes(catalog, cfg, 500);
        let out = outcome(&rig.run(ExecMode::Serial), Some(clean), Some(&probes));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.completed, out.offered, "retries absorb every fault");
        assert!(out.p99_ms >= out.p50_ms && out.p50_ms > 0.0);
    }
}

/// `sim_p99_ms` at the benchmark's size N and at 2N agree within a tenth,
/// on the default and the held-out seed.
#[test]
#[ignore = "minutes of simulation; run with --ignored in release mode"]
fn p99_does_not_depend_on_run_length() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let n = w.default_requests();
            let p99 = |requests: u64| {
                let rig = Rig::new(w, seed, requests);
                let probes = match &rig {
                    Rig::Dag { catalog, cfg } => Some(dag_latency_probes(
                        catalog,
                        cfg,
                        perfbench::DAG_LATENCY_PROBES,
                    )),
                    Rig::Cluster { .. } => None,
                };
                outcome(
                    &rig.run(ExecMode::Parallel { threads: 2 }),
                    None,
                    probes.as_ref(),
                )
                .p99_ms
            };
            let (a, b) = (p99(n), p99(2 * n));
            println!(
                "{} seed {seed}: p99 {a:.1} ms at {n}, {b:.1} ms at {}",
                w.name(),
                2 * n
            );
            assert!(
                (b - a).abs() <= 0.1 * a,
                "{} seed {seed}: p99 {a:.1} ms at {n} vs {b:.1} ms at {}",
                w.name(),
                2 * n
            );
        }
    }
}
