//! Dynamic workflow DAGs with crash-exact recovery.
//!
//! Real FaaS compositions branch. A [`DagSpec`] is a static chain of
//! tasks ([`DagSpec::chain`]) plus the three shapes that stress
//! recovery (AFT's generalization from chains to arbitrary DAGs,
//! PAPERS.md):
//!
//! - **fan-out** ([`DagOp::FanOut`]): one hop's output spawns `width`
//!   parallel branch hops, each committing under its own hop path;
//! - **fan-in** ([`DagOp::Join`]): a join hop reads every branch's
//!   *durable* commit back from the KV and folds them with the
//!   deterministic [`join_merge`] — recovery re-derives the join from
//!   committed branch state, so a death *between the last branch
//!   commit and the join commit* retries into exactly the crash-free
//!   value;
//! - **conditional edges** ([`DagOp::Cond`]): the hop's function is
//!   chosen by a pure predicate (parity) of the upstream output, so
//!   replays take the identical edge.
//!
//! Every hop commits exactly once to the shared [`VersionedKv`] under
//! the idempotent `(workflow, hop_path)` key ([`hop_path`] packs
//! `(dag node, branch)` into the path), and reads shared aggregate
//! state through the workflow's pinned snapshot. Hop values are pure
//! functions of `(workflow, hop_path, upstream value, pinned reads)`,
//! which is the whole crash-equivalence argument: any crash/retry
//! interleaving with zero abandonment converges to the crash-free
//! final KV state, per-workflow outputs, version count, *and* commit
//! order ([`DagResult::replay_hash`]) — pinned by
//! `tests/dag_oracle.rs` and the hand-rolled property tests in
//! `tests/dag_prop.rs`.

use gh_functions::FunctionSpec;
use gh_isolation::StrategyError;
use gh_mem::RequestId;
use gh_sim::DetRng;
use groundhog_core::GroundhogConfig;

use crate::container::Container;
use crate::fault::{FaultPlan, FaultStats};
use crate::request::Request;

use super::{mix, VersionedKv, WorkflowConfig, AGG_KEY};

/// One DAG node's operation. `func` indices point into the catalog
/// slice passed to [`run_dag_workflows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagOp {
    /// One hop of `func`.
    Task {
        /// Catalog index of the hop's function.
        func: usize,
    },
    /// `width` parallel branch hops of `func`, all fed the upstream
    /// value; each branch commits under its own hop path. Consumable
    /// only by a [`DagOp::Join`].
    FanOut {
        /// Catalog index of the branch hops' function.
        func: usize,
        /// Parallel branches spawned (≥ 2).
        width: u32,
    },
    /// Fan-in: reads every branch commit of its (fan-out) input node
    /// from the KV, folds them with [`join_merge`], and runs one hop of
    /// `func` on the merged value.
    Join {
        /// Catalog index of the join hop's function.
        func: usize,
    },
    /// Conditional edge: runs `then_func` when the upstream value is
    /// even, `else_func` when odd — a pure function of hop output, so
    /// retries and replays take the same edge.
    Cond {
        /// Taken on even upstream values.
        then_func: usize,
        /// Taken on odd upstream values.
        else_func: usize,
    },
}

/// One node of a [`DagSpec`]: an operation plus the index of the node
/// feeding it. Edges always point forward (`input <` own index), so
/// index order is a topological order; node 0 reads the workflow input
/// and its `input` field is ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagNode {
    /// The node's operation.
    pub op: DagOp,
    /// Index of the upstream node whose output feeds this one.
    pub input: usize,
}

/// A dynamic workflow DAG. The last node is the sink: its commit lands
/// on the shared [`AGG_KEY`] and its value is the workflow's output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagSpec {
    /// Nodes in topological (index) order.
    pub nodes: Vec<DagNode>,
}

impl DagSpec {
    /// A linear chain of `Task` nodes over `funcs` — the degenerate
    /// DAG, and how a static workflow chain is expressed.
    pub fn chain(funcs: &[usize]) -> DagSpec {
        DagSpec {
            nodes: funcs
                .iter()
                .enumerate()
                .map(|(i, &func)| DagNode {
                    op: DagOp::Task { func },
                    input: i.saturating_sub(1),
                })
                .collect(),
        }
    }

    /// Panics unless the spec is well-formed: edges point forward,
    /// joins consume fan-outs, fan-outs are consumed *only* by joins
    /// (and by at least one), the sink has a scalar output, and every
    /// `func` index is inside a `funcs`-entry catalog.
    pub fn validate(&self, funcs: usize) {
        assert!(!self.nodes.is_empty(), "a DAG needs at least one node");
        let check = |f: usize| assert!(f < funcs, "func index {f} outside catalog of {funcs}");
        let mut consumed = vec![false; self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            assert!(
                n == 0 || node.input < n,
                "node {n}: edges must point forward (input {})",
                node.input
            );
            let input_is_fanout =
                n > 0 && matches!(self.nodes[node.input].op, DagOp::FanOut { .. });
            if n > 0 {
                consumed[node.input] = true;
            }
            match node.op {
                DagOp::Task { func } => {
                    check(func);
                    assert!(
                        !input_is_fanout,
                        "node {n}: only a Join may consume a FanOut"
                    );
                }
                DagOp::FanOut { func, width } => {
                    check(func);
                    assert!(width >= 2, "node {n}: fan-out width must be ≥ 2");
                    assert!(
                        !input_is_fanout,
                        "node {n}: only a Join may consume a FanOut"
                    );
                    assert!(
                        n + 1 < self.nodes.len(),
                        "node {n}: the sink must have a scalar output, not a fan-out"
                    );
                }
                DagOp::Join { func } => {
                    check(func);
                    assert!(
                        n > 0 && input_is_fanout,
                        "node {n}: a Join must consume a FanOut"
                    );
                }
                DagOp::Cond {
                    then_func,
                    else_func,
                } => {
                    check(then_func);
                    check(else_func);
                    assert!(
                        !input_is_fanout,
                        "node {n}: only a Join may consume a FanOut"
                    );
                }
            }
        }
        for (n, node) in self.nodes.iter().enumerate() {
            if matches!(node.op, DagOp::FanOut { .. }) {
                assert!(consumed[n], "node {n}: a FanOut needs a Join consumer");
            }
        }
    }

    /// Parallel branch hops of node `n` (1 for everything but fan-out).
    pub fn width_of(&self, n: usize) -> u32 {
        match self.nodes[n].op {
            DagOp::FanOut { width, .. } => width,
            _ => 1,
        }
    }

    /// The catalog function node `n` runs given its upstream value —
    /// the conditional-edge resolution point (pure in `upstream`).
    pub fn hop_func(&self, n: usize, upstream: u64) -> usize {
        match self.nodes[n].op {
            DagOp::Task { func } | DagOp::FanOut { func, .. } | DagOp::Join { func } => func,
            DagOp::Cond {
                then_func,
                else_func,
            } => {
                if upstream.is_multiple_of(2) {
                    then_func
                } else {
                    else_func
                }
            }
        }
    }

    /// Total hops one workflow instance executes (fan-outs count
    /// `width`) — the crash-free commit count per workflow.
    pub fn hops(&self) -> u64 {
        (0..self.nodes.len()).map(|n| self.width_of(n) as u64).sum()
    }
}

/// Packs `(dag node, branch)` into the idempotence key's hop path:
/// node index in the high 32 bits, branch in the low. Chains keep
/// using the bare hop index (their node ids stay below 2³²·1), so the
/// two runners share one [`VersionedKv::commit`] keyspace shape.
pub fn hop_path(node: usize, branch: u32) -> u64 {
    ((node as u64) << 32) | branch as u64
}

/// A hop's committed value: a pure function of
/// `(workflow, hop path, upstream value, pinned aggregate read)` —
/// retries and cross-node re-executions re-derive it bit for bit.
pub(crate) fn hop_value(w: u64, path: u64, input: u64, agg_seen: u64) -> u64 {
    mix(input ^ mix((w << 8) ^ mix(path)) ^ agg_seen)
}

/// Per-`(workflow, hop path)` scratch key for non-sink commits (odd,
/// so it never collides with [`AGG_KEY`]).
pub(crate) fn dag_key(w: u64, path: u64) -> u64 {
    mix(0x00DA_6000 ^ (w << 1) ^ mix(path)) | 1
}

/// Deterministic fan-in merge: folds branch outputs in branch order.
/// Recovery re-reads the identical committed branch values, so the
/// merge is replay-stable.
pub fn join_merge(branch_outputs: &[u64]) -> u64 {
    let mut acc = 0x10_1AA7u64;
    for (b, &v) in branch_outputs.iter().enumerate() {
        acc = mix(acc ^ v ^ (b as u64 + 1));
    }
    acc
}

/// Folds one applied commit into the replay-order hash.
pub(crate) fn fold_replay(h: u64, w: u64, path: u64, value: u64) -> u64 {
    mix(h ^ mix(w) ^ mix(path)).wrapping_add(mix(value))
}

/// What a DAG run produced. Field-for-field comparable across faulty
/// and crash-free runs (the crash-equivalence oracle's contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagResult {
    /// Workflow instances started.
    pub workflows: u64,
    /// Instances that ran every hop to completion.
    pub completed: u64,
    /// Sink output per workflow (`None` for abandoned instances).
    pub outputs: Vec<Option<u64>>,
    /// Fingerprint of the final KV state ([`VersionedKv::fingerprint`]).
    pub kv_fingerprint: u64,
    /// Total KV versions applied — equality with the crash-free run is
    /// the zero-double-applied-joins assert.
    pub kv_versions: u64,
    /// Re-commits absorbed by idempotence.
    pub duplicates_suppressed: u64,
    /// Hops whose response carried request-tainted pages onward (zero
    /// under `Gh`).
    pub tainted_handoffs: u64,
    /// Container invocations run, retries included — the denominator
    /// of goodput-per-hop under faults.
    pub hops_executed: u64,
    /// Order-sensitive hash over applied commits: a pure function of
    /// `(seed, spec)`, unchanged by crash/retry interleavings with zero
    /// abandonment (topological replay order is deterministic).
    pub replay_hash: u64,
    /// Fault accounting for the run.
    pub faults: FaultStats,
}

/// Shared mutable state of one DAG run, threaded through every hop.
struct RunState {
    kv: VersionedKv,
    faults: FaultStats,
    plan: Option<FaultPlan>,
    invoke_seq: u64,
    replay_hash: u64,
    hops_executed: u64,
    tainted_handoffs: u64,
}

impl RunState {
    /// Runs one hop to commit or abandonment: invoke, seeded
    /// crash/retry loop, idempotent commit. Returns whether the hop
    /// (and so the workflow) survived.
    #[allow(clippy::too_many_arguments)]
    fn exec_hop(
        &mut self,
        c: &mut Container,
        spec: &FunctionSpec,
        w: u64,
        path: u64,
        key: u64,
        value: u64,
        sink: bool,
    ) -> Result<bool, StrategyError> {
        // Fault draws key on a *stable* per-(workflow, path) id so the
        // schedule does not depend on how many attempts ran before.
        let fault_id = mix(w ^ 0xDA6F_A017) ^ mix(path);
        let mut attempt = 1u32;
        loop {
            let rid = self.invoke_seq;
            self.invoke_seq += 1;
            self.hops_executed += 1;
            let principal = format!("wf-{w}");
            let req = Request::new(rid, &principal, spec.input_kb);
            c.invoke(&req)?;
            let tainted = {
                let proc = c.kernel.process(c.fproc.pid).expect("function process");
                !proc
                    .mem
                    .tainted_pages(RequestId(rid), c.kernel.frames())
                    .is_empty()
            };
            if let Some(pl) = self.plan {
                if pl.death(fault_id, attempt).is_some() {
                    self.faults.deaths += 1;
                    if pl.death_after_commit(fault_id, attempt) {
                        // Commit raced ahead of the crash: state
                        // applied, response lost. The retry re-derives
                        // `value` and its re-commit is absorbed.
                        self.faults.duplicates += 1;
                        self.commit(w, path, key, value);
                    }
                    if attempt < pl.max_attempts() {
                        self.faults.retries += 1;
                        attempt += 1;
                        continue;
                    }
                    self.faults.abandoned += 1;
                    return Ok(false);
                }
            }
            if tainted && !sink {
                self.tainted_handoffs += 1;
            }
            self.commit(w, path, key, value);
            return Ok(true);
        }
    }

    /// Idempotent commit + replay-order fold (only applied commits
    /// advance the replay hash, so retries never perturb it).
    fn commit(&mut self, w: u64, path: u64, key: u64, value: u64) {
        if self.kv.commit(w, path, key, value) {
            self.replay_hash = fold_replay(self.replay_hash, w, path, value);
        }
    }
}

/// Runs `cfg.workflows` instances of `spec` over real containers (one
/// warm container per catalog entry in `funcs`), committing hop-by-hop
/// to a shared [`VersionedKv`]. Fan-out branches execute as separate
/// hops under distinct hop paths; joins re-read the durable branch
/// commits. See the module docs for the recovery contract.
pub fn run_dag_workflows(
    spec: &DagSpec,
    funcs: &[FunctionSpec],
    gh: GroundhogConfig,
    cfg: &WorkflowConfig,
) -> Result<DagResult, StrategyError> {
    spec.validate(funcs.len());
    let mut containers: Vec<Container> = Vec::with_capacity(funcs.len());
    for (f, fspec) in funcs.iter().enumerate() {
        containers.push(Container::cold_start(
            fspec,
            cfg.kind,
            gh.clone(),
            mix(cfg.seed ^ 0x3077_F10E ^ f as u64),
        )?);
    }
    let mut st = RunState {
        kv: VersionedKv::new(),
        faults: FaultStats::default(),
        plan: cfg.faults.filter(|c| c.is_active()).map(FaultPlan::new),
        invoke_seq: 1,
        replay_hash: 0,
        hops_executed: 0,
        tainted_handoffs: 0,
    };
    let mut outputs: Vec<Option<u64>> = Vec::with_capacity(cfg.workflows as usize);
    let mut completed = 0u64;
    for w in 0..cfg.workflows {
        let pinned = st.kv.snapshot();
        let input0 = mix(cfg.seed ^ 0x00DA_607A ^ w);
        let mut out = vec![0u64; spec.nodes.len()];
        let mut alive = true;
        for (n, node) in spec.nodes.iter().enumerate() {
            let upstream = if n == 0 { input0 } else { out[node.input] };
            let sink = n + 1 == spec.nodes.len();
            match node.op {
                DagOp::FanOut { .. } => {
                    for b in 0..spec.width_of(n) {
                        let path = hop_path(n, b);
                        let func = spec.hop_func(n, upstream);
                        let agg_seen = st.kv.read_at(AGG_KEY, pinned).unwrap_or(0);
                        let value = hop_value(w, path, upstream, agg_seen);
                        alive = st.exec_hop(
                            &mut containers[func],
                            &funcs[func],
                            w,
                            path,
                            dag_key(w, path),
                            value,
                            false,
                        )?;
                        if !alive {
                            break;
                        }
                    }
                    // Consumers are joins; they read the branches back
                    // from the KV, not from this placeholder.
                    out[n] = upstream;
                }
                DagOp::Join { .. } => {
                    let src = node.input;
                    let branches: Vec<u64> = (0..spec.width_of(src))
                        .map(|b| {
                            st.kv
                                .latest(dag_key(w, hop_path(src, b)))
                                .expect("branch commits are durable before the join runs")
                        })
                        .collect();
                    let merged = join_merge(&branches);
                    match run_scalar_hop(
                        &mut st,
                        spec,
                        funcs,
                        &mut containers,
                        w,
                        n,
                        merged,
                        sink,
                        pinned,
                    )? {
                        Some(v) => out[n] = v,
                        None => alive = false,
                    }
                }
                DagOp::Task { .. } | DagOp::Cond { .. } => {
                    match run_scalar_hop(
                        &mut st,
                        spec,
                        funcs,
                        &mut containers,
                        w,
                        n,
                        upstream,
                        sink,
                        pinned,
                    )? {
                        Some(v) => out[n] = v,
                        None => alive = false,
                    }
                }
            }
            if !alive {
                break;
            }
        }
        if alive {
            completed += 1;
            outputs.push(Some(out[spec.nodes.len() - 1]));
        } else {
            outputs.push(None);
        }
    }
    // A dead workflow abandons exactly once: its later hops never run.
    assert_eq!(
        completed + st.faults.abandoned,
        cfg.workflows,
        "every workflow completes or is abandoned"
    );
    Ok(DagResult {
        workflows: cfg.workflows,
        completed,
        outputs,
        kv_fingerprint: st.kv.fingerprint(),
        kv_versions: st.kv.total_versions(),
        duplicates_suppressed: st.kv.duplicates_suppressed,
        tainted_handoffs: st.tainted_handoffs,
        hops_executed: st.hops_executed,
        replay_hash: st.replay_hash,
        faults: st.faults,
    })
}

/// Executes one scalar hop (task / cond / join-merge hop) of node `n`.
/// Returns the committed value, or `None` when the hop exhausted its
/// attempts and the workflow is abandoned.
#[allow(clippy::too_many_arguments)]
fn run_scalar_hop(
    st: &mut RunState,
    spec: &DagSpec,
    funcs: &[FunctionSpec],
    containers: &mut [Container],
    w: u64,
    n: usize,
    input: u64,
    sink: bool,
    pinned: u64,
) -> Result<Option<u64>, StrategyError> {
    let path = hop_path(n, 0);
    let func = spec.hop_func(n, input);
    let agg_seen = st.kv.read_at(AGG_KEY, pinned).unwrap_or(0);
    let value = hop_value(w, path, input, agg_seen);
    let key = if sink { AGG_KEY } else { dag_key(w, path) };
    let alive = st.exec_hop(
        &mut containers[func],
        &funcs[func],
        w,
        path,
        key,
        value,
        sink,
    )?;
    Ok(alive.then_some(value))
}

/// Draws a random well-formed DAG over a `funcs`-entry catalog: a
/// source task, 1–4 segments (task, fan-out/join pair of width
/// `2..=max_width`, or conditional), each fed by a random earlier
/// scalar-output node (so shapes genuinely branch and re-join), and a
/// task sink. A pure function of `(seed, funcs, max_width)` — the
/// property tests replay it — and always [`DagSpec::validate`]-clean.
pub fn random_dag_spec(seed: u64, funcs: usize, max_width: u32) -> DagSpec {
    assert!(funcs > 0, "need at least one catalog function");
    let max_width = max_width.max(2);
    let mut rng = DetRng::new(seed ^ 0x00DA_65ED);
    let pick = move |rng: &mut DetRng| rng.next_below(funcs as u64) as usize;
    let mut nodes = vec![DagNode {
        op: DagOp::Task {
            func: pick(&mut rng),
        },
        input: 0,
    }];
    // Nodes whose output is a scalar (anything but a fan-out).
    let mut scalars: Vec<usize> = vec![0];
    for _ in 0..1 + rng.next_below(4) {
        let input = scalars[rng.next_below(scalars.len() as u64) as usize];
        match rng.next_below(3) {
            0 => {
                nodes.push(DagNode {
                    op: DagOp::Task {
                        func: pick(&mut rng),
                    },
                    input,
                });
                scalars.push(nodes.len() - 1);
            }
            1 => {
                let width = 2 + rng.next_below(max_width as u64 - 1) as u32;
                nodes.push(DagNode {
                    op: DagOp::FanOut {
                        func: pick(&mut rng),
                        width,
                    },
                    input,
                });
                let fan_out = nodes.len() - 1;
                nodes.push(DagNode {
                    op: DagOp::Join {
                        func: pick(&mut rng),
                    },
                    input: fan_out,
                });
                scalars.push(nodes.len() - 1);
            }
            _ => {
                nodes.push(DagNode {
                    op: DagOp::Cond {
                        then_func: pick(&mut rng),
                        else_func: pick(&mut rng),
                    },
                    input,
                });
                scalars.push(nodes.len() - 1);
            }
        }
    }
    let input = *scalars.last().expect("source is always a scalar");
    nodes.push(DagNode {
        op: DagOp::Task {
            func: pick(&mut rng),
        },
        input,
    });
    DagSpec { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, RetryPolicy};
    use gh_functions::catalog::by_name;
    use gh_isolation::StrategyKind;

    fn funcs() -> Vec<FunctionSpec> {
        ["get-time (n)", "float (p)"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect()
    }

    /// Task → FanOut(3) → Join → Cond → Task sink over 2 functions.
    fn diamond() -> DagSpec {
        DagSpec {
            nodes: vec![
                DagNode {
                    op: DagOp::Task { func: 0 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::FanOut { func: 1, width: 3 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::Join { func: 0 },
                    input: 1,
                },
                DagNode {
                    op: DagOp::Cond {
                        then_func: 0,
                        else_func: 1,
                    },
                    input: 2,
                },
                DagNode {
                    op: DagOp::Task { func: 1 },
                    input: 3,
                },
            ],
        }
    }

    #[test]
    fn hop_path_packs_node_and_branch() {
        assert_eq!(hop_path(0, 0), 0);
        assert_eq!(hop_path(1, 0), 1 << 32);
        assert_eq!(hop_path(1, 2), (1 << 32) | 2);
        // Distinct from every chain hop index (those stay below 2³²).
        assert!(hop_path(1, 0) > u32::MAX as u64);
    }

    #[test]
    #[should_panic(expected = "a Join must consume a FanOut")]
    fn join_without_a_fanout_is_rejected() {
        DagSpec {
            nodes: vec![
                DagNode {
                    op: DagOp::Task { func: 0 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::Join { func: 0 },
                    input: 0,
                },
            ],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "only a Join may consume a FanOut")]
    fn task_consuming_a_fanout_is_rejected() {
        DagSpec {
            nodes: vec![
                DagNode {
                    op: DagOp::Task { func: 0 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::FanOut { func: 0, width: 2 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::Task { func: 0 },
                    input: 1,
                },
            ],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "a FanOut needs a Join consumer")]
    fn unconsumed_fanout_is_rejected() {
        DagSpec {
            nodes: vec![
                DagNode {
                    op: DagOp::Task { func: 0 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::FanOut { func: 0, width: 2 },
                    input: 0,
                },
                DagNode {
                    op: DagOp::Task { func: 0 },
                    input: 0,
                },
            ],
        }
        .validate(2);
    }

    #[test]
    fn fan_out_join_completes_and_commits_once_per_hop() {
        let spec = diamond();
        spec.validate(2);
        assert_eq!(spec.hops(), 7, "1 + 3 branches + join + cond + sink");
        let cfg = WorkflowConfig::new(10, StrategyKind::Gh, 0xDA6);
        let r = run_dag_workflows(&spec, &funcs(), GroundhogConfig::gh(), &cfg).unwrap();
        assert_eq!(r.completed, 10);
        assert!(r.outputs.iter().all(|o| o.is_some()));
        assert_eq!(r.kv_versions, 10 * 7, "one commit per (workflow, hop path)");
        assert_eq!(r.duplicates_suppressed, 0);
        assert_eq!(r.hops_executed, 10 * 7, "no retries on a clean run");
        assert_eq!(r.tainted_handoffs, 0, "Gh wipes taint between hops");
        assert!(r.faults.is_empty());
        let again = run_dag_workflows(&spec, &funcs(), GroundhogConfig::gh(), &cfg).unwrap();
        assert_eq!(r, again, "the run is a pure function of (seed, spec)");
    }

    #[test]
    fn conditional_edges_are_pure_in_the_upstream_value() {
        let spec = diamond();
        assert_eq!(spec.hop_func(3, 4), 0, "even takes the then edge");
        assert_eq!(spec.hop_func(3, 5), 1, "odd takes the else edge");
        // Across many workflows both edges are actually exercised.
        let cfg = WorkflowConfig::new(16, StrategyKind::Gh, 0xC0ED);
        let r = run_dag_workflows(&spec, &funcs(), GroundhogConfig::gh(), &cfg).unwrap();
        assert_eq!(r.completed, 16);
    }

    #[test]
    fn crashes_converge_to_the_crash_free_state() {
        let spec = diamond();
        let clean_cfg = WorkflowConfig::new(12, StrategyKind::Gh, 0xFADE);
        let clean = run_dag_workflows(&spec, &funcs(), GroundhogConfig::gh(), &clean_cfg).unwrap();
        let mut fc = FaultConfig::deaths(0xD1ED, 0.12);
        fc.retry = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::bounded()
        };
        let faulty_cfg = clean_cfg.clone().with_faults(fc);
        let faulty =
            run_dag_workflows(&spec, &funcs(), GroundhogConfig::gh(), &faulty_cfg).unwrap();
        assert!(faulty.faults.deaths > 0, "faults actually fired");
        assert_eq!(faulty.faults.abandoned, 0, "8 attempts never exhaust");
        assert_eq!(faulty.completed, 12);
        assert_eq!(faulty.outputs, clean.outputs);
        assert_eq!(faulty.kv_fingerprint, clean.kv_fingerprint);
        assert_eq!(faulty.kv_versions, clean.kv_versions, "no double-applies");
        assert_eq!(
            faulty.replay_hash, clean.replay_hash,
            "commit order survives crash/retry interleaving"
        );
        assert_eq!(faulty.duplicates_suppressed, faulty.faults.duplicates);
        assert!(
            faulty.hops_executed > clean.hops_executed,
            "retries cost hops"
        );
    }

    #[test]
    fn death_between_last_branch_commit_and_join_commit_is_absorbed() {
        // KV-level pin of the ISSUE's nastiest interleaving: all
        // branches committed, the join's first commit applied, the
        // response lost; the retried join re-reads the same durable
        // branches, re-derives the same merge, and its re-commit is
        // suppressed — never double-applied.
        let mut kv = VersionedKv::new();
        let w = 3u64;
        for b in 0..3 {
            let path = hop_path(1, b);
            assert!(kv.commit(w, path, dag_key(w, path), 100 + b as u64));
        }
        let branches: Vec<u64> = (0..3)
            .map(|b| kv.latest(dag_key(w, hop_path(1, b))).unwrap())
            .collect();
        let join_path = hop_path(2, 0);
        let v1 = hop_value(w, join_path, join_merge(&branches), 0);
        assert!(kv.commit(w, join_path, AGG_KEY, v1), "first join commit");
        let before = kv.total_versions();
        // Crash between commit and response; retry re-derives:
        let branches2: Vec<u64> = (0..3)
            .map(|b| kv.latest(dag_key(w, hop_path(1, b))).unwrap())
            .collect();
        let v2 = hop_value(w, join_path, join_merge(&branches2), 0);
        assert_eq!(v1, v2, "recovery re-derives the identical join value");
        assert!(!kv.commit(w, join_path, AGG_KEY, v2), "re-commit absorbed");
        assert_eq!(kv.total_versions(), before, "zero double-applied joins");
        assert_eq!(kv.duplicates_suppressed, 1);
    }

    #[test]
    fn random_specs_are_valid_and_deterministic() {
        let mut saw_fanout = false;
        let mut saw_cond = false;
        for seed in 0..40u64 {
            let spec = random_dag_spec(seed, 8, 6);
            spec.validate(8);
            assert_eq!(spec, random_dag_spec(seed, 8, 6), "seed-pure");
            saw_fanout |= spec
                .nodes
                .iter()
                .any(|n| matches!(n.op, DagOp::FanOut { .. }));
            saw_cond |= spec
                .nodes
                .iter()
                .any(|n| matches!(n.op, DagOp::Cond { .. }));
        }
        assert!(saw_fanout && saw_cond, "shape space must be exercised");
        assert_ne!(random_dag_spec(1, 8, 6), random_dag_spec(2, 8, 6));
    }

    #[test]
    fn chain_helper_builds_the_degenerate_dag() {
        let spec = DagSpec::chain(&[0, 1, 0]);
        spec.validate(2);
        assert_eq!(spec.hops(), 3);
        assert_eq!(spec.nodes[2].input, 1);
    }
}
