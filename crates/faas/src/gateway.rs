//! The gateway-wrapped fleet: result caching, admission control and
//! predictive pre-warming in front of one function's container pool.
//!
//! The gateway is the fleet's node loop (`fleet::node`) with the
//! policies of [`gh_gateway`] as hooks on its edges. On the arrival
//! edge, requests pass through the result cache (idempotent hits are
//! answered at the gateway and never reach a container), then
//! per-principal token-bucket admission and the global concurrency
//! ceiling (rejects are shed, defers are held). On the completion edge
//! (a slot's `Ready`) the ceiling is released and held requests drain
//! into the backend. On the response edge idempotent results fill the
//! cache. After each admitted arrival the pre-warmer watches the backend
//! arrival rate to grow the pool *ahead* of load where the reactive
//! [`Autoscaler`] would trail it.
//!
//! # Determinism contract
//!
//! A [`GatewayConfig::disabled`] gateway over a flat workload replays
//! the ungated [`Fleet::run`](super::fleet::Fleet::run) serial reference
//! **bit for bit**: it is the same node loop over the same arrival
//! source, every hook at rest adds no event and no draw, and the
//! gateway-only draws (payload identity, principal skew, diurnal
//! thinning) ride separate seeded streams of that source that are
//! skipped entirely when their feature is off. The same holds with fault
//! injection armed on both sides: container deaths, retries and restore
//! failures go through the node's one fault gate (`fleet::retry`). The
//! differential oracle in `tests/gateway_oracle.rs` pins both.
//!
//! Cache expiry is driven as events on the same [`EventQueue`] (one
//! `CacheExpire` per insertion, at the entry's exact virtual-time
//! deadline), so enabling the cache changes the schedule only through
//! its own events — never by perturbing the arrival process.

use std::collections::VecDeque;

use gh_functions::FunctionSpec;
use gh_gateway::admission::{AdmissionControl, Decision};
use gh_gateway::cache::{CacheKey, ResultCache};
use gh_gateway::prewarm::Prewarmer;
use gh_gateway::{GatewayConfig, GatewayStats};
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::event::EventQueue;
use gh_sim::Nanos;
use groundhog_core::GroundhogConfig;

use crate::fault::FaultConfig;
use crate::fleet::node::{Entry, Event, Hooks, Node, Offer};
use crate::fleet::{Autoscaler, Dispatched, Fleet, FleetConfig, FleetResult, Poisson, Pool};

/// Workload and policy of one gateway-fronted fleet run. The workload
/// knobs extend the plain fleet's Poisson process; every knob's zero
/// value means "exactly the ungated fleet workload".
#[derive(Clone, Debug)]
pub struct GatewayFleetConfig {
    /// The underlying fleet (policy, offered load, seed, principals,
    /// optional reactive autoscaler).
    pub fleet: FleetConfig,
    /// Gateway policies; [`GatewayConfig::disabled`] is a pass-through.
    pub gateway: GatewayConfig,
    /// Fraction of requests flagged idempotent (cache-eligible); 0
    /// skips the payload stream entirely.
    pub idempotent_frac: f64,
    /// Distinct payloads idempotent requests draw from — smaller means
    /// a higher achievable hit ratio.
    pub payload_universe: u64,
    /// Principal skew: with this probability an arrival is issued by
    /// principal 0 instead of a uniform draw; 0 skips the skew stream.
    pub hot_principal_frac: f64,
    /// Diurnal arrival-rate amplitude `A` in `[0, 1)`: the offered rate
    /// swings between `(1−A)` and `(1+A)` × `fleet.offered_rps`
    /// (realized by thinning, like [`crate::trace::TraceGen`]); 0 keeps
    /// the plain homogeneous Poisson process.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal envelope.
    pub diurnal_period: Nanos,
    /// Fault injection behind the gateway: container deaths release the
    /// concurrency ceiling (draining defers) and are retried per the
    /// plan's policy; a died attempt never fills the result cache.
    /// `None` (or an inert config) keeps the loop byte-identical to the
    /// fault-free reference.
    pub faults: Option<FaultConfig>,
    /// Virtual times at which the function is redeployed: each event
    /// bumps the cache-key generation and drops every cached result of
    /// the old deployment. Empty means never.
    pub redeploys: Vec<Nanos>,
}

impl GatewayFleetConfig {
    /// A gateway run that reproduces the ungated fleet exactly: all
    /// policies disabled, flat workload.
    pub fn passthrough(fleet: FleetConfig) -> GatewayFleetConfig {
        GatewayFleetConfig {
            fleet,
            gateway: GatewayConfig::disabled(),
            idempotent_frac: 0.0,
            payload_universe: 64,
            hot_principal_frac: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: Nanos::from_secs(120),
            faults: None,
            redeploys: Vec::new(),
        }
    }

    /// Same workload, different gateway policy.
    pub fn with_gateway(mut self, gateway: GatewayConfig) -> GatewayFleetConfig {
        self.gateway = gateway;
        self
    }
}

/// Outcome of one gateway-fronted fleet run.
#[derive(Clone, Debug)]
pub struct GatewayResult {
    /// The fleet-level result. `completed` counts *served* requests —
    /// backend completions plus cache hits — and the sojourn
    /// distribution includes hits at the cache's `hit_cost`.
    pub fleet: FleetResult,
    /// What the gateway did: hit/miss/eviction, reject/defer and
    /// pre-warm counters.
    pub gateway: GatewayStats,
}

/// Drives `requests` arrivals through a gateway in front of a fresh
/// pool of `pool_size` containers — the gateway counterpart of
/// [`crate::fleet::run_fleet`].
#[allow(clippy::too_many_arguments)]
pub fn run_gateway_fleet(
    spec: &FunctionSpec,
    kind: StrategyKind,
    gh: GroundhogConfig,
    pool_size: usize,
    cfg: GatewayFleetConfig,
    requests: usize,
) -> Result<GatewayResult, StrategyError> {
    let mut pool = Pool::build(spec, kind, gh, pool_size, cfg.fleet.seed)?;
    GatewayFleet::new(cfg).run(&mut pool, requests)
}

/// The gateway-fronted fleet driver. Owns the fleet's routing and
/// autoscaling state plus the gateway policy state.
pub struct GatewayFleet {
    fleet: Fleet,
    cfg: GatewayFleetConfig,
    /// Current deployment generation, bumped by each redeploy; cache
    /// keys carry it so stale results can never be served.
    generation: u64,
}

impl GatewayFleet {
    /// Creates a driver for `cfg`.
    pub fn new(cfg: GatewayFleetConfig) -> GatewayFleet {
        assert!(
            (0.0..1.0).contains(&cfg.diurnal_amplitude),
            "amplitude must be in [0, 1)"
        );
        if let Some(ac) = &cfg.gateway.admission {
            assert!(
                ac.max_in_flight != Some(0),
                "a zero concurrency ceiling would defer every request forever"
            );
        }
        let mut fleet = Fleet::new(cfg.fleet.clone());
        if let Some(fc) = cfg.faults {
            fleet = fleet.with_faults(fc);
        }
        GatewayFleet {
            fleet,
            cfg,
            generation: 0,
        }
    }

    /// Runs the gateway-fronted node loop over `pool` until every
    /// arrival is served or shed. Serial by construction (gateway state
    /// is a global arrival→completion data dependence, like the
    /// autoscaler); host parallelism comes from running sweep *cells*
    /// concurrently — see `gh_bench`'s `gatewaysweep`.
    pub fn run(
        &mut self,
        pool: &mut Pool,
        requests: usize,
    ) -> Result<GatewayResult, StrategyError> {
        let t_start = Fleet::span_start(pool);
        let baseline = Fleet::baselines(pool);
        let restore_cost = [Nanos::from_millis_f64(pool.spec.paper_restore_ms)];
        let cfg = &self.cfg;
        let arrivals = Poisson::new(cfg.clone(), pool.spec.input_kb, t_start, requests);
        let mut front = Front {
            generation: &mut self.generation,
            cache: cfg.gateway.cache.map(ResultCache::new),
            admission: cfg.gateway.admission.map(AdmissionControl::new),
            prewarmer: cfg.gateway.prewarm.map(|p| Prewarmer::new(p, t_start)),
            autoscaler: &mut self.fleet.autoscaler,
            // Mean per-request slot occupancy (execution + restore): the
            // pre-warmer's capacity-planning service time.
            service_secs: (pool.spec.base_invoker_ms + pool.spec.paper_restore_ms) / 1e3,
            defer: VecDeque::new(),
            hits: 0,
            cache_peak: 0,
        };
        let mut node = Node::new(
            std::slice::from_mut(pool),
            std::slice::from_mut(&mut self.fleet.router),
            &restore_cost,
            self.fleet.faults,
        );
        // Redeploys are scheduled up front (the schedule is part of the
        // config, not the workload); an empty schedule adds no events
        // and leaves the timeline untouched. Scheduling them before the
        // first arrival means a redeploy tied with an arrival
        // invalidates before the arrival's lookup.
        for &at in &cfg.redeploys {
            node.schedule(at, Event::Redeploy);
        }
        let tally = node.run(arrivals, &mut front, false)?;
        assert!(front.defer.is_empty(), "the defer buffer must drain");

        let mut gw = GatewayStats {
            served: tally.completed,
            rejected: front.shed(),
            deferred: front.admission.as_ref().map_or(0, |a| a.deferred),
            prewarm_spawns: front.prewarmer.as_ref().map_or(0, |p| p.spawned),
            cache_peak_bytes: front.cache_peak,
            ..GatewayStats::default()
        };
        if let Some(c) = &front.cache {
            gw.absorb_cache(&c.stats);
        }
        assert_eq!(gw.cache_hits, front.hits, "cache and loop disagree on hits");
        let fleet = self.fleet.finish(pool, t_start, &baseline, &tally);
        Ok(GatewayResult { fleet, gateway: gw })
    }
}

/// The gateway's hooks on the node loop.
struct Front<'a> {
    /// The deployment generation cache keys carry.
    generation: &'a mut u64,
    cache: Option<ResultCache>,
    admission: Option<AdmissionControl>,
    prewarmer: Option<Prewarmer>,
    /// The reactive autoscaler, consulted only without a pre-warmer.
    autoscaler: &'a mut Option<Autoscaler>,
    /// Mean slot occupancy per request, seconds (pre-warmer planning).
    service_secs: f64,
    /// Requests the concurrency ceiling deferred, in arrival order.
    defer: VecDeque<Offer>,
    /// Cache hits answered at the gateway.
    hits: u64,
    /// Peak bytes the result cache held.
    cache_peak: u64,
}

impl Front<'_> {
    fn key(&self, payload_hash: u64) -> CacheKey {
        CacheKey {
            fn_id: 0,
            generation: *self.generation,
            payload_hash,
        }
    }
}

impl Hooks for Front<'_> {
    /// Result cache first: idempotent hits are answered at the gateway —
    /// the backend (and its admission ceiling) never sees them. Then
    /// admission: token bucket, then the ceiling.
    fn arrive(&mut self, now: Nanos, offer: Offer) -> Entry {
        if offer.req.idempotent {
            let key = self.key(offer.req.payload_hash);
            if let Some(c) = self.cache.as_mut() {
                if c.lookup(key, now).is_some() {
                    self.hits += 1;
                    return Entry::Answered(c.config().hit_cost);
                }
            }
        }
        let decision = self
            .admission
            .as_mut()
            .map_or(Decision::Admit, |ac| ac.admit(offer.principal, now));
        match decision {
            Decision::Admit => Entry::Backend(offer),
            Decision::Defer => {
                self.defer.push_back(offer);
                Entry::Withheld
            }
            Decision::Reject => Entry::Withheld,
        }
    }

    /// A retry was admitted on its first attempt and keeps its
    /// admission: it re-begins the ceiling its crash's `Ready` edge
    /// released, but never re-pays the token bucket, and the pre-warmer
    /// watches first attempts only.
    fn entered(&mut self, now: Nanos, retry: bool) {
        if let Some(ac) = self.admission.as_mut() {
            ac.begin();
        }
        if let Some(pw) = self.prewarmer.as_mut().filter(|_| !retry) {
            pw.observe(now);
        }
    }

    /// One `Ready` per dispatch or crash: the edge the concurrency
    /// ceiling releases on.
    fn ready(&mut self) {
        if let Some(ac) = self.admission.as_mut() {
            ac.end();
        }
    }

    fn release(&mut self) -> Option<Offer> {
        if self.admission.as_ref().is_some_and(|ac| ac.has_capacity()) {
            self.defer.pop_front()
        } else {
            None
        }
    }

    /// Fills the result cache from an idempotent response. A died
    /// attempt has no response and never fills it.
    fn respond(&mut self, d: &Dispatched, events: &mut EventQueue<Event>) {
        if !d.idempotent {
            return;
        }
        let key = self.key(d.payload_hash);
        let Some(c) = self.cache.as_mut() else {
            return;
        };
        // The fill becomes visible when the response leaves the
        // container; its TTL runs from that instant.
        c.insert(key, d.output_kb, d.resp_at);
        if let Some(at) = c.next_expiry() {
            // One expiry event per insertion keeps the sweep exact
            // without a timer wheel; stale events sweep nothing.
            events.schedule(at.max(d.resp_at), Event::CacheExpire);
        }
        self.cache_peak = self.cache_peak.max(c.bytes());
    }

    /// The pre-warmer first (it is the point of this module), else the
    /// reactive autoscaler.
    fn scale(
        &mut self,
        now: Nanos,
        pool: &mut Pool,
    ) -> Result<Option<(usize, Nanos)>, StrategyError> {
        let Some(pw) = self.prewarmer.as_mut() else {
            return self.autoscaler.scale(now, pool);
        };
        if pw.want_grow(now, pool.active(), self.service_secs) {
            return pool.grow(now).map(Some);
        }
        Ok(None)
    }

    /// A cache expiry sweeps due entries. A redeploy puts new code live:
    /// results produced by the old deployment must never be served
    /// again. Bumping the generation makes stale entries unreachable
    /// (even in-flight fills from old-code responses); the sweep
    /// reclaims their bytes immediately.
    fn timer(&mut self, now: Nanos, ev: Event) {
        let redeploy = matches!(ev, Event::Redeploy);
        *self.generation += u64::from(redeploy);
        if let Some(c) = self.cache.as_mut() {
            if redeploy {
                c.redeploy(0);
            } else {
                c.expire_due(now);
            }
        }
    }

    fn shed(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.rejected)
    }
}
