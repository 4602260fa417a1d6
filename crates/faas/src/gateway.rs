//! The gateway-wrapped fleet: result caching, admission control and
//! predictive pre-warming in front of one function's container pool.
//!
//! This is the fleet-level event loop that wires the policies of
//! [`gh_gateway`] between clients and [`Pool`]: arrivals pass through
//! the result cache (idempotent hits are answered at the gateway and
//! never reach a container), then per-principal token-bucket admission
//! and the global concurrency ceiling (rejects are shed, defers are
//! parked and released as backend capacity frees), and the pre-warmer
//! watches backend arrivals to grow the pool *ahead* of load where the
//! reactive [`Autoscaler`](crate::fleet::Autoscaler) would trail it.
//!
//! # Determinism contract
//!
//! The loop is structured so that a [`GatewayConfig::disabled`] gateway
//! over a flat workload replays the ungated
//! [`Fleet::run`](super::fleet::Fleet::run) serial reference **bit for
//! bit**: the arrival and principal RNG streams, per-stream draw order,
//! and the sequence of event-queue `schedule` calls (which fixes
//! tie-breaking) are identical, and gateway-only draws (payload
//! identity, principal skew, diurnal thinning) ride separate seeded
//! streams that are skipped entirely when their feature is off. The
//! same holds with fault injection armed on both sides: container
//! deaths, retries and restore failures go through the fleet's own
//! fault gate (`fleet::retry`), the one dispatch step every pool loop
//! shares. The differential oracle in `tests/gateway_oracle.rs` pins
//! both.
//!
//! Cache expiry is driven as events on the same [`EventQueue`] (one
//! `CacheExpire` per insertion, at the entry's exact virtual-time
//! deadline), so enabling the cache changes the schedule only through
//! its own events — never by perturbing the arrival process.

use std::collections::VecDeque;

use gh_functions::FunctionSpec;
use gh_gateway::admission::{AdmissionControl, Decision};
use gh_gateway::cache::{mix, CacheKey, ResultCache};
use gh_gateway::prewarm::Prewarmer;
use gh_gateway::{GatewayConfig, GatewayStats};
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::event::EventQueue;
use gh_sim::{DetRng, Nanos, QuantileSketch};
use groundhog_core::GroundhogConfig;

use crate::fault::FaultConfig;
use crate::fleet::{
    poisson_gap, Attempt, DepthTracker, Fleet, FleetConfig, FleetResult, GateEvent, Pending, Pool,
    ScaleAction,
};

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

/// Events on the gateway-fronted virtual timeline. `Arrival` and
/// `Ready` mirror the plain fleet loop; the other two exist only when
/// their policy is enabled.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A client request reaches the gateway.
    Arrival,
    /// A container finished serving + restoring one request.
    Ready(usize),
    /// A pre-warmed or autoscaled container finished cold-starting.
    WarmReady(usize),
    /// A result-cache entry reached its TTL deadline.
    CacheExpire,
    /// A killed request's backoff elapsed (token into the fault gate's
    /// park table).
    Retry(u32),
    /// The function was redeployed: bump the cache generation and drop
    /// the old deployment's cached results.
    Redeploy,
}

impl GateEvent<usize> for Event {
    fn ready(idx: usize) -> Event {
        Event::Ready(idx)
    }
    fn retry(token: u32) -> Event {
        Event::Retry(token)
    }
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
    /// Current deployment generation, bumped by `Event::Redeploy`;
    /// cache keys carry it so stale results can never be served.
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

    /// Instantaneous offered rate at `t` under the diurnal envelope.
    fn rate_at(&self, t: Nanos, t_start: Nanos) -> f64 {
        let phase = t.saturating_sub(t_start).as_secs_f64() / self.cfg.diurnal_period.as_secs_f64();
        self.cfg.fleet.offered_rps
            * (1.0 + self.cfg.diurnal_amplitude * (std::f64::consts::TAU * phase).sin())
    }

    /// Runs the gateway event loop over `pool` until every arrival is
    /// served or shed. Serial by construction (gateway state is a
    /// global arrival→completion data dependence, like the autoscaler);
    /// host parallelism comes from running sweep *cells* concurrently
    /// — see `gh_bench`'s `gatewaysweep`.
    pub fn run(
        &mut self,
        pool: &mut Pool,
        requests: usize,
    ) -> Result<GatewayResult, StrategyError> {
        let input_kb = pool.spec.input_kb;
        let t_start = Fleet::span_start(pool);
        let baseline = Fleet::baselines(pool);
        let restore_cost = Nanos::from_millis_f64(pool.spec.paper_restore_ms);
        // Mean per-request slot occupancy (execution + restore): the
        // pre-warmer's capacity-planning service time.
        let service_secs = (pool.spec.base_invoker_ms + pool.spec.paper_restore_ms) / 1e3;

        // Same streams and draw order as the serial fleet loop…
        let seed = self.cfg.fleet.seed;
        let mut arrival_rng = DetRng::new(seed ^ 0x09E4_100D);
        let mut principal_rng = DetRng::new(seed ^ 0x7E4A_4175);
        // …plus gateway-only streams, touched only when their feature
        // is on, so a pass-through run never perturbs the base draws.
        let mut payload_rng = DetRng::new(seed ^ 0x6A7E_0001);
        let mut skew_rng = DetRng::new(seed ^ 0x6A7E_0002);
        let mut thin_rng = DetRng::new(seed ^ 0x6A7E_0003);

        let mut cache = self.cfg.gateway.cache.map(ResultCache::new);
        let mut admission = self.cfg.gateway.admission.map(AdmissionControl::new);
        let mut prewarmer = self.cfg.gateway.prewarm.map(|p| Prewarmer::new(p, t_start));

        let mut events: EventQueue<Event> = EventQueue::new();
        let mut depth = DepthTracker::new();
        let mut sojourns = QuantileSketch::new();
        let mut defer: VecDeque<Pending> = VecDeque::new();
        let mut served = 0usize;
        let mut hits = 0u64;
        let mut cache_peak = 0u64;
        let mut generated = 0usize;
        let mut next_id = 1u64;

        if requests == 0 {
            let fleet = self
                .fleet
                .finish(pool, t_start, &baseline, &depth, &sojourns, 0);
            return Ok(GatewayResult {
                fleet,
                gateway: GatewayStats::default(),
            });
        }

        // Redeploys are scheduled up front (the schedule is part of the
        // config, not the workload); an empty schedule adds no events
        // and leaves the timeline untouched. Scheduling them before the
        // first arrival means a redeploy tied with an arrival
        // invalidates before the arrival's lookup.
        for &at in &self.cfg.redeploys {
            events.schedule(at, Event::Redeploy);
        }

        let mut next_arrival = t_start;
        self.advance_arrival(&mut next_arrival, t_start, &mut arrival_rng, &mut thin_rng);
        events.schedule(next_arrival, Event::Arrival);
        generated += 1;

        while let Some((now, ev)) = events.pop() {
            // The slot this event hands work to, if any.
            let target = match ev {
                Event::Arrival => {
                    let id = next_id;
                    next_id += 1;
                    let (pidx, principal) = self.draw_principal(&mut principal_rng, &mut skew_rng);
                    let (payload_hash, idempotent) = if self.cfg.idempotent_frac > 0.0 {
                        let p = payload_rng.next_below(self.cfg.payload_universe.max(1));
                        let idem = payload_rng.next_f64() < self.cfg.idempotent_frac;
                        (mix(p), idem)
                    } else {
                        (0, false)
                    };

                    // 1. Result cache: idempotent hits are answered at
                    // the gateway — the backend (and its admission
                    // ceiling) never sees them.
                    let mut resolved = false;
                    if idempotent {
                        if let Some(c) = cache.as_mut() {
                            let key = CacheKey {
                                fn_id: 0,
                                generation: self.generation,
                                payload_hash,
                            };
                            if c.lookup(key, now).is_some() {
                                sojourns.record_nanos(c.config().hit_cost);
                                served += 1;
                                hits += 1;
                                resolved = true;
                            }
                        }
                    }

                    // 2. Admission: token bucket, then the ceiling.
                    let mut target = None;
                    if !resolved {
                        let pending = Pending {
                            id,
                            principal,
                            input_kb,
                            arrival: now,
                            payload_hash,
                            idempotent,
                            attempt: 1,
                        };
                        let decision = admission
                            .as_mut()
                            .map(|ac| ac.admit(pidx, now))
                            .unwrap_or(Decision::Admit);
                        match decision {
                            Decision::Reject => {}
                            Decision::Defer => defer.push_back(pending),
                            Decision::Admit => {
                                target = Some(self.enter_backend(
                                    pool,
                                    pending,
                                    now,
                                    restore_cost,
                                    &mut depth,
                                    admission.as_mut(),
                                    prewarmer.as_mut(),
                                ));
                            }
                        }
                    }
                    // Every path drives the arrival process forward; an
                    // admitted arrival's successor is scheduled before
                    // its dispatch, matching the serial fleet loop's
                    // schedule-call order exactly.
                    if generated < requests {
                        self.advance_arrival(
                            &mut next_arrival,
                            t_start,
                            &mut arrival_rng,
                            &mut thin_rng,
                        );
                        events.schedule(next_arrival, Event::Arrival);
                        generated += 1;
                    }
                    target
                }
                Event::Ready(idx) => {
                    // One Ready per dispatch: this is the completion
                    // edge the concurrency ceiling releases on.
                    if let Some(ac) = admission.as_mut() {
                        ac.end();
                    }
                    while admission.as_ref().is_some_and(|ac| ac.has_capacity()) {
                        let Some(p) = defer.pop_front() else { break };
                        let slot = self.enter_backend(
                            pool,
                            p,
                            now,
                            restore_cost,
                            &mut depth,
                            admission.as_mut(),
                            prewarmer.as_mut(),
                        );
                        self.dispatch(
                            pool,
                            slot,
                            now,
                            &mut events,
                            &mut sojourns,
                            &mut served,
                            cache.as_mut(),
                            &mut cache_peak,
                        )?;
                    }
                    Some(idx)
                }
                // A cold start completed (pre-warm or autoscale): serve
                // anything already routed to the new slot.
                Event::WarmReady(idx) => Some(idx),
                Event::CacheExpire => {
                    if let Some(c) = cache.as_mut() {
                        c.expire_due(now);
                    }
                    None
                }
                Event::Retry(token) => {
                    // A killed request's backoff elapsed: re-enter the
                    // backend. The retry was admitted on its first
                    // attempt and keeps its admission (it re-begins the
                    // ceiling it released when the crash's Ready edge
                    // fired), but never re-pays the token bucket.
                    let (p, died_on) = self.fleet.gate.unpark(token);
                    let idx = self.fleet.gate.retry_slot(
                        &mut self.fleet.router,
                        now,
                        &p,
                        restore_cost,
                        &pool.slots,
                        died_on,
                    );
                    pool.slots[idx].queue.push(p);
                    depth.record(pool.queued());
                    if let Some(ac) = admission.as_mut() {
                        ac.begin();
                    }
                    Some(idx)
                }
                Event::Redeploy => {
                    // New code is live: results produced by the old
                    // deployment must never be served again. Bumping
                    // the generation makes stale entries unreachable
                    // (even in-flight fills from old-code responses);
                    // the sweep reclaims their bytes immediately.
                    self.generation += 1;
                    if let Some(c) = cache.as_mut() {
                        c.redeploy(0);
                    }
                    None
                }
            };
            if let Some(idx) = target {
                self.dispatch(
                    pool,
                    idx,
                    now,
                    &mut events,
                    &mut sojourns,
                    &mut served,
                    cache.as_mut(),
                    &mut cache_peak,
                )?;
            }
            match ev {
                Event::Arrival if target.is_some() => {
                    self.scale(now, pool, &mut events, prewarmer.as_mut(), service_secs)?
                }
                Event::Ready(_) | Event::WarmReady(_) => depth.record(pool.queued()),
                _ => {}
            }
            if self.done(served, &admission, pool, &defer, requests) {
                break;
            }
        }

        let rejected = admission.as_ref().map(|a| a.rejected).unwrap_or(0);
        assert_eq!(
            served as u64 + rejected + self.fleet.gate.stats.abandoned,
            requests as u64,
            "every arrival must be served, shed, or abandoned"
        );
        assert_eq!(pool.queued(), 0, "admission queues must drain");
        assert!(defer.is_empty(), "the defer buffer must drain");
        assert_eq!(self.fleet.gate.parked(), 0, "every parked retry must fire");

        let mut gw = GatewayStats {
            served: served as u64,
            rejected,
            deferred: admission.as_ref().map(|a| a.deferred).unwrap_or(0),
            prewarm_spawns: prewarmer.as_ref().map(|p| p.spawned).unwrap_or(0),
            cache_peak_bytes: cache_peak,
            ..GatewayStats::default()
        };
        if let Some(c) = &cache {
            gw.absorb_cache(&c.stats);
        }
        assert_eq!(gw.cache_hits, hits, "cache and loop disagree on hits");
        let fleet = self
            .fleet
            .finish(pool, t_start, &baseline, &depth, &sojourns, served);
        Ok(GatewayResult { fleet, gateway: gw })
    }

    /// Advances the arrival cursor past the next (possibly thinned)
    /// arrival. Amplitude 0 is a plain exponential gap — bit-identical
    /// to the fleet loop's `poisson_gap` sequence.
    fn advance_arrival(
        &self,
        cursor: &mut Nanos,
        t_start: Nanos,
        arrival_rng: &mut DetRng,
        thin_rng: &mut DetRng,
    ) {
        if self.cfg.diurnal_amplitude == 0.0 {
            *cursor += poisson_gap(self.cfg.fleet.offered_rps, arrival_rng);
            return;
        }
        let rate_max = self.cfg.fleet.offered_rps * (1.0 + self.cfg.diurnal_amplitude);
        loop {
            *cursor += poisson_gap(rate_max, arrival_rng);
            let accept = self.rate_at(*cursor, t_start) / rate_max;
            if thin_rng.next_f64() < accept {
                return;
            }
        }
    }

    /// Draws the issuing principal: the fleet's uniform stream, with an
    /// optional hot-principal skew on its own stream.
    fn draw_principal(&self, principal_rng: &mut DetRng, skew_rng: &mut DetRng) -> (u64, String) {
        if self.cfg.fleet.principals <= 1 {
            return (0, "client".to_string());
        }
        let idx = if self.cfg.hot_principal_frac > 0.0
            && skew_rng.next_f64() < self.cfg.hot_principal_frac
        {
            0
        } else {
            principal_rng.next_below(self.cfg.fleet.principals as u64)
        };
        (idx, format!("user-{idx}"))
    }

    /// Routes one admitted request into the pool: route, enqueue,
    /// depth sample, ceiling/pre-warm bookkeeping. Returns the slot.
    #[allow(clippy::too_many_arguments)]
    fn enter_backend(
        &mut self,
        pool: &mut Pool,
        pending: Pending,
        now: Nanos,
        restore_cost: Nanos,
        depth: &mut DepthTracker,
        admission: Option<&mut AdmissionControl>,
        prewarmer: Option<&mut Prewarmer>,
    ) -> usize {
        let idx = self
            .fleet
            .router
            .route(now, &pending.principal, restore_cost, &pool.slots);
        pool.slots[idx].queue.push(pending);
        depth.record(pool.queued());
        if let Some(ac) = admission {
            ac.begin();
        }
        if let Some(pw) = prewarmer {
            pw.observe(now);
        }
        idx
    }

    /// Dispatches `idx` through the fleet's fault gate if it is clean and
    /// has queued work; records the sojourn and fills the result cache
    /// from idempotent responses. With faults armed, the head may
    /// instead die mid-request (no response, no cache fill; the Ready
    /// edge still fires at recovery, releasing the ceiling and draining
    /// defers) or fail its restore (the completion stands, readiness is
    /// pushed out by a cold start).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        pool: &mut Pool,
        idx: usize,
        now: Nanos,
        events: &mut EventQueue<Event>,
        sojourns: &mut QuantileSketch,
        served: &mut usize,
        cache: Option<&mut ResultCache>,
        cache_peak: &mut u64,
    ) -> Result<(), StrategyError> {
        let Attempt::Served(d) =
            self.fleet
                .gate
                .dispatch(&mut pool.slots[idx], idx, now, events)?
        else {
            return Ok(());
        };
        sojourns.record_nanos(d.sojourn);
        *served += 1;
        if d.idempotent {
            if let Some(c) = cache {
                let key = CacheKey {
                    fn_id: 0,
                    generation: self.generation,
                    payload_hash: d.payload_hash,
                };
                // The fill becomes visible when the response leaves the
                // container; its TTL runs from that instant.
                c.insert(key, d.output_kb, d.resp_at);
                if let Some(at) = c.next_expiry() {
                    // One expiry event per insertion keeps the sweep
                    // exact without a timer wheel; stale events sweep
                    // nothing.
                    events.schedule(at.max(d.resp_at), Event::CacheExpire);
                }
                *cache_peak = (*cache_peak).max(c.bytes());
            }
        }
        Ok(())
    }

    /// One scaling observation: the pre-warmer first (it is the point
    /// of this module), else the reactive autoscaler.
    fn scale(
        &mut self,
        now: Nanos,
        pool: &mut Pool,
        events: &mut EventQueue<Event>,
        prewarmer: Option<&mut Prewarmer>,
        service_secs: f64,
    ) -> Result<(), StrategyError> {
        if let Some(pw) = prewarmer {
            if pw.want_grow(now, pool.active(), service_secs) {
                let (idx, ready) = pool.grow(now)?;
                events.schedule(ready, Event::WarmReady(idx));
            }
            return Ok(());
        }
        let Some(scaler) = self.fleet.autoscaler.as_mut() else {
            return Ok(());
        };
        match scaler.observe(now, pool) {
            Some(ScaleAction::Grow) => {
                let (idx, ready) = pool.grow(now)?;
                events.schedule(ready, Event::WarmReady(idx));
                scaler.applied(now, ScaleAction::Grow);
            }
            Some(ScaleAction::Retire(idx)) => {
                pool.retire(idx);
                scaler.applied(now, ScaleAction::Retire(idx));
            }
            None => {}
        }
        Ok(())
    }

    /// The run is over when every arrival is resolved (served, shed, or
    /// abandoned after its retry budget) and nothing waits in a queue,
    /// the defer buffer, or the retry park table.
    fn done(
        &self,
        served: usize,
        admission: &Option<AdmissionControl>,
        pool: &Pool,
        defer: &VecDeque<Pending>,
        requests: usize,
    ) -> bool {
        let rejected = admission.as_ref().map(|a| a.rejected).unwrap_or(0) as usize;
        let abandoned = self.fleet.gate.stats.abandoned as usize;
        served + rejected + abandoned == requests
            && pool.queued() == 0
            && defer.is_empty()
            && self.fleet.gate.parked() == 0
    }
}
