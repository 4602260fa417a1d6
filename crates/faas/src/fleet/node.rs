//! The node loop: one request lifecycle, written once.
//!
//! Queue, admit only when the container is provably clean, execute,
//! then restore off the critical path (§4, §4.5): [`Node`] runs that
//! lifecycle over one or more pools, pulling arrivals from a stream,
//! routing, dispatching through the [`FaultGate`] and scheduling
//! readiness on one [`EventQueue`]. The serial [`Fleet`](super::Fleet)
//! run is a one-pool node over its Poisson source with the autoscaler as
//! its only hook; the [gateway](crate::gateway) is the same node with
//! its policies as [`Hooks`] on the arrival, completion and response
//! edges; each [cluster](crate::cluster) node is a many-pool node over
//! its folded stream. A hook at rest adds no event and no draw, so a
//! pass-through gateway is byte-identical to the ungated fleet.

use gh_isolation::StrategyError;
use gh_sim::event::EventQueue;
use gh_sim::{Nanos, QuantileSketch};

use super::{Attempt, DepthTracker, Dispatched, FaultGate, Pending, Pool, Router};
use crate::fault::{FaultPlan, FaultStats};

/// A slot's place in its node: (pool index, slot index).
pub(crate) type Home = (u32, u32);

/// Events on a node's virtual timeline.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// The stream's next arrival reaches the node.
    Arrival,
    /// Completion edge: the slot at this home is provably clean again
    /// after a dispatch (restore done) or a crash (recovery done).
    Ready(Home),
    /// A container grown mid-run finished its cold start.
    Warm(Home),
    /// A killed request's backoff elapsed (token into the gate's park
    /// table).
    Retry(u32),
    /// A front's result-cache entry reached its TTL deadline.
    CacheExpire,
    /// The function was redeployed.
    Redeploy,
}

/// One arrival as a node's stream delivers it.
pub(crate) struct Offer {
    /// Pool the request is for.
    pub pool: u32,
    /// Index of the issuing principal (a front's admission key).
    pub principal: u64,
    /// The request; `req.arrival` is when it reaches the node.
    pub req: Pending,
}

/// What a front does with an arrival.
pub(crate) enum Entry {
    /// Route it into its pool.
    Backend(Offer),
    /// Answered at the front after this sojourn (a cache hit).
    Answered(Nanos),
    /// Shed, or held back for a later [`Hooks::release`].
    Withheld,
}

/// The optional edges a driver hooks into the node loop. Every default
/// is the plain pool's behaviour, so `()` is a node with no front.
pub(crate) trait Hooks {
    /// Arrival edge: what to do with an arrival the stream delivered.
    fn arrive(&mut self, _now: Nanos, offer: Offer) -> Entry {
        Entry::Backend(offer)
    }
    /// A request entered a slot's queue: its first attempt, or a retry
    /// after its backoff.
    fn entered(&mut self, _now: Nanos, _retry: bool) {}
    /// Completion edge: a slot's `Ready` fired.
    fn ready(&mut self) {}
    /// After [`Hooks::ready`], the next held request to release into
    /// the backend; called until `None`.
    fn release(&mut self) -> Option<Offer> {
        None
    }
    /// Response edge: a dispatch served its request.
    fn respond(&mut self, _d: &Dispatched, _events: &mut EventQueue<Event>) {}
    /// After an arrival entered `pool`: one scaling step, returning a
    /// grown slot and the time it finishes cold-starting.
    fn scale(
        &mut self,
        _now: Nanos,
        _pool: &mut Pool,
    ) -> Result<Option<(usize, Nanos)>, StrategyError> {
        Ok(None)
    }
    /// A front event ([`Event::CacheExpire`], [`Event::Redeploy`])
    /// fired.
    fn timer(&mut self, _now: Nanos, _ev: Event) {}
    /// Arrivals the front resolved without serving them (shed).
    fn shed(&self) -> u64 {
        0
    }
}

impl Hooks for () {}

/// What a node run measured.
#[derive(Default)]
pub(crate) struct Tally {
    /// Requests served: backend completions plus front answers.
    pub completed: u64,
    /// Sojourns of every served request.
    pub sojourns: QuantileSketch,
    /// Queued requests, sampled at each enqueue and readiness event.
    pub depth: DepthTracker,
    /// Fault-injection accounting (all zero without a plan).
    pub faults: FaultStats,
}

/// Pools with a router and restore cost each, one event queue, the
/// fault gate, and a running count of queued requests (the pools' queue
/// lengths summed by construction, never by a scan).
pub(crate) struct Node<'a> {
    pools: &'a mut [Pool],
    routers: &'a mut [Router],
    restore_cost: &'a [Nanos],
    events: EventQueue<Event>,
    gate: FaultGate,
    queued: usize,
    tally: Tally,
}

impl<'a> Node<'a> {
    /// A node over `pools`, routing pool `i` with `routers[i]` at
    /// predicted restore cost `restore_cost[i]`, under `plan` (`None`:
    /// fault-free).
    pub(crate) fn new(
        pools: &'a mut [Pool],
        routers: &'a mut [Router],
        restore_cost: &'a [Nanos],
        plan: Option<FaultPlan>,
    ) -> Node<'a> {
        Node {
            pools,
            routers,
            restore_cost,
            events: EventQueue::new(),
            gate: FaultGate::new(plan),
            queued: 0,
            tally: Tally::default(),
        }
    }

    /// Schedules a front event before the run, winning arrival ties.
    pub(crate) fn schedule(&mut self, at: Nanos, ev: Event) {
        self.events.schedule(at, ev);
    }

    /// Runs `arrivals` through the node. Each arrival schedules its
    /// successor before it is dispatched. With `until_dry` the loop
    /// runs the event queue dry (trailing `Ready`s still sample queue
    /// depth); otherwise it stops at the event that resolves the last
    /// arrival.
    pub(crate) fn run<H: Hooks>(
        mut self,
        mut arrivals: impl Iterator<Item = Offer>,
        hooks: &mut H,
        until_dry: bool,
    ) -> Result<Tally, StrategyError> {
        let mut upcoming = arrivals.next();
        let mut taken = 0u64;
        if let Some(o) = &upcoming {
            self.events.schedule(o.req.arrival, Event::Arrival);
        }
        while let Some((now, ev)) = self.events.pop() {
            let target = match ev {
                Event::Arrival => {
                    let offer = upcoming.take().expect("arrival without a stream item");
                    taken += 1;
                    upcoming = arrivals.next();
                    if let Some(next) = &upcoming {
                        self.events.schedule(next.req.arrival, Event::Arrival);
                    }
                    match hooks.arrive(now, offer) {
                        Entry::Backend(o) => Some(self.enter(o, now, hooks)),
                        Entry::Answered(sojourn) => {
                            self.tally.sojourns.record_nanos(sojourn);
                            self.tally.completed += 1;
                            None
                        }
                        Entry::Withheld => None,
                    }
                }
                Event::Ready(home) => {
                    hooks.ready();
                    while let Some(o) = hooks.release() {
                        let released = self.enter(o, now, hooks);
                        self.dispatch(released, now, hooks)?;
                    }
                    Some(home)
                }
                Event::Warm(home) => Some(home),
                Event::Retry(token) => {
                    let (p, home) =
                        self.gate
                            .unpark(token, now, self.routers, self.restore_cost, self.pools);
                    self.push(home, p);
                    hooks.entered(now, true);
                    Some(home)
                }
                Event::CacheExpire | Event::Redeploy => {
                    hooks.timer(now, ev);
                    None
                }
            };
            if let Some(home) = target {
                self.dispatch(home, now, hooks)?;
            }
            match (ev, target) {
                (Event::Arrival, Some((pi, _))) => {
                    if let Some((si, ready)) = hooks.scale(now, &mut self.pools[pi as usize])? {
                        self.events.schedule(ready, Event::Warm((pi, si as u32)));
                    }
                }
                (Event::Ready(_) | Event::Warm(_), _) => self.tally.depth.record(self.queued),
                _ => {}
            }
            if !until_dry && upcoming.is_none() && self.resolved(hooks) == taken {
                break;
            }
        }
        assert_eq!(
            self.resolved(hooks),
            taken,
            "every arrival is served, shed or abandoned"
        );
        assert_eq!(self.queued, 0, "admission queues must drain");
        assert_eq!(self.gate.parked(), 0, "every parked retry must fire");
        self.tally.faults = self.gate.stats;
        Ok(self.tally)
    }

    /// Arrivals served, shed or abandoned. Once it equals the arrivals
    /// taken, nothing waits in a queue, a front's hold or the park table.
    fn resolved<H: Hooks>(&self, hooks: &H) -> u64 {
        self.tally.completed + self.gate.stats.abandoned + hooks.shed()
    }

    /// Routes a first attempt into its pool and queues it.
    fn enter<H: Hooks>(&mut self, o: Offer, now: Nanos, hooks: &mut H) -> Home {
        let pi = o.pool as usize;
        let si = self.routers[pi].route(
            now,
            &o.req.principal,
            self.restore_cost[pi],
            &self.pools[pi].slots,
        );
        let home = (o.pool, si as u32);
        self.push(home, o.req);
        hooks.entered(now, false);
        home
    }

    /// Queues `p` at `home` and samples the depth.
    fn push(&mut self, (pi, si): Home, p: Pending) {
        self.pools[pi as usize].slots[si as usize].queue.push(p);
        self.queued += 1;
        self.tally.depth.record(self.queued);
    }

    /// One dispatch attempt at `home` through the fault gate.
    fn dispatch<H: Hooks>(
        &mut self,
        home: Home,
        now: Nanos,
        hooks: &mut H,
    ) -> Result<(), StrategyError> {
        let slot = &mut self.pools[home.0 as usize].slots[home.1 as usize];
        match self.gate.dispatch(slot, home, now, &mut self.events)? {
            Attempt::Served(d) => {
                self.tally.sojourns.record_nanos(d.sojourn);
                self.tally.completed += 1;
                self.queued -= 1;
                hooks.respond(&d, &mut self.events);
            }
            Attempt::Died => self.queued -= 1,
            Attempt::Idle => {}
        }
        Ok(())
    }
}
