//! The failure half of a container's request lifecycle, written once.
//!
//! The node loop ([`super::node`]) — and with it the serial fleet, the
//! gateway and every cluster node — dispatches through a [`FaultGate`],
//! which owns the run's optional [`FaultPlan`], its [`FaultStats`] and
//! the park table of killed requests waiting out their backoff. With no
//! plan armed the gate is exactly [`Slot::dispatch`] plus the `Ready`
//! schedule: no draws and no extra events, so fault-free runs stay
//! byte-identical to a loop that never heard of faults.

use gh_isolation::StrategyError;
use gh_sim::event::EventQueue;
use gh_sim::Nanos;

use super::node::{Event, Home};
use super::{Dispatched, Pending, Pool, Router, Slot};
use crate::fault::{FaultPlan, FaultStats};

/// Park table for killed requests awaiting their backoff. Freed tokens
/// are reused, so its size is bounded by the retries parked at once,
/// not by the run's total.
pub(crate) struct ParkSlab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> ParkSlab<T> {
    fn new() -> ParkSlab<T> {
        ParkSlab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `v`, returning its token.
    fn park(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(token) => {
                self.entries[token as usize] = Some(v);
                token
            }
            None => {
                let token =
                    u32::try_from(self.entries.len()).expect("park table exceeds u32 tokens");
                self.entries.push(Some(v));
                token
            }
        }
    }

    /// Unparks the entry behind `token`, freeing the token.
    fn take(&mut self, token: u32) -> T {
        let v = self.entries[token as usize]
            .take()
            .expect("retry token fired twice");
        self.free.push(token);
        v
    }

    /// Entries currently parked.
    fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// What one [`FaultGate::dispatch`] attempt did.
pub(crate) enum Attempt {
    /// The slot was busy or had nothing queued.
    Idle,
    /// The head request was served; its `Ready` is scheduled.
    Served(Dispatched),
    /// The head request died mid-execution; its retry (unless
    /// abandoned) and the slot's recovery `Ready` are scheduled.
    Died,
}

/// Fault plan, accounting and retry park table of one node.
pub(crate) struct FaultGate {
    /// Present only when injection is active: `None` keeps every run on
    /// the exact fault-free path (no extra events, no extra draws).
    plan: Option<FaultPlan>,
    /// Accounting for the current run.
    pub(crate) stats: FaultStats,
    /// Killed requests waiting out their backoff, with the slot they
    /// died on; `Event::Retry` tokens index it.
    parked: ParkSlab<(Pending, Home)>,
}

impl FaultGate {
    /// A gate for `plan` (`None`: fault-free).
    pub(crate) fn new(plan: Option<FaultPlan>) -> FaultGate {
        FaultGate {
            plan,
            stats: FaultStats::default(),
            parked: ParkSlab::new(),
        }
    }

    /// Retries currently waiting out their backoff.
    pub(crate) fn parked(&self) -> usize {
        self.parked.live()
    }

    /// One dispatch attempt on `slot` (at `home`) at `now`. Fault draws
    /// are pure functions of `(fault seed, request id, attempt)` — see
    /// [`crate::fault`]:
    ///
    /// - **container death**: the head request is killed partway through
    ///   execution ([`Slot::crash`] charges the partial work plus a full
    ///   re-init); if attempts remain it is parked and its retry
    ///   scheduled after an exponential backoff (a retry-after-restore
    ///   also waits for the recovery), else it is abandoned;
    /// - **restore failure**: the response stands but the off-path
    ///   writeback aborts; the slot cold-starts before its next admission
    ///   ([`Slot::fail_restore`]) and the returned `ready_at` says so.
    ///
    /// A retry is always scheduled before the slot's `Ready`.
    pub(crate) fn dispatch(
        &mut self,
        slot: &mut Slot,
        home: Home,
        now: Nanos,
        events: &mut EventQueue<Event>,
    ) -> Result<Attempt, StrategyError> {
        let head = self
            .plan
            .filter(|_| slot.idle_at(now))
            .and_then(|plan| slot.queue.peek().map(|p| (plan, p.id, p.attempt)));
        if let Some((plan, id, attempt)) = head {
            if let Some(frac) = plan.death(id, attempt) {
                let (mut pending, ready) =
                    slot.crash(now, frac).expect("idle slot with a queued head");
                self.stats.deaths += 1;
                if plan.death_after_commit(id, attempt) {
                    // The crash landed after the attempt's effects
                    // applied: the retry (if any) re-executes committed
                    // work.
                    self.stats.duplicates += 1;
                }
                if attempt < plan.max_attempts() {
                    self.stats.retries += 1;
                    pending.attempt += 1;
                    let backoff_at = now + plan.backoff(attempt);
                    let retry_at = if plan.config().retry.reroute {
                        backoff_at
                    } else {
                        backoff_at.max(ready)
                    };
                    let token = self.parked.park((pending, home));
                    events.schedule(retry_at, Event::Retry(token));
                } else {
                    self.stats.abandoned += 1;
                }
                events.schedule(ready, Event::Ready(home));
                return Ok(Attempt::Died);
            }
        }
        let Some(mut d) = slot.dispatch(now)? else {
            return Ok(Attempt::Idle);
        };
        if let Some((plan, id, attempt)) = head {
            if plan.restore_failure(id, attempt) {
                self.stats.restore_failures += 1;
                d.ready_at = slot.fail_restore();
            }
        }
        events.schedule(d.ready_at, Event::Ready(home));
        Ok(Attempt::Served(d))
    }

    /// Unparks the retry behind `token` (attempt already bumped) and
    /// picks the slot it re-enters, in the pool it died in: under a
    /// rerouting policy the router's choice avoiding the slot it died
    /// on, otherwise that slot itself.
    pub(crate) fn unpark(
        &mut self,
        token: u32,
        now: Nanos,
        routers: &mut [Router],
        restore_cost: &[Nanos],
        pools: &[Pool],
    ) -> (Pending, Home) {
        let (p, (pi, died_on)) = self.parked.take(token);
        let pool = pi as usize;
        let si = if self.plan.is_some_and(|pl| pl.config().retry.reroute) {
            let slots = &pools[pool].slots;
            let avoid = Some(died_on as usize);
            routers[pool].route_avoiding(now, &p.principal, restore_cost[pool], slots, avoid) as u32
        } else {
            died_on
        };
        (p, (pi, si))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_slab_reuses_freed_tokens() {
        let mut slab = ParkSlab::new();
        let a = slab.park('a');
        let b = slab.park('b');
        assert_eq!((a, b), (0, 1));
        assert_eq!(slab.take(a), 'a');
        assert_eq!(slab.park('c'), a, "a freed token is reused");
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.take(b), 'b');
        assert_eq!(slab.take(a), 'c');
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.entries.len(), 2, "bounded by the peak parked at once");
    }
}
