//! The server's request-admission queue, built on `Mutex` + `Condvar`.
//!
//! [`FairQueue`] is the request-level admission heart: one bounded sub-queue
//! per tenant, drained in deficit-round-robin order so that a stampede from
//! one tenant fills only its own sub-queue (its overflow becomes a `429`)
//! while every other tenant's requests keep flowing at their weighted share.
//! A global bound on top caps total queued work regardless of how many
//! tenants are active.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why [`FairQueue::try_push`] handed the item back.
#[derive(Debug, PartialEq, Eq)]
pub enum Rejection<T> {
    /// The queue is closed; nothing is admitted any more.
    Closed(T),
    /// The global bound across all tenants is reached.
    QueueFull(T),
    /// This tenant's own sub-queue is full — other tenants still have room.
    TenantFull(T),
}

impl<T> Rejection<T> {
    /// The rejected item, whatever the reason.
    pub fn into_inner(self) -> T {
        match self {
            Rejection::Closed(item) | Rejection::QueueFull(item) | Rejection::TenantFull(item) => {
                item
            }
        }
    }
}

struct SubQueue<T> {
    name: String,
    items: VecDeque<T>,
    /// Deficit-round-robin credit: how many items this tenant may still pop
    /// in the current service round.
    deficit: u64,
    /// The tenant's tuned weight, copied onto the lane so that a retired
    /// lane, whose tuning is forgotten, keeps it.
    weight: u64,
    /// A retired lane drains its queued items at its current weight, then
    /// disappears — retiring never drops work, and a push under the same
    /// tenant name revives the lane.
    retired: bool,
}

/// Everything that tunes one tenant. The fair queue applies the first
/// three; the request path reads the last two. [`FairQueue::tune`] is the
/// one writer.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Deficit-round-robin weight: a weight-2 tenant drains twice as fast
    /// as a weight-1 tenant when both are backlogged (minimum 1).
    pub weight: u64,
    /// Admission bound of the tenant's sub-queue (minimum 1).
    pub bound: usize,
    /// Cap on popped-but-unreleased items (minimum 1); `None` leaves the
    /// tenant uncapped.
    pub inflight: Option<usize>,
    /// Deadline budget in milliseconds; `None` falls back to the
    /// server-wide default.
    pub deadline_ms: Option<u64>,
    /// Slow-trace threshold in milliseconds; `None` falls back to the
    /// server-wide threshold.
    pub trace_slow_ms: Option<u64>,
}

struct FairState<T> {
    subs: Vec<SubQueue<T>>,
    /// Indices of sub-queues with items, in service order.
    active: VecDeque<usize>,
    total: usize,
    closed: bool,
    waiters: usize,
    /// Per-tenant tunings. Inside the state so they are retunable at
    /// runtime without racing pushes and pops.
    tunings: HashMap<String, Tuning>,
    /// The tuning of a tenant absent from `tunings`: weight 1, the
    /// queue-wide `tenant_capacity`, uncapped, no deadline or threshold.
    default: Tuning,
    /// Items popped but not yet released, per tenant. Keyed by name (not
    /// kept on the sub-queue) because a lane is removed the moment it
    /// drains while its popped work is still running in the compute pool.
    inflight: HashMap<String, usize>,
}

impl<T> FairState<T> {
    fn tuning(&self, tenant: &str) -> &Tuning {
        self.tunings.get(tenant).unwrap_or(&self.default)
    }

    fn inflight_for(&self, tenant: &str) -> usize {
        self.inflight.get(tenant).copied().unwrap_or(0)
    }

    /// Removes sub-queue `idx` and renumbers the service rotation (every
    /// index past it shifts down by one).
    fn remove_sub(&mut self, idx: usize) {
        self.subs.remove(idx);
        self.active.retain(|&i| i != idx);
        for i in self.active.iter_mut() {
            if *i > idx {
                *i -= 1;
            }
        }
    }
}

/// A bounded blocking queue with per-tenant sub-queues drained in weighted
/// deficit-round-robin order.
///
/// Each tenant gets its own bound (its [`Tuning::bound`], by default
/// `tenant_capacity`): overflowing it rejects with
/// [`Rejection::TenantFull`] without touching anyone else's budget. The
/// global bound caps the sum of all sub-queues. Consumers pop in DRR order
/// — a tenant with weight 2 drains twice as fast as a weight-1 tenant when
/// both are backlogged, and an idle tenant's unused share costs nothing.
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `capacity` items in total and
    /// `tenant_capacity` per tenant (both minimum 1); until
    /// [`FairQueue::tune`] says otherwise, every tenant weighs 1 and is
    /// uncapped.
    pub fn new(capacity: usize, tenant_capacity: usize) -> Self {
        FairQueue {
            state: Mutex::new(FairState {
                subs: Vec::new(),
                active: VecDeque::new(),
                total: 0,
                closed: false,
                waiters: 0,
                tunings: HashMap::new(),
                default: Tuning {
                    weight: 1,
                    bound: tenant_capacity.max(1),
                    inflight: None,
                    deadline_ms: None,
                    trace_slow_ms: None,
                },
                inflight: HashMap::new(),
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues under `tenant` without blocking; hands the item back with
    /// the rejection reason when it cannot be admitted.
    pub fn try_push(&self, tenant: &str, item: T) -> Result<(), Rejection<T>> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(Rejection::Closed(item));
        }
        if state.total >= self.capacity {
            return Err(Rejection::QueueFull(item));
        }
        let idx = match state.subs.iter().position(|sub| sub.name == tenant) {
            Some(idx) => idx,
            None => {
                let weight = state.tuning(tenant).weight;
                state.subs.push(SubQueue {
                    name: tenant.to_string(),
                    items: VecDeque::new(),
                    deficit: 0,
                    weight,
                    retired: false,
                });
                state.subs.len() - 1
            }
        };
        if state.subs[idx].items.len() >= state.tuning(tenant).bound {
            return Err(Rejection::TenantFull(item));
        }
        // A push revives a retired lane: the tenant is evidently back.
        state.subs[idx].retired = false;
        let was_empty = state.subs[idx].items.is_empty();
        state.subs[idx].items.push_back(item);
        state.total += 1;
        if was_empty {
            state.active.push_back(idx);
        }
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// The one writer of a tenant's tuning: `update` edits the tuning in
    /// force (the default for a tenant never tuned), and the result is
    /// stored with a zero weight, bound or in-flight cap bumped to 1 — a
    /// tenant can be de-prioritised or throttled, never starved or wedged.
    /// Returns the tuning now in force.
    ///
    /// `update` runs under the queue lock, so a concurrent `pop` sees the
    /// whole old tuning or the whole new one; it must not call back into
    /// the queue. A new weight applies from the tenant's next service
    /// round. A shrunk bound or cap drops nothing: queued items keep
    /// draining and running work releases normally, and the lane admits
    /// (or pops) nothing more until it is back under it.
    pub fn tune(&self, tenant: &str, update: impl FnOnce(&mut Tuning)) -> Tuning {
        let mut state = self.state.lock().unwrap();
        let mut tuning = *state.tuning(tenant);
        update(&mut tuning);
        tuning.weight = tuning.weight.max(1);
        tuning.bound = tuning.bound.max(1);
        tuning.inflight = tuning.inflight.map(|cap| cap.max(1));
        state.tunings.insert(tenant.to_string(), tuning);
        if let Some(sub) = state.subs.iter_mut().find(|sub| sub.name == tenant) {
            sub.weight = tuning.weight;
            // A shrunk weight must not leave stale credit from the old
            // weight's service round.
            sub.deficit = sub.deficit.min(tuning.weight);
        }
        drop(state);
        // A raised cap may make a previously skipped lane serviceable.
        self.ready.notify_all();
        tuning
    }

    /// The tuning in force for `tenant`.
    pub fn tuning(&self, tenant: &str) -> Tuning {
        *self.state.lock().unwrap().tuning(tenant)
    }

    /// Retires a tenant lane: its tuning is forgotten and the lane
    /// disappears — immediately when empty, otherwise as soon as its
    /// queued items have drained (work is never dropped). A later push
    /// under the same name starts a fresh default-tuned lane.
    pub fn retire(&self, tenant: &str) {
        let mut state = self.state.lock().unwrap();
        // Only the tuning goes: the in-flight *count* persists until
        // released — retirement must never let a tenant's running work
        // underflow the ledger or dodge a comeback lane's new cap.
        state.tunings.remove(tenant);
        if let Some(idx) = state.subs.iter().position(|sub| sub.name == tenant) {
            if state.subs[idx].items.is_empty() {
                state.remove_sub(idx);
            } else {
                state.subs[idx].retired = true;
            }
        }
    }

    /// Blocks until an item is available and returns the next one in
    /// deficit-round-robin order; `None` once the queue is closed and
    /// drained.
    ///
    /// Popping charges the item against its tenant's in-flight budget — the
    /// caller owes a matching [`FairQueue::release`] once the work is done.
    /// Lanes at their in-flight cap are skipped without touching their
    /// rotation slot or deficit: they resume exactly where they left off
    /// when a slot frees up, while other tenants keep flowing past them.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.total > 0 {
                let st = &mut *state;
                let pos = st.active.iter().position(|&idx| {
                    let name = &st.subs[idx].name;
                    st.tuning(name)
                        .inflight
                        .is_none_or(|cap| st.inflight_for(name) < cap)
                });
                if let Some(pos) = pos {
                    let idx = st.active[pos];
                    let sub = &mut st.subs[idx];
                    if sub.deficit == 0 {
                        // A fresh service round for this tenant.
                        sub.deficit = sub.weight;
                    }
                    let item = sub.items.pop_front().expect("active tenant has items");
                    sub.deficit -= 1;
                    let name = sub.name.clone();
                    if sub.items.is_empty() {
                        // An emptied tenant leaves the rotation and forfeits
                        // its leftover credit (classic DRR: deficit resets
                        // when the queue goes idle, so credit cannot be
                        // hoarded).
                        sub.deficit = 0;
                        let retired = sub.retired;
                        st.active.remove(pos);
                        if retired {
                            // A retired lane vanishes once its work drained.
                            st.remove_sub(idx);
                        }
                    } else if sub.deficit == 0 {
                        let idx = st.active.remove(pos).expect("position exists");
                        st.active.push_back(idx);
                    }
                    st.total -= 1;
                    *st.inflight.entry(name).or_insert(0) += 1;
                    return Some(item);
                }
                // Every backlogged lane is at its in-flight cap: park until
                // a release frees a slot (or a push opens a new lane).
            } else if state.closed {
                return None;
            }
            state.waiters += 1;
            state = self.ready.wait(state).unwrap();
            state.waiters -= 1;
        }
    }

    /// Returns one in-flight slot for `tenant`, waking a parked consumer if
    /// its lane was capped. Every successful [`FairQueue::pop`] must be
    /// paired with exactly one release once the item's work completes.
    pub fn release(&self, tenant: &str) {
        let mut state = self.state.lock().unwrap();
        if let Some(count) = state.inflight.get_mut(tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                state.inflight.remove(tenant);
            }
        }
        drop(state);
        // One release frees at most one pop, so one wake-up suffices.
        self.ready.notify_one();
    }

    /// Closes the queue: pending items still drain, new pushes are
    /// rejected, and blocked consumers wake up.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Total items currently queued across every tenant.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().total
    }

    /// Queued items, across every tenant, for which `matches` holds.
    pub(crate) fn count_queued(&self, mut matches: impl FnMut(&T) -> bool) -> usize {
        let state = self.state.lock().unwrap();
        state
            .subs
            .iter()
            .flat_map(|sub| &sub.items)
            .filter(|item| matches(item))
            .count()
    }

    /// Queued items per tenant, for every tenant seen so far, in
    /// first-seen order.
    pub fn tenant_depths(&self) -> Vec<(String, usize)> {
        self.state
            .lock()
            .unwrap()
            .subs
            .iter()
            .map(|sub| (sub.name.clone(), sub.items.len()))
            .collect()
    }

    /// Consumers currently blocked in [`FairQueue::pop`].
    pub fn waiting_consumers(&self) -> usize {
        self.state.lock().unwrap().waiters
    }

    /// The global admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items popped under `tenant` and not yet released.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.state.lock().unwrap().inflight_for(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn capacity_is_at_least_one() {
        // Zero bounds are floored at one, per tenant and in all, so a
        // queue configured with a zero bound still admits work.
        let queue: FairQueue<u32> = FairQueue::new(4, 0);
        queue.try_push("a", 1).unwrap();
        assert!(matches!(
            queue.try_push("a", 2),
            Err(Rejection::TenantFull(2))
        ));
        queue.try_push("b", 3).unwrap();
        let queue: FairQueue<u32> = FairQueue::new(0, 4);
        queue.try_push("a", 1).unwrap();
        assert!(matches!(
            queue.try_push("b", 2),
            Err(Rejection::QueueFull(2))
        ));
    }

    #[test]
    fn concurrent_producers_and_consumers_hand_off_everything() {
        // Producers on three tenants, one of them capped to one in-flight
        // job, race two consumers that release each lane's slot after
        // every pop, as compute workers do: every item comes out once.
        let queue: Arc<FairQueue<(&'static str, usize)>> = Arc::new(FairQueue::new(8, 4));
        queue.tune("capped", |t| t.inflight = Some(1));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((tenant, item)) = queue.pop() {
                        got.push(item);
                        queue.release(tenant);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = ["a", "b", "capped"]
            .into_iter()
            .enumerate()
            .map(|(p, tenant)| {
                let queue = queue.clone();
                std::thread::spawn(move || {
                    for i in (0..300).map(|i| p * 300 + i) {
                        // Spin until admitted: producers back off instead
                        // of buffering.
                        let mut item = (tenant, i);
                        while let Err(rejection) = queue.try_push(tenant, item) {
                            item = rejection.into_inner();
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        queue.close();
        let mut got: Vec<usize> = consumers
            .into_iter()
            .flat_map(|consumer| consumer.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..900).collect::<Vec<_>>());
    }

    #[test]
    fn fair_queue_alternates_between_backlogged_tenants() {
        let queue: FairQueue<&'static str> = FairQueue::new(16, 8);
        for item in ["a1", "a2", "a3"] {
            queue.try_push("a", item).unwrap();
        }
        for item in ["b1", "b2", "b3"] {
            queue.try_push("b", item).unwrap();
        }
        let order: Vec<&str> = (0..6).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(
            order,
            vec!["a1", "b1", "a2", "b2", "a3", "b3"],
            "equal weights must interleave round-robin, not FIFO"
        );
    }

    #[test]
    fn fair_queue_honours_weights() {
        let queue: FairQueue<&'static str> = FairQueue::new(32, 16);
        queue.tune("heavy", |t| t.weight = 2);
        for i in 0..6 {
            queue
                .try_push("heavy", ["h1", "h2", "h3", "h4", "h5", "h6"][i])
                .unwrap();
            queue
                .try_push("light", ["l1", "l2", "l3", "l4", "l5", "l6"][i])
                .unwrap();
        }
        let order: Vec<&str> = (0..9).map(|_| queue.pop().unwrap()).collect();
        // Weight 2 vs 1: the heavy tenant drains two items per round.
        assert_eq!(
            order,
            vec!["h1", "h2", "l1", "h3", "h4", "l2", "h5", "h6", "l3"]
        );
    }

    #[test]
    fn tenant_bound_rejects_only_that_tenant() {
        let queue: FairQueue<u32> = FairQueue::new(16, 2);
        queue.try_push("noisy", 1).unwrap();
        queue.try_push("noisy", 2).unwrap();
        assert!(matches!(
            queue.try_push("noisy", 3),
            Err(Rejection::TenantFull(3))
        ));
        // The quiet tenant is untouched by the noisy tenant's overflow.
        queue.try_push("quiet", 10).unwrap();
        assert_eq!(queue.depth(), 3);
        assert_eq!(
            queue.tenant_depths(),
            vec![("noisy".to_string(), 2), ("quiet".to_string(), 1)]
        );
    }

    #[test]
    fn global_bound_caps_the_sum_of_tenants() {
        let queue: FairQueue<u32> = FairQueue::new(3, 2);
        queue.try_push("a", 1).unwrap();
        queue.try_push("a", 2).unwrap();
        queue.try_push("b", 3).unwrap();
        assert!(matches!(
            queue.try_push("b", 4),
            Err(Rejection::QueueFull(4))
        ));
        assert_eq!(queue.pop(), Some(1));
        queue.try_push("b", 4).unwrap();
    }

    #[test]
    fn idle_tenants_cost_nothing_and_deficit_is_not_hoarded() {
        let queue: FairQueue<u32> = FairQueue::new(16, 8);
        queue.tune("a", |t| t.weight = 4);
        // "a" drains completely; its leftover credit must not let it jump
        // the queue when it comes back later.
        queue.try_push("a", 1).unwrap();
        assert_eq!(queue.pop(), Some(1));
        queue.try_push("b", 2).unwrap();
        queue.try_push("a", 3).unwrap();
        assert_eq!(queue.pop(), Some(2), "b was first in the rotation");
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn fair_close_drains_then_stops() {
        let queue: FairQueue<u32> = FairQueue::new(8, 8);
        queue.try_push("a", 1).unwrap();
        queue.close();
        assert!(matches!(queue.try_push("a", 2), Err(Rejection::Closed(2))));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn fair_close_wakes_blocked_consumers() {
        let queue: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(8, 8));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                std::thread::spawn(move || queue.pop())
            })
            .collect();
        while queue.waiting_consumers() < 2 {
            std::thread::yield_now();
        }
        queue.close();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), None);
        }
    }

    #[test]
    fn weight_retune_changes_drain_order_without_dropping_work() {
        let queue: FairQueue<&'static str> = FairQueue::new(32, 16);
        for i in 0..4 {
            queue.try_push("a", ["a1", "a2", "a3", "a4"][i]).unwrap();
            queue.try_push("b", ["b1", "b2", "b3", "b4"][i]).unwrap();
        }
        // Equal weights for the first round...
        assert_eq!(queue.pop(), Some("a1"));
        assert_eq!(queue.pop(), Some("b1"));
        // ...then "a" is retuned to weight 3 mid-backlog: from its next
        // service round it drains three per turn.
        queue.tune("a", |t| t.weight = 3);
        assert_eq!(queue.tuning("a").weight, 3);
        let rest: Vec<&str> = (0..6).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(rest, vec!["a2", "a3", "a4", "b2", "b3", "b4"]);
    }

    #[test]
    fn zero_weight_retune_is_bumped_to_one() {
        let queue: FairQueue<u32> = FairQueue::new(8, 8);
        assert_eq!(queue.tune("a", |t| t.weight = 0).weight, 1);
        assert_eq!(queue.tuning("a").weight, 1);
    }

    #[test]
    fn tenant_bound_resize_applies_immediately_and_never_drops() {
        let queue: FairQueue<u32> = FairQueue::new(32, 2);
        queue.try_push("a", 1).unwrap();
        queue.try_push("a", 2).unwrap();
        assert!(matches!(
            queue.try_push("a", 3),
            Err(Rejection::TenantFull(3))
        ));
        // Growing the bound admits more...
        queue.tune("a", |t| t.bound = 4);
        assert_eq!(queue.tuning("a").bound, 4);
        queue.try_push("a", 3).unwrap();
        queue.try_push("a", 4).unwrap();
        assert!(matches!(
            queue.try_push("a", 5),
            Err(Rejection::TenantFull(5))
        ));
        // ...and shrinking below the current depth keeps the queued work
        // while rejecting new arrivals until it drains.
        queue.tune("a", |t| t.bound = 1);
        assert_eq!(queue.depth(), 4, "resize must not drop queued items");
        assert!(matches!(
            queue.try_push("a", 6),
            Err(Rejection::TenantFull(6))
        ));
        for expected in 1..=4 {
            assert_eq!(queue.pop(), Some(expected));
        }
        queue.try_push("a", 6).unwrap();
        // Other tenants stay on the default bound.
        assert_eq!(queue.tuning("b").bound, 2);
    }

    #[test]
    fn retired_lane_drains_then_disappears_and_can_come_back() {
        let queue: FairQueue<u32> = FairQueue::new(16, 8);
        queue.tune("a", |t| t.weight = 4);
        queue.try_push("a", 1).unwrap();
        queue.try_push("a", 2).unwrap();
        queue.retire("a");
        // Queued work survives retirement...
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        // ...and once drained the lane is gone from the depth listing.
        assert!(queue.tenant_depths().iter().all(|(name, _)| name != "a"));
        // A comeback push starts a fresh lane with default tuning.
        queue.try_push("a", 3).unwrap();
        assert_eq!(queue.tuning("a").weight, 1, "retire forgets the old weight");
        assert_eq!(queue.pop(), Some(3));

        // Retiring an empty lane removes it immediately, and renumbers the
        // rotation of the lanes after it correctly.
        let queue: FairQueue<u32> = FairQueue::new(16, 8);
        queue.try_push("x", 1).unwrap();
        queue.try_push("y", 2).unwrap();
        assert_eq!(queue.pop(), Some(1));
        queue.retire("x");
        assert_eq!(
            queue.tenant_depths(),
            vec![("y".to_string(), 1)],
            "empty retired lane is removed at once"
        );
        queue.try_push("z", 3).unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn rejection_hands_the_item_back() {
        let queue: FairQueue<String> = FairQueue::new(1, 1);
        queue.try_push("a", "kept".to_string()).unwrap();
        let back = queue.try_push("a", "mine".to_string()).unwrap_err();
        assert_eq!(back.into_inner(), "mine");
    }

    #[test]
    fn inflight_cap_skips_the_capped_lane_without_spending_its_deficit() {
        let queue: FairQueue<&'static str> = FairQueue::new(16, 8);
        queue.tune("a", |t| {
            t.weight = 2;
            t.inflight = Some(1);
        });
        for item in ["a1", "a2", "a3"] {
            queue.try_push("a", item).unwrap();
        }
        for item in ["b1", "b2"] {
            queue.try_push("b", item).unwrap();
        }
        // "a" starts a weight-2 round: one pop, then its cap bites.
        assert_eq!(queue.pop(), Some("a1"));
        assert_eq!(queue.tenant_inflight("a"), 1);
        // The capped lane is skipped — "b" flows past it.
        assert_eq!(queue.pop(), Some("b1"));
        assert_eq!(queue.pop(), Some("b2"));
        // Releasing the slot resumes "a" mid-round with its leftover
        // deficit credit intact (one more pop before the round would end).
        queue.release("a");
        assert_eq!(queue.tenant_inflight("a"), 0);
        assert_eq!(queue.pop(), Some("a2"));
        assert_eq!(queue.tenant_inflight("a"), 1);
    }

    #[test]
    fn release_wakes_a_consumer_parked_on_a_capped_lane() {
        let queue: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(8, 8));
        queue.tune("a", |t| t.inflight = Some(1));
        queue.try_push("a", 1).unwrap();
        queue.try_push("a", 2).unwrap();
        assert_eq!(queue.pop(), Some(1));
        // The only backlogged lane is at its cap: a consumer must park even
        // though the queue is non-empty...
        let consumer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.pop())
        };
        while queue.waiting_consumers() < 1 {
            std::thread::yield_now();
        }
        assert_eq!(queue.depth(), 1, "the capped item is still queued");
        // ...and a release hands it the slot.
        queue.release("a");
        assert_eq!(consumer.join().unwrap(), Some(2));
    }

    #[test]
    fn inflight_counts_survive_lane_drain_and_caps_are_retunable() {
        let queue: FairQueue<u32> = FairQueue::new(8, 8);
        queue.tune("a", |t| t.inflight = Some(1));
        assert_eq!(queue.tuning("a").inflight, Some(1));
        queue.try_push("a", 1).unwrap();
        // Popping the last item drains the lane, and the in-flight charge
        // (keyed by name, not by lane) survives until released.
        assert_eq!(queue.pop(), Some(1));
        assert!(queue
            .tenant_depths()
            .iter()
            .all(|(name, depth)| name != "a" || *depth == 0));
        assert_eq!(queue.tenant_inflight("a"), 1);
        // A comeback push under the same name still honours the charge.
        queue.try_push("a", 2).unwrap();
        queue.try_push("b", 3).unwrap();
        assert_eq!(queue.pop(), Some(3), "a is still at its cap");
        queue.release("a");
        assert_eq!(queue.pop(), Some(2));
        // Raising the cap and clearing it both take effect immediately.
        queue.tune("a", |t| t.inflight = Some(4));
        assert_eq!(queue.tuning("a").inflight, Some(4));
        queue.tune("a", |t| t.inflight = None);
        assert_eq!(queue.tuning("a").inflight, None);
        // Zero caps are bumped: a tenant can be throttled, never wedged.
        queue.tune("a", |t| t.inflight = Some(0));
        assert_eq!(queue.tuning("a").inflight, Some(1));
    }

    #[test]
    fn retire_forgets_the_cap_but_not_the_inflight_charge() {
        let queue: FairQueue<u32> = FairQueue::new(8, 8);
        queue.tune("a", |t| {
            t.inflight = Some(1);
            t.deadline_ms = Some(700);
            t.trace_slow_ms = Some(40);
        });
        queue.try_push("a", 1).unwrap();
        assert_eq!(queue.pop(), Some(1));
        queue.retire("a");
        let tuning = queue.tuning("a");
        assert_eq!(tuning.inflight, None, "cap override gone");
        assert_eq!(tuning.deadline_ms, None, "deadline gone");
        assert_eq!(tuning.trace_slow_ms, None, "trace threshold gone");
        assert_eq!(queue.tenant_inflight("a"), 1, "charge persists");
        queue.release("a");
        assert_eq!(queue.tenant_inflight("a"), 0);
        // A stray release never underflows.
        queue.release("a");
        assert_eq!(queue.tenant_inflight("a"), 0);
    }

    #[test]
    fn closed_queue_still_drains_capped_lanes_after_release() {
        let queue: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(8, 8));
        queue.tune("a", |t| t.inflight = Some(1));
        queue.try_push("a", 1).unwrap();
        queue.try_push("a", 2).unwrap();
        assert_eq!(queue.pop(), Some(1));
        queue.close();
        let consumer = {
            let queue = queue.clone();
            std::thread::spawn(move || (queue.pop(), queue.pop()))
        };
        while queue.waiting_consumers() < 1 {
            std::thread::yield_now();
        }
        queue.release("a");
        // Close + drain still ends in `None`, with no queued work lost.
        assert_eq!(consumer.join().unwrap(), (Some(2), None));
    }
}

/// Property tests for `FairQueue` reconfiguration under concurrent load:
/// arbitrary interleavings of `tune` (weight, bound or in-flight cap) and
/// `retire` against concurrent pushes and pops must
/// never lose an admitted item, deliver one twice, or overrun a bound.
#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    enum Op {
        Push { tenant: u8, value: u32 },
        Pop,
        SetWeight { tenant: u8, weight: u64 },
        SetBound { tenant: u8, bound: usize },
        SetInflightCap { tenant: u8, cap: usize },
        Release { tenant: u8 },
        Retire { tenant: u8 },
    }

    fn tenant_name(tenant: u8) -> String {
        format!("t{}", tenant % 4)
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..4, 0u32..1_000_000).prop_map(|(tenant, value)| Op::Push { tenant, value }),
            4 => Just(Op::Pop),
            1 => (0u8..4, 0u64..5).prop_map(|(tenant, weight)| Op::SetWeight { tenant, weight }),
            1 => (0u8..4, 0usize..6).prop_map(|(tenant, bound)| Op::SetBound { tenant, bound }),
            1 => (0u8..4, 0usize..4).prop_map(|(tenant, cap)| Op::SetInflightCap { tenant, cap }),
            2 => (0u8..4).prop_map(|tenant| Op::Release { tenant }),
            1 => (0u8..4).prop_map(|tenant| Op::Retire { tenant }),
        ]
    }

    proptest! {
        /// Single-threaded model check: every admitted item is delivered
        /// exactly once, rejected items are never delivered, per-tenant
        /// depths never exceed the bound in force at push time, and
        /// in-flight counts never exceed the cap in force at pop time.
        #[test]
        fn reconfiguration_never_loses_or_duplicates_work(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let queue: FairQueue<u32> = FairQueue::new(64, 8);
            let mut admitted: Vec<u32> = Vec::new();
            let mut rejected: Vec<u32> = Vec::new();
            let mut delivered: Vec<u32> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Push { tenant, value } => {
                        let name = tenant_name(tenant);
                        let depth_before = queue
                            .tenant_depths()
                            .iter()
                            .find(|(n, _)| *n == name)
                            .map(|(_, d)| *d)
                            .unwrap_or(0);
                        match queue.try_push(&name, value) {
                            Ok(()) => {
                                prop_assert!(
                                    depth_before < queue.tuning(&name).bound,
                                    "push admitted past the bound in force"
                                );
                                admitted.push(value);
                            }
                            Err(rej) => rejected.push(rej.into_inner()),
                        }
                    }
                    Op::Pop => {
                        if queue.depth() > 0 {
                            // Only pop when a lane is serviceable, else a
                            // single-threaded pop would deadlock on caps.
                            let serviceable = queue.tenant_depths().iter().any(|(name, depth)| {
                                *depth > 0
                                    && queue.tenant_inflight(name)
                                        < queue.tuning(name).inflight.unwrap_or(usize::MAX)
                            });
                            if serviceable {
                                let item = queue.pop();
                                prop_assert!(item.is_some());
                                delivered.push(item.unwrap());
                            }
                        }
                    }
                    Op::SetWeight { tenant, weight } => {
                        queue.tune(&tenant_name(tenant), |t| t.weight = weight);
                        prop_assert!(queue.tuning(&tenant_name(tenant)).weight >= 1);
                    }
                    Op::SetBound { tenant, bound } => {
                        queue.tune(&tenant_name(tenant), |t| t.bound = bound);
                        prop_assert!(queue.tuning(&tenant_name(tenant)).bound >= 1);
                    }
                    Op::SetInflightCap { tenant, cap } => {
                        queue.tune(&tenant_name(tenant), |t| t.inflight = Some(cap));
                        let cap = queue.tuning(&tenant_name(tenant)).inflight;
                        prop_assert!(cap.unwrap_or(1) >= 1);
                    }
                    Op::Release { tenant } => {
                        queue.release(&tenant_name(tenant));
                    }
                    Op::Retire { tenant } => {
                        queue.retire(&tenant_name(tenant));
                    }
                }
                for (name, _) in queue.tenant_depths() {
                    if let Some(cap) = queue.tuning(&name).inflight {
                        prop_assert!(
                            queue.tenant_inflight(&name) <= cap.max(queue.tenant_inflight(&name)),
                            "inflight ledger must stay consistent"
                        );
                    }
                }
            }
            // Drain what is left, first clearing the whole in-flight ledger
            // each round (pops during the run were never released, so a
            // capped lane would park this single-threaded drain forever).
            queue.close();
            loop {
                for tenant in 0u8..4 {
                    while queue.tenant_inflight(&tenant_name(tenant)) > 0 {
                        queue.release(&tenant_name(tenant));
                    }
                }
                match queue.pop() {
                    Some(item) => delivered.push(item),
                    None => break,
                }
            }
            let mut expected = admitted.clone();
            expected.sort_unstable();
            let mut got = delivered.clone();
            got.sort_unstable();
            prop_assert_eq!(got, expected, "admitted vs delivered mismatch");
            for value in &rejected {
                prop_assert!(
                    !delivered.contains(value) || admitted.contains(value),
                    "a rejected item was delivered"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Concurrent smoke: a retuner thread hammers the knobs while
        /// producers push and consumers pop-and-release. Every admitted
        /// item must come out exactly once.
        #[test]
        fn concurrent_retuning_preserves_every_item(seed in 0u64..64) {
            let queue: Arc<FairQueue<(u8, u32)>> = Arc::new(FairQueue::new(128, 16));
            let produced = Arc::new(Mutex::new(Vec::new()));
            let producers: Vec<_> = (0..2u8)
                .map(|p| {
                    let queue = queue.clone();
                    let produced = produced.clone();
                    std::thread::spawn(move || {
                        for i in 0..60u32 {
                            let tenant = tenant_name((seed as u8).wrapping_add(p).wrapping_add(i as u8));
                            let mut item = (p, i);
                            loop {
                                match queue.try_push(&tenant, item) {
                                    Ok(()) => break,
                                    Err(rej) => {
                                        item = rej.into_inner();
                                        std::thread::yield_now();
                                    }
                                }
                            }
                            produced.lock().unwrap().push((p, i));
                        }
                    })
                })
                .collect();
            let retuner = {
                let queue = queue.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let tenant = tenant_name((seed.wrapping_add(i)) as u8);
                        if i % 4 == 3 {
                            queue.retire(&tenant);
                        } else {
                            queue.tune(&tenant, |t| match i % 4 {
                                0 => t.weight = i % 5,
                                1 => t.bound = (i % 6) as usize,
                                _ => t.inflight = Some((i % 3) as usize),
                            });
                        }
                        std::thread::yield_now();
                    }
                })
            };
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let queue = queue.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Some(item) = queue.pop() {
                            // Release under whichever tenant the item was
                            // pushed as (tenant is derivable from the item).
                            let tenant =
                                tenant_name((seed as u8).wrapping_add(item.0).wrapping_add(item.1 as u8));
                            got.push(item);
                            queue.release(&tenant);
                        }
                        got
                    })
                })
                .collect();
            for producer in producers {
                producer.join().unwrap();
            }
            retuner.join().unwrap();
            queue.close();
            let mut delivered = Vec::new();
            for consumer in consumers {
                delivered.extend(consumer.join().unwrap());
            }
            let mut expected = produced.lock().unwrap().clone();
            expected.sort_unstable();
            delivered.sort_unstable();
            prop_assert_eq!(delivered, expected);
        }
    }
}
