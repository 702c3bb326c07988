//! A deterministic impaired-link layer for point-to-point message
//! traffic: the event-injection API the serving layer runs over.
//!
//! Where [`crate::DesNetwork`] simulates a whole WSN deployment,
//! [`NetSim`] simulates just the *links* between arbitrary endpoints — a
//! client and a gateway, say — so any request/reply protocol can be run
//! under scripted loss, latency, jitter (which opens a reordering
//! window), and partitions, all on the same total-ordered
//! [`crate::EventQueue`] and therefore bit-reproducibly.
//!
//! Three ideas make it composable:
//!
//! * **Links are indices.** Callers [`NetSim::add_link`] as many
//!   unidirectional links as they need and [`NetSim::send`] payloads down
//!   them; the sim decides drop/delay per send and delivers via
//!   [`NetSim::next`] in virtual-time order.
//! * **Impairments are scripted.** A [`NetScenario`] is a time-ordered
//!   script of per-link [`LinkAction`]s (loss override, delay override,
//!   partition/heal) applied as virtual time crosses each timestamp —
//!   the exact idiom of [`crate::Scenario`], aimed at links instead of
//!   devices.
//! * **Every impairment decision is recorded.** Each send appends a
//!   [`SendRecord`] to the trace; a sim rebuilt with
//!   [`NetSim::begin_replay`] re-applies the recorded verdicts instead of
//!   drawing fresh randomness, so a failing run replays **bit-identically
//!   from its log** even across RNG or parameter drift.
//!
//! Timers and other caller-owned events enter the same queue through
//! [`NetSim::schedule_in`]; they are never impaired and never recorded
//! (the caller's control flow is already deterministic).

use std::collections::VecDeque;

use orco_tensor::OrcoRng;

use crate::event::EventQueue;

/// Static parameters of one unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Minimum one-way delivery delay, seconds.
    pub delay_s: f64,
    /// Extra uniformly-drawn delay in `[0, jitter_s)`, seconds. A
    /// nonzero jitter opens a **reordering window**: two sends issued
    /// back-to-back may deliver in either order.
    pub jitter_s: f64,
    /// Per-send Bernoulli loss probability in `[0, 1)`.
    pub loss_prob: f64,
}

impl LinkParams {
    /// A perfect link: zero delay, zero jitter, zero loss.
    #[must_use]
    pub fn ideal() -> Self {
        Self { delay_s: 0.0, jitter_s: 0.0, loss_prob: 0.0 }
    }

    fn assert_valid(&self) {
        assert!(
            self.delay_s.is_finite() && self.delay_s >= 0.0,
            "LinkParams: delay_s must be finite and >= 0 (got {})",
            self.delay_s
        );
        assert!(
            self.jitter_s.is_finite() && self.jitter_s >= 0.0,
            "LinkParams: jitter_s must be finite and >= 0 (got {})",
            self.jitter_s
        );
        assert!(
            (0.0..1.0).contains(&self.loss_prob),
            "LinkParams: loss_prob must be in [0, 1) (got {})",
            self.loss_prob
        );
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        Self::ideal()
    }
}

/// One scripted perturbation of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LinkAction {
    /// Override the link's delay and jitter.
    SetDelay {
        /// Minimum one-way delay, seconds.
        delay_s: f64,
        /// Extra uniform delay bound, seconds.
        jitter_s: f64,
    },
    /// Clear the delay override.
    ClearDelay,
    /// Partition the link: every send is dropped until [`LinkAction::Heal`].
    Partition,
    /// Heal a partition.
    Heal,
}

/// A time-ordered script of per-link `LinkAction`s.
///
/// # Examples
///
/// ```
/// use orco_sim::NetScenario;
///
/// let script = NetScenario::new()
///     .partition(1, 2.0..2.5)     // link 1 is cut for 500 ms
///     .slow(0, 4.0..5.0, 0.050, 0.010);
/// assert_ne!(script, NetScenario::new());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetScenario {
    actions: Vec<(f64, usize, LinkAction)>,
}

impl NetScenario {
    /// An empty script (all links stay at their base parameters).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` on `link` at virtual time `t_s`.
    ///
    /// # Panics
    ///
    /// Panics if `t_s` is not a finite number of seconds ≥ 0.
    #[must_use]
    pub(crate) fn at(mut self, t_s: f64, link: usize, action: LinkAction) -> Self {
        orco_wsn::clock::assert_monotone_dt(t_s);
        self.actions.push((t_s, link, action));
        self
    }

    /// Slows `link` to `delay_s` (+ uniform `jitter_s`) over `window`.
    #[must_use]
    pub fn slow(
        self,
        link: usize,
        window: std::ops::Range<f64>,
        delay_s: f64,
        jitter_s: f64,
    ) -> Self {
        self.at(window.start, link, LinkAction::SetDelay { delay_s, jitter_s }).at(
            window.end,
            link,
            LinkAction::ClearDelay,
        )
    }

    /// Partitions `link` over `window` (every send in it is dropped).
    #[must_use]
    pub fn partition(self, link: usize, window: std::ops::Range<f64>) -> Self {
        self.at(window.start, link, LinkAction::Partition).at(window.end, link, LinkAction::Heal)
    }

    /// The script sorted by time (stable: same-time actions keep their
    /// scripting order).
    #[must_use]
    pub(crate) fn sorted_actions(&self) -> Vec<(f64, usize, LinkAction)> {
        let mut sorted = self.actions.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        sorted
    }

    /// Checks every link index the script references against a sim with
    /// `num_links` links (a typo'd index would silently impair nothing).
    ///
    /// # Panics
    ///
    /// Panics naming the first out-of-range index.
    pub(crate) fn validate_links(&self, num_links: usize) {
        for (t, link, _) in &self.actions {
            assert!(
                *link < num_links,
                "net scenario action at t = {t} s references link {link}, but the sim has \
                 only {num_links} links (indices 0..{num_links})"
            );
        }
    }
}

/// The impairment decision made for one send, in send order. The trace of
/// these is the **event log** of a run: replaying it with
/// [`NetSim::begin_replay`] reproduces the run bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendRecord {
    /// The link the send went down.
    pub link: u32,
    /// What happened to it.
    pub verdict: SendVerdict,
}

/// What the sim decided to do with a send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendVerdict {
    /// Delivered after `delay_s` seconds.
    Delivered {
        /// The drawn one-way delay, seconds.
        delay_s: f64,
    },
    /// Dropped by the link's Bernoulli loss draw.
    Lost,
    /// Dropped because the link was partitioned.
    Partitioned,
}

#[derive(Debug)]
struct LinkState {
    base: LinkParams,
    delay_override: Option<(f64, f64)>,
    partitioned: bool,
}

impl LinkState {
    fn delay(&self) -> (f64, f64) {
        self.delay_override.unwrap_or((self.base.delay_s, self.base.jitter_s))
    }
}

/// A deterministic impaired-link simulator over caller-defined links.
///
/// Payloads are opaque to the sim; delivery order is the total
/// `(time, tie, sequence)` order of [`EventQueue`], so a run is a pure
/// function of its seed, links, script, and the caller's send/schedule
/// sequence — and of the recorded trace alone under replay.
#[derive(Debug)]
pub struct NetSim<T> {
    queue: EventQueue<T>,
    links: Vec<LinkState>,
    /// Scripted actions not yet applied, ascending in time.
    actions: VecDeque<(f64, usize, LinkAction)>,
    rng: OrcoRng,
    now_s: f64,
    trace: Vec<SendRecord>,
    replay: Option<VecDeque<SendRecord>>,
}

impl<T> NetSim<T> {
    /// An empty sim drawing impairment randomness from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            queue: EventQueue::new(),
            links: Vec::new(),
            actions: VecDeque::new(),
            rng: OrcoRng::from_seed_u64(seed),
            now_s: 0.0,
            trace: Vec::new(),
            replay: None,
        }
    }

    /// Adds a unidirectional link and returns its index.
    ///
    /// # Panics
    ///
    /// Panics when `params` are out of range (negative delay, loss ≥ 1).
    pub fn add_link(&mut self, params: LinkParams) -> usize {
        params.assert_valid();
        self.links.push(LinkState { base: params, delay_override: None, partitioned: false });
        self.links.len() - 1
    }

    /// Merges `scenario` into the pending impairment script. Actions
    /// whose time has already passed apply immediately.
    ///
    /// # Panics
    ///
    /// Panics if the script references a link index this sim does not
    /// have (add links first).
    pub fn script(&mut self, scenario: &NetScenario) {
        scenario.validate_links(self.links.len());
        let mut merged: Vec<_> = self.actions.drain(..).collect();
        merged.extend(scenario.sorted_actions());
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.actions = merged.into();
        self.apply_actions_until(self.now_s);
    }

    /// Switches the sim into replay mode: subsequent sends consume the
    /// recorded verdicts (in order) instead of drawing randomness. The
    /// caller must re-issue the same send sequence; a mismatched link is
    /// a replay divergence and panics with a diagnostic.
    pub fn begin_replay(&mut self, trace: Vec<SendRecord>) {
        self.replay = Some(trace.into());
    }

    /// Current virtual time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// The impairment decisions recorded so far, in send order.
    #[must_use]
    pub fn trace(&self) -> &[SendRecord] {
        &self.trace
    }

    /// Sends `payload` down `link` at the current virtual time. The
    /// verdict (and, when delivered, the drawn delay) is recorded in the
    /// trace; delivered payloads surface from [`NetSim::next`] at
    /// `now + delay`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link index, or in replay mode when the
    /// send sequence diverges from the recorded trace.
    pub fn send(&mut self, link: usize, tie: u64, payload: T) -> SendVerdict {
        self.apply_actions_until(self.now_s);
        assert!(link < self.links.len(), "send on unknown link {link}");
        let verdict = match &mut self.replay {
            Some(tape) => {
                let rec = tape.pop_front().unwrap_or_else(|| {
                    panic!(
                        "replay divergence: trace exhausted at send #{} (link {link})",
                        self.trace.len()
                    )
                });
                assert!(
                    rec.link as usize == link,
                    "replay divergence at send #{}: live run uses link {link}, trace says \
                     link {}",
                    self.trace.len(),
                    rec.link
                );
                rec.verdict
            }
            None => {
                let state = &self.links[link];
                if state.partitioned {
                    SendVerdict::Partitioned
                } else if self.rng.bernoulli_f64(state.base.loss_prob) {
                    SendVerdict::Lost
                } else {
                    let (delay, jitter) = state.delay();
                    let extra = if jitter > 0.0 { jitter * self.rng.next_f64() } else { 0.0 };
                    SendVerdict::Delivered { delay_s: delay + extra }
                }
            }
        };
        self.trace.push(SendRecord { link: link as u32, verdict });
        if let SendVerdict::Delivered { delay_s } = verdict {
            self.queue.schedule(self.now_s + delay_s, tie, payload);
        }
        verdict
    }

    /// Injects a caller-owned event (a timer, say) `dt_s` seconds from
    /// now. Never impaired, never recorded.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not a finite number of seconds ≥ 0.
    pub fn schedule_in(&mut self, dt_s: f64, tie: u64, payload: T) {
        orco_wsn::clock::assert_monotone_dt(dt_s);
        self.queue.schedule(self.now_s + dt_s, tie, payload);
    }

    /// Pops the earliest pending event, advancing virtual time to it and
    /// applying any scripted actions whose time has come.
    ///
    /// Not an [`Iterator`]: stepping mutates link/partition state and
    /// callers interleave `send`s between pops.
    #[expect(
        clippy::should_implement_trait,
        reason = "stepping mutates link state and callers send between pops; not an Iterator"
    )]
    pub fn next(&mut self) -> Option<(f64, T)> {
        let (t, payload) = self.queue.pop()?;
        self.now_s = t;
        self.apply_actions_until(t);
        Some((t, payload))
    }

    fn apply_actions_until(&mut self, t_s: f64) {
        while let Some(&(at, link, action)) = self.actions.front() {
            if at > t_s {
                break;
            }
            self.actions.pop_front();
            let state = &mut self.links[link];
            match action {
                LinkAction::SetDelay { delay_s, jitter_s } => {
                    assert!(
                        delay_s.is_finite()
                            && delay_s >= 0.0
                            && jitter_s.is_finite()
                            && jitter_s >= 0.0,
                        "SetDelay: delay/jitter must be finite and >= 0"
                    );
                    state.delay_override = Some((delay_s, jitter_s));
                }
                LinkAction::ClearDelay => state.delay_override = None,
                LinkAction::Partition => state.partitioned = true,
                LinkAction::Heal => state.partitioned = false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_with_link(params: LinkParams, seed: u64) -> NetSim<u32> {
        let mut sim = NetSim::new(seed);
        sim.add_link(params);
        sim
    }

    #[test]
    fn ideal_link_delivers_in_order_with_zero_delay() {
        let mut sim = sim_with_link(LinkParams::ideal(), 1);
        sim.send(0, 0, 10);
        sim.send(0, 0, 20);
        assert_eq!(sim.next(), Some((0.0, 10)));
        assert_eq!(sim.next(), Some((0.0, 20)));
        assert_eq!(sim.next(), None);
    }

    #[test]
    fn loss_drops_and_records() {
        let mut sim = sim_with_link(LinkParams { loss_prob: 0.5, ..LinkParams::ideal() }, 42);
        let mut lost = 0;
        for i in 0..200 {
            if sim.send(0, 0, i) == SendVerdict::Lost {
                lost += 1;
            }
        }
        assert!((50..150).contains(&lost), "loss draw wildly off: {lost}/200");
        assert_eq!(sim.trace().len(), 200);
    }

    #[test]
    fn partition_window_cuts_and_heals() {
        let mut sim = sim_with_link(LinkParams::ideal(), 3);
        sim.script(&NetScenario::new().partition(0, 1.0..2.0));
        sim.send(0, 0, 1); // before the window: delivered at t = 0
        sim.schedule_in(1.5, 0, 99); // timer inside the window
        assert_eq!(sim.next(), Some((0.0, 1)));
        assert_eq!(sim.next(), Some((1.5, 99)));
        assert_eq!(sim.send(0, 0, 2), SendVerdict::Partitioned);
        sim.schedule_in(1.0, 0, 100); // t = 2.5: window over
        assert_eq!(sim.next(), Some((2.5, 100)));
        assert!(matches!(sim.send(0, 0, 3), SendVerdict::Delivered { .. }));
    }

    #[test]
    fn jitter_opens_a_reordering_window() {
        let mut sim =
            sim_with_link(LinkParams { delay_s: 0.01, jitter_s: 0.05, ..LinkParams::ideal() }, 7);
        // Send a burst; with jitter some later send must overtake an
        // earlier one at this seed (and any reasonable one).
        for i in 0..32u32 {
            sim.send(0, 0, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.next()).map(|(_, p)| p).collect();
        assert_eq!(order.len(), 32);
        assert!(order.windows(2).any(|w| w[0] > w[1]), "no reordering observed: {order:?}");
    }

    #[test]
    fn replay_reproduces_verdicts_bitwise() {
        let params = LinkParams { delay_s: 0.002, jitter_s: 0.004, loss_prob: 0.3 };
        let mut live = sim_with_link(params, 1234);
        let mut verdicts = Vec::new();
        for i in 0..100 {
            verdicts.push(live.send(0, 0, i));
        }
        let deliveries: Vec<(f64, u32)> = std::iter::from_fn(|| live.next()).collect();
        let trace = live.trace().to_vec();

        // Different seed, different base params: the tape wins anyway.
        let mut replayed =
            sim_with_link(LinkParams { delay_s: 9.9, jitter_s: 9.9, loss_prob: 0.9 }, 999);
        replayed.begin_replay(trace.clone());
        for i in 0..100 {
            assert_eq!(replayed.send(0, 0, i), verdicts[i as usize]);
        }
        let replay_deliveries: Vec<(f64, u32)> = std::iter::from_fn(|| replayed.next()).collect();
        assert_eq!(replay_deliveries, deliveries, "replay must reproduce delivery schedule");
        assert_eq!(replayed.trace(), &trace[..], "replay re-records the same trace");
    }

    #[test]
    #[should_panic(expected = "replay divergence")]
    fn replay_divergence_is_loud() {
        let mut live = sim_with_link(LinkParams::ideal(), 5);
        live.send(0, 0, 1);
        let trace = live.trace().to_vec();
        let mut replayed = NetSim::new(5);
        replayed.add_link(LinkParams::ideal());
        replayed.add_link(LinkParams::ideal());
        replayed.begin_replay(trace);
        replayed.send(1, 0, 1); // trace says link 0
    }

    #[test]
    #[should_panic(expected = "references link")]
    fn script_validates_link_indices() {
        let mut sim = sim_with_link(LinkParams::ideal(), 0);
        sim.script(&NetScenario::new().partition(3, 0.0..1.0));
    }
}
