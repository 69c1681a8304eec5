//! The protocol abstraction.
//!
//! A population protocol `P(Q, Y, T, π_out)` (Section 2 of the paper) is a
//! finite set of states `Q`, an output alphabet `Y`, a deterministic
//! transition function `T : Q × Q → Q × Q` applied to (initiator, responder)
//! pairs, and an output function `π_out : Q → Y`.
//!
//! [`Protocol`] captures `Q` (the associated `State` type) and `T`
//! ([`Protocol::interact`]).  The output function is modelled by the
//! refinement traits: [`LeaderElection`] for protocols whose output alphabet
//! is `{L, F}` and, for other problems (ring orientation, colouring), by
//! protocol-specific inspection functions in their own crates.

use crate::config::Configuration;

/// Output alphabet of a leader-election protocol: `L` (leader) or `F`
/// (follower).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeaderOutput {
    /// The agent outputs `L`.
    Leader,
    /// The agent outputs `F`.
    Follower,
}

impl std::fmt::Display for LeaderOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaderOutput::Leader => write!(f, "L"),
            LeaderOutput::Follower => write!(f, "F"),
        }
    }
}

/// How many agents hold each per-agent property an oracle's verdict
/// depends on: the running state of an incremental oracle (see
/// [`Protocol::oracle_count`]).
///
/// The fields are named after Fischer–Jiang's `Ω?`, the oracle this models;
/// another oracle is free to use any subset of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OracleCounts {
    /// Agents outputting `L`.
    pub leaders: u32,
    /// Agents carrying work the oracle waits for (a bullet in flight).
    pub in_flight: u32,
    /// Agents waiting for an oracle grant (permission to fire unset).
    pub waiting: u32,
    /// Agents currently told "no leader exists" by the oracle.
    pub told_no_leader: u32,
}

impl OracleCounts {
    /// The sum of every agent's [`Protocol::oracle_count`]: one O(n) pass.
    pub fn tally<P: Protocol>(protocol: &P, states: &[P::State]) -> Self {
        states.iter().fold(OracleCounts::default(), |sum, s| {
            sum + protocol.oracle_count(s)
        })
    }

    /// `true` if every one of the `n` agents is told "no leader exists"
    /// exactly when no agent outputs `L`: a no-leader broadcast would
    /// change nothing.
    pub fn verdict_current(&self, n: usize) -> bool {
        let told = if self.leaders == 0 { n } else { 0 };
        self.told_no_leader as usize == told
    }

    /// Broadcasts the verdict of these counts to every agent
    /// ([`Protocol::oracle_broadcast`]) and updates the counts to match
    /// the result, in one O(n) pass.
    pub fn broadcast<P: Protocol>(&mut self, protocol: &P, states: &mut [P::State]) {
        let plan = *self;
        for s in states {
            let before = protocol.oracle_count(s);
            protocol.oracle_broadcast(s, &plan);
            *self = *self + protocol.oracle_count(s) - before;
        }
    }
}

impl std::ops::Add for OracleCounts {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        OracleCounts {
            leaders: self.leaders + rhs.leaders,
            in_flight: self.in_flight + rhs.in_flight,
            waiting: self.waiting + rhs.waiting,
            told_no_leader: self.told_no_leader + rhs.told_no_leader,
        }
    }
}

impl std::ops::Sub for OracleCounts {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        OracleCounts {
            leaders: self.leaders - rhs.leaders,
            in_flight: self.in_flight - rhs.in_flight,
            waiting: self.waiting - rhs.waiting,
            told_no_leader: self.told_no_leader - rhs.told_no_leader,
        }
    }
}

/// A population protocol: a deterministic pairwise transition function over a
/// finite state space.
///
/// Protocols must be deterministic — all randomness in the model comes from
/// the uniformly random scheduler, exactly as in the paper.  The transition
/// is expressed as an in-place update of the `(initiator, responder)` pair,
/// which is both allocation-free for large state structs and a natural
/// transliteration of the paper's pseudocode (which mutates `l` and `r`).
///
/// Implementations should be cheap to clone; the batch runner clones the
/// protocol into worker threads.
pub trait Protocol: Clone + Send + Sync {
    /// The per-agent state type (the finite set `Q`).
    type State: Clone + PartialEq + std::fmt::Debug + Send + Sync;

    /// `true` iff this protocol type may have an oracle (see
    /// [`Protocol::uses_oracle`]).
    ///
    /// The simulation keeps an oracle's counts up to date around every
    /// step; for the overwhelmingly common pure protocols that bookkeeping
    /// is wasted work.  This associated constant lets
    /// [`crate::simulation::Simulation`] compile it out entirely for pure
    /// protocol types and gate it behind one cached boolean for erased
    /// ones.
    ///
    /// Any protocol that overrides the oracle hooks
    /// ([`Protocol::oracle_count`], [`Protocol::oracle_due`],
    /// [`Protocol::oracle_broadcast`]) **must** set this to `true` (and
    /// override [`Protocol::uses_oracle`]); otherwise its oracle is
    /// silently never consulted.
    const HAS_ENVIRONMENT: bool = false;

    /// The transition function `T`.
    ///
    /// `initiator` is the paper's `l` (the left agent of a directed-ring arc)
    /// and `responder` is `r` (the right agent).  On non-ring graphs the
    /// roles are simply the arc's tail and head.
    fn interact(&self, initiator: &mut Self::State, responder: &mut Self::State);

    /// One agent's contribution to the oracle's [`OracleCounts`]: a `1` in
    /// every count whose property the state has.
    ///
    /// # The oracle hooks
    ///
    /// Oracles such as Fischer–Jiang's `Ω?` eventual leader detector observe
    /// the global configuration and feed a verdict back into agent states.
    /// The model is an environment step before every interaction; the
    /// simulation realises it incrementally from three hooks:
    ///
    /// * `oracle_count` — the per-agent contribution.  The simulation keeps
    ///   the sum over all agents, updated from the two touched agents
    ///   before and after each transition, and re-tallied from scratch after
    ///   any out-of-band write (fault injection, churn, a rewriting
    ///   observer, [`crate::simulation::Simulation::config_mut`]);
    /// * [`Protocol::oracle_due`] — the plan: whether a broadcast from the
    ///   current counts would change any agent;
    /// * [`Protocol::oracle_broadcast`] — the broadcast: writes the verdict
    ///   the counts imply into one agent, applied to every agent in one
    ///   O(n) pass, and only when the plan says so.
    ///
    /// Together they must reproduce the environment step exactly: after a
    /// due broadcast the configuration equals what a from-scratch pass
    /// would have written, and when the plan says "not due" such a pass
    /// would have changed nothing.  A broadcast **never changes the output
    /// map** ([`LeaderElection::is_leader`] of every agent is the same
    /// before and after it), so incremental leader observers
    /// ([`crate::observer::LeaderCounter`]) stay sound across broadcasts.
    ///
    /// Protocols without an oracle (including the paper's `P_PL`) leave all
    /// three hooks as their defaults, so that the simulated model is the
    /// plain population-protocol model.
    fn oracle_count(&self, _state: &Self::State) -> OracleCounts {
        OracleCounts::default()
    }

    /// The oracle's plan: `true` if a broadcast from `counts` (summed over
    /// all `n` agents) would change at least one agent.  See
    /// [`Protocol::oracle_count`].
    fn oracle_due(&self, _counts: &OracleCounts, _n: usize) -> bool {
        false
    }

    /// The oracle's broadcast to one agent: writes the verdict implied by
    /// `counts` (the sums before the broadcast pass) into `state`.  Must not
    /// change the agent's output.  See [`Protocol::oracle_count`].
    fn oracle_broadcast(&self, _state: &mut Self::State, _counts: &OracleCounts) {}

    /// The environment step from scratch, derived from the oracle hooks:
    /// re-tally the whole configuration, plan, and broadcast if due.
    ///
    /// The simulation never calls this — it keeps the counts incrementally
    /// and pays the O(n) passes only when they are due — so it is the
    /// reference for one step of the oracle, e.g. for timing a full pass.
    /// A no-op unless the protocol declares an oracle
    /// ([`Protocol::HAS_ENVIRONMENT`] and [`Protocol::uses_oracle`]).
    fn environment(&self, states: &mut [Self::State]) {
        if !(Self::HAS_ENVIRONMENT && self.uses_oracle()) {
            return;
        }
        let mut counts = OracleCounts::tally(self, states);
        if self.oracle_due(&counts, states.len()) {
            counts.broadcast(self, states);
        }
    }

    /// Returns `true` if this protocol has a non-trivial oracle (overrides
    /// the oracle hooks).
    ///
    /// Any protocol that overrides the oracle hooks **must** also override
    /// this to return `true`: reporting code uses it to label oracle
    /// assumptions in generated tables, and the simulation skips the oracle
    /// bookkeeping entirely when it returns `false` (see
    /// [`Protocol::HAS_ENVIRONMENT`]), so an inconsistent implementation
    /// would silently lose its oracle.
    ///
    /// Unlike the compile-time [`Protocol::HAS_ENVIRONMENT`], this is a
    /// runtime property: the erased [`crate::scenario::DynProtocol`] must
    /// conservatively set the constant to `true` and reports the wrapped
    /// protocol's actual answer here, which the simulation caches once per
    /// run.
    fn uses_oracle(&self) -> bool {
        false
    }

    /// A short human-readable protocol name used in generated tables.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// A protocol solving leader election: its output function maps every state
/// to `L` or `F`.
pub trait LeaderElection: Protocol {
    /// The output function restricted to the leader bit: returns `true` iff
    /// the state outputs `L`.
    fn is_leader(&self, state: &Self::State) -> bool;

    /// The output `π_out(q)` of a state.
    fn output(&self, state: &Self::State) -> LeaderOutput {
        if self.is_leader(state) {
            LeaderOutput::Leader
        } else {
            LeaderOutput::Follower
        }
    }

    /// Counts the number of agents outputting `L` in a slice of states.
    fn count_leaders(&self, states: &[Self::State]) -> usize {
        states.iter().filter(|s| self.is_leader(s)).count()
    }

    /// Returns the indices of the agents outputting `L`.
    fn leader_indices(&self, states: &[Self::State]) -> Vec<usize> {
        states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| if self.is_leader(s) { Some(i) } else { None })
            .collect()
    }

    /// Returns `true` iff exactly one agent outputs `L`.
    fn has_unique_leader(&self, states: &[Self::State]) -> bool {
        let mut seen = false;
        for s in states {
            if self.is_leader(s) {
                if seen {
                    return false;
                }
                seen = true;
            }
        }
        seen
    }

    /// Counts leaders in a full configuration.
    fn count_leaders_in(&self, config: &Configuration<Self::State>) -> usize {
        self.count_leaders(config.states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal protocol used to exercise the default trait methods.
    #[derive(Clone, Debug)]
    struct Toggle;

    impl Protocol for Toggle {
        type State = bool;
        fn interact(&self, initiator: &mut bool, responder: &mut bool) {
            // The initiator absorbs the responder's leadership.
            if *responder {
                *responder = false;
                *initiator = true;
            }
        }
        fn name(&self) -> &'static str {
            "toggle"
        }
    }

    impl LeaderElection for Toggle {
        fn is_leader(&self, state: &bool) -> bool {
            *state
        }
    }

    #[test]
    fn leader_output_display() {
        assert_eq!(LeaderOutput::Leader.to_string(), "L");
        assert_eq!(LeaderOutput::Follower.to_string(), "F");
        assert!(
            LeaderOutput::Leader < LeaderOutput::Follower
                || LeaderOutput::Leader != LeaderOutput::Follower
        );
    }

    #[test]
    fn default_output_follows_is_leader() {
        let p = Toggle;
        assert_eq!(p.output(&true), LeaderOutput::Leader);
        assert_eq!(p.output(&false), LeaderOutput::Follower);
    }

    #[test]
    fn counting_helpers() {
        let p = Toggle;
        let states = vec![true, false, true, false, false];
        assert_eq!(p.count_leaders(&states), 2);
        assert_eq!(p.leader_indices(&states), vec![0, 2]);
        assert!(!p.has_unique_leader(&states));
        assert!(p.has_unique_leader(&[false, true, false]));
        assert!(!p.has_unique_leader(&[false, false]));
    }

    #[test]
    fn default_environment_is_noop_and_reports_no_oracle() {
        let p = Toggle;
        let mut states = vec![true, false];
        p.environment(&mut states);
        assert_eq!(states, vec![true, false]);
        assert!(!p.uses_oracle());
        assert_eq!(p.name(), "toggle");
    }

    #[test]
    fn count_leaders_in_configuration() {
        let p = Toggle;
        let config = Configuration::from_states(vec![true, true, false]);
        assert_eq!(p.count_leaders_in(&config), 2);
    }

    #[test]
    fn transition_moves_leadership_to_initiator() {
        let p = Toggle;
        let mut a = false;
        let mut b = true;
        p.interact(&mut a, &mut b);
        assert!(a);
        assert!(!b);
    }
}
