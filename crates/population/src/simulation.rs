//! The execution engine.
//!
//! [`Simulation`] owns a protocol, an interaction graph, the current
//! configuration, a seeded RNG and run statistics, and advances the
//! configuration one interaction at a time.  By default each step samples the
//! uniformly random scheduler ([`Simulation::step`], [`Simulation::run_steps`],
//! [`Simulation::run_until`]); deterministic interaction sequences can be
//! applied directly with [`Simulation::apply_sequence`] (used by tests that
//! replay the proof schedules).  [`Simulation::run_burst`] is the one general
//! stepping primitive: a burst of steps picked by any [`Chooser`] — the
//! uniform sampler or a state-aware scheduler — and watched by any
//! [`StepObserver`].  The erased scenario layer drives every run through it.

use std::borrow::Cow;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::Configuration;
use crate::convergence::ConvergenceReport;
use crate::error::{PopulationError, Result};
use crate::graph::InteractionGraph;
use crate::observer::{LeaderCounter, NoObserver, StepObserver};
use crate::protocol::{LeaderElection, OracleCounts, Protocol};
use crate::schedule::{Interaction, InteractionSeq};
use crate::scheduler::RandomScheduler;
use crate::stats::RunStats;
use crate::trace::{Event, Trace};

/// A running execution `Ξ_P(C_0, Γ)` of a protocol on an interaction graph.
#[derive(Clone, Debug)]
pub struct Simulation<P: Protocol, G: InteractionGraph> {
    protocol: P,
    graph: G,
    config: Configuration<P::State>,
    rng: ChaCha8Rng,
    steps: u64,
    stats: RunStats,
    trace: Trace,
    /// Cached `protocol.uses_oracle()` (behind [`Protocol::HAS_ENVIRONMENT`]):
    /// whether the oracle's bookkeeping must run around each step.  Computed
    /// once at construction so the hot loop never pays the (virtual, under
    /// erasure) `uses_oracle` call.
    env_active: bool,
    /// The oracle's running counts (meaningful only when `env_active`).
    oracle: OracleCache,
}

/// The incremental oracle's state: the counts summed over every agent, and
/// whether an out-of-band write may have invalidated them.
#[derive(Clone, Copy, Debug)]
struct OracleCache {
    counts: OracleCounts,
    /// Set by every out-of-band write ([`Simulation::config_mut`],
    /// [`Simulation::resize`], a [`StepObserver::REWRITES_STATES`]
    /// observer); the next step re-tallies before planning.
    stale: bool,
}

impl<P: Protocol, G: InteractionGraph> Simulation<P, G> {
    /// Creates a simulation from a protocol, graph, initial configuration and
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match the graph; use
    /// [`Simulation::try_new`] for a fallible constructor.
    pub fn new(protocol: P, graph: G, config: Configuration<P::State>, seed: u64) -> Self {
        Self::try_new(protocol, graph, config, seed).expect("configuration/graph size mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the
    /// configuration does not have exactly one state per agent.
    ///
    /// # Panics
    ///
    /// Panics if the protocol reports [`Protocol::uses_oracle`] without its
    /// type setting [`Protocol::HAS_ENVIRONMENT`]: the oracle would be
    /// compiled out of the step loop and silently never consulted, which is
    /// a bug in the protocol implementation, not a runtime condition.
    pub fn try_new(
        protocol: P,
        graph: G,
        config: Configuration<P::State>,
        seed: u64,
    ) -> Result<Self> {
        if config.len() != graph.num_agents() {
            return Err(PopulationError::ConfigurationSizeMismatch {
                configuration: config.len(),
                graph: graph.num_agents(),
            });
        }
        assert!(
            P::HAS_ENVIRONMENT || !protocol.uses_oracle(),
            "protocol {:?} reports uses_oracle() but its type does not set \
             Protocol::HAS_ENVIRONMENT, so its oracle would never run",
            protocol.name()
        );
        let n = graph.num_agents();
        let env_active = P::HAS_ENVIRONMENT && protocol.uses_oracle();
        Ok(Simulation {
            protocol,
            graph,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            steps: 0,
            stats: RunStats::new(n),
            trace: Trace::disabled(),
            env_active,
            oracle: OracleCache {
                counts: OracleCounts::default(),
                stale: true,
            },
        })
    }

    /// `true` if the oracle is active for this run — i.e. the protocol
    /// declared [`Protocol::HAS_ENVIRONMENT`] and reports
    /// [`Protocol::uses_oracle`].  When `false`, interactions are the only
    /// thing mutating states.  When `true`, an oracle broadcast may rewrite
    /// any agent before a step, though never its output
    /// ([`Protocol::oracle_count`]), so leader observers stay sound but
    /// whole-state fingerprints ([`crate::recurrence`]) do not.
    pub fn environment_active(&self) -> bool {
        self.env_active
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction graph.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration<P::State> {
        &self.config
    }

    /// Mutable access to the current configuration (used by fault injection
    /// and by tests that construct specific intermediate configurations).
    /// The oracle, if any, re-tallies its counts before the next step.
    pub fn config_mut(&mut self) -> &mut Configuration<P::State> {
        self.oracle.stale = true;
        &mut self.config
    }

    /// Replaces the interaction graph with a same-sized one, keeping the
    /// configuration and all counters.  This is the substrate for topology
    /// churn (edge rewiring, partition/heal events).
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the new
    /// graph's agent count differs from the current configuration's length.
    pub fn set_graph(&mut self, graph: G) -> Result<()> {
        if graph.num_agents() != self.config.len() {
            return Err(PopulationError::ConfigurationSizeMismatch {
                configuration: self.config.len(),
                graph: graph.num_agents(),
            });
        }
        self.graph = graph;
        Ok(())
    }

    /// Replaces both the graph and the configuration, resizing the per-agent
    /// statistics buffers (counts of surviving agents are preserved; the step
    /// counter keeps running).  This is the substrate for agent join/leave
    /// churn.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the graph
    /// and configuration disagree on the number of agents.
    pub fn resize(&mut self, graph: G, config: Configuration<P::State>) -> Result<()> {
        if graph.num_agents() != config.len() {
            return Err(PopulationError::ConfigurationSizeMismatch {
                configuration: config.len(),
                graph: graph.num_agents(),
            });
        }
        self.stats.resize(config.len());
        self.graph = graph;
        self.config = config;
        self.oracle.stale = true;
        Ok(())
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.graph.num_agents()
    }

    /// Run statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to add annotations).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Enables or disables trace recording (disabled by default).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Executes one step under the uniformly random scheduler.
    ///
    /// Returns the interaction that occurred.
    pub fn step(&mut self) -> Interaction {
        let interaction = self.graph.sample(&mut self.rng);
        self.apply(interaction);
        interaction
    }

    /// Applies one specific interaction (the configuration transition
    /// `C →e C'` of Section 2), bypassing the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the interaction references agents outside the population.
    pub fn apply(&mut self, interaction: Interaction) {
        self.apply_observed(interaction, &mut NoObserver);
    }

    /// Like [`Simulation::apply`], invoking `observer` around the
    /// transition.  [`crate::observer::NoObserver`]'s empty hooks inline
    /// away, so `apply` *is* this function.
    pub fn apply_observed<O: StepObserver<P>>(
        &mut self,
        interaction: Interaction,
        observer: &mut O,
    ) {
        let i = interaction.initiator().index();
        let j = interaction.responder().index();
        assert!(
            i < self.config.len() && j < self.config.len() && i != j,
            "interaction {interaction} out of range for population of {}",
            self.config.len()
        );
        // The oracle's environment step, from its running counts.
        // Compiled out entirely for pure protocol types; one predicted
        // branch for erased ones.
        let oracle = P::HAS_ENVIRONMENT && self.env_active;
        if oracle {
            self.oracle_step();
        }

        // Split-borrow the two interacting states.
        let states = self.config.states_mut();
        let (a, b) = if i < j {
            let (lo, hi) = states.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        } else {
            let (lo, hi) = states.split_at_mut(i);
            (&mut hi[0], &mut lo[j])
        };
        observer.pre_interaction(&self.protocol, interaction, a, b);
        if oracle {
            let before = self.protocol.oracle_count(a) + self.protocol.oracle_count(b);
            self.protocol.interact(a, b);
            let after = self.protocol.oracle_count(a) + self.protocol.oracle_count(b);
            self.oracle.counts = self.oracle.counts + after - before;
        } else {
            self.protocol.interact(a, b);
        }
        observer.post_interaction(&self.protocol, interaction, a, b);

        self.stats.record_interaction(i, j);
        self.trace.record(Event::Interaction {
            step: self.steps,
            interaction,
        });
        self.steps += 1;
    }

    /// The oracle's environment step before an interaction: re-tally if an
    /// out-of-band write made the counts stale, then broadcast if the plan
    /// says a broadcast would change anything.  Each of the two is one O(n)
    /// pass, counted in [`RunStats::oracle_passes`]; a step that needs
    /// neither costs one plan check.
    #[inline]
    fn oracle_step(&mut self) {
        if self.oracle.stale {
            self.oracle_retally();
        }
        if self
            .protocol
            .oracle_due(&self.oracle.counts, self.config.len())
        {
            self.oracle_broadcast();
        }
    }

    #[cold]
    #[inline(never)]
    fn oracle_retally(&mut self) {
        self.oracle.counts = OracleCounts::tally(&self.protocol, self.config.states());
        self.oracle.stale = false;
        self.stats.record_oracle_pass();
    }

    #[cold]
    #[inline(never)]
    fn oracle_broadcast(&mut self) {
        self.oracle
            .counts
            .broadcast(&self.protocol, self.config.states_mut());
        self.stats.record_oracle_pass();
    }

    /// Runs exactly `k` steps under the uniformly random scheduler.
    ///
    /// The plain sample-and-apply loop: the same steps as
    /// [`Simulation::run_burst`] with the uniform sampler and no observer,
    /// without the chooser and observer plumbing.
    pub fn run_steps(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
        // One counter update per burst, never per step: the hot loop pays
        // exactly one relaxed load here when telemetry is disabled.
        ssle_telemetry::metrics::well_known::HOT_STEPS.add(k);
    }

    /// Runs up to `k` steps: the one burst primitive every run loop is built
    /// on.
    ///
    /// Each step's interaction is picked by `chooser` and applied with
    /// `observer` around the transition ([`Simulation::apply_observed`]).
    /// Choices of a chooser that does not sample arcs by construction
    /// ([`Chooser::SAMPLES_ARCS`]) are validated against the graph, so a
    /// buggy scheduler cannot smuggle in a non-arc interaction.  After each
    /// step the observer's [`StepObserver::after_step`] runs; if it returns
    /// `true` the burst ends there.  The executed steps are added once per
    /// burst to the `hot_steps` telemetry counter for the uniform sampler
    /// and to `scheduled_steps` for every other chooser.
    ///
    /// Returns the number of steps executed and whether the observer halted
    /// the burst.  A halt on the burst's last step still reports `true`, so
    /// callers never infer it from a short count.
    ///
    /// # Errors
    ///
    /// Propagates the chooser's error, or [`PopulationError::NotAnArc`] if a
    /// chosen pair is not an arc of the graph.  The steps before the failing
    /// one stay applied.
    pub fn run_burst<C, O>(
        &mut self,
        k: u64,
        chooser: &mut C,
        observer: &mut O,
    ) -> Result<(u64, bool)>
    where
        C: Chooser<G, P::State> + ?Sized,
        O: StepObserver<P>,
    {
        let mut done = 0;
        let mut halted = false;
        while done < k {
            let interaction = chooser.choose(&self.graph, self.config.states(), &mut self.rng)?;
            let (i, j) = (
                interaction.initiator().index(),
                interaction.responder().index(),
            );
            if !C::SAMPLES_ARCS && !self.graph.is_arc(i, j) {
                return Err(PopulationError::NotAnArc {
                    initiator: i,
                    responder: j,
                });
            }
            self.apply_observed(interaction, observer);
            done += 1;
            let halt = observer.after_step(&mut self.config, self.steps, &|| chooser.phase());
            if O::REWRITES_STATES {
                self.oracle.stale = true;
            }
            if halt {
                halted = true;
                break;
            }
        }
        // One counter update per burst, never per step: the hot loop pays
        // exactly one relaxed load here when telemetry is disabled.
        if C::SAMPLES_ARCS {
            ssle_telemetry::metrics::well_known::HOT_STEPS.add(done);
        } else {
            ssle_telemetry::metrics::well_known::SCHEDULED_STEPS.add(done);
        }
        Ok((done, halted))
    }

    /// Applies every interaction of `seq`, in order.
    pub fn apply_sequence(&mut self, seq: &InteractionSeq) {
        for &interaction in seq.iter() {
            self.apply(interaction);
        }
    }

    /// Runs under the uniformly random scheduler until `predicate` holds
    /// (checked every `check_interval` steps, and once before running) or
    /// until `max_steps` steps have been executed in this call.
    ///
    /// The returned report gives the step count *of this simulation* at the
    /// first passing check.  Because checks are periodic, the reported value
    /// over-estimates the true convergence step by at most `check_interval`.
    pub fn run_until<F>(
        &mut self,
        mut predicate: F,
        check_interval: u64,
        max_steps: u64,
    ) -> ConvergenceReport
    where
        F: FnMut(&P, &Configuration<P::State>) -> bool,
    {
        // The placeholder name is a borrowed `'static` so this function
        // allocates nothing per invocation; named callers overwrite it once.
        const PREDICATE: Cow<'static, str> = Cow::Borrowed("predicate");
        let check_interval = check_interval.max(1);
        let mut executed = 0u64;
        let mut converged = predicate(&self.protocol, &self.config);
        while !converged && executed < max_steps {
            let burst = check_interval.min(max_steps - executed);
            self.run_steps(burst);
            executed += burst;
            converged = predicate(&self.protocol, &self.config);
            if converged {
                if self.trace.is_enabled() {
                    self.trace.record(Event::Converged {
                        step: self.steps,
                        criterion: "predicate".into(),
                    });
                }
                if ssle_telemetry::enabled() {
                    ssle_telemetry::emit(
                        ssle_telemetry::Event::new("converged").count("step", self.steps),
                    );
                }
            }
        }
        ConvergenceReport {
            converged_at: converged.then_some(self.steps),
            steps_executed: executed,
            max_steps,
            check_interval,
            criterion: PREDICATE,
        }
    }

    /// Consumes the simulation and returns the final configuration.
    pub fn into_config(self) -> Configuration<P::State> {
        self.config
    }
}

/// What picks the interaction of each step of a [`Simulation::run_burst`]:
/// the uniform sampler ([`RandomScheduler`]) or a state-aware scheduler
/// (every [`crate::scenario::DynScheduler`] is one).
pub trait Chooser<G, S> {
    /// `true` if every choice is an arc of the graph by construction (the
    /// uniform sampler): bursts then skip per-step arc validation and count
    /// their steps as `hot_steps` rather than `scheduled_steps`.
    const SAMPLES_ARCS: bool = false;

    /// Picks the next interaction from the graph, the current states and the
    /// simulation's RNG.
    ///
    /// # Errors
    ///
    /// Deterministic choosers return [`PopulationError::ScheduleExhausted`]
    /// once their sequence runs out.
    fn choose(&mut self, graph: &G, states: &[S], rng: &mut ChaCha8Rng) -> Result<Interaction>;

    /// The chooser's deterministic phase, if it has one (see
    /// [`crate::scheduler::Scheduler::phase`]).
    fn phase(&self) -> Option<u64> {
        None
    }
}

impl<G: InteractionGraph, S> Chooser<G, S> for RandomScheduler {
    const SAMPLES_ARCS: bool = true;

    #[inline(always)]
    fn choose(&mut self, graph: &G, _states: &[S], rng: &mut ChaCha8Rng) -> Result<Interaction> {
        Ok(graph.sample(rng))
    }
}

impl<P, G> Simulation<P, G>
where
    P: LeaderElection,
    G: InteractionGraph,
{
    /// Number of agents currently outputting `L`.
    pub fn count_leaders(&self) -> usize {
        self.protocol.count_leaders(self.config.states())
    }

    /// Runs under the uniformly random scheduler for `max_steps` steps while
    /// recording every change of the leader set (into the trace too, when
    /// tracing is enabled).  Returns the steps at which the leader set
    /// changed.
    ///
    /// This powers the [`crate::convergence::StableOutputs`] estimator for
    /// baseline protocols without a structural safe-configuration checker.
    ///
    /// An interaction can only change the leader bits of the two touched
    /// agents, and an oracle broadcast never changes any
    /// ([`Protocol::oracle_count`]), so changes are detected incrementally
    /// from a [`LeaderCounter`] observer in O(1) per step.
    pub fn run_tracking_leader_changes(&mut self, max_steps: u64) -> Vec<u64> {
        let mut changes = Vec::new();
        let mut counter = LeaderCounter::new(&self.protocol, self.config.states());
        for _ in 0..max_steps {
            let interaction = self.graph.sample(&mut self.rng);
            self.apply_observed(interaction, &mut counter);
            if counter.last_step_changed() {
                changes.push(self.steps);
                if self.trace.is_enabled() {
                    let leaders = self.protocol.leader_indices(self.config.states());
                    self.trace.record(Event::LeaderSetChanged {
                        step: self.steps,
                        leaders,
                    });
                }
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CompleteGraph, DirectedRing};

    /// Runs `sim` until it has a unique leader (the criterion the
    /// convergence tests below share).
    fn run_to_unique_leader<G: InteractionGraph>(
        sim: &mut Simulation<Fratricide, G>,
        check_interval: u64,
        max_steps: u64,
    ) -> ConvergenceReport {
        sim.run_until(
            |p, c| p.has_unique_leader(c.states()),
            check_interval,
            max_steps,
        )
    }

    /// Classic pairwise leader elimination on a complete graph.
    #[derive(Clone, Debug)]
    struct Fratricide;
    impl Protocol for Fratricide {
        type State = bool;
        fn interact(&self, initiator: &mut bool, responder: &mut bool) {
            if *initiator && *responder {
                *responder = false;
            }
        }
        fn name(&self) -> &'static str {
            "fratricide"
        }
    }
    impl LeaderElection for Fratricide {
        fn is_leader(&self, s: &bool) -> bool {
            *s
        }
    }

    /// A protocol that simply copies the initiator's value to the responder —
    /// convenient for checking deterministic sequences on a ring.
    #[derive(Clone, Debug)]
    struct Broadcast;
    impl Protocol for Broadcast {
        type State = u32;
        fn interact(&self, initiator: &mut u32, responder: &mut u32) {
            *responder = *initiator;
        }
    }

    #[test]
    fn mismatched_configuration_is_rejected() {
        let g = DirectedRing::new(4).unwrap();
        let c = Configuration::uniform(3, 0u32);
        assert!(matches!(
            Simulation::try_new(Broadcast, g, c, 0),
            Err(PopulationError::ConfigurationSizeMismatch { .. })
        ));
    }

    #[test]
    fn fratricide_converges_to_unique_leader() {
        let g = CompleteGraph::new(16);
        let c = Configuration::uniform(16, true);
        let mut sim = Simulation::new(Fratricide, g, c, 11);
        let report = run_to_unique_leader(&mut sim, 1, 200_000);
        assert!(report.converged());
        assert_eq!(sim.count_leaders(), 1);
        // Leaders never increase, so the criterion keeps holding.
        sim.run_steps(10_000);
        assert_eq!(sim.count_leaders(), 1);
    }

    #[test]
    fn run_until_returns_immediately_if_already_satisfied() {
        let g = CompleteGraph::new(4);
        let c = Configuration::from_states(vec![true, false, false, false]);
        let mut sim = Simulation::new(Fratricide, g, c, 0);
        let report = run_to_unique_leader(&mut sim, 100, 1000);
        assert!(report.converged());
        assert_eq!(report.steps_executed, 0);
        assert_eq!(sim.steps(), 0);
    }

    #[test]
    fn run_until_respects_budget() {
        let g = CompleteGraph::new(4);
        let c = Configuration::uniform(4, false);
        let mut sim = Simulation::new(Fratricide, g, c, 0);
        // No leader will ever appear; the run must stop at the budget.
        let report = run_to_unique_leader(&mut sim, 7, 100);
        assert!(!report.converged());
        assert_eq!(report.steps_executed, 100);
        assert_eq!(sim.steps(), 100);
    }

    #[test]
    fn deterministic_sequence_drives_broadcast_around_ring() {
        let n = 8;
        let g = DirectedRing::new(n).unwrap();
        let mut states = vec![0u32; n];
        states[0] = 42;
        let mut sim = Simulation::new(Broadcast, g, Configuration::from_states(states), 0);
        // seq_R(0, n-1) copies u_0's value all the way round.
        sim.apply_sequence(&InteractionSeq::seq_r(0, n - 1, n));
        assert!(sim.config().states().iter().all(|&x| x == 42));
        assert_eq!(sim.steps(), (n - 1) as u64);
    }

    #[test]
    fn apply_records_stats_and_trace() {
        let g = DirectedRing::new(4).unwrap();
        let mut sim = Simulation::new(Broadcast, g, Configuration::uniform(4, 0u32), 5);
        sim.set_tracing(true);
        sim.apply(Interaction::new(1, 2));
        sim.apply(Interaction::new(2, 3));
        assert_eq!(sim.stats().steps(), 2);
        assert_eq!(sim.stats().interactions_of(2), 2);
        assert_eq!(sim.trace().len(), 2);
        assert_eq!(sim.num_agents(), 4);
        assert!(sim.graph().is_arc(1, 2));
    }

    #[test]
    #[should_panic(expected = "HAS_ENVIRONMENT")]
    fn oracle_without_has_environment_is_rejected_at_construction() {
        /// Claims an oracle at runtime but forgot the compile-time opt-in:
        /// its oracle would silently never run.
        #[derive(Clone, Debug)]
        struct Misconfigured;
        impl Protocol for Misconfigured {
            type State = bool;
            fn interact(&self, _i: &mut bool, _r: &mut bool) {}
            fn oracle_due(&self, _counts: &OracleCounts, _n: usize) -> bool {
                true
            }
            fn oracle_broadcast(&self, state: &mut bool, _counts: &OracleCounts) {
                *state = true;
            }
            fn uses_oracle(&self) -> bool {
                true
            }
        }
        let g = CompleteGraph::new(4);
        let _ = Simulation::new(Misconfigured, g, Configuration::uniform(4, false), 0);
    }

    /// Replays a fixed interaction list, then reports exhaustion.
    struct Replay(Vec<Interaction>);
    impl<G, S> Chooser<G, S> for Replay {
        fn choose(&mut self, _g: &G, _s: &[S], _rng: &mut ChaCha8Rng) -> Result<Interaction> {
            if self.0.is_empty() {
                return Err(PopulationError::ScheduleExhausted { available: 0 });
            }
            Ok(self.0.remove(0))
        }
    }

    /// Ends the burst once the simulation reaches `at` steps.
    struct HaltAt(u64);
    impl<P: Protocol> StepObserver<P> for HaltAt {
        fn pre_interaction(&mut self, _: &P, _: Interaction, _: &P::State, _: &P::State) {}
        fn post_interaction(&mut self, _: &P, _: Interaction, _: &P::State, _: &P::State) {}
        fn after_step(
            &mut self,
            _config: &mut Configuration<P::State>,
            steps: u64,
            _phase: &dyn Fn() -> Option<u64>,
        ) -> bool {
            steps == self.0
        }
    }

    #[test]
    fn scheduler_arc_membership_is_enforced() {
        let g = DirectedRing::new(4).unwrap();
        let mut sim = Simulation::new(Broadcast, g, Configuration::uniform(4, 0u32), 5);
        // (0, 2) is not an arc of the directed ring.
        let mut bad = Replay(vec![Interaction::new(1, 2), Interaction::new(0, 2)]);
        let err = sim.run_burst(5, &mut bad, &mut NoObserver).unwrap_err();
        assert!(matches!(err, PopulationError::NotAnArc { .. }));
        assert_eq!(
            sim.steps(),
            1,
            "the valid step before the bad one stays applied"
        );
        // Exhaustion surfaces the chooser's own error.
        let err = sim
            .run_burst(1, &mut Replay(Vec::new()), &mut NoObserver)
            .unwrap_err();
        assert!(matches!(err, PopulationError::ScheduleExhausted { .. }));
    }

    #[test]
    fn single_steps_replay_a_burst() {
        let g = CompleteGraph::new(6);
        let states = Configuration::from_states(vec![1u32, 2, 3, 4, 5, 6]);
        let mut stepped = Simulation::new(Broadcast, g, states.clone(), 5);
        let mut burst = Simulation::new(Broadcast, g, states.clone(), 5);
        let mut chosen = Simulation::new(Broadcast, g, states, 5);
        for _ in 0..10 {
            stepped.step();
        }
        burst.run_steps(10);
        let chosen_burst = chosen
            .run_burst(10, &mut RandomScheduler, &mut NoObserver)
            .unwrap();
        assert_eq!(stepped.config(), burst.config());
        assert_eq!(burst.stats().steps(), 10);
        assert_eq!(chosen_burst, (10, false));
        assert_eq!(chosen.config(), burst.config());
    }

    #[test]
    fn an_observer_can_end_a_burst_early() {
        let g = CompleteGraph::new(8);
        let mut sim = Simulation::new(Fratricide, g, Configuration::uniform(8, true), 1);
        let burst = sim
            .run_burst(100, &mut RandomScheduler, &mut HaltAt(3))
            .unwrap();
        assert_eq!(burst, (3, true));
        assert_eq!(sim.steps(), 3);
        // A halt on the burst's last step is reported too.
        let burst = sim
            .run_burst(2, &mut RandomScheduler, &mut HaltAt(5))
            .unwrap();
        assert_eq!(burst, (2, true));
        let burst = sim
            .run_burst(2, &mut RandomScheduler, &mut HaltAt(99))
            .unwrap();
        assert_eq!(burst, (2, false));
    }

    #[test]
    fn leader_change_tracking() {
        let g = CompleteGraph::new(8);
        let c = Configuration::uniform(8, true);
        let mut sim = Simulation::new(Fratricide, g, c, 3);
        let changes = sim.run_tracking_leader_changes(50_000);
        assert!(!changes.is_empty());
        assert_eq!(sim.count_leaders(), 1);
        // Changes are strictly increasing.
        assert!(changes.windows(2).all(|w| w[0] < w[1]));
        // 7 demotions are needed to get from 8 leaders to 1.
        assert_eq!(changes.len(), 7);
    }

    #[test]
    fn same_seed_reproduces_the_same_execution() {
        let g = CompleteGraph::new(8);
        let c = Configuration::uniform(8, true);
        let mut a = Simulation::new(Fratricide, g, c.clone(), 99);
        let mut b = Simulation::new(Fratricide, g, c, 99);
        a.run_steps(1000);
        b.run_steps(1000);
        assert_eq!(a.config().states(), b.config().states());
    }

    #[test]
    fn into_config_returns_final_states() {
        let g = DirectedRing::new(3).unwrap();
        let sim = Simulation::new(Broadcast, g, Configuration::from_states(vec![1, 2, 3]), 0);
        assert_eq!(sim.into_config().into_states(), vec![1, 2, 3]);
    }

    #[test]
    fn reports_reflect_check_interval_granularity() {
        let g = CompleteGraph::new(32);
        let c = Configuration::uniform(32, true);
        let mut sim = Simulation::new(Fratricide, g, c, 17);
        let interval = 500;
        let report = run_to_unique_leader(&mut sim, interval, 5_000_000);
        assert!(report.converged());
        assert_eq!(report.convergence_step() % interval, 0);
    }
}
