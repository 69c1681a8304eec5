//! Convergence criteria and reports.
//!
//! Self-stabilization is defined via *safe configurations* (Definition 2.1):
//! the convergence time of a run is the number of steps until the first safe
//! configuration.  Protocol crates provide structural checkers for their safe
//! sets (e.g. `S_PL` for the paper's protocol), passed to runs as stop
//! predicates; this module provides the [`ConvergenceReport`] returned by
//! measurement runs and the helpers for protocols without such a checker.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::config::Configuration;
use crate::protocol::Protocol;

/// Post-hoc convergence estimation for protocols without a structural safe
/// set: the convergence step is estimated as the last step at which the
/// leader set changed, provided the leader set then stayed fixed for a long
/// stability window.
///
/// This matches how empirical studies of leader-election protocols usually
/// report convergence.  It *underestimates* the true convergence-to-safety
/// time in general, which is acceptable for baseline comparisons and noted in
/// `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StableOutputs {
    /// Number of trailing steps during which the leader set must not change.
    pub stability_window: u64,
}

impl StableOutputs {
    /// Creates a stability-based estimator with the given window.
    pub fn new(stability_window: u64) -> Self {
        StableOutputs { stability_window }
    }
}

impl Default for StableOutputs {
    fn default() -> Self {
        StableOutputs {
            stability_window: 10_000,
        }
    }
}

/// The result of a convergence-measurement run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Step at which the criterion was first observed satisfied, if it was.
    pub converged_at: Option<u64>,
    /// Total number of steps executed by the measurement run.
    pub steps_executed: u64,
    /// The step budget of the run.
    pub max_steps: u64,
    /// How often (in steps) the criterion was evaluated.
    pub check_interval: u64,
    /// Name of the criterion that was checked.
    ///
    /// A `Cow` so the engine's internal runs can use the static placeholder
    /// `"predicate"` without allocating a fresh `String` per
    /// [`crate::simulation::Simulation::run_until`] invocation; named
    /// callers overwrite it once with the final (owned) name.
    pub criterion: Cow<'static, str>,
}

impl ConvergenceReport {
    /// Returns `true` if the criterion was satisfied within the budget.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// The measured convergence step.
    ///
    /// # Panics
    ///
    /// Panics if the run did not converge; check [`ConvergenceReport::converged`]
    /// first or use `converged_at` directly.
    pub fn convergence_step(&self) -> u64 {
        self.converged_at
            .expect("run did not converge within the step budget")
    }

    /// Convergence time in parallel time units (steps / n).
    pub fn parallel_convergence_time(&self, n: usize) -> Option<f64> {
        self.converged_at.map(|s| s as f64 / n as f64)
    }
}

/// Helper for [`StableOutputs`]-style post-hoc estimation: given the list of
/// steps at which the leader set changed and the total run length, returns
/// the estimated convergence step if the final stretch was stable for at
/// least `stability_window` steps.
pub fn estimate_stable_convergence(
    leader_change_steps: &[u64],
    total_steps: u64,
    stability_window: u64,
) -> Option<u64> {
    let last_change = leader_change_steps.last().copied().unwrap_or(0);
    if total_steps >= last_change && total_steps - last_change >= stability_window {
        Some(last_change)
    } else {
        None
    }
}

/// Checks the closure half of self-stabilization empirically: evaluates a
/// predicate over evenly spaced checkpoints of the execution suffix and
/// returns `true` only if it holds at every checkpoint.
pub fn holds_at_checkpoints<P, F>(
    protocol: &P,
    checkpoints: &[Configuration<P::State>],
    predicate: F,
) -> bool
where
    P: Protocol,
    F: Fn(&P, &[P::State]) -> bool,
{
    checkpoints.iter().all(|c| predicate(protocol, c.states()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderElection;

    #[derive(Clone, Debug)]
    struct Dummy;
    impl Protocol for Dummy {
        type State = u8;
        fn interact(&self, _i: &mut u8, _r: &mut u8) {}
    }
    impl LeaderElection for Dummy {
        fn is_leader(&self, state: &u8) -> bool {
            *state == 1
        }
    }

    #[test]
    fn report_accessors() {
        let r = ConvergenceReport {
            converged_at: Some(500),
            steps_executed: 700,
            max_steps: 1000,
            check_interval: 10,
            criterion: "x".into(),
        };
        assert!(r.converged());
        assert_eq!(r.convergence_step(), 500);
        assert_eq!(r.parallel_convergence_time(100), Some(5.0));

        let nr = ConvergenceReport {
            converged_at: None,
            steps_executed: 1000,
            max_steps: 1000,
            check_interval: 10,
            criterion: "x".into(),
        };
        assert!(!nr.converged());
        assert_eq!(nr.parallel_convergence_time(100), None);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn convergence_step_panics_when_not_converged() {
        let nr = ConvergenceReport {
            converged_at: None,
            steps_executed: 10,
            max_steps: 10,
            check_interval: 1,
            criterion: "x".into(),
        };
        nr.convergence_step();
    }

    #[test]
    fn stable_convergence_estimation() {
        assert_eq!(
            estimate_stable_convergence(&[5, 100], 10_200, 10_000),
            Some(100)
        );
        assert_eq!(estimate_stable_convergence(&[5, 100], 5_000, 10_000), None);
        // Never changed: converged at step 0 once the window has elapsed.
        assert_eq!(estimate_stable_convergence(&[], 10_000, 10_000), Some(0));
        assert_eq!(estimate_stable_convergence(&[], 9_999, 10_000), None);
    }

    #[test]
    fn stable_outputs_default_window() {
        assert_eq!(StableOutputs::default().stability_window, 10_000);
        assert_eq!(StableOutputs::new(5).stability_window, 5);
    }

    #[test]
    fn checkpoint_closure_check() {
        let configs = vec![
            Configuration::from_states(vec![0u8, 1, 0]),
            Configuration::from_states(vec![0u8, 1, 0]),
        ];
        assert!(holds_at_checkpoints(&Dummy, &configs, |p, s| {
            p.has_unique_leader(s)
        }));
        let bad = vec![Configuration::from_states(vec![1u8, 1, 0])];
        assert!(!holds_at_checkpoints(&Dummy, &bad, |p, s| p.has_unique_leader(s)));
    }
}
