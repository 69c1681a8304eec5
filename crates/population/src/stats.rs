//! Per-run statistics.
//!
//! [`RunStats`] accumulates cheap counters during an execution: total steps,
//! per-agent interaction counts, the derived *parallel time* (steps
//! divided by `n`, the conventional unit in the population-protocol
//! literature), and the O(n) passes an oracle paid.

use serde::{Deserialize, Serialize};

/// Counters accumulated during a single execution.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    steps: u64,
    interactions_per_agent: Vec<u64>,
    initiator_counts: Vec<u64>,
    responder_counts: Vec<u64>,
    oracle_passes: u64,
}

impl RunStats {
    /// Creates statistics for a population of `n` agents.
    pub fn new(n: usize) -> Self {
        RunStats {
            steps: 0,
            interactions_per_agent: vec![0; n],
            initiator_counts: vec![0; n],
            responder_counts: vec![0; n],
            oracle_passes: 0,
        }
    }

    /// Records one interaction between `initiator` and `responder`.
    pub fn record_interaction(&mut self, initiator: usize, responder: usize) {
        self.steps += 1;
        self.interactions_per_agent[initiator] += 1;
        self.interactions_per_agent[responder] += 1;
        self.initiator_counts[initiator] += 1;
        self.responder_counts[responder] += 1;
    }

    /// Records one O(n) oracle pass (a re-tally or a broadcast).
    pub fn record_oracle_pass(&mut self) {
        self.oracle_passes += 1;
        ssle_telemetry::metrics::well_known::ORACLE_PASSES.incr();
    }

    /// How many O(n) passes over the configuration the oracle paid: the
    /// re-tallies after out-of-band writes plus the due broadcasts (see
    /// [`crate::protocol::Protocol::oracle_count`]).  Always `0` for
    /// protocols without an oracle.
    pub fn oracle_passes(&self) -> u64 {
        self.oracle_passes
    }

    /// Total number of steps (interactions) recorded.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Population size.
    pub fn num_agents(&self) -> usize {
        self.interactions_per_agent.len()
    }

    /// Parallel time: steps divided by the number of agents.
    pub fn parallel_time(&self) -> f64 {
        if self.interactions_per_agent.is_empty() {
            return 0.0;
        }
        self.steps as f64 / self.interactions_per_agent.len() as f64
    }

    /// How many interactions agent `i` took part in (as either role).
    pub fn interactions_of(&self, i: usize) -> u64 {
        self.interactions_per_agent[i]
    }

    /// How many times agent `i` was the initiator.
    pub fn initiator_count(&self, i: usize) -> u64 {
        self.initiator_counts[i]
    }

    /// How many times agent `i` was the responder.
    pub fn responder_count(&self, i: usize) -> u64 {
        self.responder_counts[i]
    }

    /// The smallest per-agent interaction count — useful to check the
    /// `Θ(n log n)` coupon-collector bound quoted in the introduction
    /// ("it requires Θ(n log n) steps in expectation to let every node have
    /// an interaction at least once").
    pub fn min_interactions(&self) -> u64 {
        self.interactions_per_agent
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// The largest per-agent interaction count.
    pub fn max_interactions(&self) -> u64 {
        self.interactions_per_agent
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Resizes the per-agent counters to a population of `n` agents,
    /// preserving counts for agents that survive.  Used by churn events:
    /// joining agents start with zero counts, leaving agents (always the
    /// highest indices) drop theirs.  `steps` is unaffected.
    pub fn resize(&mut self, n: usize) {
        self.interactions_per_agent.resize(n, 0);
        self.initiator_counts.resize(n, 0);
        self.responder_counts.resize(n, 0);
    }

    /// Resets all counters, keeping the population size.
    pub fn reset(&mut self) {
        self.steps = 0;
        self.oracle_passes = 0;
        for v in [
            &mut self.interactions_per_agent,
            &mut self.initiator_counts,
            &mut self.responder_counts,
        ] {
            for x in v.iter_mut() {
                *x = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = RunStats::new(4);
        s.record_interaction(0, 1);
        s.record_interaction(0, 1);
        s.record_interaction(3, 0);
        assert_eq!(s.steps(), 3);
        assert_eq!(s.num_agents(), 4);
        assert_eq!(s.interactions_of(0), 3);
        assert_eq!(s.interactions_of(1), 2);
        assert_eq!(s.interactions_of(2), 0);
        assert_eq!(s.initiator_count(0), 2);
        assert_eq!(s.responder_count(0), 1);
        assert_eq!(s.min_interactions(), 0);
        assert_eq!(s.max_interactions(), 3);
        assert!((s.parallel_time() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counts_but_keeps_size() {
        let mut s = RunStats::new(3);
        s.record_interaction(0, 1);
        s.reset();
        assert_eq!(s.steps(), 0);
        assert_eq!(s.num_agents(), 3);
        assert_eq!(s.interactions_of(0), 0);
    }

    #[test]
    fn resize_preserves_surviving_counts() {
        let mut s = RunStats::new(3);
        s.record_interaction(0, 2);
        s.resize(5);
        assert_eq!(s.num_agents(), 5);
        assert_eq!(s.interactions_of(0), 1);
        assert_eq!(s.interactions_of(4), 0);
        assert_eq!(s.steps(), 1);
        s.resize(2);
        assert_eq!(s.num_agents(), 2);
        assert_eq!(s.interactions_of(0), 1);
        assert_eq!(s.steps(), 1);
    }

    #[test]
    fn empty_population_parallel_time_is_zero() {
        let s = RunStats::new(0);
        assert_eq!(s.parallel_time(), 0.0);
        assert_eq!(s.min_interactions(), 0);
    }
}
