//! Recovery policies for fault-tolerant NTT execution.
//!
//! A [`RecoveryPolicy`] tells the engines how hard to fight transient
//! fabric faults: how many times to retry a dropped collective, how much
//! simulated backoff to charge between attempts, and whether to verify
//! each transferred chunk against its sender's copy (which turns silent
//! corruption into a cheap targeted retransmission, not a wrong result).
//!
//! All recovery time is *simulated* time, charged to the machine under
//! [`unintt_gpu_sim::Category::Fault`], so the overhead of a policy is
//! directly measurable (experiment E13 reports it as a percentage of
//! total simulated time).

/// How the engines respond to transient fabric faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries per collective before giving up (0 = fail on first drop).
    pub max_retries: u32,
    /// Simulated backoff before the first retry, ns.
    pub backoff_base_ns: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Verify every exchanged chunk against the sender's copy (the ideal
    /// checksum: its content) and re-request bad ones.
    /// Without this, injected corruption silently reaches the output.
    pub verify_checksums: bool,
}

impl RecoveryPolicy {
    /// No recovery: first drop fails the run, no checksums. The result
    /// charges exactly what the fault-free path charges, so legacy
    /// callers keep their simulated-time totals bit-identical.
    pub const fn none() -> Self {
        Self {
            max_retries: 0,
            backoff_base_ns: 0.0,
            backoff_multiplier: 1.0,
            verify_checksums: false,
        }
    }

    /// Retry with exponential backoff, no checksums: survives drops but
    /// not corruption.
    pub fn retry_only() -> Self {
        Self {
            verify_checksums: false,
            ..Self::default()
        }
    }

    /// The backoff charged before retry number `attempt` (0-based).
    pub fn backoff_ns(&self, attempt: u32) -> f64 {
        self.backoff_base_ns * self.backoff_multiplier.powi(attempt as i32)
    }
}

impl Default for RecoveryPolicy {
    /// Full recovery: 4 retries, 50 µs base backoff doubling per attempt,
    /// checksums on.
    fn default() -> Self {
        Self {
            max_retries: 4,
            backoff_base_ns: 50_000.0,
            backoff_multiplier: 2.0,
            verify_checksums: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_ns(0), 50_000.0);
        assert_eq!(p.backoff_ns(1), 100_000.0);
        assert_eq!(p.backoff_ns(3), 400_000.0);
    }

    #[test]
    fn none_is_free() {
        let p = RecoveryPolicy::none();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff_ns(0), 0.0);
        assert!(!p.verify_checksums);
    }
}
