//! Attack plans: the strategy-agnostic description the paper's §IV relies
//! on ("How the cache poisoning is done ... is not important for this
//! attack to work").

use crate::payload::POISON_TTL;
use netsim::time::{SimDuration, SimTime};

/// How the DNS cache gets poisoned.
#[derive(Debug, Clone, PartialEq)]
pub enum PoisonStrategy {
    /// Packet-level defragmentation poisoning (glue rewrite) running
    /// continuously from `start`.
    Fragmentation {
        /// When the attacker starts planting.
        start: SimTime,
    },
    /// BGP prefix hijack of the nameserver during a window.
    BgpHijack {
        /// Hijack activation.
        from: SimTime,
        /// Hijack withdrawal.
        until: SimTime,
    },
    /// Blind (Kaminsky-style) spoofing, flooding from the first event.
    BlindSpoof {
        /// Forged responses per attempt.
        burst: usize,
    },
    /// Oracle injection: the poison lands exactly at pool-generation round
    /// `round` (1-based). Used by the analytic experiments to decouple the
    /// pool-capture math from any particular poisoning mechanism.
    Oracle {
        /// The round whose response is replaced.
        round: usize,
    },
}

/// A complete attack description.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// The poisoning mechanism.
    pub strategy: PoisonStrategy,
    /// Malicious NTP servers advertised (paper: 89).
    pub farm_size: usize,
    /// TTL on poisoned records (paper: > 24 h).
    pub poison_ttl: u32,
    /// The time shift the malicious farm serves.
    pub shift: SimDuration,
    /// Sign of the shift (`true` = clocks pushed forward).
    pub shift_forward: bool,
}

impl AttackPlan {
    /// The paper's §IV attack: 89 records, TTL 86 401 s, poisoning landing
    /// at round 12, shifting the victim forward by `shift`.
    pub fn paper_default(shift: SimDuration) -> Self {
        AttackPlan {
            strategy: PoisonStrategy::Oracle { round: 12 },
            farm_size: 89,
            poison_ttl: POISON_TTL,
            shift,
            shift_forward: true,
        }
    }

    /// The signed shift in nanoseconds.
    pub fn shift_ns(&self) -> i64 {
        let ns = self.shift.as_nanos() as i64;
        if self.shift_forward {
            ns
        } else {
            -ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv() {
        let plan = AttackPlan::paper_default(SimDuration::from_millis(500));
        assert_eq!(plan.farm_size, 89);
        assert_eq!(plan.poison_ttl, 86_401);
        assert!(matches!(
            plan.strategy,
            PoisonStrategy::Oracle { round: 12 }
        ));
        assert_eq!(plan.shift_ns(), 500_000_000);
    }

    #[test]
    fn backward_shift_is_negative() {
        let mut plan = AttackPlan::paper_default(SimDuration::from_millis(100));
        plan.shift_forward = false;
        assert_eq!(plan.shift_ns(), -100_000_000);
    }
}
