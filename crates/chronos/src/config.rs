//! Chronos parameters (NDSS'18 §4, defaults per the papers).

use dnslab::name::Name;
use netsim::time::SimDuration;

/// Pool-generation settings (the mechanism the DSN paper attacks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolGenConfig {
    /// Name queried to gather servers.
    pub pool_name: Name,
    /// Number of DNS queries (paper: 24).
    pub queries: usize,
    /// Interval between queries (paper: hourly).
    pub query_interval: SimDuration,
    /// §V mitigation (a): accept at most this many addresses from a single
    /// response (`None` = unlimited, the vulnerable original behaviour).
    pub max_records_per_response: Option<usize>,
    /// §V mitigation (b): discard entire responses carrying any record with
    /// TTL above this bound (`None` = accept all).
    pub reject_ttl_above: Option<u32>,
}

impl Default for PoolGenConfig {
    fn default() -> Self {
        PoolGenConfig {
            pool_name: "pool.ntp.org".parse().expect("static name"),
            queries: 24,
            query_interval: SimDuration::from_hours(1),
            max_records_per_response: None,
            reject_ttl_above: None,
        }
    }
}

impl PoolGenConfig {
    /// The §V-hardened variant: at most 4 addresses per response, responses
    /// with TTL > 3600 s discarded.
    pub fn mitigated() -> Self {
        PoolGenConfig {
            max_records_per_response: Some(4),
            reject_ttl_above: Some(3600),
            ..PoolGenConfig::default()
        }
    }
}

/// Full Chronos client configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChronosConfig {
    /// Servers sampled per poll (m).
    pub sample_size: usize,
    /// Samples trimmed from each end (d; the papers use m/3).
    pub trim: usize,
    /// Agreement bound ω: surviving offsets must lie within this span.
    pub omega: SimDuration,
    /// Base error envelope (ERR): an accepted average must be within
    /// `ERR + drift·Δt` of the local clock.
    pub err: SimDuration,
    /// Assumed drift bound used to grow the envelope (ppm).
    pub drift_ppm: f64,
    /// Resampling attempts (K) before entering panic mode.
    pub max_retries: u32,
    /// Poll cadence once the pool is ready.
    pub poll_interval: SimDuration,
    /// Window to wait for server replies each poll.
    pub response_window: SimDuration,
    /// Pool generation settings.
    pub pool: PoolGenConfig,
}

impl Default for ChronosConfig {
    fn default() -> Self {
        ChronosConfig {
            sample_size: 15,
            trim: 5,
            omega: SimDuration::from_millis(25),
            err: SimDuration::from_millis(100),
            drift_ppm: 30.0,
            max_retries: 3,
            poll_interval: SimDuration::from_secs(64),
            response_window: SimDuration::from_secs(1),
            pool: PoolGenConfig::default(),
        }
    }
}

impl ChronosConfig {
    /// Number of samples surviving the trim.
    pub fn survivors(&self) -> usize {
        self.sample_size.saturating_sub(self.trim.saturating_mul(2))
    }

    /// Checks internal consistency without panicking: the first rule the
    /// config breaks, as the message [`ChronosConfig::validate`] panics
    /// with.
    ///
    /// # Errors
    ///
    /// When the sample size is zero, the trim leaves no survivors, or pool
    /// generation has no queries.
    pub fn check(&self) -> Result<(), String> {
        if self.sample_size == 0 {
            Err("sample_size must be positive".to_string())
        } else if self.survivors() == 0 {
            let (trim, size) = (self.trim, self.sample_size);
            Err(format!("trim {trim} leaves no survivors of {size} samples"))
        } else if self.pool.queries == 0 {
            Err("pool generation needs queries".to_string())
        } else {
            Ok(())
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with [`ChronosConfig::check`]'s message if the trim leaves
    /// no survivors, the sample size is zero or pool generation has no
    /// queries.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|why| panic!("{why}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers() {
        let cfg = ChronosConfig::default();
        assert_eq!(cfg.sample_size, 15);
        assert_eq!(cfg.trim, 5, "d = m/3");
        assert_eq!(cfg.survivors(), 5);
        assert_eq!(cfg.pool.queries, 24);
        assert_eq!(cfg.pool.query_interval, SimDuration::from_hours(1));
        assert_eq!(cfg.pool.max_records_per_response, None);
        cfg.validate();
    }

    #[test]
    fn mitigated_pool_config() {
        let m = PoolGenConfig::mitigated();
        assert_eq!(m.max_records_per_response, Some(4));
        assert_eq!(m.reject_ttl_above, Some(3600));
        assert_eq!(m.queries, 24);
    }

    #[test]
    #[should_panic(expected = "leaves no survivors")]
    fn over_trimming_is_rejected() {
        let cfg = ChronosConfig {
            sample_size: 6,
            trim: 3,
            ..ChronosConfig::default()
        };
        cfg.validate();
    }
}
