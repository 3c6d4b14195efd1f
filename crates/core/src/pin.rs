//! The placement-policy type in the sharded runner's signature.
//!
//! Worker threads run wherever the OS scheduler places them: results
//! never depended on placement, and no measurement showed that pinning
//! helps. [`PinPolicy`] keeps its one variant, [`PinPolicy::Off`], and
//! [`run_sharded_collected_hedged_with`] keeps its ignored `pin`
//! argument only because the repository benchmark passes
//! `PinPolicy::Off` to it.
//!
//! [`run_sharded_collected_hedged_with`]: crate::runtime::run_sharded_collected_hedged_with

/// Placement policy for the sharded runner's worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// Let the OS scheduler place workers (the only policy).
    #[default]
    Off,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert_eq!(PinPolicy::default(), PinPolicy::Off);
    }
}
