//! The rule set: one module per enforced invariant.

pub mod atomics;
pub mod fail_closed;
pub mod unsafe_hygiene;
