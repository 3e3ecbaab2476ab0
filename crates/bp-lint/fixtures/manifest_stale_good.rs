// Fixture: every `[atomics]` entry of the test manifest (`head`,
// `retired_lane`) still names an atomic declared here.
use std::sync::atomic::{AtomicU64, AtomicUsize};

struct Ring {
    head: AtomicUsize,
}

struct Stats {
    retired_lane: AtomicU64,
}
