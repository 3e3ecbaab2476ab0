// Fixture: `retired_lane` was folded into a lane array the manifest does
// not name yet, but its `[atomics]` line stayed behind.
use std::sync::atomic::AtomicUsize;

struct Ring {
    head: AtomicUsize,
}

struct Stats {
    lanes: [u64; 4],
}
