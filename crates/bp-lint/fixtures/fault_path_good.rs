//! Known-good twin of `fault_path_bad.rs`: panic recovery that fails
//! *closed*.  Uninspected slots drop under the typed runtime-fault reason,
//! and the one deliberate fault-path accept — a self-test probe whose
//! contract is to observe the panic, not to filter — carries an allow
//! annotation.  Expected findings: none.

/// GOOD: the recovery loop backfills the panicked partition's remaining
/// slots with runtime-fault drops — every uninspected packet fails closed.
fn recover_fail_closed(len: usize, verdicts: &mut Vec<Verdict>) {
    let outcome = std::panic::catch_unwind(run_partition);
    if outcome.is_err() {
        while verdicts.len() < len {
            verdicts.push(Verdict::Drop {
                reason: DropReason::Static(RUNTIME_FAULT_DROP_REASON),
            });
        }
    }
}

/// GOOD: a self-test probe observes the unwind outcome; its accept marks
/// the probe slot (re-run inline afterwards) and documents the contract.
fn probe_partition(slots: &mut [Verdict]) {
    match std::panic::catch_unwind(probe_partition_once) {
        Ok(()) => {}
        Err(_) => {
            // bp-lint: allow(fail-closed) probe slot is re-run inline; the accept marks the probe, not a packet
            mark_probe(slots, Verdict::Accept);
        }
    }
}
