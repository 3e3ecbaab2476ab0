// Known-bad fixture: wire-ingress error arms that accept — a frame the
// decoder rejected passes as if it had parsed.  Three hits: a same-line
// `Err(_)` accept, a typed `WireError` accept, and a continuation-line
// accept after `Err(…) =>`.

fn verdict_for_frame(frame: &[u8]) -> Verdict {
    match wire::decode_frame(frame) {
        Ok(packet) => inspect(&packet),
        Err(_) => Verdict::Accept,
    }
}

fn tolerate_checksum_faults(frame: &[u8]) -> Verdict {
    match wire::decode_frame(frame) {
        Ok(packet) => inspect(&packet),
        Err(WireError::BadChecksum) => Verdict::Accept,
        Err(error) => Verdict::Drop {
            reason: DropReason::Static(error.drop_reason()),
        },
    }
}

fn accept_on_next_line(frame: &[u8]) -> Verdict {
    match wire::decode_frame(frame) {
        Ok(packet) => inspect(&packet),
        Err(_) =>
            Verdict::Accept,
    }
}
