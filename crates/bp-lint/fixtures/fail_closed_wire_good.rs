// Known-good fixture: wire-ingress error arms fail closed with the typed
// `WireError` drop reason, and a block-bodied `Err` arm whose accept is
// config-gated (not a default) stays unflagged.

fn verdict_for_frame(frame: &[u8]) -> Verdict {
    match wire::decode_frame(frame) {
        Ok(packet) => inspect(&packet),
        Err(error) => Verdict::Drop {
            reason: DropReason::Static(error.drop_reason()),
        },
    }
}

fn gated_fallback(frame: &[u8], config: &EnforcerConfig) -> Verdict {
    match wire::decode_frame(frame) {
        Ok(packet) => inspect(&packet),
        Err(error) => {
            record_drop_reason(error);
            if config.permissive_decode {
                return Verdict::Accept;
            }
            Verdict::Drop {
                reason: DropReason::Static(error.drop_reason()),
            }
        }
    }
}
