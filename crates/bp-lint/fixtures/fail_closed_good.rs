// Known-good fixture: unhandled cases drop, error fallbacks drop, bulk
// fills are drops, and the one contractual accept-fill is annotated.

fn verdict_for(kind: PacketKind) -> Verdict {
    match kind {
        PacketKind::Known(app) => evaluate(app),
        _ => Verdict::Drop {
            reason: DropReason::Static("unhandled packet kind"),
        },
    }
}

fn verdict_or_drop(result: Result<Verdict, DecodeError>) -> Verdict {
    result.unwrap_or(Verdict::Drop {
        reason: DropReason::Static("decode failed"),
    })
}

fn presize(verdicts: &mut Vec<Verdict>, len: usize) {
    verdicts.resize(
        len,
        Verdict::Drop {
            reason: DropReason::Static(""),
        },
    );
}

fn sanitize_batch(verdicts: &mut Vec<Verdict>, len: usize) {
    // bp-lint: allow(fail-closed) the sanitizer mutates in place, never filters
    verdicts.resize(len, Verdict::Accept);
}
