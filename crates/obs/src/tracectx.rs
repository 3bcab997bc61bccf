//! Causal trace context.
//!
//! A [`TraceCtx`] names the position of a piece of work inside a causal
//! tree: which *trace* (one per originating request) it belongs to and
//! which *span* is its parent. Spans opened on the same thread inherit
//! both ambiently from the enclosing [`Span`](crate::Span), so most code
//! never touches a `TraceCtx`; the struct exists to carry causality
//! across the places the per-thread ambient stack cannot reach —
//! wave workers, retry parking lots, and `Replace`
//! chain-transfers, where the thread that *finishes* a request is not
//! the thread that *submitted* it.
//!
//! The protocol is two calls:
//!
//! * [`Span::ctx`](crate::Span::ctx) captures a span's identity as a
//!   `TraceCtx` (store it on the work item);
//! * [`Recorder::span_ctx`](crate::Recorder::span_ctx) re-opens the
//!   causal chain on whatever thread picked the work item up.
//!
//! Identifiers are plain `u64`s allocated from per-recorder atomic
//! counters; `0` means "none" in both positions, so a zeroed
//! [`TraceCtx::NONE`] marks untraced work and costs nothing to carry.

/// Causal coordinates carried across thread and queue boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// The trace (causal tree) this work belongs to; `0` = untraced.
    pub trace_id: u64,
    /// The span to parent new work under; `0` = root (no parent).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// The empty context: untraced work with no parent.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span_id: 0,
    };

    /// Whether this context carries any causal information.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.trace_id == 0 && self.parent_span_id == 0
    }
}
