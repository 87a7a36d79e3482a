//! OOC tasks: intercepted entry-method invocations bundled with their
//! data dependences.
//!
//! §IV-B: *"the object along with its input dependences, i.e the input
//! data that were annotated as specified in IV-A and input message are
//! encapsulated as an OOCTask."*
//!
//! The dependences ride in the envelope itself ([`Envelope::deps`])
//! through admission and execution to post-processing (eviction).

use converse::Envelope;

/// An intercepted `[prefetch]` invocation waiting for its data.
pub struct OocTask {
    /// The original message (re-injected on admission), carrying the
    /// entry method's declared dependences.
    pub env: Envelope,
    /// Home PE of the target chare.
    pub pe: usize,
    /// Clock time at interception (measures wait-queue delay).
    pub enqueued_at: u64,
    /// Total payload bytes of the dependences, summed once at
    /// interception for the admission guard and the refusal check.
    pub bytes: u64,
}

impl std::fmt::Debug for OocTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocTask")
            .field("env", &self.env)
            .field("pe", &self.pe)
            .field("bytes", &self.bytes)
            .finish()
    }
}
