//! Session registry: session id → per-session slot.
//!
//! Each slot owns (a) the session's private FIFO of pending requests
//! and (b) its lazily constructed [`GridMind`] engine. Per-session
//! serialization is enforced by *token scheduling*: a session's id is
//! in the server's global queue **at most once** (the `scheduled`
//! flag), so at most one worker ever holds a given slot, two requests
//! for the same session can never interleave, and distinct sessions run
//! fully in parallel across the worker pool.

use gm_agents::ServeRequest;
use gridmind_core::GridMind;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// A request plus its admission timestamp (for queue-wait accounting
/// and deadline checks).
#[derive(Clone, Debug)]
pub struct QueuedRequest {
    /// The admitted request.
    pub req: ServeRequest,
    /// When [`crate::Server::submit`] accepted it.
    pub submitted: Instant,
}

struct SlotState {
    pending: VecDeque<QueuedRequest>,
    /// Whether this session's token is currently in the global queue or
    /// held by a worker.
    scheduled: bool,
}

/// One session's serialization point: pending FIFO + engine.
pub struct SessionSlot {
    /// The session id.
    pub id: String,
    state: Mutex<SlotState>,
    /// The session's conversational engine, built by the first worker
    /// to serve it. Uncontended in steady state — token scheduling
    /// already guarantees single ownership — the mutex exists for
    /// `Sync`.
    pub engine: Mutex<Option<GridMind>>,
}

impl SessionSlot {
    fn new(id: &str) -> Arc<SessionSlot> {
        Arc::new(SessionSlot {
            id: id.to_string(),
            state: Mutex::new(SlotState {
                pending: VecDeque::new(),
                scheduled: false,
            }),
            engine: Mutex::new(None),
        })
    }

    /// Appends a request to this session's FIFO. Returns `true` when
    /// the caller must enqueue the session's token (the slot was idle);
    /// `false` when a token is already circulating.
    pub fn enqueue(&self, qr: QueuedRequest) -> bool {
        let mut s = self.state.lock();
        s.pending.push_back(qr);
        if s.scheduled {
            false
        } else {
            s.scheduled = true;
            true
        }
    }

    /// Takes the oldest pending request (the worker holding the token).
    pub fn take_next(&self) -> Option<QueuedRequest> {
        self.state.lock().pending.pop_front()
    }

    /// Marks one request finished. Returns `true` when more work is
    /// pending (the worker must re-enqueue the token); otherwise clears
    /// the `scheduled` flag and returns `false`.
    pub fn finish_one(&self) -> bool {
        let mut s = self.state.lock();
        if s.pending.is_empty() {
            s.scheduled = false;
            false
        } else {
            true
        }
    }

    /// Number of requests waiting in this session's FIFO.
    pub fn backlog(&self) -> usize {
        self.state.lock().pending.len()
    }
}

/// The id → slot map.
#[derive(Default)]
pub struct SessionRegistry {
    slots: RwLock<HashMap<String, Arc<SessionSlot>>>,
}

impl SessionRegistry {
    /// Empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// The slot for `id`, created on first reference.
    pub fn slot(&self, id: &str) -> Arc<SessionSlot> {
        if let Some(s) = self.slots.read().get(id) {
            return s.clone();
        }
        let mut w = self.slots.write();
        w.entry(id.to_string())
            .or_insert_with(|| SessionSlot::new(id))
            .clone()
    }

    /// All known slots (shutdown-time telemetry sweep).
    pub fn all(&self) -> Vec<Arc<SessionSlot>> {
        self.slots.read().values().cloned().collect()
    }

    /// Number of sessions ever referenced.
    pub fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// True when no session has been referenced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qr(session: &str, seq: u64) -> QueuedRequest {
        QueuedRequest {
            req: ServeRequest {
                session: session.into(),
                seq,
                query: "q".into(),
                deadline_ms: None,
            },
            submitted: Instant::now(),
        }
    }

    #[test]
    fn slot_identity_is_stable() {
        let reg = SessionRegistry::new();
        let a1 = reg.slot("a");
        let a2 = reg.slot("a");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(reg.len(), 1);
        reg.slot("b");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn token_scheduling_marks_exactly_one_token() {
        let reg = SessionRegistry::new();
        let slot = reg.slot("s");
        assert!(slot.enqueue(qr("s", 0)), "idle slot needs a token");
        assert!(!slot.enqueue(qr("s", 1)), "token already circulating");
        assert_eq!(slot.backlog(), 2);

        // Worker processes seq 0, more remains → keep the token.
        assert_eq!(slot.take_next().unwrap().req.seq, 0);
        assert!(slot.finish_one());
        // Worker processes seq 1, slot drains → token retired.
        assert_eq!(slot.take_next().unwrap().req.seq, 1);
        assert!(!slot.finish_one());
        // Next enqueue needs a fresh token again.
        assert!(slot.enqueue(qr("s", 2)));
    }
}
