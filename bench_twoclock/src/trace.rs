//! The benchmark's own spans around public API calls.
//!
//! Every span carries its virtual start and end, read from the sim clock:
//! those stamps are what the virtual-time metrics are computed from, so
//! they are taken in every run. Host-clock stamps are taken only in a
//! traced run; untraced runs are the ones whose host time is reported.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use dacc_sim::prelude::*;

use crate::stats::Digest;

/// The public API call a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `AcProcess::acquire` / `acquire_scheduled` (includes queue wait).
    Acquire,
    /// `AcProcess::finish` (the ARM release).
    Finish,
    MemAlloc,
    H2d,
    Launch,
    D2h,
    MemFree,
    /// `dgeqrf_hybrid`.
    Qr,
}

impl Call {
    /// The five device API calls of the computation API (`core`); the
    /// others go into `arm` and `linalg`.
    pub fn is_device_op(self) -> bool {
        matches!(
            self,
            Call::MemAlloc | Call::H2d | Call::Launch | Call::D2h | Call::MemFree
        )
    }
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub virt_start: SimTime,
    pub virt_end: SimTime,
    /// Host nanoseconds between open and close (0 when untraced).
    pub host_ns: u64,
    /// Payload bytes the call moved, if any.
    pub bytes: u64,
}

impl Span {
    pub fn virt(&self) -> SimDuration {
        self.virt_end.since(self.virt_start)
    }
}

struct State {
    spans: Vec<Span>,
    digest: Digest,
}

/// Shared span recorder for every task of one simulation.
#[derive(Clone)]
pub struct Trace {
    handle: SimHandle,
    traced: bool,
    state: Rc<RefCell<State>>,
}

impl Trace {
    pub fn new(handle: SimHandle, traced: bool, capacity: usize) -> Self {
        Trace {
            handle,
            traced,
            state: Rc::new(RefCell::new(State {
                spans: Vec::with_capacity(capacity),
                digest: Digest::default(),
            })),
        }
    }

    /// Whether spans take host-clock stamps.
    pub fn traced(&self) -> bool {
        self.traced
    }

    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Await `fut` inside a span of `call` moving `bytes`.
    pub async fn span<T>(&self, call: Call, bytes: u64, fut: impl Future<Output = T>) -> T {
        let virt_start = self.handle.now();
        let host_start = self.traced.then(Instant::now);
        let out = fut.await;
        let virt_end = self.handle.now();
        let host_ns = host_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut s = self.state.borrow_mut();
        s.digest.push(call as u64);
        s.digest.push(virt_start.as_nanos());
        s.digest.push(virt_end.as_nanos());
        s.spans.push(Span {
            call,
            virt_start,
            virt_end,
            host_ns,
            bytes,
        });
        out
    }

    /// Digest of every span's virtual start and end, in closing order.
    pub fn digest(&self) -> u64 {
        self.state.borrow().digest.value()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}
