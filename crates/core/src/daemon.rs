//! The back-end daemon running on every accelerator (§IV).
//!
//! Receives requests from front-ends over the fabric and executes them on
//! the local GPU through the (virtual) CUDA driver API. Bulk copies use
//! either the naive protocol — receive everything into main memory, then one
//! DMA — or the pipelined protocol: blocks are received into a bounded ring
//! of GPUDirect pinned buffers and DMA'd onward while later blocks are still
//! on the wire.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::{Endpoint, Rank, Tag};
use dacc_fabric::payload::Payload;
use dacc_sim::fault::{FaultHook, ProcessFault};
use dacc_sim::prelude::*;
use dacc_vgpu::device::{GpuError, HostMemKind, VirtualGpu};
use dacc_vgpu::kernel::{KernelArg, KernelError, LaunchConfig};
use dacc_vgpu::memory::{DevicePtr, MemError};
use dacc_vgpu::pinned::PinnedPool;

use crate::proto::{
    ac_tags, open_block, seal_block, AnyRequest, Request, Response, Status, StreamAck,
    WireProtocol, CRC_TRAILER_BYTES, STREAM_VIRT_BASE,
};

/// Daemon tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// CPU cost to decode and dispatch one request.
    pub request_cost: SimDuration,
    /// CPU cost per pipeline block (progressing MPI, posting the DMA).
    /// This sits between a block's arrival and the posting of the next
    /// receive, so it shows up as the per-block wire gap the paper blames
    /// for small-block overhead at large message sizes.
    pub per_block_cost: SimDuration,
    /// Number of pinned buffers in the GPUDirect ring.
    pub pinned_depth: usize,
    /// Size of each pinned buffer (must cover the largest pipeline block).
    pub pinned_buffer: u64,
    /// Whether GPUDirect NIC/GPU buffer sharing is enabled; when off, every
    /// block pays a host staging copy.
    pub gpudirect: bool,
    /// Number of block receives posted ahead during pipelined H2D
    /// transfers. With 1 (the paper-era behaviour) each block's rendezvous
    /// clear-to-send waits for the previous block's arrival, leaving a
    /// per-block wire gap; larger values pre-issue CTSs and close the gap
    /// (bounded by `pinned_depth`).
    pub recv_prepost: usize,
    /// How long to wait for each data-phase message before aborting the
    /// operation with [`Status::Timeout`]. `None` (the default) waits
    /// forever, which is correct on a lossless fabric; runs with injected
    /// message drops must set this or a lost block wedges the daemon.
    pub data_timeout: Option<SimDuration>,
    /// Bounded-run-queue admission control (the overload plane). `None`
    /// (the default) keeps the legacy unbounded queue: every arrival is
    /// eventually served, message counts and ordering are untouched, and
    /// archived virtual-time results stay pinned. With a config set, the
    /// daemon drains the fabric queue each service iteration, drops
    /// deadline-expired requests before decode, and sheds arrivals past
    /// `max_queue` with [`Status::Overloaded`] fast-rejects under
    /// per-tenant max-min fair share (see
    /// [`dacc_sched::shed_overflow`]).
    pub admission: Option<AdmissionConfig>,
}

/// Tuning for the daemon's bounded run-queue (see
/// [`DaemonConfig::admission`]).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum requests held in the run-queue; arrivals past this are
    /// shed (per-tenant fair share, latest deadlines first) with a
    /// [`Status::Overloaded`] fast-reject — far cheaper for the sender
    /// than discovering the overload by timeout.
    pub max_queue: u32,
    /// Retry-after hint stamped into each fast-reject's `value` (nanos),
    /// pacing the sender's next attempt.
    pub retry_after: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue: 16,
            retry_after: SimDuration::from_micros(200),
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            request_cost: SimDuration::from_micros(3),
            per_block_cost: SimDuration::from_nanos(400),
            pinned_depth: 4,
            pinned_buffer: 1 << 20,
            gpudirect: true,
            recv_prepost: 1,
            data_timeout: None,
            admission: None,
        }
    }
}

/// Daemon activity counters, returned when the daemon shuts down.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonStats {
    /// Requests served (including the final shutdown).
    pub requests: u64,
    /// Payload bytes received from front-ends (H2D + peer).
    pub bytes_in: u64,
    /// Payload bytes sent to front-ends (D2H + peer).
    pub bytes_out: u64,
    /// Peak host-memory footprint of receive buffers. The naive protocol
    /// needs the full message; the pipeline needs `depth × buffer` no matter
    /// the message size (§V.A).
    pub host_buffer_peak: u64,
    /// Kernels launched on behalf of front-ends.
    pub kernels: u64,
    /// Command-stream batch frames received (each counts once in
    /// `requests`).
    pub stream_batches: u64,
    /// Individual commands executed out of stream batches.
    pub stream_cmds: u64,
}

/// State shared between a daemon's request loop and its heartbeat agent
/// (a sibling task on the same simulated process, spawned by the cluster
/// builder when the health plane is enabled).
///
/// The agent learns the ARM's current **fence** from heartbeat acks and
/// raises it here; the request loop then rejects any framed request or
/// stream batch stamped with an older assignment epoch
/// ([`Status::StaleEpoch`]) before it can touch device state, and resets
/// its per-client sessions so the next holder starts clean. In the other
/// direction the loop counts executed operations so the agent can report
/// the accelerator busy — the ARM renews the holder's lease implicitly on
/// that traffic.
#[derive(Clone, Default)]
pub struct DaemonHealth(Rc<RefCell<DaemonHealthState>>);

#[derive(Default)]
struct DaemonHealthState {
    fence: u64,
    busy_ops: u64,
    reset: bool,
    alive: bool,
    started: bool,
    queue_depth: u32,
}

impl DaemonHealth {
    /// Fresh shared state (fence 0 — nothing is fenced).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current fence: framed traffic stamped with an epoch below this
    /// is rejected. Epoch 0 (unstamped/legacy) is never fenced.
    pub fn fence(&self) -> u64 {
        self.0.borrow().fence
    }

    /// Raise the fence (monotonic). A raise also schedules a session
    /// reset in the request loop so the evicted holder's kernel bindings
    /// and stream regions cannot leak into the next assignment.
    pub fn raise_fence(&self, fence: u64) {
        let mut st = self.0.borrow_mut();
        if fence > st.fence {
            st.fence = fence;
            st.reset = true;
        }
    }

    /// Consume the pending session-reset flag.
    fn take_reset(&self) -> bool {
        std::mem::take(&mut self.0.borrow_mut().reset)
    }

    fn count_op(&self) {
        self.0.borrow_mut().busy_ops += 1;
    }

    /// Operations executed since the last call; the heartbeat agent
    /// reports this as the accelerator's busyness (implicit lease renewal).
    pub fn take_busy(&self) -> u64 {
        std::mem::take(&mut self.0.borrow_mut().busy_ops)
    }

    /// True while the request loop is running (between service start and
    /// shutdown/crash). The heartbeat agent stops beating when this drops.
    pub fn alive(&self) -> bool {
        self.0.borrow().alive
    }

    /// True once the request loop has started serving at least once.
    pub fn started(&self) -> bool {
        self.0.borrow().started
    }

    fn set_alive(&self, alive: bool) {
        let mut st = self.0.borrow_mut();
        st.alive = alive;
        st.started |= alive;
    }

    /// Run-queue depth last published by the request loop (0 when
    /// admission control is off). The heartbeat agent reports it to the
    /// ARM so placement can steer work away from backed-up accelerators.
    pub fn queue_depth(&self) -> u32 {
        self.0.borrow().queue_depth
    }

    /// Publish the current run-queue depth for the heartbeat agent.
    pub fn set_queue_depth(&self, depth: u32) {
        self.0.borrow_mut().queue_depth = depth;
    }
}

/// One live stream-virtual allocation from a client's command stream.
struct StreamRegion {
    virt: u64,
    len: u64,
    real: DevicePtr,
}

#[derive(Default)]
struct Session {
    kernel: Option<String>,
    args: Vec<KernelArg>,
    /// Stream-virtual allocations (see [`Request::MemAllocAt`]), translated
    /// on every use from this client.
    regions: Vec<StreamRegion>,
}

impl Session {
    /// Translate a possibly stream-virtual pointer to a real device pointer.
    fn resolve_ptr(&self, p: DevicePtr) -> Result<DevicePtr, Status> {
        if p.0 < STREAM_VIRT_BASE {
            return Ok(p);
        }
        self.regions
            .iter()
            .find(|r| p.0 >= r.virt && p.0 - r.virt < r.len.max(1))
            .map(|r| r.real.offset(p.0 - r.virt))
            .ok_or(Status::InvalidPointer)
    }

    /// Translate any stream-virtual pointer arguments for a kernel launch.
    fn resolve_args(&self, args: &[KernelArg]) -> Result<Vec<KernelArg>, Status> {
        args.iter()
            .map(|a| match a {
                KernelArg::Ptr(p) => self.resolve_ptr(*p).map(KernelArg::Ptr),
                other => Ok(*other),
            })
            .collect()
    }
}

fn status_of_gpu_error(e: &GpuError) -> Status {
    match e {
        GpuError::Mem(MemError::OutOfMemory { .. }) => Status::OutOfMemory,
        GpuError::Mem(MemError::InvalidPointer(_)) | GpuError::Mem(MemError::NotABase(_)) => {
            Status::InvalidPointer
        }
        GpuError::Mem(MemError::OutOfBounds { .. }) => Status::OutOfBounds,
        GpuError::Kernel(KernelError::UnknownKernel(_)) => Status::UnknownKernel,
        GpuError::Kernel(KernelError::BadArg(_)) => Status::BadArgs,
        GpuError::Kernel(KernelError::Mem(_)) => Status::OutOfBounds,
        GpuError::Kernel(KernelError::Failed(_)) => Status::KernelFailed,
    }
}

/// Run a back-end daemon on `ep`, driving `gpu`, until a front-end sends
/// `Shutdown`. Returns the daemon's activity counters.
pub async fn run_daemon(ep: Endpoint, gpu: VirtualGpu, config: DaemonConfig) -> DaemonStats {
    run_daemon_traced(ep, gpu, config, Tracer::disabled()).await
}

pub(crate) fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::MemAlloc { .. } => "MemAlloc",
        Request::MemFree { .. } => "MemFree",
        Request::MemCpyH2D { .. } => "MemCpyH2D",
        Request::MemCpyD2H { .. } => "MemCpyD2H",
        Request::KernelCreate { .. } => "KernelCreate",
        Request::KernelSetArgs { .. } => "KernelSetArgs",
        Request::KernelRun { .. } => "KernelRun",
        Request::PeerSend { .. } => "PeerSend",
        Request::PeerRecv { .. } => "PeerRecv",
        Request::MemSet { .. } => "MemSet",
        Request::Ping => "Ping",
        Request::Shutdown => "Shutdown",
        Request::Launch { .. } => "Launch",
        Request::MemAllocAt { .. } => "MemAllocAt",
        Request::Snapshot { .. } => "Snapshot",
        Request::Restore { .. } => "Restore",
    }
}

/// [`run_daemon`] with an event tracer: every request is recorded as a
/// `daemon.request` event (`<Kind> from rankN`).
pub async fn run_daemon_traced(
    ep: Endpoint,
    gpu: VirtualGpu,
    config: DaemonConfig,
    tracer: Tracer,
) -> DaemonStats {
    run_daemon_health(ep, gpu, config, tracer, None, DaemonHealth::new()).await
}

/// True for operations whose bulk-data phase must be re-executed on a
/// replayed request (the front-end re-drives the data messages); all other
/// operations answer a replay from the dedupe cache without re-executing.
fn has_data_phase(req: &Request) -> bool {
    matches!(
        req,
        Request::MemCpyH2D { .. }
            | Request::MemCpyD2H { .. }
            | Request::PeerSend { .. }
            | Request::PeerRecv { .. }
            | Request::Snapshot { .. }
            | Request::Restore { .. }
    )
}

/// [`run_daemon_traced`] with an optional fault hook and a shared
/// [`DaemonHealth`] handle.
///
/// The fault hook is consulted once per request: `Crash` makes the daemon
/// vanish mid-service (no response, no tear-down), `Hang` stalls it.
/// Framed requests (see [`crate::proto::RequestFrame`]) are deduplicated
/// against the last completed operation per front-end so a retried
/// request whose response was lost is not executed twice. The fence
/// adopted by the daemon's heartbeat agent rejects stale-epoch traffic
/// ([`Status::StaleEpoch`]) and resets sessions, and executed operations
/// are counted for implicit lease renewal.
pub async fn run_daemon_health(
    ep: Endpoint,
    gpu: VirtualGpu,
    config: DaemonConfig,
    tracer: Tracer,
    fault: Option<Arc<dyn FaultHook>>,
    health: DaemonHealth,
) -> DaemonStats {
    health.set_alive(true);
    let handle = ep.fabric().handle().clone();
    let tele = ep.fabric().telemetry();
    let me = ep.rank();
    let pool = PinnedPool::new(
        &handle,
        config.pinned_depth,
        config.pinned_buffer,
        config.gpudirect,
        gpu.params().staging_rate,
    );
    let mut stats = DaemonStats::default();
    let mut sessions: HashMap<Rank, Session> = HashMap::new();
    // Last completed framed operation per front-end: (op_id, response).
    let mut completed: HashMap<Rank, (u64, Response)> = HashMap::new();
    let mut out = Replier::default();
    // Bounded run-queue (admission control only; empty and untouched on
    // the legacy path).
    let mut runq: std::collections::VecDeque<dacc_fabric::mpi::Envelope> =
        std::collections::VecDeque::new();

    loop {
        let env = match config.admission {
            None => ep.recv(None, Some(ac_tags::REQUEST)).await,
            Some(adm) => {
                // Admission control: pull everything already queued on
                // the fabric into the run-queue, drop expired work, shed
                // past capacity, then serve the head.
                if runq.is_empty() {
                    runq.push_back(ep.recv(None, Some(ac_tags::REQUEST)).await);
                }
                while ep.iprobe(None, Some(ac_tags::REQUEST)).is_some() {
                    runq.push_back(ep.recv(None, Some(ac_tags::REQUEST)).await);
                }
                // Deadline-expired requests are dropped before decode:
                // their senders have already given up, so even a reject
                // would be wasted work. Only frames that opted into a
                // deadline stamp can expire.
                let now_ns = handle.now().as_nanos();
                let before = runq.len();
                runq.retain(|e| {
                    e.payload
                        .bytes()
                        .and_then(|b| crate::proto::RequestFrame::peek_deadline(b))
                        .is_none_or(|d| d > now_ns)
                });
                let expired = (before - runq.len()) as u64;
                if expired > 0 {
                    tele.count("daemon.expired", expired);
                    tracer.record(&handle, "daemon.expired", || {
                        format!("{me} dropped {expired} expired requests undecoded")
                    });
                }
                let cap = adm.max_queue as usize;
                if runq.len() > cap {
                    let entries: Vec<(u32, u64)> = runq
                        .iter()
                        .map(|e| {
                            let d = e
                                .payload
                                .bytes()
                                .and_then(|b| crate::proto::RequestFrame::peek_deadline(b))
                                .unwrap_or(u64::MAX);
                            (e.src.0 as u32, d)
                        })
                        .collect();
                    let shed = dacc_sched::shed_overflow(&entries, cap);
                    tele.count("daemon.shed", shed.len() as u64);
                    let mut shed = shed.into_iter().peekable();
                    let mut kept = std::collections::VecDeque::with_capacity(cap);
                    for (i, e) in runq.drain(..).enumerate() {
                        if shed.peek() != Some(&i) {
                            kept.push_back(e);
                            continue;
                        }
                        shed.next();
                        // Fast-reject without decoding the body: peek the
                        // op/attempt ids so the reply lands on the
                        // attempt-scoped tag the sender is awaiting.
                        let tag = e
                            .payload
                            .bytes()
                            .and_then(|b| crate::proto::RequestFrame::peek_reject_ids(b))
                            .map_or(ac_tags::RESPONSE, |(op, att)| {
                                ac_tags::response_tag(op, att)
                            });
                        let src = e.src;
                        tracer.record(&handle, "daemon.shed", || {
                            format!("{me} sheds request from {src} (queue over {cap})")
                        });
                        out.send(
                            &ep,
                            src,
                            tag,
                            Response {
                                status: Status::Overloaded,
                                value: adm.retry_after.as_nanos(),
                            },
                        )
                        .await;
                    }
                    runq = kept;
                }
                health.set_queue_depth(runq.len() as u32);
                match runq.pop_front() {
                    Some(env) => env,
                    // Everything drained was expired or shed.
                    None => continue,
                }
            }
        };
        let t_arrive = handle.now();
        let cn = env.src;
        if health.take_reset() {
            // The ARM reclaimed this accelerator (fence raised): drop every
            // client's kernel bindings, stream regions, and dedupe entries
            // so the next holder starts on a clean device.
            sessions.clear();
            completed.clear();
            let fence = health.fence();
            tracer.record(&handle, "daemon.reset", || {
                format!("{me} resets sessions at fence {fence}")
            });
            tele.count("daemon.reset", 1);
        }
        if let Some(hook) = &fault {
            match hook.process_state(me.0, handle.now()) {
                ProcessFault::Healthy => {}
                ProcessFault::Hang(d) => {
                    tracer.record(&handle, "fault.hang", || format!("{me} stalls for {d}"));
                    handle.delay(d).await;
                }
                ProcessFault::Crash => {}
            }
            // Re-check after a possible stall: a hang may straddle the
            // crash time.
            if hook.process_state(me.0, handle.now()) == ProcessFault::Crash {
                tracer.record(&handle, "fault.crash", || format!("{me} dies"));
                health.set_alive(false);
                return stats;
            }
        }
        // Deadline-stamped work that expired while queued (or during a
        // stall above) is dropped before decode: the sender has already
        // stopped waiting. Undecorated traffic has no stamp and is never
        // dropped.
        if let Some(d) = env
            .payload
            .bytes()
            .and_then(|b| crate::proto::RequestFrame::peek_deadline(b))
        {
            if handle.now().as_nanos() >= d {
                tele.count("daemon.expired", 1);
                tracer.record(&handle, "daemon.expired", || {
                    format!("{me} drops expired request from {cn} undecoded")
                });
                continue;
            }
        }
        stats.requests += 1;
        let (framed, op_id, attempt, epoch, req) =
            match env.payload.bytes().map(|b| AnyRequest::decode(b)) {
                Some(Ok(AnyRequest::Bare(r))) => (false, 0, 0, 0, r),
                Some(Ok(AnyRequest::Framed(f))) => (true, f.op_id, f.attempt, f.epoch, f.req),
                Some(Ok(AnyRequest::Batch(batch))) => {
                    // Command-stream batch: one message, in-order execution,
                    // one cumulative ack. The whole batch pays the per-request
                    // dispatch cost once — that is the point of batching.
                    handle.delay(config.request_cost).await;
                    stats.stream_batches += 1;
                    let ncmds = batch.cmds.len();
                    let fence = health.fence();
                    if batch.epoch != 0 && batch.epoch < fence {
                        // The sender's grant was revoked: reject the whole
                        // batch with one cumulative StaleEpoch ack and never
                        // touch device state.
                        let bepoch = batch.epoch;
                        tracer.record(&handle, "daemon.fenced", || {
                            format!(
                                "StreamBatch[{ncmds}] from {cn}: epoch {bepoch} < fence {fence}"
                            )
                        });
                        tele.count("daemon.fenced", 1);
                        let ack = StreamAck {
                            seq: batch.first_seq.wrapping_add(ncmds as u64).wrapping_sub(1),
                            status: Status::StaleEpoch,
                            value: 0,
                        };
                        out.send(&ep, cn, ac_tags::stream_ack_tag(batch.stream), ack)
                            .await;
                        continue;
                    }
                    tracer.record(&handle, "daemon.request", || {
                        format!("StreamBatch[{ncmds}] from {cn}")
                    });
                    tele.span_at(
                        "daemon.decode",
                        || format!("StreamBatch[{ncmds}] from {cn}"),
                        t_arrive,
                        handle.now(),
                        Some(env.payload.len()),
                        None,
                    );
                    tele.count("daemon.stream.batches", 1);
                    let exec_span = tele.span(&handle, "daemon.execute", || {
                        format!("StreamBatch[{ncmds}] from {cn}")
                    });
                    let data_tag = ac_tags::stream_data_tag(batch.stream);
                    let session = sessions.entry(cn).or_default();
                    let mut first_err: Option<Status> = None;
                    let mut last_value = 0u64;
                    let mut seq = batch.first_seq;
                    for cmd in batch.cmds {
                        stats.stream_cmds += 1;
                        health.count_op();
                        tele.count("daemon.stream.cmds", 1);
                        handle.delay(config.per_block_cost).await;
                        tracer.record(&handle, "daemon.stream.cmd", || {
                            format!("{} seq {} from {}", request_kind(&cmd), seq, cn)
                        });
                        // Non-batchable commands are rejected individually, but
                        // the rest of the batch still executes so the stream's
                        // data-tag pairing never skews; the client latches the
                        // first error as its sticky stream error.
                        let resp = if cmd.batchable() {
                            exec_batchable(
                                &handle, &ep, &gpu, &pool, &config, &mut stats, session, cn, cmd,
                                data_tag,
                            )
                            .await
                        } else {
                            Response::err(Status::Malformed)
                        };
                        if resp.status != Status::Ok && first_err.is_none() {
                            first_err = Some(resp.status);
                        }
                        last_value = resp.value;
                        seq = seq.wrapping_add(1);
                    }
                    let ack = StreamAck {
                        seq: seq.wrapping_sub(1),
                        status: first_err.unwrap_or(Status::Ok),
                        value: last_value,
                    };
                    drop(exec_span);
                    let ack_seq = ack.seq;
                    let ack_span = tele
                        .span(&handle, "daemon.ack", || {
                            format!("StreamAck seq {ack_seq} to {cn}")
                        })
                        .op(ack_seq);
                    out.send(&ep, cn, ac_tags::stream_ack_tag(batch.stream), ack)
                        .await;
                    drop(ack_span);
                    continue;
                }
                _ => {
                    out.send(&ep, cn, ac_tags::RESPONSE, Response::err(Status::Malformed))
                        .await;
                    continue;
                }
            };
        let resp_tag = if framed {
            ac_tags::response_tag(op_id, attempt)
        } else {
            ac_tags::RESPONSE
        };
        let data_tag = if framed {
            ac_tags::data_tag(op_id, attempt)
        } else {
            ac_tags::DATA
        };
        handle.delay(config.request_cost).await;
        tracer.record(&handle, "daemon.request", || {
            format!("{} from {}", request_kind(&req), cn)
        });
        tele.span_at(
            "daemon.decode",
            || format!("{} from {}", request_kind(&req), cn),
            t_arrive,
            handle.now(),
            Some(env.payload.len()),
            framed.then_some(op_id),
        );

        // Fence stale holders before the dedupe cache and before any
        // execution: an op stamped with a pre-reclaim epoch must never
        // mutate the (possibly reassigned) device.
        let fence = health.fence();
        if framed && epoch != 0 && epoch < fence {
            tracer.record(&handle, "daemon.fenced", || {
                format!(
                    "{} op {op_id} from {cn}: epoch {epoch} < fence {fence}",
                    request_kind(&req)
                )
            });
            tele.count("daemon.fenced", 1);
            out.send(&ep, cn, resp_tag, Response::err(Status::StaleEpoch))
                .await;
            continue;
        }

        // A replayed operation (same op id as the last one this front-end
        // completed) is answered from the cache unless its data phase must
        // be re-driven; data-phase ops are idempotent re-executions.
        if framed && !has_data_phase(&req) {
            if let Some((last_op, last_resp)) = completed.get(&cn) {
                if *last_op == op_id {
                    tracer.record(&handle, "daemon.dedupe", || {
                        format!("replay op {op_id} attempt {attempt} from {cn}")
                    });
                    tele.count("daemon.dedupe", 1);
                    tele.instant(&handle, "daemon.dedupe", || {
                        format!("replay op {op_id} attempt {attempt} from {cn}")
                    });
                    out.send(&ep, cn, resp_tag, *last_resp).await;
                    continue;
                }
            }
        }

        health.count_op();
        let exec_span = tele
            .span(&handle, "daemon.execute", || {
                format!("{} from {}", request_kind(&req), cn)
            })
            .op(op_id);
        let resp = if req.batchable() {
            let session = sessions.entry(cn).or_default();
            exec_batchable(
                &handle, &ep, &gpu, &pool, &config, &mut stats, session, cn, req, data_tag,
            )
            .await
        } else {
            let session = sessions.entry(cn).or_default();
            match req {
                Request::MemCpyD2H { src, len, protocol } => {
                    // Validate before streaming so the front-end knows
                    // whether data messages will follow the response.
                    let valid = match session.resolve_ptr(src) {
                        Ok(real) => gpu
                            .mem()
                            .resolve(real, len)
                            .map(|_| real)
                            .map_err(|e| status_of_gpu_error(&e.into())),
                        Err(st) => Err(st),
                    };
                    let block_ok = match protocol {
                        WireProtocol::Pipeline { .. } => {
                            protocol.block_size(len) <= config.pinned_buffer
                        }
                        WireProtocol::Naive => true,
                    };
                    match valid {
                        Err(st) => {
                            out.send(&ep, cn, resp_tag, Response::err(st)).await;
                        }
                        Ok(_) if !block_ok => {
                            out.send(&ep, cn, resp_tag, Response::err(Status::Malformed))
                                .await;
                        }
                        Ok(real) => {
                            // Pre-data response: the front-end awaits it
                            // before its data phase.
                            out.send(&ep, cn, resp_tag, Response::ok()).await;
                            stream_d2h(
                                &handle, &ep, &gpu, &pool, &config, &mut stats, cn, real, len,
                                protocol, data_tag,
                            )
                            .await;
                        }
                    }
                    continue;
                }
                Request::Snapshot { regions, block } => {
                    // Serialize the named device regions to the front-end
                    // over the pipelined block protocol, exactly like a
                    // multi-region D2H: validate everything first so the
                    // front-end knows from the response whether data blocks
                    // will follow, then stream region by region.
                    let protocol = WireProtocol::Pipeline { block };
                    let mut resolved = Vec::with_capacity(regions.len());
                    let mut total = 0u64;
                    let mut err = None;
                    for (virt, len) in &regions {
                        let valid = match session.resolve_ptr(DevicePtr(*virt)) {
                            Ok(real) => gpu
                                .mem()
                                .resolve(real, *len)
                                .map(|_| real)
                                .map_err(|e| status_of_gpu_error(&e.into())),
                            Err(st) => Err(st),
                        };
                        match valid {
                            Ok(real) => {
                                resolved.push((real, *len));
                                total += *len;
                            }
                            Err(st) => {
                                err = Some(st);
                                break;
                            }
                        }
                    }
                    let block_ok = regions
                        .iter()
                        .all(|(_, len)| protocol.block_size(*len) <= config.pinned_buffer);
                    match err {
                        Some(st) => {
                            out.send(&ep, cn, resp_tag, Response::err(st)).await;
                        }
                        None if !block_ok => {
                            out.send(&ep, cn, resp_tag, Response::err(Status::Malformed))
                                .await;
                        }
                        None => {
                            // Pre-data response (see MemCpyD2H above).
                            out.send(
                                &ep,
                                cn,
                                resp_tag,
                                Response {
                                    status: Status::Ok,
                                    value: total,
                                },
                            )
                            .await;
                            for (real, len) in resolved {
                                stream_d2h(
                                    &handle, &ep, &gpu, &pool, &config, &mut stats, cn, real, len,
                                    protocol, data_tag,
                                )
                                .await;
                            }
                        }
                    }
                    continue;
                }
                Request::Restore { regions, block } => {
                    // Deserialize previously snapshotted regions back into
                    // device memory: a multi-region H2D. After the first
                    // failure the remaining regions' blocks are already in
                    // flight, so drain them to keep the channel clean and
                    // report the first failure.
                    let protocol = WireProtocol::Pipeline { block };
                    let mut resp = Response::ok();
                    for (virt, len) in &regions {
                        if resp.status != Status::Ok {
                            drain(&ep, &config, cn, data_tag, protocol.block_count(*len)).await;
                            continue;
                        }
                        match session.resolve_ptr(DevicePtr(*virt)) {
                            Err(st) => {
                                drain(&ep, &config, cn, data_tag, protocol.block_count(*len)).await;
                                resp = Response::err(st);
                            }
                            Ok(real) => {
                                let r = handle_h2d(
                                    &handle, &ep, &gpu, &pool, &config, &mut stats, cn, real, *len,
                                    protocol, data_tag,
                                )
                                .await;
                                if r.status != Status::Ok {
                                    resp = r;
                                }
                            }
                        }
                    }
                    resp
                }
                Request::PeerSend {
                    src,
                    len,
                    peer,
                    block,
                } => {
                    let valid = match session.resolve_ptr(src) {
                        Ok(real) => gpu
                            .mem()
                            .resolve(real, len)
                            .map(|_| real)
                            .map_err(|e| status_of_gpu_error(&e.into())),
                        Err(st) => Err(st),
                    };
                    match valid {
                        Err(st) => Response::err(st),
                        Ok(real) => {
                            stream_d2h(
                                &handle,
                                &ep,
                                &gpu,
                                &pool,
                                &config,
                                &mut stats,
                                Rank(peer as usize),
                                real,
                                len,
                                WireProtocol::Pipeline { block },
                                ac_tags::PEER_DATA,
                            )
                            .await;
                            Response::ok()
                        }
                    }
                }
                Request::PeerRecv {
                    dst,
                    len,
                    from,
                    block,
                } => {
                    let protocol = WireProtocol::Pipeline { block };
                    match session.resolve_ptr(dst) {
                        Err(st) => {
                            // The peer's data is already in flight; drain it
                            // to keep the channel clean.
                            drain(
                                &ep,
                                &config,
                                Rank(from as usize),
                                ac_tags::PEER_DATA,
                                protocol.block_count(len),
                            )
                            .await;
                            Response::err(st)
                        }
                        Ok(real) => {
                            handle_h2d(
                                &handle,
                                &ep,
                                &gpu,
                                &pool,
                                &config,
                                &mut stats,
                                Rank(from as usize),
                                real,
                                len,
                                protocol,
                                ac_tags::PEER_DATA,
                            )
                            .await
                        }
                    }
                }
                Request::Ping => Response::ok(),
                Request::Shutdown => {
                    out.send(&ep, cn, resp_tag, Response::ok()).await;
                    health.set_alive(false);
                    return stats;
                }
                _ => unreachable!("batchable requests handled above"),
            }
        };
        drop(exec_span);
        // Remember the outcome so a replayed request (lost response) is
        // answered without re-execution; timeouts and corrupt data phases
        // must re-execute.
        if framed && resp.status != Status::Timeout && resp.status != Status::Corrupt {
            completed.insert(cn, (op_id, resp));
        }
        let ack_span = tele
            .span(&handle, "daemon.ack", || {
                format!("{:?} to {}", resp.status, cn)
            })
            .op(op_id);
        out.send(&ep, cn, resp_tag, resp).await;
        drop(ack_span);
    }
}

/// Execute one [`Request::batchable`] command for `cn`'s session: the shared
/// path between ordinary request/response service and in-order stream
/// batches. Stream-virtual pointers (≥ [`STREAM_VIRT_BASE`]) are translated
/// through the session's region table on every use.
#[allow(clippy::too_many_arguments)]
async fn exec_batchable(
    handle: &SimHandle,
    ep: &Endpoint,
    gpu: &VirtualGpu,
    pool: &PinnedPool,
    config: &DaemonConfig,
    stats: &mut DaemonStats,
    session: &mut Session,
    cn: Rank,
    req: Request,
    data_tag: Tag,
) -> Response {
    match req {
        Request::MemAlloc { len } => match gpu.alloc(len).await {
            Ok(ptr) => Response {
                status: Status::Ok,
                value: ptr.0,
            },
            Err(e) => Response::err(status_of_gpu_error(&e)),
        },
        Request::MemAllocAt { virt, len } => {
            let span = len.max(1);
            let overlaps = session
                .regions
                .iter()
                .any(|r| virt < r.virt + r.len.max(1) && r.virt < virt + span);
            if virt < STREAM_VIRT_BASE || overlaps {
                return Response::err(Status::Malformed);
            }
            match gpu.alloc(len).await {
                Ok(real) => {
                    session.regions.push(StreamRegion { virt, len, real });
                    Response {
                        status: Status::Ok,
                        value: real.0,
                    }
                }
                Err(e) => Response::err(status_of_gpu_error(&e)),
            }
        }
        Request::MemFree { ptr } => {
            if ptr.0 >= STREAM_VIRT_BASE {
                // Stream-virtual frees must name a region base exactly.
                let Some(i) = session.regions.iter().position(|r| r.virt == ptr.0) else {
                    return Response::err(Status::InvalidPointer);
                };
                let region = session.regions.swap_remove(i);
                match gpu.free(region.real).await {
                    Ok(()) => Response::ok(),
                    Err(e) => Response::err(status_of_gpu_error(&e)),
                }
            } else {
                match gpu.free(ptr).await {
                    Ok(()) => Response::ok(),
                    Err(e) => Response::err(status_of_gpu_error(&e)),
                }
            }
        }
        Request::MemSet { ptr, len, byte } => match session.resolve_ptr(ptr) {
            Err(st) => Response::err(st),
            Ok(real) => match gpu.memset(real, len, byte).await {
                Ok(()) => Response::ok(),
                Err(e) => Response::err(status_of_gpu_error(&e)),
            },
        },
        Request::MemCpyH2D { dst, len, protocol } => match session.resolve_ptr(dst) {
            Err(st) => {
                // The payload is already in flight; drain it so the next
                // command's data phase pairs correctly.
                drain(ep, config, cn, data_tag, protocol.block_count(len)).await;
                Response::err(st)
            }
            Ok(real) => {
                handle_h2d(
                    handle, ep, gpu, pool, config, stats, cn, real, len, protocol, data_tag,
                )
                .await
            }
        },
        Request::KernelCreate { name } => {
            if gpu.registry().contains(&name) {
                session.kernel = Some(name);
                session.args.clear();
                Response::ok()
            } else {
                Response::err(Status::UnknownKernel)
            }
        }
        Request::KernelSetArgs { args } => {
            session.args = args;
            Response::ok()
        }
        Request::KernelRun { grid, block } => match session.kernel.clone() {
            None => Response::err(Status::NoKernelBound),
            Some(name) => {
                let args = match session.resolve_args(&session.args) {
                    Ok(args) => args,
                    Err(st) => return Response::err(st),
                };
                let cfg = LaunchConfig { grid, block };
                match gpu.launch(&name, cfg, &args).await {
                    Ok(()) => {
                        stats.kernels += 1;
                        Response::ok()
                    }
                    Err(e) => Response::err(status_of_gpu_error(&e)),
                }
            }
        },
        Request::Launch {
            name,
            args,
            grid,
            block,
        } => {
            if !gpu.registry().contains(&name) {
                return Response::err(Status::UnknownKernel);
            }
            // Mirror the 3-call path's session effects so fused and legacy
            // launches are interchangeable mid-session.
            session.kernel = Some(name.clone());
            session.args = args;
            let args = match session.resolve_args(&session.args) {
                Ok(args) => args,
                Err(st) => return Response::err(st),
            };
            let cfg = LaunchConfig { grid, block };
            match gpu.launch(&name, cfg, &args).await {
                Ok(()) => {
                    stats.kernels += 1;
                    Response::ok()
                }
                Err(e) => Response::err(status_of_gpu_error(&e)),
            }
        }
        _ => Response::err(Status::Malformed),
    }
}

/// A control message the daemon sends back to a front-end.
trait Reply {
    fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes;
}

impl Reply for Response {
    fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        Response::encode_into(self, buf)
    }
}

impl Reply for StreamAck {
    fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        StreamAck::encode_into(self, buf)
    }
}

/// Outgoing control-message path: responses and stream acks are encoded
/// through one reusable arena and each leaves as its own fabric message.
#[derive(Default)]
struct Replier {
    enc: EncodeBuf,
}

impl Replier {
    async fn send(&mut self, ep: &Endpoint, to: Rank, tag: Tag, msg: impl Reply) {
        let bytes = msg.encode_into(&mut self.enc);
        ep.fabric()
            .telemetry()
            .count("wire.encode_bytes", bytes.len() as u64);
        ep.send(to, tag, Payload::from_bytes(bytes)).await;
    }
}

/// One data-phase receive, bounded by `config.data_timeout` when set.
async fn recv_data(
    ep: &Endpoint,
    config: &DaemonConfig,
    src_rank: Rank,
    data_tag: Tag,
) -> Option<dacc_fabric::mpi::Envelope> {
    match config.data_timeout {
        Some(t) => ep.recv_timeout(Some(src_rank), Some(data_tag), t).await,
        None => Some(ep.recv(Some(src_rank), Some(data_tag)).await),
    }
}

/// One data-phase send, abandoned after `config.data_timeout` when set
/// (the receiver may have given up on this attempt; a wedged send would
/// hold its pinned-pool slot forever).
async fn send_data(
    ep: &Endpoint,
    config: &DaemonConfig,
    dst_rank: Rank,
    data_tag: Tag,
    payload: Payload,
) {
    match config.data_timeout {
        Some(t) => {
            ep.send_timeout(dst_rank, data_tag, payload, t).await;
        }
        None => ep.send(dst_rank, data_tag, payload).await,
    }
}

/// Discard the in-flight data messages of a rejected transfer, giving up
/// per message after `config.data_timeout` (lost blocks never arrive).
async fn drain(ep: &Endpoint, config: &DaemonConfig, src_rank: Rank, data_tag: Tag, nblocks: u64) {
    for _ in 0..nblocks {
        if recv_data(ep, config, src_rank, data_tag).await.is_none() {
            break;
        }
    }
}

/// Receive `len` bytes from `src_rank` (tagged `data_tag`) and move them to
/// device memory at `dst`.
#[allow(clippy::too_many_arguments)]
async fn handle_h2d(
    handle: &SimHandle,
    ep: &Endpoint,
    gpu: &VirtualGpu,
    pool: &PinnedPool,
    config: &DaemonConfig,
    stats: &mut DaemonStats,
    src_rank: Rank,
    dst: DevicePtr,
    len: u64,
    protocol: WireProtocol,
    data_tag: Tag,
) -> Response {
    let tele = ep.fabric().telemetry();
    let nblocks = protocol.block_count(len);
    // Pre-validate the destination and the block size. On failure the data
    // messages are already in flight; drain and discard them to keep the
    // channel clean. (The memory lock must not be held across the drain:
    // concurrent DMA tasks take the same lock, and the executor is
    // single-threaded.)
    let valid = gpu.mem().resolve(dst, len).map(|_| ());
    let block_ok = match protocol {
        WireProtocol::Pipeline { .. } => protocol.block_size(len) <= config.pinned_buffer,
        WireProtocol::Naive => true,
    };
    if let Err(e) = valid {
        drain(ep, config, src_rank, data_tag, nblocks).await;
        return Response::err(status_of_gpu_error(&e.into()));
    }
    if !block_ok {
        drain(ep, config, src_rank, data_tag, nblocks).await;
        return Response::err(Status::Malformed);
    }
    if len == 0 {
        return Response::ok();
    }
    stats.bytes_in += len;

    match protocol {
        WireProtocol::Naive => {
            // Receive the whole message into main memory first: the host
            // buffer must hold the complete payload (§V.A).
            let t_post = handle.now();
            let env = match recv_data(ep, config, src_rank, data_tag).await {
                Some(env) => env,
                None => return Response::err(Status::Timeout),
            };
            tele.span_at(
                "daemon.recv_block",
                || format!("naive {len}B from {src_rank}"),
                t_post,
                handle.now(),
                Some(len),
                None,
            );
            stats.host_buffer_peak = stats.host_buffer_peak.max(len);
            tele.count("wire.crc_bytes", env.payload.len());
            let data = match open_block(&env.payload) {
                Ok(p) => p,
                Err(_) => {
                    tele.count("daemon.corrupt_blocks", 1);
                    tele.instant(handle, "daemon.corrupt", || {
                        format!("naive {len}B from {src_rank} failed CRC")
                    });
                    return Response::err(Status::Corrupt);
                }
            };
            let _dma_span = tele
                .span(handle, "daemon.dma", || format!("naive {len}B h2d"))
                .bytes(len);
            match gpu.memcpy_h2d(&data, dst, HostMemKind::Pinned).await {
                Ok(()) => Response::ok(),
                Err(e) => Response::err(status_of_gpu_error(&e)),
            }
        }
        WireProtocol::Pipeline { .. } if config.data_timeout.is_some() => {
            // Fault-tolerant path: one bounded receive at a time (no
            // pre-posting) so a lost block aborts the operation instead of
            // wedging the daemon; the front-end sees `Timeout` and retries
            // the whole transfer under a fresh attempt tag.
            let block = protocol.block_size(len);
            stats.host_buffer_peak = stats
                .host_buffer_peak
                .max(config.pinned_buffer * config.pinned_depth as u64);
            let mut dmas = Vec::with_capacity(nblocks as usize);
            let mut offset = 0u64;
            let mut status = Status::Ok;
            while offset < len {
                let bs = block.min(len - offset);
                let slot = pool.acquire(bs).await;
                let t_post = handle.now();
                let env = match recv_data(ep, config, src_rank, data_tag).await {
                    Some(env) => env,
                    None => {
                        status = Status::Timeout;
                        break;
                    }
                };
                tele.span_at(
                    "daemon.recv_block",
                    || format!("block @{offset} ({bs}B) from {src_rank}"),
                    t_post,
                    handle.now(),
                    Some(bs),
                    None,
                );
                handle.delay(config.per_block_cost).await;
                tele.count("wire.crc_bytes", env.payload.len());
                let data = match open_block(&env.payload) {
                    Ok(p) => p,
                    Err(_) => {
                        // Damaged in flight: never DMA it. Keep receiving the
                        // remaining blocks so the channel stays clean, then
                        // report `Corrupt`; the front-end retries the whole
                        // transfer under a fresh attempt tag.
                        tele.count("daemon.corrupt_blocks", 1);
                        tele.instant(handle, "daemon.corrupt", || {
                            format!("block @{offset} ({bs}B) from {src_rank} failed CRC")
                        });
                        if status == Status::Ok {
                            status = Status::Corrupt;
                        }
                        drop(slot);
                        offset += bs;
                        continue;
                    }
                };
                let staging = pool.staging_cost(bs);
                let gpu = gpu.clone();
                let dptr = dst.offset(offset);
                let dma_tele = tele.clone();
                let dma_handle = handle.clone();
                dmas.push(handle.spawn("daemon.h2d.dma", async move {
                    let _dma_span = dma_tele
                        .span(&dma_handle, "daemon.dma", || {
                            format!("block @{offset} ({bs}B) h2d")
                        })
                        .bytes(bs);
                    let result = gpu.memcpy_h2d(&data, dptr, HostMemKind::Pinned).await;
                    drop(slot);
                    result
                }));
                if !staging.is_zero() {
                    handle.delay(staging).await;
                }
                offset += bs;
            }
            for dma in dmas {
                if let Err(e) = dma.await {
                    if status == Status::Ok {
                        status = status_of_gpu_error(&e);
                    }
                }
            }
            Response { status, value: 0 }
        }
        WireProtocol::Pipeline { .. } => {
            let block = protocol.block_size(len);
            stats.host_buffer_peak = stats
                .host_buffer_peak
                .max(config.pinned_buffer * config.pinned_depth as u64);
            let prepost = config.recv_prepost.max(1).min(config.pinned_depth);
            let mut dmas = Vec::with_capacity(nblocks as usize);
            // Receives in flight: posting a receive pre-issues the
            // rendezvous CTS, so `prepost` controls how much of the
            // handshake latency overlaps with earlier blocks' data.
            let mut inflight: std::collections::VecDeque<_> = std::collections::VecDeque::new();
            let mut post_offset = 0u64; // next block to post a receive for
            let mut offset = 0u64; // next block to complete
            let mut corrupt = false;
            while offset < len {
                while post_offset < len && inflight.len() < prepost {
                    let bs = block.min(len - post_offset);
                    // Back-pressure: no free pinned buffer, no receive.
                    let slot = pool.acquire(bs).await;
                    let recv = ep.irecv(Some(src_rank), Some(data_tag));
                    inflight.push_back((recv, slot, bs, handle.now()));
                    post_offset += bs;
                }
                let (recv, slot, bs, t_post) = inflight.pop_front().expect("inflight underflow");
                let env = recv.await;
                tele.span_at(
                    "daemon.recv_block",
                    || format!("block @{offset} ({bs}B) from {src_rank}"),
                    t_post,
                    handle.now(),
                    Some(bs),
                    None,
                );
                handle.delay(config.per_block_cost).await;
                tele.count("wire.crc_bytes", env.payload.len());
                let data = match open_block(&env.payload) {
                    Ok(p) => p,
                    Err(_) => {
                        tele.count("daemon.corrupt_blocks", 1);
                        tele.instant(handle, "daemon.corrupt", || {
                            format!("block @{offset} ({bs}B) from {src_rank} failed CRC")
                        });
                        corrupt = true;
                        drop(slot);
                        offset += bs;
                        continue;
                    }
                };
                let staging = pool.staging_cost(bs);
                let gpu = gpu.clone();
                let dptr = dst.offset(offset);
                let dma_tele = tele.clone();
                let dma_handle = handle.clone();
                dmas.push(handle.spawn("daemon.h2d.dma", async move {
                    let _dma_span = dma_tele
                        .span(&dma_handle, "daemon.dma", || {
                            format!("block @{offset} ({bs}B) h2d")
                        })
                        .bytes(bs);
                    let result = gpu.memcpy_h2d(&data, dptr, HostMemKind::Pinned).await;
                    drop(slot);
                    result
                }));
                // Non-GPUDirect: the staging memcpy occupies the daemon CPU
                // before the DMA can even be posted.
                if !staging.is_zero() {
                    handle.delay(staging).await;
                }
                offset += bs;
            }
            let mut status = if corrupt { Status::Corrupt } else { Status::Ok };
            for dma in dmas {
                if let Err(e) = dma.await {
                    if status == Status::Ok {
                        status = status_of_gpu_error(&e);
                    }
                }
            }
            Response { status, value: 0 }
        }
    }
}

/// Stream `len` device bytes at `src` to `dst_rank` (tagged `data_tag`).
#[allow(clippy::too_many_arguments)]
async fn stream_d2h(
    handle: &SimHandle,
    ep: &Endpoint,
    gpu: &VirtualGpu,
    pool: &PinnedPool,
    config: &DaemonConfig,
    stats: &mut DaemonStats,
    dst_rank: Rank,
    src: DevicePtr,
    len: u64,
    protocol: WireProtocol,
    data_tag: Tag,
) {
    if len == 0 {
        return;
    }
    let tele = ep.fabric().telemetry();
    stats.bytes_out += len;
    match protocol {
        WireProtocol::Naive => {
            stats.host_buffer_peak = stats.host_buffer_peak.max(len);
            let dma_span = tele
                .span(handle, "daemon.dma", || format!("naive {len}B d2h"))
                .bytes(len);
            let payload = gpu
                .memcpy_d2h(src, len, HostMemKind::Pinned)
                .await
                .expect("validated before streaming");
            drop(dma_span);
            let _send_span = tele
                .span(handle, "daemon.send_block", || {
                    format!("naive {len}B to {dst_rank}")
                })
                .bytes(len);
            tele.count("wire.crc_bytes", payload.len() + CRC_TRAILER_BYTES);
            send_data(ep, config, dst_rank, data_tag, seal_block(&payload)).await;
        }
        WireProtocol::Pipeline { .. } => {
            let block = protocol.block_size(len);
            stats.host_buffer_peak = stats
                .host_buffer_peak
                .max(config.pinned_buffer * config.pinned_depth as u64);
            let mut sends = Vec::new();
            let mut offset = 0u64;
            while offset < len {
                let bs = block.min(len - offset);
                let slot = pool.acquire(bs).await;
                let dma_span = tele
                    .span(handle, "daemon.dma", || {
                        format!("block @{offset} ({bs}B) d2h")
                    })
                    .bytes(bs);
                tele.count("wire.crc_bytes", bs + CRC_TRAILER_BYTES);
                let payload = seal_block(
                    &gpu.memcpy_d2h(src.offset(offset), bs, HostMemKind::Pinned)
                        .await
                        .expect("validated before streaming"),
                );
                drop(dma_span);
                let staging = pool.staging_cost(bs);
                if !staging.is_zero() {
                    handle.delay(staging).await;
                }
                handle.delay(config.per_block_cost).await;
                let ep = ep.clone();
                let config = *config;
                let send_tele = tele.clone();
                let send_handle = handle.clone();
                sends.push(handle.spawn("daemon.d2h.send", async move {
                    let _send_span = send_tele
                        .span(&send_handle, "daemon.send_block", || {
                            format!("block @{offset} ({bs}B) to {dst_rank}")
                        })
                        .bytes(bs);
                    send_data(&ep, &config, dst_rank, data_tag, payload).await;
                    drop(slot);
                }));
                offset += bs;
            }
            for s in sends {
                s.await;
            }
        }
    }
}
